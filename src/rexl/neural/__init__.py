from .config import ModelConfig
from .losses import binary_cross_entropy, categorical_cross_entropy
from .model import (
    ABLATE_GATE,
    ABLATE_RATIONALE,
    CheckpointError,
    EncoderOutput,
    Model,
    Prediction,
    SequenceTooLongError,
)
from .optim import AdamW

__all__ = [
    "ABLATE_GATE",
    "ABLATE_RATIONALE",
    "AdamW",
    "CheckpointError",
    "EncoderOutput",
    "Model",
    "ModelConfig",
    "Prediction",
    "SequenceTooLongError",
    "binary_cross_entropy",
    "categorical_cross_entropy",
]
