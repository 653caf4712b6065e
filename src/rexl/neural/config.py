"""Model hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass, asdict

from ..io import check_config


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ff_mult: int = 4
    dropout: float = 0.1
    max_seq_len: int = 64
    seed: int = 13
    learning_rate: float = 3e-4
    weight_decay: float = 0.01
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.d_model <= 0 or self.n_layers <= 0 or self.n_heads <= 0:
            raise ValueError("d_model, n_layers and n_heads must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if self.max_seq_len <= 1:
            raise ValueError("max_seq_len must allow at least [CLS] plus one token")
        if self.ff_mult < 1:
            raise ValueError(f"ff_mult must be at least 1, got {self.ff_mult}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_ff(self) -> int:
        return self.ff_mult * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**check_config(data, cls, "model config"))
