"""Loss functions: the logit-space formulas training optimises, and the
probability-space cross entropies of the public loss contract.

Each cross entropy has one definition.  The probability-space losses clamp
into (1e-12, 1 - 1e-12), so that hard 0/1 inputs stay finite, map the
probabilities to logits (log p - log(1 - p) for the binary loss, log p
for the categorical one) and call the training formula.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

CLAMP_EPS = 1e-12


def _clamp(p: np.ndarray | float) -> np.ndarray | float:
    return np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)


def binary_cross_entropy(prob, target) -> float:
    p = _clamp(np.asarray(prob, dtype=np.float64))
    return float(np.mean(bce_with_logits(np.log(p) - np.log1p(-p), target)))


def categorical_cross_entropy(probs: Sequence[float], index: int) -> float:
    p = _clamp(np.asarray(probs, dtype=np.float64))
    return float(-log_softmax(np.log(p))[index])


# logit-space formulas used inside training steps


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_with_logits(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    return np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
