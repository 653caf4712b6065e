"""AdamW with a linear warmup then linear decay schedule.

Weight decay is decoupled from the gradient moments and skipped for
biases and normalisation parameters, following the decay flags in the
model's parameter declarations.
"""

from __future__ import annotations

import numpy as np


def linear_schedule(step: int, total_steps: int, warmup_steps: int) -> float:
    """Multiplier in [0, 1]; step counts from 1."""
    if total_steps <= 0:
        return 1.0
    if warmup_steps > 0 and step <= warmup_steps:
        return step / warmup_steps
    rest = total_steps - warmup_steps
    if rest <= 0:
        return 1.0
    return max(0.0, (total_steps - step) / rest)


_WARMUP_FRAC = 0.1
_BETAS = (0.9, 0.999)
_EPS = 1e-8


class AdamW:
    def __init__(self, specs, lr: float, weight_decay: float, total_steps: int):
        self.lr = lr
        self.weight_decay = weight_decay
        self.total_steps = total_steps
        self.warmup_steps = int(round(total_steps * _WARMUP_FRAC))
        self.step_count = 0
        self.decay_flags = {name: decay for name, _shape, decay, _init in specs}
        self.m = {name: np.zeros(shape) for name, shape, _d, _i in specs}
        self.v = {name: np.zeros(shape) for name, shape, _d, _i in specs}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = _BETAS
        lr_t = self.lr * linear_schedule(t, self.total_steps, self.warmup_steps)
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + _EPS)
            if self.decay_flags.get(name, False) and self.weight_decay > 0.0:
                update = update + self.weight_decay * p
            p -= lr_t * update
