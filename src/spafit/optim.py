"""AdamW with decoupled weight decay over an explicit trainable-parameter map.

Only the tensors handed to the optimizer ever move, so freeze masks are
enforced by construction: frozen parameters are simply never registered.
Weight decay applies uniformly to every registered parameter, biases
included, and the learning rate is constant (no warmup or schedule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OptimizerError
from .tensor import Tensor

# Best-performing learning rates: PEFT plans prefer the larger one, full
# fine-tuning the smaller.
DEFAULT_LR_PEFT = 6e-5
DEFAULT_LR_FULL_FT = 2e-5


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = DEFAULT_LR_PEFT
    batch_size: int = 16
    epochs: int = 10
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if not (0 <= self.betas[0] < 1 and 0 <= self.betas[1] < 1):
            raise ValueError(f"betas must lie in [0, 1), got {self.betas}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


class AdamW:
    """Bias-corrected AdamW restricted to the given named tensors."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = dict(params)
        self.cfg = cfg
        # First and second moments per registered parameter, and the step count.
        self.first = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.second = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.step_count = 0

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self) -> None:
        """One update from the gradients currently held by the parameters."""
        cfg = self.cfg
        b1, b2 = cfg.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for name, param in self.params.items():
            if param.grad is None:
                raise OptimizerError(f"missing gradient on trainable parameter {name!r}")
            g = param.grad
            m = self.first[name]
            v = self.second[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
            param.data = param.data - cfg.learning_rate * (
                update + cfg.weight_decay * param.data)
