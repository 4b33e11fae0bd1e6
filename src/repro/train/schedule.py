"""Learning-rate schedules: cosine annealing + the Eq. 14 scaling rule.

Large-batch training with the default learning rate under-updates the
weights (Fig. 6, red curves); scaling the initial LR linearly with batch
size restores convergence (blue curves)::

    initLR = batchsize / k * 0.0003        (Eq. 14, k = 128)
"""

from __future__ import annotations

import math

from repro.train.optimizer import Optimizer

BASE_LR = 3e-4
LR_SCALE_K = 128
#: Floor of the trainer's cosine decay as a fraction of the initial LR: the
#: last epochs still move the weights instead of stalling at zero.
ETA_MIN_FRAC = 0.01


def scaled_learning_rate(batch_size: int, k: int = LR_SCALE_K, base_lr: float = BASE_LR) -> float:
    """The paper's linear LR scaling rule (Eq. 14)."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    return batch_size / k * base_lr


class CosineAnnealingLR:
    """Per-step cosine decay from the initial LR to ``eta_min``.

    The trainer decays to ``ETA_MIN_FRAC`` of the initial LR.
    """

    def __init__(self, optimizer: Optimizer, total_steps: int, eta_min: float = 0.0) -> None:
        if total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {total_steps}")
        self.optimizer = optimizer
        self.total_steps = total_steps
        self.eta_min = eta_min
        self.base_lr = optimizer.lr
        self.step_count = 0

    def step(self) -> float:
        """Advance one step; returns the new learning rate."""
        self.step_count = min(self.step_count + 1, self.total_steps)
        frac = self.step_count / self.total_steps
        lr = self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (1.0 + math.cos(math.pi * frac))
        self.optimizer.lr = lr
        return lr
