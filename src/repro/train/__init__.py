"""Training harness: loss, optimizers, schedules, the trainer, metrics.

Fault tolerance lives here too: CRC-validated atomic checkpoints
(:mod:`repro.train.checkpoint`), mid-epoch resume on the distributed
trainer, and the elastic kill-shrink-resume driver
(:mod:`repro.train.elastic`).
"""

from repro.train.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.train.distributed import (
    DistributedConfig,
    DistributedTrainer,
    EpochRecord,
    GradientBuckets,
    StepStats,
)
from repro.train.elastic import (
    ElasticResult,
    FailureEvent,
    largest_feasible_world,
    run_elastic,
)
from repro.train.loss import CompositeLoss, LossBreakdown
from repro.train.metrics import EvalResult, ParityData, evaluate, mae, r_squared
from repro.train.optimizer import Adam, Optimizer
from repro.train.schedule import (
    BASE_LR,
    LR_SCALE_K,
    CosineAnnealingLR,
    scaled_learning_rate,
)
from repro.train.trainer import ServingTrainer

__all__ = [
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "DistributedConfig",
    "DistributedTrainer",
    "EpochRecord",
    "GradientBuckets",
    "StepStats",
    "ElasticResult",
    "FailureEvent",
    "largest_feasible_world",
    "run_elastic",
    "CompositeLoss",
    "LossBreakdown",
    "EvalResult",
    "ParityData",
    "evaluate",
    "mae",
    "r_squared",
    "Adam",
    "Optimizer",
    "BASE_LR",
    "LR_SCALE_K",
    "CosineAnnealingLR",
    "scaled_learning_rate",
    "ServingTrainer",
]
