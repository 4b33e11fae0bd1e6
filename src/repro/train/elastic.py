"""Elastic fault-tolerant training: kill, shrink (or replace), resume.

:func:`run_elastic` drives a :class:`~repro.train.distributed.DistributedTrainer`
under its :class:`~repro.comm.faults.FaultPlan` to completion — a fresh
trainer or one resumed from a checkpoint.  When an injected
:class:`~repro.comm.faults.RankFailure` surfaces, the driver

1. prices the failure (steps lost since the last checkpoint, wall-clock
   resume cost),
2. picks the new world size — the failed rank is either *replaced*
   (``shrink=False``: same world size, which preserves bit-identity with an
   uninterrupted reference run) or the world *shrinks* to the largest
   divisor of the global batch size that the survivors can staff
   (:func:`largest_feasible_world`; per-rank sharding of a global batch
   does not change the averaged gradient, so training continues exactly
   where it left off, just summed in a different rank order), and
3. rebuilds the trainer from the checkpoint via
   :meth:`DistributedTrainer.resume`, which constructs a fresh trainer for
   the new config: its bucket sampler cuts the same blocks into shards for
   the new world size and its gradient buckets re-plan their layouts,
   because both are pure functions of the dataset and the config.  The
   rebuilt trainer keeps the run's validation set, epoch history and epoch
   hooks.

The fault plan is shared across restarts; kills are consumed when they
fire, so the resumed run replays the fatal step without dying again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.comm.faults import RankFailure
from repro.train.distributed import DistributedTrainer

#: Kills one elastic run recovers from before the next one is fatal.
MAX_FAILURES = 8


@dataclass
class FailureEvent:
    """One priced rank failure and its recovery."""

    rank: int  #: the rank that died
    step: int  #: global step the failure surfaced at
    world_before: int
    world_after: int
    steps_lost: int  #: steps past the restored checkpoint that must be redone
    resume_seconds: float  #: wall-clock cost of rebuilding from the checkpoint


@dataclass
class ElasticResult:
    """Outcome of :func:`run_elastic`: the final trainer plus the failure log."""

    trainer: DistributedTrainer
    failures: list[FailureEvent] = field(default_factory=list)


def largest_feasible_world(global_batch_size: int, survivors: int) -> int:
    """Largest world size ``<= survivors`` dividing ``global_batch_size``.

    The samplers require the global batch to split evenly across ranks, so
    an elastic shrink lands on the nearest feasible world below the
    survivor count (1 always qualifies).
    """
    if global_batch_size < 1:
        raise ValueError(f"global_batch_size must be >= 1, got {global_batch_size}")
    if survivors < 1:
        raise ValueError(f"need at least one survivor, got {survivors}")
    for world in range(min(survivors, global_batch_size), 0, -1):
        if global_batch_size % world == 0:
            return world
    return 1


def run_elastic(
    trainer: DistributedTrainer,
    *,
    checkpoint_path: str,
    checkpoint_every: int = 1,
    shrink: bool = True,
) -> ElasticResult:
    """Train ``trainer`` to completion, recovering from each injected kill.

    The faults come from the plan ``trainer`` was built with; each rebuild
    reuses its model factory, datasets and config.  ``shrink=True`` drops
    the dead rank and re-shards for the surviving world; ``shrink=False``
    replaces it (same world size — the mode whose final weights are
    bit-identical to an uninterrupted run).  Recovery is attempted at most
    :data:`MAX_FAILURES` times; the fatal ``RankFailure`` propagates beyond
    that, or when no feasible world remains.
    """
    plan = trainer.comm.fault_plan
    trainer.save_checkpoint(checkpoint_path)
    failures: list[FailureEvent] = []
    while True:
        try:
            trainer.train(checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every)
            return ElasticResult(trainer=trainer, failures=failures)
        except RankFailure as failure:
            if len(failures) >= MAX_FAILURES:
                raise
            cfg = trainer.config
            world_before = cfg.world_size
            if shrink:
                survivors = world_before - 1
                if survivors < 1:
                    raise
                world_after = largest_feasible_world(cfg.global_batch_size, survivors)
            else:
                world_after = world_before
            t0 = time.perf_counter()
            resumed = DistributedTrainer.resume(
                checkpoint_path,
                trainer.model_factory,
                trainer.train_dataset,
                replace(cfg, world_size=world_after),
                plan,
                val_dataset=trainer.val_dataset,
            )
            resume_seconds = time.perf_counter() - t0
            resumed.history, resumed.epoch_hooks = trainer.history, trainer.epoch_hooks
            trainer.close()
            trainer = resumed
            failures.append(
                FailureEvent(
                    rank=failure.rank,
                    step=failure.step,
                    world_before=world_before,
                    world_after=world_after,
                    steps_lost=failure.step - trainer.global_step,
                    resume_seconds=resume_seconds,
                )
            )
