"""Strong/weak scaling performance model (Fig. 10).

Iteration time on ``p`` ranks is modeled as::

    t(p) = max_r compute(load_r)  +  exposed_comm(p)

* per-rank compute is linear in the rank's feature number (atoms + bonds +
  angles), with the rate calibrated from *measured* single-rank training
  steps;
* the synchronization term is the max-over-ranks (stragglers stall the
  allreduce — what the load-balance sampler mitigates);
* exposed communication comes from the bucketed-overlap simulation over the
  alpha-beta ring model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.cost_model import ClusterSpec, simulate_overlap


@dataclass
class ComputeModel:
    """Linear per-rank compute model: ``seconds = rate * features + overhead``."""

    rate: float  # seconds per feature
    overhead: float  # fixed per-step seconds (kernel launches, Python, ...)

    @classmethod
    def calibrate(cls, feature_numbers: np.ndarray, seconds: np.ndarray) -> "ComputeModel":
        """Least-squares fit from measured (features, seconds) pairs."""
        feature_numbers = np.asarray(feature_numbers, dtype=float)
        seconds = np.asarray(seconds, dtype=float)
        if feature_numbers.size < 2:
            raise ValueError("calibration needs at least two measurements")
        a = np.stack([feature_numbers, np.ones_like(feature_numbers)], axis=1)
        coef, *_ = np.linalg.lstsq(a, seconds, rcond=None)
        rate = max(float(coef[0]), 1e-12)
        overhead = max(float(coef[1]), 0.0)
        return cls(rate=rate, overhead=overhead)

    def seconds_for(self, features: float) -> float:
        return self.rate * float(features) + self.overhead


@dataclass
class ScalingPoint:
    """One point of a scaling curve."""

    world_size: int
    iteration_time: float
    compute_time: float
    exposed_comm: float

    def speedup(self, base: "ScalingPoint") -> float:
        return base.iteration_time / self.iteration_time

    def efficiency(self, base: "ScalingPoint") -> float:
        """Strong-scaling efficiency relative to ``base``."""
        return self.speedup(base) * base.world_size / self.world_size


def model_iteration(
    rank_loads: np.ndarray,
    compute: ComputeModel,
    grad_bytes: int,
    world_size: int,
    spec: ClusterSpec,
    overlap_buckets: int = 8,
    jitter_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
    bucket_bytes: np.ndarray | None = None,
    bucket_ready_frac: np.ndarray | None = None,
) -> ScalingPoint:
    """Model one training iteration given per-rank feature loads.

    ``jitter_sigma`` adds lognormal per-rank timing noise (OS scheduling,
    kernel variance, clock effects).  Synchronous data parallelism waits for
    the *slowest* rank, so the expected straggler penalty grows with the
    rank count — a real-cluster effect on top of load imbalance.

    ``bucket_bytes``/``bucket_ready_frac`` feed the overlap simulation the
    trainer's real liveness-ordered bucket layout (payload per bucket and
    the fraction of the backward pass completed when each bucket's gradients
    are written) instead of the uniform spread.
    """
    rank_loads = np.asarray(rank_loads, dtype=float)
    if rank_loads.shape != (world_size,):
        raise ValueError(f"need one load per rank, got {rank_loads.shape}")
    times = np.array([compute.seconds_for(load) for load in rank_loads])
    if jitter_sigma > 0.0:
        rng = rng or np.random.default_rng(0)
        times = times * rng.lognormal(mean=0.0, sigma=jitter_sigma, size=world_size)
    compute_time = float(times.max())
    # The allreduce overlaps the backward portion of compute (~2/3 of a
    # training step is backward).
    backward_time = 2.0 / 3.0 * compute_time
    ready_times = None
    if bucket_ready_frac is not None:
        ready_times = [backward_time * float(f) for f in bucket_ready_frac]
    overlap = simulate_overlap(
        backward_time=backward_time,
        grad_bytes=grad_bytes,
        world_size=world_size,
        spec=spec,
        n_buckets=overlap_buckets,
        bucket_bytes=bucket_bytes,
        ready_times=ready_times,
    )
    return ScalingPoint(
        world_size=world_size,
        iteration_time=compute_time + overlap.exposed_comm,
        compute_time=compute_time,
        exposed_comm=overlap.exposed_comm,
    )
