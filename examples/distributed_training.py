"""Simulated multi-GPU data-parallel training with load balancing.

Demonstrates the paper's Section III-C machinery end to end:

1. a 4-rank data-parallel trainer with exact gradient allreduce (replicas
   provably stay in sync),
2. the load-balance sampler vs the default sampler (per-rank workload CoV),
3. the Eq. 14 learning-rate scaling for the enlarged global batch,
4. the alpha-beta ring-allreduce cost model projecting strong scaling to
   the paper's 4-32 GPU cluster.

Run:  python examples/distributed_training.py
"""

from __future__ import annotations

import numpy as np

from repro.comm import ClusterSpec, ComputeModel, model_iteration
from repro.data import (
    DefaultSampler,
    LoadBalanceSampler,
    generate_mptrj,
    imbalance_study,
    split_dataset,
)
from repro.model import CHGNetConfig, FastCHGNet
from repro.train import DistributedConfig, DistributedTrainer


def main() -> None:
    print("Generating corpus...")
    entries = generate_mptrj(n_structures=48, seed=3, max_atoms=10)
    splits = split_dataset(entries, seed=0)

    print("\n1) Load-balance sampler vs default (4 ranks, Fig. 9):")
    features = splits.train.feature_numbers
    for name, cls in (("default", DefaultSampler), ("load-balance", LoadBalanceSampler)):
        sampler = cls(features, global_batch_size=16, world_size=4, seed=0)
        cov = imbalance_study(sampler, epochs=2)["cov"].mean()
        print(f"   {name:12s} sampler: mean CoV of per-rank work = {cov:.3f}")

    print("\n2) Data-parallel training on 4 simulated ranks (Eq. 14 LR scaling):")
    config = DistributedConfig(world_size=4, global_batch_size=16, epochs=2, scale_lr=True)
    trainer = DistributedTrainer(
        lambda: FastCHGNet(np.random.default_rng(5)), splits.train, config
    )
    print(f"   scaled LR for global batch {config.global_batch_size}: {trainer.optimizers[0].lr:.2e}")
    steps = trainer.train()
    print(f"   {len(steps)} steps; loss {steps[0].loss:.4f} -> {steps[-1].loss:.4f}")
    print(f"   replicas in sync after training: {trainer.replicas_in_sync()}")
    rank_times = np.mean([s.rank_compute_seconds for s in steps], axis=0)
    print(f"   mean per-rank compute seconds: {np.round(rank_times, 3)}")

    print("\n3) Projected strong scaling on the paper's cluster (Fig. 10a):")
    compute = ComputeModel(rate=0.9e-6, overhead=0.02)  # A100 anchor, see benches
    spec = ClusterSpec(gpus_per_node=4)
    grad_bytes = sum(p.data.nbytes for p in trainer.model.parameters())
    rng = np.random.default_rng(0)
    mean_feat = float(np.mean(features))
    base = None
    for world in (4, 8, 16, 32):
        loads = np.full(world, mean_feat * (2048 // world))
        point = model_iteration(
            loads, compute, grad_bytes, world, spec, jitter_sigma=0.06, rng=rng
        )
        base = base or point
        print(
            f"   {world:2d} GPUs: iter {point.iteration_time:.3f}s "
            f"speedup {point.speedup(base):.2f}x efficiency {point.efficiency(base) * 100:.0f}%"
        )


if __name__ == "__main__":
    main()
