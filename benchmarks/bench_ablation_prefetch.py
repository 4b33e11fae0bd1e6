"""Ablation — data prefetch (Section III-C "Other Optimization").

The paper transfers the next mini-batch on a separate stream while the
current one trains.  Here a :class:`PrefetchQueue` around the loader's epoch
collates the next batch in a background thread while the trainer computes;
the bench measures one epoch of FastCHGNet training with and without
prefetch.

Shape to reproduce: the prefetched epoch is never slower, and approaches
compute-bound time (batch preparation hidden).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import emit, format_table
from repro.bench.workloads import training_splits
from repro.data import DefaultSampler, ShardedLoader
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.runtime import PrefetchQueue
from repro.train import Adam, CompositeLoss


def _epoch_seconds(prefetch: bool) -> float:
    splits = training_splits()
    model = CHGNetModel(CHGNetConfig(opt_level=OptLevel.DECOMPOSE_FS), np.random.default_rng(1))
    loss_fn = CompositeLoss()
    optimizer = Adam(model.parameters(), lr=3e-4)
    sampler = DefaultSampler(splits.train.feature_numbers, 8, world_size=1)
    steps = ShardedLoader(splits.train, sampler).iter_epoch(0)
    if prefetch:
        steps = PrefetchQueue(steps)
    t0 = time.perf_counter()
    for (batch,) in steps:
        model.zero_grad()
        out = model.forward(batch, training=True)
        loss_fn(out, batch).loss.backward()
        optimizer.step()
    return time.perf_counter() - t0


def test_ablation_prefetch(benchmark):
    def run():
        return _epoch_seconds(prefetch=False), _epoch_seconds(prefetch=True)

    t_sync, t_prefetch = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["loader", "epoch time (s)"],
        [
            ["synchronous", f"{t_sync:.2f}"],
            ["prefetch (double-buffered)", f"{t_prefetch:.2f}"],
            ["saving", f"{(1 - t_prefetch / t_sync) * 100:.1f}%"],
        ],
        title="Ablation — data prefetch vs synchronous loading (1 epoch)",
    )
    emit("ablation_prefetch", table)
    # never significantly slower (thread handoff overhead bounded)
    assert t_prefetch < t_sync * 1.15
