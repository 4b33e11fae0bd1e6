"""Distributed-step benchmark: eager ranks vs compiled per-rank replay.

Measures the compiled distributed path (ISSUE 3) end to end — per-rank
:class:`~repro.tensor.compile.StepCompiler` replay over bucket-sampled,
tier-padded shards with the liveness-ordered bucketed gradient flush —
against the fully eager distributed trainer on the same datasets:

* ``medium`` — the headline workload: training-shaped shards where tape
  bookkeeping dominates and replay pays off most;
* ``large`` — bigger graphs where NumPy kernel time dominates; reported as
  the honest bound of replay gains on this substrate.

Per workload the benchmark reports the distributed step throughput (eager
vs compiled, whole synchronized step including flush + optimizer), the
padding waste of the sampler's planned tier shapes, the capture/recompile
count against the warm-started tier budget, the modeled exposed-comm
fraction of the bucketed flush, and a bitwise-equality check: a compiled
run (with validating replays) against an eager run through the identical
padded pipeline must produce bit-equal replica weights and step losses.

Writes ``BENCH_distributed_step.json`` (and a markdown table) under
``benchmarks/out/``.  ``--smoke`` shrinks sizes/repeats so the whole run
takes seconds; the tier-1 suite executes that mode end-to-end.

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed_step.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.bench.reporting import emit, format_table, output_dir
from repro.comm import ClusterSpec
from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.graph.batching import workload_cost
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.train import DistributedConfig, DistributedTrainer

WORKLOADS = {
    "medium": {
        "structures": 16,
        "max_atoms": 4,
        "global_batch": 8,
        "world_size": 2,
        "dim": 8,
    },
    "large": {
        "structures": 16,
        "max_atoms": 8,
        "global_batch": 8,
        "world_size": 4,
        "dim": 16,
    },
}


def _config(dim: int) -> CHGNetConfig:
    return CHGNetConfig(
        atom_fea_dim=dim,
        bond_fea_dim=dim,
        angle_fea_dim=dim,
        num_radial=7,
        angular_order=3,
        hidden_dim=dim,
    )


def _factory(dim: int):
    return lambda: CHGNetModel(
        _config(dim).with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(1)
    )


def _dist_config(workload: dict, **overrides) -> DistributedConfig:
    base = dict(
        world_size=workload["world_size"],
        global_batch_size=workload["global_batch"],
        epochs=2,
        learning_rate=1e-4,
        seed=0,
    )
    base.update(overrides)
    return DistributedConfig(**base)


def _steps_per_s(step_fn, n_steps: int) -> float:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(n_steps):
            step_fn()
        best = min(best, (time.perf_counter() - t0) / n_steps)
    return 1.0 / best


def _padding_waste(trainer: DistributedTrainer) -> float:
    """Ghost-row share of the padded workload over one epoch of shards."""
    padded_total = 0
    real_total = 0
    for shards in trainer.loader:
        for batch in shards:
            dims = (
                batch.num_atoms,
                batch.num_edges,
                batch.num_short_edges,
                batch.num_angles,
            )
            padded_total += workload_cost(*dims)
            pi = batch.pad_info
            real = dims if pi is None else (
                pi.num_atoms,
                pi.num_edges,
                pi.num_short_edges,
                pi.num_angles,
            )
            real_total += workload_cost(*real)
    if padded_total == 0:
        return 0.0
    return 1.0 - real_total / padded_total


def _bitwise_check(ds: StructureDataset, workload: dict) -> bool:
    """Compiled (validating) vs eager on the identical padded pipeline."""
    factory = _factory(workload["dim"])
    compiled = DistributedTrainer(
        factory, ds, _dist_config(workload, compile=True, validate_replay=True)
    )
    compiled.train()
    eager = DistributedTrainer(
        factory,
        ds,
        _dist_config(
            workload,
            compile=False,
            bucket_sampler=True,
            pad_shards=True,
            memoize_shards=True,
        ),
    )
    eager.train()
    state_c = compiled.model.state_dict()
    state_e = eager.model.state_dict()
    weights_equal = all(np.array_equal(state_c[k], state_e[k]) for k in state_c)
    losses_equal = all(
        a.loss == b.loss for a, b in zip(compiled.steps, eager.steps)
    )
    return (
        weights_equal
        and losses_equal
        and compiled.replicas_in_sync()
        and eager.replicas_in_sync()
    )


def bench_workload(name: str, workload: dict, n_steps: int) -> dict:
    entries = generate_mptrj(
        workload["structures"], seed=3, max_atoms=workload["max_atoms"]
    )
    ds = StructureDataset(entries, memoize_batches=True)
    factory = _factory(workload["dim"])

    bitwise_equal = _bitwise_check(ds, workload)

    eager = DistributedTrainer(factory, ds, _dist_config(workload, compile=False))
    eager_shards = next(iter(eager.loader))
    eager.train_step(eager_shards)  # warm
    eager_sps = _steps_per_s(lambda: eager.train_step(eager_shards), n_steps)

    compiled = DistributedTrainer(factory, ds, _dist_config(workload, compile=True))
    shards = next(iter(compiled.loader))
    compiled.train_step(shards)  # capture
    compiled.train_step(shards)  # warm replay
    compiled_sps = _steps_per_s(lambda: compiled.train_step(shards), n_steps)

    # Recompile budget: one epoch over every block; captures must not exceed
    # the planned shape count per rank.
    budget_trainer = DistributedTrainer(factory, ds, _dist_config(workload, compile=True))
    budget_trainer.train()
    stats = budget_trainer.compile_stats()
    n_tiers = len(budget_trainer.sampler.tier_targets)
    tier_budget = n_tiers * workload["world_size"]

    overlap = budget_trainer.modeled_overlap(ClusterSpec())
    exposed_frac = (
        overlap.exposed_comm / overlap.total_time if overlap.total_time > 0 else 0.0
    )
    return {
        "workload": name,
        "world_size": workload["world_size"],
        "eager_steps_per_s": eager_sps,
        "compiled_steps_per_s": compiled_sps,
        "speedup": compiled_sps / eager_sps,
        "padding_waste": _padding_waste(budget_trainer),
        "captures": stats["captures"],
        "replays": stats["replays"],
        "eager_fallbacks": stats["eager_fallbacks"],
        "warm_tiers": n_tiers,
        "tier_budget": tier_budget,
        "within_tier_budget": stats["captures"] <= tier_budget,
        "exposed_comm_fraction": exposed_frac,
        "bitwise_equal": bitwise_equal,
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="seconds-long run")
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    names = ["medium"] if args.smoke else ["medium", "large"]
    n_steps = 3 if args.smoke else 10
    results = {
        "mode": "smoke" if args.smoke else "full",
        "workloads": {
            name: bench_workload(name, WORKLOADS[name], n_steps) for name in names
        },
    }
    medium = results["workloads"]["medium"]
    results["medium_speedup"] = medium["speedup"]
    results["medium_bitwise_equal"] = medium["bitwise_equal"]

    out_path = args.out or (output_dir() / "BENCH_distributed_step.json")
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=2)

    rows = [
        [
            r["workload"],
            str(r["world_size"]),
            f"{r['eager_steps_per_s']:.2f}",
            f"{r['compiled_steps_per_s']:.2f}",
            f"{r['speedup']:.2f}x",
            f"{r['padding_waste'] * 100:.1f}%",
            f"{r['captures']}/{r['tier_budget']}",
            f"{r['exposed_comm_fraction'] * 100:.2f}%",
            "bit-equal" if r["bitwise_equal"] else "DIVERGED",
        ]
        for r in results["workloads"].values()
    ]
    emit(
        "distributed_step",
        format_table(
            [
                "workload",
                "ranks",
                "eager steps/s",
                "compiled steps/s",
                "speedup",
                "pad waste",
                "captures/budget",
                "exposed comm",
                "replay check",
            ],
            rows,
            title="Compiled distributed training step (per-rank replay + bucketed flush)",
        ),
    )
    print(f"wrote {out_path}")
    return results


if __name__ == "__main__":
    main()
