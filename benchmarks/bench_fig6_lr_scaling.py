"""Fig. 6 — large-batch convergence: default LR vs the Eq. 14 scaling rule.

Paper: at global batch 2048 the default LR (3e-4) under-updates and
converges to E/F/S/M = 24 meV/atom / 90 meV/A / 0.543 GPa / 48 m-muB; the
scaled LR (Eq. 14) reaches 15 / 72 / 0.476 / 35.

Scaled-down reproduction: "large batch" is 32 with the scaling anchor k
chosen so the small-batch regime (k = 8) plays the role the paper's k = 128
plays against batch 2048 — scaled LR = (32/8) * 3e-4 = 1.2e-3 vs default
3e-4.  Shape to reproduce: the scaled-LR run converges to lower MAEs on
every property.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import emit, format_table
from repro.bench.workloads import scaled, training_splits
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.train import DistributedConfig, DistributedTrainer
from repro.train.schedule import scaled_learning_rate

LARGE_BATCH = 32
SCALE_K = 8  # the paper's k=128, re-anchored to this substrate's batch sizes


def _run(lr: float) -> list[dict]:
    splits = training_splits()
    model = CHGNetModel(
        CHGNetConfig(opt_level=OptLevel.DECOMPOSE_FS), np.random.default_rng(3)
    )
    trainer = DistributedTrainer(
        lambda: model,
        splits.train,
        DistributedConfig(
            world_size=1,
            global_batch_size=LARGE_BATCH,
            epochs=scaled(6, minimum=3),
            learning_rate=lr,
            seed=0,
        ),
    )
    trainer.train()
    return [
        {
            "epoch": r.epoch,
            "energy": r.train_energy_mae,
            "force": r.train_force_mae,
            "stress": r.train_stress_mae,
            "magmom": r.train_magmom_mae,
        }
        for r in trainer.history
    ]


def test_fig6_lr_scaling(benchmark):
    default_lr = 3e-4
    scaled_lr = scaled_learning_rate(LARGE_BATCH, k=SCALE_K)

    def run_both():
        return _run(default_lr), _run(scaled_lr)

    hist_default, hist_scaled = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    for label, hist in (("default LR (red)", hist_default), (f"scaled LR={scaled_lr:.1e} (blue)", hist_scaled)):
        last = hist[-1]
        rows.append(
            [
                label,
                f"{last['energy'] * 1e3:.1f}",
                f"{last['force'] * 1e3:.1f}",
                f"{last['stress']:.4f}",
                f"{last['magmom'] * 1e3:.0f}",
            ]
        )
    table = format_table(
        ["run", "Energy (meV/atom)", "Force (meV/A)", "Stress", "Magmom (m-muB)"],
        rows,
        title=(
            "Fig. 6 — large-batch convergence after final epoch "
            "(paper: default 24/90/0.543/48 vs scaled 15/72/0.476/35)"
        ),
    )
    series = ["\nper-epoch energy MAE (meV/atom):", "epoch  default  scaled"]
    for d, s in zip(hist_default, hist_scaled):
        series.append(f"{d['epoch']:5d}  {d['energy'] * 1e3:7.1f}  {s['energy'] * 1e3:7.1f}")
    emit("fig6_lr_scaling", table + "\n```" + "\n".join(series) + "\n```")

    # Shape: the scaled learning rate converges to a lower energy and
    # force MAE than the default LR at large batch (the paper's claim).
    assert hist_scaled[-1]["energy"] < hist_default[-1]["energy"]
    assert hist_scaled[-1]["force"] <= hist_default[-1]["force"] * 1.1
