"""Ablation — interaction-block dependency elimination (Eq. 10 vs Eq. 11).

The paper claims breaking the v->e->a update chain "does not affect
accuracy" while enabling concurrent updates and GatedMLP packing.  This
bench trains two otherwise-identical models — reference wiring
(PARALLEL_BASIS level) vs dependency-eliminated wiring (FUSED level) — from
the same initial weights on the same data, and compares training loss and
test MAEs.

Shape to reproduce: the two runs converge to the same accuracy regime
(final losses within a small factor of each other).
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import emit, format_table
from repro.bench.workloads import scaled, training_splits
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.train import DistributedConfig, DistributedTrainer, evaluate


def _train(level: OptLevel, state: dict) -> tuple[list[float], object]:
    splits = training_splits()
    model = CHGNetModel(CHGNetConfig(opt_level=level), np.random.default_rng(0))
    model.load_state_dict(state)
    trainer = DistributedTrainer(
        lambda: model,
        splits.train,
        DistributedConfig(
            world_size=1, global_batch_size=8, epochs=scaled(4, minimum=3), learning_rate=1e-3
        ),
    )
    trainer.train()
    result, _ = evaluate(model, splits.test)
    return [r.train_loss for r in trainer.history], result


def test_ablation_dependency_elimination(benchmark):
    # identical initial weights for both wirings (shared parameter layout)
    init = CHGNetModel(
        CHGNetConfig(opt_level=OptLevel.PARALLEL_BASIS), np.random.default_rng(0)
    ).state_dict()

    def run():
        ref = _train(OptLevel.PARALLEL_BASIS, init)  # Eq. 10 wiring
        elim = _train(OptLevel.FUSED, init)  # Eq. 11 wiring (+ packing)
        return ref, elim

    (ref_losses, ref_eval), (elim_losses, elim_eval) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    table = format_table(
        ["wiring", "final train loss", "E MAE (meV/atom)", "F MAE (meV/A)"],
        [
            [
                "Eq. 10 (reference deps)",
                f"{ref_losses[-1]:.4f}",
                f"{ref_eval.energy_mae * 1e3:.1f}",
                f"{ref_eval.force_mae * 1e3:.1f}",
            ],
            [
                "Eq. 11 (dependency eliminated)",
                f"{elim_losses[-1]:.4f}",
                f"{elim_eval.energy_mae * 1e3:.1f}",
                f"{elim_eval.force_mae * 1e3:.1f}",
            ],
        ],
        title="Ablation — dependency elimination does not affect accuracy",
    )
    emit("ablation_dependency", table)

    # Same accuracy regime: final losses within 1.5x of each other and both
    # strictly improving over their starting loss.
    assert elim_losses[-1] < 1.5 * ref_losses[-1] + 1e-6
    assert ref_losses[-1] < 1.5 * elim_losses[-1] + 1e-6
    # training makes (noise-tolerant) progress under both wirings
    assert ref_losses[-1] < 1.2 * ref_losses[0]
    assert elim_losses[-1] < 1.2 * elim_losses[0]
