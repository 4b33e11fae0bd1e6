"""Serving engine: bit-identity, shared-cache rebinding, deadline batching.

The contract under test (ISSUE 4): tier-batched, ghost-padded, replayed
predictions are bit-identical to eager per-request inference; one shared
program cache serves every worker through parameter rebinding; partial
batches flush within the max-wait deadline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.mptrj import generate_mptrj
from repro.graph.crystal_graph import build_graph
from repro.md.calculator import ModelCalculator
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.serve import InferenceEngine, percentile
from repro.tensor.compile import InferenceCompiler, SharedProgramCache

CFG = CHGNetConfig(
    atom_fea_dim=8,
    bond_fea_dim=8,
    angle_fea_dim=8,
    num_radial=5,
    angular_order=2,
    hidden_dim=8,
)


def _jitter(model: CHGNetModel, seed: int) -> CHGNetModel:
    """Un-zero the zero-initialized readout heads.

    A freshly constructed model predicts exactly zero energies/forces
    (zero-init final layers), which would make bit-equality assertions on
    those fields vacuous.
    """
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return model


@pytest.fixture(scope="module")
def model():
    return _jitter(
        CHGNetModel(CFG.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(2)),
        seed=200,
    )


@pytest.fixture(scope="module")
def graphs():
    entries = generate_mptrj(14, seed=9, max_atoms=10)
    return [
        build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond) for e in entries
    ]


def _eager_baseline(model, graphs):
    engine = InferenceEngine(model, n_workers=1, compile=False, max_batch_structs=1)
    return engine.predict_many(graphs)


def _equal(a, b) -> bool:
    return (
        a.energy_per_atom == b.energy_per_atom
        and a.energy == b.energy
        and np.array_equal(a.forces, b.forces)
        and np.array_equal(a.stress, b.stress)
        and np.array_equal(a.magmom, b.magmom)
    )


class TestBitIdentity:
    def test_batched_compiled_equals_eager_per_request(self, model, graphs):
        """Mixed-size stream: every served prediction is bit-equal to the
        solo eager prediction of the same structure."""
        baseline = _eager_baseline(model, graphs)
        # the comparison is non-vacuous: jittered heads predict real values
        assert any(np.abs(p.forces).max() > 0 for p in baseline)
        assert any(p.energy_per_atom != 0 for p in baseline)
        engine = InferenceEngine(model, n_workers=2, compile=True, max_batch_structs=4)
        served = engine.predict_many(graphs)
        assert len(served) == len(baseline)
        assert all(_equal(a, b) for a, b in zip(served, baseline))
        # multi-structure batches actually formed (not per-request fallback)
        assert any(p.batch_structs > 1 for p in served)

    def test_second_pass_replays_and_stays_identical(self, model, graphs):
        engine = InferenceEngine(model, n_workers=2, compile=True, max_batch_structs=4)
        engine.predict_many(graphs)
        snap_cold = engine.snapshot()
        served = engine.predict_many(graphs)
        snap_warm = engine.snapshot()
        assert snap_warm["captures"] == snap_cold["captures"]  # no recompiles
        assert snap_warm["replays"] > snap_cold["replays"]
        baseline = _eager_baseline(model, graphs)
        assert all(_equal(a, b) for a, b in zip(served, baseline))

    def test_eager_batched_engine_also_identical(self, model, graphs):
        """compile=False with batching still matches per-request eager (the
        row-stable kernel guarantee, without padding/replay)."""
        baseline = _eager_baseline(model, graphs)
        engine = InferenceEngine(model, n_workers=1, compile=False, max_batch_structs=4)
        served = engine.predict_many(graphs)
        assert all(_equal(a, b) for a, b in zip(served, baseline))

    def test_derivative_force_model_served(self, graphs):
        """Serving a no-heads model (forces as energy derivatives) works and
        stays bit-identical — this exercises the backward VJP matmuls."""
        model = _jitter(
            CHGNetModel(
                CFG.with_level(OptLevel.PARALLEL_BASIS), np.random.default_rng(3)
            ),
            seed=300,
        )
        subset = graphs[:6]
        baseline = _eager_baseline(model, subset)
        engine = InferenceEngine(model, n_workers=1, compile=True, max_batch_structs=3)
        served = engine.predict_many(subset)
        assert all(_equal(a, b) for a, b in zip(served, baseline))

    def test_order_follows_inputs(self, model, graphs):
        engine = InferenceEngine(model, n_workers=2, compile=True, max_batch_structs=4)
        served = engine.predict_many(graphs)
        n_atoms = [g.num_atoms for g in graphs]
        assert [p.forces.shape[0] for p in served] == n_atoms

    def test_accepts_crystals(self, model):
        entries = generate_mptrj(3, seed=4, max_atoms=6)
        crystals = [e.crystal for e in entries]
        engine = InferenceEngine(model, n_workers=1, compile=True, max_batch_structs=2)
        served = engine.predict_many(crystals)
        baseline = _eager_baseline(model, crystals)
        assert all(_equal(a, b) for a, b in zip(served, baseline))

    def test_empty_stream(self, model):
        engine = InferenceEngine(model, compile=True)
        assert engine.predict_many([]) == []


class TestSharedCacheRebinding:
    def test_one_capture_serves_all_workers(self, model, graphs):
        """A uniform stream is captured once and replayed by every worker."""
        stream = [graphs[0]] * 12
        engine = InferenceEngine(model, n_workers=3, compile=True, max_batch_structs=4)
        served = engine.predict_many(stream)
        snap = engine.snapshot()
        assert snap["captures"] == 1
        assert snap["replays"] == snap["batches"] - 1
        assert {p.worker for p in served} == {0, 1, 2}
        # every worker's replay produced the same bits for the same structure
        ref = served[0]
        for p in served[1:]:
            assert p.energy_per_atom == ref.energy_per_atom
            assert np.array_equal(p.forces, ref.forces)
            assert np.array_equal(p.stress, ref.stress)
            assert np.array_equal(p.magmom, ref.magmom)

    def test_rebinding_uses_each_compilers_own_weights(self, graphs):
        """Two compilers share a cache but wrap different weights: the
        second replays the first's program yet must produce *its* model's
        eager outputs (parameter rebinding, not weight leakage)."""
        model_a = CHGNetModel(
            CFG.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(10)
        )
        model_b = CHGNetModel(
            CFG.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(11)
        )
        cache = SharedProgramCache()
        comp_a = InferenceCompiler(model_a, cache=cache)
        comp_b = InferenceCompiler(model_b, cache=cache)
        from repro.graph.batching import collate

        batch = collate([graphs[0], graphs[1]])
        out_a = {k: v.copy() for k, v in comp_a.run(batch).items()}
        out_b = {k: v.copy() for k, v in comp_b.run(batch).items()}
        assert comp_a.stats.captures == 1 and comp_b.stats.captures == 0
        assert comp_b.stats.replays == 1
        eager_b = _eager_baseline(model_b, [graphs[0], graphs[1]])
        nb0 = graphs[0].num_atoms
        assert np.array_equal(out_b["forces"][:nb0], eager_b[0].forces)
        assert np.array_equal(out_b["magmom"][:nb0], eager_b[0].magmom)
        # different weights genuinely produce different outputs (magmom is
        # not zero-initialized, unlike the force/stress readouts)
        assert not np.array_equal(out_a["magmom"], out_b["magmom"])

    def test_refresh_weights_rebinds_updated_model(self, graphs):
        model = CHGNetModel(
            CFG.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(12)
        )
        engine = InferenceEngine(model, n_workers=2, compile=True, max_batch_structs=4)
        stream = graphs[:8]
        engine.predict_many(stream)
        captures_before = engine.snapshot()["captures"]
        # fine-tune-style update of the source weights
        for p in model.parameters():
            p.data *= 1.01
        engine.publish_weights()
        served = engine.predict_many(stream)
        baseline = _eager_baseline(model, stream)
        assert all(_equal(a, b) for a, b in zip(served, baseline))
        # same shapes -> programs survived the weight update
        assert engine.snapshot()["captures"] == captures_before


class TestDeadlineBatching:
    def test_partial_batch_flushes_after_deadline(self, model, graphs):
        engine = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=8, max_wait=0.5
        )
        a = engine.submit(graphs[0], now=0.0)
        b = engine.submit(graphs[0], now=0.1)
        assert engine.poll(a, now=0.3) is None  # deadline not reached
        assert engine.pending == 2
        pred = engine.poll(a, now=0.6)  # 0.6 - 0.0 >= 0.5: flush partial
        assert pred is not None and pred.batch_structs == 2
        assert engine.poll(b, now=0.6) is not None
        assert engine.pending == 0

    def test_full_batch_flushes_immediately(self, model, graphs):
        engine = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=2, max_wait=100.0
        )
        ids = [engine.submit(graphs[0], now=0.0) for _ in range(2)]
        assert engine.pending == 0  # full group dispatched on submit
        assert all(engine.poll(i, now=0.0) is not None for i in ids)

    def test_async_results_bit_equal_eager(self, model, graphs):
        baseline = _eager_baseline(model, graphs[:4])
        engine = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=2, max_wait=0.0
        )
        ids = [engine.submit(g, now=float(i)) for i, g in enumerate(graphs[:4])]
        preds = [engine.poll(i, now=10.0) for i in ids]
        assert all(p is not None for p in preds)
        assert all(_equal(a, b) for a, b in zip(preds, baseline))

    def test_latency_accounts_queue_wait(self, model, graphs):
        engine = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=8, max_wait=1.0
        )
        rid = engine.submit(graphs[0], now=0.0)
        pred = engine.poll(rid, now=2.0)
        assert pred is not None
        assert pred.latency >= 2.0  # waited in the queue from t=0 to t=2

    def test_flush_drains_everything(self, model, graphs):
        engine = InferenceEngine(
            model, n_workers=2, compile=False, max_batch_structs=8, max_wait=100.0
        )
        ids = [engine.submit(g, now=0.0) for g in graphs[:5]]
        assert engine.pending == 5
        engine.flush(now=0.0)
        assert engine.pending == 0
        assert all(engine.poll(i) is not None for i in ids)


class TestEngineValidation:
    def test_rejects_bad_args(self, model):
        with pytest.raises(ValueError):
            InferenceEngine(model, n_workers=0)
        with pytest.raises(ValueError):
            InferenceEngine(model, max_batch_structs=0)
        with pytest.raises(ValueError):
            InferenceEngine(model, max_wait=-1.0)

    def test_percentile(self):
        assert percentile([], 50) == 0.0
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_stats_shape(self, model, graphs):
        engine = InferenceEngine(model, n_workers=1, compile=True, max_batch_structs=4)
        engine.predict_many(graphs[:6])
        snap = engine.snapshot()
        for key in (
            "requests",
            "batches",
            "hit_rate",
            "latency_p50",
            "latency_p95",
            "captures",
            "replays",
        ):
            assert key in snap
        assert snap["requests"] == 6
        assert snap["latency_p95"] >= snap["latency_p50"] >= 0.0


class TestCalculatorIntegration:
    def test_calculate_many_matches_calculate(self, model):
        entries = generate_mptrj(6, seed=13, max_atoms=8)
        crystals = [e.crystal for e in entries]
        calc = ModelCalculator(model, compile=True)
        singles = [
            ModelCalculator(model).calculate(c) for c in crystals
        ]
        many = calc.calculate_many(crystals, batch_structs=3)
        assert len(many) == len(singles)
        for got, ref in zip(many, singles):
            assert got.energy == ref.energy
            assert np.array_equal(got.forces, ref.forces)
            assert np.array_equal(got.stress, ref.stress)
            assert np.array_equal(got.magmom, ref.magmom)

    def test_engine_reused_across_calls(self, model):
        entries = generate_mptrj(4, seed=14, max_atoms=8)
        crystals = [e.crystal for e in entries]
        calc = ModelCalculator(model, compile=True)
        calc.calculate_many(crystals, batch_structs=2)
        engine = calc._engine
        calc.calculate_many(crystals, batch_structs=2)
        assert calc._engine is engine  # warm cache persists across frames

    def test_weight_update_between_calls_reaches_all_workers(self):
        """Fine-tuning between calculate_many calls must not leave worker
        replicas serving stale weights."""
        model = _jitter(
            CHGNetModel(
                CFG.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(21)
            ),
            seed=400,
        )
        entries = generate_mptrj(6, seed=15, max_atoms=8)
        crystals = [e.crystal for e in entries]
        calc = ModelCalculator(model, compile=True)
        calc.calculate_many(crystals, batch_structs=2, n_workers=2)
        for p in model.parameters():
            p.data *= 1.05
        updated = calc.calculate_many(crystals, batch_structs=2, n_workers=2)
        fresh = [ModelCalculator(model).calculate(c) for c in crystals]
        for got, ref in zip(updated, fresh):
            assert np.array_equal(got.magmom, ref.magmom)
            assert np.array_equal(got.forces, ref.forces)
