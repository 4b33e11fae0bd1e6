"""Compile-once training steps: capture, replay, padding, guards.

The contract under test (ISSUE 2): a captured tape replayed on rebound
batch/parameter data is **bit-identical** to the eager step — losses,
predictions and every parameter gradient — across shape buckets and all
OptLevels, and every guard failure falls back to eager.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.graph.batching import (
    PadInfo,
    TierShapes,
    bucket_size,
    feasible_targets_for_counts,
)
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.structures import cscl
from repro.md import ModelCalculator
from repro.runtime import device_profile
from repro.tensor import Tensor, clip, maximum, minimum, mul, sum as tsum, where_le
from repro.tensor.compile import (
    CompileStats,
    InferenceCompiler,
    StepCompiler,
    program_signature,
    total_stats,
)
from repro.train.loss import CompositeLoss
from oracles import check_grad, check_second_grad, pad_to_bucket

pytestmark = []

CFG = CHGNetConfig(
    atom_fea_dim=8,
    bond_fea_dim=8,
    angle_fea_dim=8,
    num_radial=5,
    angular_order=2,
    hidden_dim=8,
)


@pytest.fixture(scope="module")
def dataset():
    return StructureDataset(generate_mptrj(14, seed=3, max_atoms=6))


def _model(level: OptLevel) -> CHGNetModel:
    return CHGNetModel(CFG.with_level(level), np.random.default_rng(1))


def _counts(batch) -> tuple[int, int, int, int]:
    return (batch.num_atoms, batch.num_edges, batch.num_short_edges, batch.num_angles)


def _bucket_targets(batch) -> tuple[int, int, int, int]:
    """``batch``'s shape under an empty tier table: its own bucketed counts,
    ghost-feasible (its raw counts when every one is on its boundary)."""
    labeled = batch.energy_per_atom is not None
    return TierShapes().target(batch.num_structs, labeled, _counts(batch))


def _eager_step(model, loss_fn, batch):
    model.zero_grad()
    output = model.forward(batch, training=True)
    breakdown = loss_fn(output, batch)
    breakdown.loss.backward()
    grads = [None if p.grad is None else p.grad.data.copy() for p in model.parameters()]
    return breakdown, grads


class TestReplayBitIdentical:
    """Replay == eager bit-for-bit, per OptLevel and across batches."""

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_replay_matches_eager_across_batches_and_param_updates(self, level, dataset):
        model = _model(level)
        loss_fn = CompositeLoss()
        comp = StepCompiler(model, loss_fn)
        batch_a = dataset.batch([0, 1, 2, 3])
        batch_b = dataset.batch([3, 2, 1, 0])  # same totals, permuted content

        comp.step(pad_to_bucket(batch_a))  # capture
        assert comp.stats.captures == 1

        # Mutate parameters (as the optimizer would) and replay on both the
        # original and a permuted batch; compare against fresh eager runs on
        # the identical (padded) batches.
        rng = np.random.default_rng(9)
        for p in comp.params[:5]:
            p.data += rng.normal(scale=1e-3, size=p.shape)
        for batch in (batch_a, batch_b):
            padded = pad_to_bucket(batch)
            replay_bd = comp.step(padded)
            replay_grads = [
                None if p.grad is None else p.grad.data.copy() for p in comp.params
            ]
            eager_bd, eager_grads = _eager_step(model, loss_fn, padded)
            assert float(replay_bd.loss.data) == float(eager_bd.loss.data)
            assert replay_bd.energy_mae == eager_bd.energy_mae
            assert replay_bd.force_mae == eager_bd.force_mae
            for rg, eg in zip(replay_grads, eager_grads):
                if eg is None:
                    assert rg is None
                else:
                    assert np.array_equal(rg, eg)
        # batch_b shares batch_a's program on batched-basis levels; the
        # serial Algorithm 1 keys programs by the per-sample offset tables.
        if model.config.batched_basis:
            assert comp.stats.captures == 1
            assert comp.stats.replays == 2
        assert comp.stats.eager_fallbacks == 0

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_validating_compiler_accepts_many_buckets(self, level, dataset):
        """``validate`` re-runs eager per replay and asserts bitwise equality."""
        model = _model(level)
        comp = StepCompiler(model, CompositeLoss())
        comp.validate = True
        tiers = TierShapes()
        for idx in ([0, 1], [2, 3], [0, 1], [4, 5, 6], [2, 3], [0, 1]):
            comp.step(tiers.pad(dataset.batch(idx), model.config.batched_basis))
        assert comp.stats.replays >= 2  # validation raised on any divergence

    def test_unbucketed_replay_matches_plain_eager(self, dataset):
        """An unpadded batch: the program is keyed by its exact shape, no
        padding at all (a compiler replays the batch it is given)."""
        model = _model(OptLevel.DECOMPOSE_FS)
        loss_fn = CompositeLoss()
        comp = StepCompiler(model, loss_fn)
        batch = dataset.batch([0, 1, 2])
        comp.step(batch)
        replay_bd = comp.step(batch)
        replay_grads = [p.grad.data.copy() for p in comp.params if p.grad is not None]
        eager_bd, eager_grads = _eager_step(model, loss_fn, batch)
        assert float(replay_bd.loss.data) == float(eager_bd.loss.data)
        eager_grads = [g for g in eager_grads if g is not None]
        assert all(np.array_equal(a, b) for a, b in zip(replay_grads, eager_grads))

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_program_shrinks_below_tape_and_eager(self, level, dataset):
        """The passes pay off in counts, not just in bits: the program holds
        fewer instructions than the captured tape, and a replay launches
        fewer kernels than the eager step on the same padded batch."""
        model = _model(level)
        loss_fn = CompositeLoss()
        batch = pad_to_bucket(dataset.batch([0, 1, 2, 3]))
        with device_profile() as eager:
            _eager_step(model, loss_fn, batch)
        comp = StepCompiler(model, loss_fn)
        comp.step(batch)  # capture
        with device_profile() as replay:
            comp.step(batch)
        assert comp.stats.replays == 1
        prog = comp.last_program
        assert prog.n_instrs < prog.n_instrs_captured
        assert replay.kernels.count < eager.kernels.count


class TestOptLevelLadder:
    """Fig. 8 in counts: each OptLevel adds one optimization, and each one
    alone cuts the kernels a training step launches, eager and replayed."""

    @staticmethod
    def _step_kernels(level: OptLevel, batch) -> tuple[int, int]:
        model = _model(level)
        loss_fn = CompositeLoss()
        batch = pad_to_bucket(batch)
        with device_profile() as eager:
            _eager_step(model, loss_fn, batch)
        comp = StepCompiler(model, loss_fn)
        comp.step(batch)  # capture
        with device_profile() as replay:
            comp.step(batch)
        return eager.kernels.count, replay.kernels.count

    @pytest.mark.parametrize(
        "before, after",
        list(zip(list(OptLevel), list(OptLevel)[1:])),
        ids=lambda level: level.name,
    )
    def test_each_level_launches_fewer_kernels(self, before, after, dataset):
        batch = dataset.batch([0, 1, 2, 3])
        eager_before, replay_before = self._step_kernels(before, batch)
        eager_after, replay_after = self._step_kernels(after, batch)
        assert eager_after < eager_before
        assert replay_after < replay_before


class TestTierSharing:
    def test_replay_rebinds_real_counts_across_shared_program(self, dataset):
        """A program captured on one batch must replay bit-identically on a
        batch with *different real counts* padded to the same canonical
        shapes (the masked-loss denominators must rebind, not freeze)."""
        from repro.graph.batching import pad_batch

        model = _model(OptLevel.DECOMPOSE_FS)
        loss_fn = CompositeLoss()
        first = dataset.batch([0, 1, 2, 3])
        second = dataset.batch([4, 5, 6, 3])
        # Shared canonical shape: elementwise max of both batches' targets,
        # made feasible for each (mirrors the compiler's tier merge).
        union = tuple(
            max(a, b) for a, b in zip(_bucket_targets(first), _bucket_targets(second))
        )
        union = feasible_targets_for_counts(
            _counts(second), feasible_targets_for_counts(_counts(first), union)
        )
        pad_first = pad_batch(first, *union)
        pad_second = pad_batch(second, *union)
        assert pad_first is not None and pad_second is not None
        assert pad_first.pad_info != pad_second.pad_info  # different real counts
        comp = StepCompiler(model, loss_fn)
        comp.validate = True
        comp.step(pad_first)  # capture
        comp.step(pad_second)  # replay with rebound pad counts, validated
        assert comp.stats.captures == 1 and comp.stats.replays == 1

    def test_tier_merge_stays_ghost_feasible(self, dataset):
        """Merging a canonical tier shape with a batch whose own targets
        need no angle padding must re-apply the feasibility bumps instead
        of crashing in pad_batch."""
        model = _model(OptLevel.DECOMPOSE_FS)
        comp = StepCompiler(model, CompositeLoss())
        batch = dataset.batch([0, 1, 2])
        dims = (
            batch.num_atoms,
            batch.num_edges,
            batch.num_short_edges,
            batch.num_angles,
        )
        # Poison every tier's canonical shape with angle padding but zero
        # short-edge slack relative to this batch.
        from repro.graph.batching import workload_tier

        tier = workload_tier(dims)
        key = (batch.num_structs + 1, True, tier)
        tiers = TierShapes()
        tiers._shapes[key] = (dims[0] + 1, dims[1], dims[2], dims[3] + 4)
        padded = tiers.pad(batch, True)
        assert padded.pad_info is not None
        assert padded.num_short_edges >= dims[2] + 2
        assert padded.num_edges >= dims[1] + 2
        comp.step(padded)  # full step still works on the merged shapes


class TestGuards:
    def test_loss_reconfiguration_invalidates_programs(self, dataset):
        model = _model(OptLevel.DECOMPOSE_FS)
        loss_fn = CompositeLoss()
        comp = StepCompiler(model, loss_fn)
        padded = pad_to_bucket(dataset.batch([0, 1, 2, 3]))
        comp.step(padded)
        comp.step(padded)
        assert comp.stats.replays == 1
        loss_fn.delta = 0.05  # op-sequence-relevant change after capture
        bd = comp.step(padded)
        assert comp.stats.guard_invalidations == 1
        assert comp.stats.captures == 2  # recaptured under the new guard
        eager_bd, _ = _eager_step(model, loss_fn, padded)
        assert float(bd.loss.data) == float(eager_bd.loss.data)

    def test_bind_shape_mismatch_falls_back_to_eager(self, dataset):
        model = _model(OptLevel.DECOMPOSE_FS)
        comp = StepCompiler(model, CompositeLoss())
        batch = pad_to_bucket(dataset.batch([0, 1, 2, 3]))
        comp.step(batch)
        (prog,) = comp.cache.programs.values()
        # Corrupt one recorded external shape: bind must refuse and report.
        prog._shapes = ((9999,), *prog._shapes[1:])
        bd = comp.step(batch)
        assert comp.stats.eager_fallbacks == 1
        assert not comp.cache.programs  # corrupted program evicted
        assert np.isfinite(float(bd.loss.data))

    @pytest.mark.parametrize(
        "field, rows",
        [
            ("edge_src", "num_atoms"),
            ("angle_center", "num_atoms"),
            ("angle_e1", "num_short_edges"),
            ("short_idx", "num_edges"),
        ],
    )
    @pytest.mark.parametrize("bad", ["past_end", "negative"])
    def test_out_of_range_index_raises_before_any_kernel(self, dataset, field, rows, bad):
        """Replayed gathers take their rows unchecked, so a bind range-checks
        every index array it rebinds: a corrupted batch raises, and no
        kernel runs."""
        import dataclasses

        from repro.runtime import kernel_stats

        comp = InferenceCompiler(_model(OptLevel.DECOMPOSE_FS))
        batch = dataset.batch([0, 1, 2])
        comp.run(batch)  # capture
        idx = getattr(batch, field).copy()
        idx[len(idx) // 2] = getattr(batch, rows) if bad == "past_end" else -1
        corrupted = dataclasses.replace(batch, **{field: idx})
        with kernel_stats() as ks, pytest.raises(IndexError, match=field):
            comp.run(corrupted)
        assert ks.count == 0 and comp.stats.replays == 0
        comp.run(batch)  # the program is still good for a sound batch
        assert comp.stats.replays == 1

    def test_training_program_checks_segment_sum_indices(self, dataset):
        import dataclasses

        comp = StepCompiler(_model(OptLevel.FUSED), CompositeLoss())
        batch = dataset.batch([0, 1, 2])
        comp.step(batch)
        bounds = {spec: rows for _slot, rows, spec in comp.last_program._index_bounds}
        assert bounds[("field", "angle_e1")] == batch.num_short_edges
        assert bounds[("field", "edge_dst")] == batch.num_atoms
        idx = batch.angle_e1.copy()
        idx[0] = batch.num_short_edges
        with pytest.raises(IndexError, match="angle_e1"):
            comp.step(dataclasses.replace(batch, angle_e1=idx))

    def test_unsupported_op_is_negative_cached(self, dataset):
        from repro.tensor import where

        class WhereLoss(CompositeLoss):
            def __call__(self, output, batch):
                breakdown = super().__call__(output, batch)
                pred = output.energy_per_atom
                # Raw `where` takes a data-dependent condition constant —
                # exactly what a captured tape cannot rebind.
                breakdown.loss = tsum(where(pred.data > 0, mul(breakdown.loss, 1.0), breakdown.loss))
                return breakdown

        model = _model(OptLevel.DECOMPOSE_FS)
        comp = StepCompiler(model, WhereLoss())
        batch = pad_to_bucket(dataset.batch([0, 1, 2, 3]))
        comp.step(batch)
        assert comp.stats.unsupported == 1
        assert comp.stats.eager_fallbacks == 1
        comp.step(batch)  # signature is negative-cached: no capture retry
        assert comp.stats.unsupported == 1
        assert comp.stats.eager_fallbacks == 2
        assert comp.stats.captures == 0


class TestPadding:
    def test_bucket_size_monotone_and_bounded(self):
        prev = 0
        for n in range(0, 4000, 7):
            b = bucket_size(n)
            assert b >= n
            assert b >= prev  # monotone
            if n > 8:
                assert b <= n * 1.25 + 16  # bounded slack (<= ~25%)
            prev = b

    def test_pad_preserves_real_prefix_and_ghost_consistency(self, dataset):
        batch = dataset.batch([0, 1, 2])
        padded = pad_to_bucket(batch)
        assert padded.pad_info == PadInfo(
            batch.num_structs,
            batch.num_atoms,
            batch.num_edges,
            batch.num_short_edges,
            batch.num_angles,
        )
        pi = padded.pad_info
        assert padded.num_structs == batch.num_structs + 1
        assert np.array_equal(padded.species[: pi.num_atoms], batch.species)
        assert np.array_equal(padded.edge_src[: pi.num_edges], batch.edge_src)
        assert np.array_equal(padded.forces[: pi.num_atoms], batch.forces)
        # ghost indices are in range and attached to the ghost structure
        assert padded.edge_src[pi.num_edges :].min() >= pi.num_atoms
        assert (padded.atom_sample[pi.num_atoms :] == batch.num_structs).all()
        assert padded.short_idx.max() < padded.num_edges
        assert padded.angle_e1.max() < padded.num_short_edges
        # offsets stay monotone
        for table in (padded.atom_offsets, padded.edge_offsets, padded.angle_offsets):
            assert (np.diff(table) >= 0).all()
        # already-padded batches pass through
        assert pad_to_bucket(padded) is padded

    @pytest.mark.parametrize("level", [OptLevel.BASELINE, OptLevel.DECOMPOSE_FS])
    def test_padded_loss_and_grads_match_unpadded(self, level, dataset):
        """Masked loss on the padded batch equals the unpadded loss to rounding."""
        model = _model(level)
        loss_fn = CompositeLoss()
        batch = dataset.batch([0, 1, 2])
        bd0, grads0 = _eager_step(model, loss_fn, batch)
        bd1, grads1 = _eager_step(model, loss_fn, pad_to_bucket(batch))
        assert float(bd1.loss.data) == pytest.approx(float(bd0.loss.data), rel=1e-10)
        assert bd1.energy_mae == pytest.approx(bd0.energy_mae, rel=1e-10)
        assert bd1.magmom_mae == pytest.approx(bd0.magmom_mae, rel=1e-10)
        for g0, g1 in zip(grads0, grads1):
            if g0 is None:
                assert g1 is None
            else:
                assert np.allclose(g0, g1, rtol=1e-9, atol=1e-12)


class TestPadCache:
    def test_same_targets_hit_same_object(self, dataset):
        from repro.graph.batching import pad_batch

        batch = dataset.batch([0, 1, 2])
        targets = _bucket_targets(batch)
        a = pad_batch(batch, *targets)
        b = pad_batch(batch, *targets)
        assert a is not None and a is b
        # pad_to_bucket funnels through the same cache
        assert pad_to_bucket(dataset.batch([0, 1, 2])) is not None

    def test_distinct_targets_distinct_objects(self, dataset):
        from repro.graph.batching import pad_batch

        batch = dataset.batch([0, 1, 2])
        t1 = _bucket_targets(batch)
        t2 = feasible_targets_for_counts(_counts(batch), tuple(t + 16 for t in t1))
        a = pad_batch(batch, *t1)
        b = pad_batch(batch, *t2)
        assert a is not b
        assert (b.num_atoms, b.num_edges) == (t2[0], t2[1])

    def test_label_attachment_invalidates(self, dataset):
        """Padding before labels are attached must not serve the labelless
        pad afterwards (collate assigns labels post-construction)."""
        from repro.graph.batching import collate, pad_batch

        graphs = [dataset.graphs[0], dataset.graphs[1]]
        batch = collate(graphs)  # no labels
        targets = _bucket_targets(batch)
        unlabeled = pad_batch(batch, *targets)
        assert unlabeled.energy_per_atom is None
        labeled_src = dataset.batch([0, 1])
        batch.energy_per_atom = labeled_src.energy_per_atom
        batch.forces = labeled_src.forces
        batch.stress = labeled_src.stress
        batch.magmom = labeled_src.magmom
        labeled = pad_batch(batch, *targets)
        assert labeled is not unlabeled
        assert labeled.energy_per_atom is not None

    def test_infeasible_targets_not_cached(self, dataset):
        from repro.graph.batching import pad_batch

        batch = dataset.batch([0, 1])
        assert pad_batch(batch, batch.num_atoms, 0, 0, 0) is None
        assert not batch._pad_cache

    def test_lru_cap_bounds_cache(self, dataset):
        from repro.graph.batching import _PAD_CACHE_CAP, pad_batch

        batch = dataset.batch([0, 1])
        base = _counts(batch)
        for k in range(_PAD_CACHE_CAP + 3):
            targets = feasible_targets_for_counts(base, tuple(c + 8 * (k + 1) for c in base))
            assert pad_batch(batch, *targets) is not None
        assert len(batch._pad_cache) == _PAD_CACHE_CAP


class TestWarmStart:
    def test_warm_started_tiers_capture_once_and_never_grow(self, dataset):
        """Seeding a caller's tier shapes from dataset stats makes the
        first pass over shuffled batches one capture per tier, replay
        afterwards."""
        model = _model(OptLevel.DECOMPOSE_FS)
        index_sets = ([0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 3, 5])
        entries = []
        for idx in index_sets:
            b = dataset.batch(idx)
            entries.append(
                (
                    b.num_structs,
                    True,
                    (b.num_atoms, b.num_edges, b.num_short_edges, b.num_angles),
                )
            )
        comp = StepCompiler(model, CompositeLoss())
        comp.validate = True
        tiers = TierShapes()
        n_tiers = tiers.seed(entries, model.config.batched_basis)
        assert n_tiers >= 1
        canonical_before = dict(tiers._shapes)
        for _ in range(2):
            for idx in index_sets:
                comp.step(tiers.pad(dataset.batch(idx), model.config.batched_basis))
        assert comp.stats.captures <= n_tiers
        assert comp.stats.eager_fallbacks == 0
        # warm-started shapes were exact: nothing grew
        for key, val in canonical_before.items():
            assert tiers._shapes[key] == val

    def test_warm_start_noop_for_serial_or_unbucketed(self, dataset):
        entry = [(4, True, (40, 400, 60, 200))]
        serial = StepCompiler(_model(OptLevel.BASELINE), CompositeLoss())
        serial_tiers = TierShapes()
        assert serial_tiers.seed(entry, serial.model.config.batched_basis) == 0
        assert not serial_tiers._shapes
        # A compiler never pads, so seeded tiers cannot reach a batch its
        # caller did not pad: the program is keyed by the raw shape.
        unbucketed = StepCompiler(_model(OptLevel.DECOMPOSE_FS), CompositeLoss())
        batch = dataset.batch([0, 1, 2, 3])
        seeded = [(batch.num_structs, True, _counts(batch))]
        tiers = TierShapes()
        assert tiers.seed(seeded, True) == 1
        unbucketed.step(batch)
        (sig,) = unbucketed.cache.programs
        assert sig[2:6] == _counts(batch)


class TestCompiledInference:
    @pytest.mark.parametrize("use_heads", [True, False])
    def test_inference_replay_bit_identical(self, use_heads):
        level = OptLevel.DECOMPOSE_FS if use_heads else OptLevel.FUSED
        model = _model(level)
        crystal = cscl(11, 17)
        eager_calc = ModelCalculator(model)
        compiled_calc = ModelCalculator(model, compile=True)
        r1 = compiled_calc.calculate(crystal)  # capture
        r2 = compiled_calc.calculate(crystal)  # replay
        assert r1.energy == r2.energy
        assert np.array_equal(r1.forces, r2.forces)
        assert np.array_equal(r1.stress, r2.stress)
        stats = compiled_calc._compiler.stats
        assert stats.captures == 1 and stats.replays == 1
        # vs the unpadded eager calculator: identical up to padding's
        # reduction-order rounding
        r0 = eager_calc.calculate(crystal)
        assert r2.energy == pytest.approx(r0.energy, rel=1e-10, abs=1e-12)
        assert np.allclose(r2.forces, r0.forces, rtol=1e-9, atol=1e-12)

    def test_calculator_pads_drifting_steps_to_its_tier_shape(self):
        """The compiled calculator pads every single point through its own
        tier table before the run, so steps whose short-edge and angle
        counts drift replay the tier's program instead of capturing each
        raw shape."""
        from repro.graph.crystal_graph import build_graph

        model = _model(OptLevel.DECOMPOSE_FS)
        calc = ModelCalculator(model, compile=True)
        base = cscl(11, 17).supercell((2, 2, 2))
        raw = set()
        for k in range(6):
            crystal = base.perturbed(np.random.default_rng(k), 0.1)
            raw.add(_counts(build_graph(crystal, CFG.cutoff_atom, CFG.cutoff_bond)))
            calc.calculate(crystal)
        stats = calc._compiler.stats
        assert len(raw) == 6 and stats.captures + stats.replays == 6
        assert stats.captures <= 2 and stats.eager_fallbacks == 0
        (shape,) = calc._tiers._shapes.values()
        assert shape in {sig[2:6] for sig in calc._compiler.cache.programs}

    def test_inference_replay_matches_eager_on_padded_batch(self, dataset):
        """Strict bit-identity: replay vs eager forward on the same padded batch."""
        model = _model(OptLevel.FUSED)
        comp = InferenceCompiler(model)
        graphs = [dataset.graphs[0], dataset.graphs[1]]
        from repro.graph.batching import collate

        batch = pad_to_bucket(collate(graphs))
        comp.run(batch)  # capture
        out = comp.run(batch)  # replay
        padded = pad_to_bucket(collate(graphs))
        ref = model.forward(padded, training=False)
        pi = padded.pad_info
        assert np.array_equal(out["forces"], ref.forces.data[: pi.num_atoms])
        assert np.array_equal(out["energy"], ref.energy_per_atom.data[: pi.num_structs])
        assert np.array_equal(out["magmom"], ref.magmom.data[: pi.num_atoms])

    def test_signature_distinguishes_serial_offsets(self, dataset):
        a = dataset.batch([0, 1])
        b = dataset.batch([1, 0])
        assert program_signature(a, serial=False, mode="train") == program_signature(
            b, serial=False, mode="train"
        )
        assert program_signature(a, serial=True, mode="train") != program_signature(
            b, serial=True, mode="train"
        )


class TestMaskPrimitiveGradients:
    """Gradcheck the primitives the piecewise VJPs were rebuilt on."""

    def _w(self, shape):
        return Tensor(np.random.default_rng(5).normal(size=shape))

    def test_where_le_first_order(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=6), requires_grad=True)
        y = Tensor(rng.normal(size=6), requires_grad=True)
        a = Tensor(rng.normal(size=6))
        check_grad(
            lambda x, y: tsum(mul(where_le(a, x, y, 0.1), self._w((6,)))), [x, y]
        )

    def test_where_le_second_order(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=4), requires_grad=True)
        # the huber shape: quadratic branch selected by |x| <= delta
        check_second_grad(
            lambda x: tsum(where_le(mul(x, x), mul(mul(x, x), 0.5), x, 0.5)), [x]
        )

    def test_clip_maximum_minimum_first_order(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=5) * 2.0, requires_grad=True)
        b = Tensor(rng.normal(size=5) * 2.0, requires_grad=True)
        check_grad(lambda a: tsum(mul(clip(a, -1.0, 1.0), self._w((5,)))), [a])
        check_grad(lambda a, b: tsum(mul(maximum(a, b), self._w((5,)))), [a, b])
        check_grad(lambda a, b: tsum(mul(minimum(a, b), self._w((5,)))), [a, b])

    def test_huber_masked_equals_sliced(self):
        """Masked huber (padding path) == huber over the real prefix."""
        from repro.tensor import huber_loss

        rng = np.random.default_rng(3)
        pred = np.concatenate([rng.normal(size=7) * 0.2, np.zeros(3)])
        target = np.concatenate([rng.normal(size=7) * 0.2, np.zeros(3)])
        mask = np.concatenate([np.ones(7), np.zeros(3)])
        p = Tensor(pred, requires_grad=True)
        masked = huber_loss(
            p, Tensor(target), 0.1, mask=Tensor(mask), count=Tensor(np.float64(7.0))
        )
        p2 = Tensor(pred[:7], requires_grad=True)
        plain = huber_loss(p2, Tensor(target[:7]), 0.1)
        assert float(masked.data) == pytest.approx(float(plain.data), rel=1e-12)
        masked.backward()
        plain.backward()
        assert np.allclose(p.grad.data[:7], p2.grad.data, rtol=1e-12)
        assert np.all(p.grad.data[7:] == 0.0)


def test_compile_module_knows_nothing_of_tiers():
    """``tensor/compile.py`` captures, binds and replays the batch it is
    given: padding a batch to a shared shape is its callers' job, so the
    module names no tier table, no padding routine and no ``bucket``
    parameter."""
    import ast
    import inspect

    from repro.tensor import compile as tc

    named = set()
    for node in ast.walk(ast.parse(inspect.getsource(tc))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            named.add(node.arg)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
    assert not named & {"TierShapes", "tiers", "pad_batch", "_pad", "bucket"}


def test_total_stats_sums_every_counter_by_field():
    """One helper totals compiler counters for the engine and the trainer:
    its keys are :class:`CompileStats`' fields, each summed over the
    compilers (an empty fleet totals zero)."""
    from types import SimpleNamespace

    names = [f.name for f in dataclasses.fields(CompileStats)]
    compilers = [
        SimpleNamespace(stats=CompileStats(*range(k, k + len(names)))) for k in (1, 10)
    ]
    assert total_stats(compilers) == {
        name: (1 + i) + (10 + i) for i, name in enumerate(names)
    }
    assert total_stats(iter(compilers)) == total_stats(compilers)
    assert total_stats([]) == dict.fromkeys(names, 0)


def test_engine_compile_stats_keys_are_the_counter_fields(dataset):
    from repro.serve import InferenceEngine

    engine = InferenceEngine(_model(OptLevel.DECOMPOSE_FS), compile=True)
    engine.predict_many([e.crystal for e in dataset.entries[:2]])
    stats = engine.compile_stats()
    assert list(stats) == [f.name for f in dataclasses.fields(CompileStats)]
    assert stats["captures"] >= 1
    assert all(engine.snapshot()[name] == value for name, value in stats.items())
