"""A capture costs what the eager step it observes costs.

The contract under test (ISSUE 21, docs/architecture.md "Capture memory"):

* the tracer pins nothing — arrays are identified by ``id()`` guarded by a
  weak reference, so a capturing step's ``tracemalloc`` peak stays within
  1.5x of the eager step's, no slot is ever resolved from a dead array's
  id, and the bookkeeping adds no reference cycle;
* backward frees as it walks — with ``retain_graph=False`` an intermediate
  dies as soon as its node and its consumers are done, *during* the walk;
* slab growth lets go first — while the new slab is allocated no cached
  program views the old one; arrays a caller still holds stay readable.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.graph.batching import collate
from repro.graph.crystal_graph import build_graph
from repro.model import OptLevel
from repro.tensor import Tensor, grad, mul, silu, sum as tsum, tanh
from repro.tensor import compile as compile_mod
from repro.tensor.compile import InferenceCompiler, StepCompiler, TapeTrace
from repro.tensor.engine import pop_tracer, push_tracer
from repro.train.loss import CompositeLoss
from serve_harness import TINY_CFG as CFG, make_model

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def entries():
    return generate_mptrj(14, seed=9, max_atoms=10)


@pytest.fixture(scope="module")
def dataset(entries):
    return StructureDataset(entries)


@pytest.fixture(scope="module")
def graphs(entries):
    return [build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond) for e in entries]


def _traced_peak(fn) -> int:
    """Bytes ``fn`` allocates at its high-water mark, over what was live."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------ (a) the peak
class TestCapturePeak:
    def test_fused_training_capture_within_1p5x_of_eager(self, dataset):
        comp = StepCompiler(make_model(cfg=CFG.with_level(OptLevel.FUSED)), CompositeLoss())
        padded = comp._pad(dataset.batch(list(range(8))))
        comp._eager(padded)  # segment plans and other per-batch caches
        eager = _traced_peak(lambda: comp._eager(padded))
        capture = _traced_peak(lambda: comp.step(padded))
        assert comp.stats.captures == 1
        assert capture <= 1.5 * eager, (capture, eager)

    def test_inference_capture_within_1p5x_of_eager(self, graphs):
        comp = InferenceCompiler(make_model(cfg=CFG.with_level(OptLevel.DECOMPOSE_FS)))
        padded = comp._pad(collate(graphs))
        comp._fallback(padded)
        eager = _traced_peak(lambda: comp._fallback(padded))
        capture = _traced_peak(lambda: comp.run(padded))
        assert comp.stats.captures == 1
        assert capture <= 1.5 * eager, (capture, eager)


# ------------------------------------------------- (b) backward frees as it walks
class _LivenessProbe:
    """Tracer sampling which weak references are dead at every traced op."""

    def __init__(self, refs: list) -> None:
        self.refs = refs
        self.samples: list[list[bool]] = []

    def record(self, name, fn, arrays, kwargs, out) -> None:
        self.samples.append([r() is None for r in self.refs])

    def record_leaf_grad(self, leaf, g) -> None:
        self.samples.append([r() is None for r in self.refs])


def _chain(x: Tensor, w: Tensor) -> tuple[Tensor, list]:
    a = mul(x, w)  # early forward intermediate
    b = tanh(a)
    c = silu(b)  # late forward intermediate
    loss = tsum(mul(c, c))
    return loss, [weakref.ref(a.data), weakref.ref(c.data)]


class TestBackwardRelease:
    @pytest.fixture
    def leaves(self, rng):
        x = Tensor(rng.normal(size=(64, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(64, 8)), requires_grad=True)
        return x, w

    def test_intermediates_die_during_the_walk(self, leaves):
        loss, refs = _chain(*leaves)
        probe = _LivenessProbe(refs)
        push_tracer(probe)
        try:
            loss.backward()
        finally:
            pop_tracer(probe)
        early, late = zip(*probe.samples)
        assert not late[0] and not early[0]  # the walk starts with everything live
        # the late intermediate is gone while VJPs of earlier nodes still run,
        # the early one before the leaf gradients are written (backward's tail)
        assert late.index(True) < early.index(True) < len(early) - 1
        assert refs[0]() is None and refs[1]() is None

    def test_retain_graph_keeps_them(self, leaves):
        loss, refs = _chain(*leaves)
        loss.backward(retain_graph=True)
        assert refs[0]() is not None and refs[1]() is not None
        first = [leaf.grad.data.copy() for leaf in leaves]
        for leaf in leaves:
            leaf.zero_grad()
        loss.backward()  # the retained graph is walkable again, same bits
        assert all(np.array_equal(leaf.grad.data, g) for leaf, g in zip(leaves, first))
        assert refs[0]() is None and refs[1]() is None

    def test_create_graph_returns_differentiable_cotangents(self, leaves):
        x, w = leaves
        y = tsum(mul(mul(x, x), w))  # dy/dx = 2xw, dy/dw = x^2
        gx, gw = grad(y, [x, w], create_graph=True)
        assert gx.requires_grad and gw.requires_grad
        assert np.allclose(gx.data, 2 * x.data * w.data)
        assert np.allclose(gw.data, x.data**2)
        (gxx,) = grad(tsum(gx), [x])  # d/dx sum(2xw) = 2w
        (gwx,) = grad(tsum(gw), [x])  # d/dx sum(x^2) = 2x
        assert np.allclose(gxx.data, 2 * w.data)
        assert np.allclose(gwx.data, 2 * x.data)


# ----------------------------------------------------- (c) id reuse under churn
@contextmanager
def churned_tracer():
    """Every traced op allocates and drops same-sized temporaries first, and
    every id the tracer resolves is checked to be its live array's."""
    seen = {"resolved": 0, "registered": 0, "ids": set()}
    slot_for, new_slot, record = TapeTrace._slot_for, TapeTrace._new_slot, TapeTrace.record

    def checked_slot_for(self, arr, allow_const, context):
        ref = self._slots.get(id(arr))
        if ref is not None:
            assert ref() is arr, f"{context}: slot resolved from a dead array's id"
            seen["resolved"] += 1
        return slot_for(self, arr, allow_const, context)

    def counted_new_slot(self, arr):
        seen["registered"] += 1
        seen["ids"].add(id(arr))
        return new_slot(self, arr)

    def churning_record(self, name, fn, arrays, kwargs, out):
        for _ in range(3):
            np.empty_like(out)
        return record(self, name, fn, arrays, kwargs, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TapeTrace, "_slot_for", checked_slot_for)
        patch.setattr(TapeTrace, "_new_slot", counted_new_slot)
        patch.setattr(TapeTrace, "record", churning_record)
        yield seen


class TestIdReuse:
    @settings(max_examples=6, deadline=None)
    @given(members=st.lists(st.integers(0, 13), min_size=1, max_size=4, unique=True))
    def test_captures_replay_bit_identical(self, dataset, members):
        model = make_model(cfg=CFG.with_level(OptLevel.FUSED))
        comp = StepCompiler(model, CompositeLoss(), validate=True)
        batch = dataset.batch(members)
        with churned_tracer() as seen:
            comp.step(batch)  # capture, ids recycled under the tracer
        comp.step(batch)  # replay, validated against eager bit for bit
        assert comp.stats.captures == 1 and comp.stats.replays == 1
        assert comp.stats.eager_fallbacks == 0
        assert seen["resolved"] > 0
        # not vacuous: the step did recycle ids while the tracer watched
        assert len(seen["ids"]) < seen["registered"]

    def test_inference_capture_under_no_grad(self, graphs):
        model = make_model(cfg=CFG.with_level(OptLevel.DECOMPOSE_FS))
        comp = InferenceCompiler(model)
        batch = collate(graphs[:5])
        eager = {k: v.copy() for k, v in comp._fallback(comp._pad(batch)).items()}
        with churned_tracer() as seen:
            comp.run(batch)
        replayed = comp.run(batch)
        assert comp.stats.captures == 1 and comp.stats.replays == 1
        assert all(np.array_equal(replayed[k], eager[k]) for k in eager)
        assert len(seen["ids"]) < seen["registered"]


# ----------------------------------------------------------- (d) no new cycles
def test_capturing_step_leaves_nothing_for_the_cycle_collector(dataset):
    comp = StepCompiler(make_model(cfg=CFG.with_level(OptLevel.FUSED)), CompositeLoss())
    batch = dataset.batch([0, 1, 2, 3])
    gc.collect()
    gc.disable()
    try:
        comp.step(batch)
        assert comp.stats.captures == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------- (e) slab growth
class TestSlabGrowth:
    @pytest.fixture
    def grown(self, graphs, monkeypatch):
        """A compiler holding one small program, and a probe that runs while
        ``store`` allocates the larger slab."""
        comp = InferenceCompiler(make_model(cfg=CFG.with_level(OptLevel.DECOMPOSE_FS)))
        small = collate(graphs[:1])
        comp.run(small)  # capture
        new_slab = compile_mod._new_slab
        probes: list = []

        def probed(nbytes):
            for probe in probes:
                probe()
            return new_slab(nbytes)

        monkeypatch.setattr(compile_mod, "_new_slab", probed)
        return comp, small, probes

    def test_no_program_views_the_old_slab_while_the_new_one_is_allocated(self, grown, graphs):
        comp, small, probes = grown
        comp.run(small)  # replayed: every slot of the program is filled
        (small_prog,) = comp.cache.programs.values()
        old = weakref.ref(comp.cache._slab.base)  # the allocation under the slab
        old_bytes = comp.cache.arena_bytes
        seen = []
        probes.append(lambda: seen.append((old() is None, list(small_prog.buffers))))
        comp.run(collate(graphs[4:12]))  # larger capture grows the slab
        assert seen == [(True, [])]  # old slab already freed, programs detached
        assert comp.cache.arena_bytes > old_bytes
        assert small_prog.buffers and all(
            np.shares_memory(buf, comp.cache._slab) for buf in small_prog.buffers if buf.size
        )

    def test_outputs_taken_before_the_growth_stay_readable(self, grown, graphs):
        comp, small, _ = grown
        held = comp.run(small)  # views of the slab about to be replaced
        kept = {k: v.copy() for k, v in held.items()}
        comp.run(collate(graphs[4:12]))
        comp.run(collate(graphs[4:12]))  # a replay on the new slab
        assert all(np.array_equal(held[k], kept[k]) for k in kept)
        assert not any(np.shares_memory(v, comp.cache._slab) for v in held.values())
        again = comp.run(small)  # re-attached program, same bits
        assert all(np.array_equal(again[k], kept[k]) for k in kept)
