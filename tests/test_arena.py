"""The arena: a byte plan per program, one slab per cache.

The contract under test (ISSUE 16, docs/architecture.md "Arena"):

* the plan — buffers whose live ranges intersect never share a byte, every
  offset is 64-byte aligned, and the plan stays within 1.25x of the peak of
  simultaneously live bytes;
* the slab — every program of a :class:`SharedProgramCache` is a set of
  views of the cache's one slab; a larger capture grows it and re-attaches
  the programs already cached; two caches never share one;
* validity — a replay writes every byte it reads (NaN-poisoning the slab
  before each replay changes nothing) and every consumer copies results out
  before the next replay on the same cache, so interleaving different
  programs stays bit-identical to eager.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.graph.batching import collate
from repro.graph.crystal_graph import build_graph
from repro.model import CHGNetModel, OptLevel
from repro.runtime import memory_stats
from repro.serve import InferenceEngine
from repro.tensor.compile import (
    _ALIGN,
    CompiledStep,
    InferenceCompiler,
    SharedProgramCache,
    StepCompiler,
)
from repro.train import DistributedConfig, DistributedTrainer
from repro.train.loss import CompositeLoss
from serve_harness import TINY_CFG as CFG, make_model


def _jittered(level: OptLevel) -> CHGNetModel:
    return make_model(cfg=CFG.with_level(level))


@pytest.fixture(scope="module")
def entries():
    return generate_mptrj(14, seed=9, max_atoms=10)


@pytest.fixture(scope="module")
def graphs(entries):
    return [build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond) for e in entries]


def _equal(a, b) -> bool:
    return (
        a.energy_per_atom == b.energy_per_atom
        and np.array_equal(a.forces, b.forces)
        and np.array_equal(a.stress, b.stress)
        and np.array_equal(a.magmom, b.magmom)
    )


def _padded(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def _check_plan(prog: CompiledStep) -> None:
    """No byte shared while live, aligned offsets, plan <= 1.25x peak-live."""
    spans = [
        (first, last, off, off + _padded(nbytes))
        for (first, last), (off, nbytes, _shape, _dtype) in zip(prog._live, prog._specs)
        if nbytes
    ]
    assert spans
    for off, nbytes, shape, dtype in prog._specs:
        assert off % _ALIGN == 0
        assert nbytes == int(np.prod(shape)) * np.dtype(dtype).itemsize
        assert off + nbytes <= prog.arena_bytes
    for i, (f0, l0, lo0, hi0) in enumerate(spans):
        for f1, l1, lo1, hi1 in spans[i + 1 :]:
            if f0 <= l1 and f1 <= l0:  # live ranges intersect
                assert hi0 <= lo1 or hi1 <= lo0, "live buffers share bytes"
    events = sorted(
        [(first, hi - lo) for first, _last, lo, hi in spans]
        + [(last + 1, lo - hi) for _first, last, lo, hi in spans]
    )
    live = peak = 0
    for _t, delta in events:
        live += delta
        peak = max(peak, live)
    assert peak <= prog.arena_bytes <= 1.25 * peak


class TestBytePlan:
    def test_inference_programs(self, graphs):
        comp = InferenceCompiler(_jittered(OptLevel.DECOMPOSE_FS), max_programs=16)
        for group in (graphs[:1], graphs[:4], graphs[4:12]):
            comp.run(collate(group))
        assert comp.stats.captures == 3
        for prog in comp.cache.programs.values():
            _check_plan(prog)

    def test_fused_training_program(self, entries):
        dataset = StructureDataset(entries)
        comp = StepCompiler(_jittered(OptLevel.FUSED), CompositeLoss())
        comp.step(dataset.batch([0, 1, 2, 3]))
        (prog,) = comp.cache.programs.values()
        assert prog.n_instrs > 1000  # forward + double backward
        _check_plan(prog)

    def test_bind_visits_only_array_kwarg_instructions(self, entries):
        dataset = StructureDataset(entries)
        comp = StepCompiler(_jittered(OptLevel.FUSED), CompositeLoss())
        comp.step(dataset.batch([0, 1, 2, 3]))
        (prog,) = comp.cache.programs.values()
        assert prog._kw_instrs == [ins for ins in prog.instrs if ins.kw_ext]
        assert 0 < len(prog._kw_instrs) < prog.n_instrs


class TestSlabOwnership:
    def test_growth_reattaches_cached_programs(self, graphs):
        model = _jittered(OptLevel.DECOMPOSE_FS)
        comp = InferenceCompiler(model, max_programs=16)
        small, large = collate(graphs[:1]), collate(graphs[4:12])
        eager = {k: v.copy() for k, v in comp.run(small).items()}  # capture
        (small_prog,) = comp.cache.programs.values()
        first_slab = comp.cache._slab
        assert comp.cache.arena_bytes == small_prog.arena_bytes
        comp.run(large)  # larger capture grows the slab
        assert comp.cache._slab is not first_slab
        assert comp.cache.arena_bytes == max(
            p.arena_bytes for p in comp.cache.programs.values()
        )
        for prog in comp.cache.programs.values():
            assert all(
                np.shares_memory(buf, comp.cache._slab) for buf in prog.buffers if buf.size
            )
            assert not any(np.shares_memory(buf, first_slab) for buf in prog.buffers)
        replayed = comp.run(small)
        assert comp.stats.captures == 2 and comp.stats.replays == 1
        assert all(np.array_equal(replayed[k], eager[k]) for k in eager)

    def test_smaller_capture_attaches_without_growing(self, graphs):
        comp = InferenceCompiler(_jittered(OptLevel.DECOMPOSE_FS), max_programs=16)
        comp.run(collate(graphs[4:12]))
        slab = comp.cache._slab
        comp.run(collate(graphs[:1]))
        assert comp.cache._slab is slab

    def test_two_caches_never_share_a_slab(self, graphs):
        model = _jittered(OptLevel.DECOMPOSE_FS)
        cache_a, cache_b = SharedProgramCache(), SharedProgramCache()
        comp_a = InferenceCompiler(model, cache=cache_a)
        comp_b = InferenceCompiler(model, cache=cache_b)
        batch = collate(graphs[:3])
        out_a = comp_a.run(batch)
        out_a = comp_a.run(batch)  # replayed: views into cache_a's slab
        kept = {k: v.copy() for k, v in out_a.items()}
        comp_b.run(batch)
        comp_b.run(batch)
        assert cache_a.arena_bytes == cache_b.arena_bytes > 0
        assert not np.shares_memory(cache_a._slab, cache_b._slab)
        # a replay on the other cache leaves this cache's outputs alone
        assert all(np.array_equal(out_a[k], kept[k]) for k in kept)

    def test_memory_accounting_follows_the_slab(self, graphs):
        comp = InferenceCompiler(_jittered(OptLevel.DECOMPOSE_FS), max_programs=1)
        with memory_stats() as memory:
            comp.run(collate(graphs[:1]))
            small = comp.arena_bytes
            comp.run(collate(graphs[4:12]))  # grows the slab, evicts the small one
            assert len(comp.cache.programs) == 1
            assert memory.current_bytes == comp.arena_bytes > small
            comp.run(collate(graphs[:1]))  # recapture: eviction never shrank it
            assert memory.current_bytes == comp.arena_bytes
            grown = comp.arena_bytes
            comp.release()
            assert comp.arena_bytes == 0 and memory.current_bytes == 0
        assert memory.peak_bytes >= grown


def _poison_before_every_replay(monkeypatch, caches) -> list[int]:
    """NaN-fill each cache's slab right before every replay; returns a counter."""
    replay = CompiledStep.replay
    count = [0]

    def poisoned(prog):
        for cache in caches():
            cache._slab.fill(0xFF)  # all-ones bytes: NaN in every float dtype
        count[0] += 1
        replay(prog)

    monkeypatch.setattr(CompiledStep, "replay", poisoned)
    return count


class TestNaNPoison:
    def test_interleaved_inference_programs(self, graphs, monkeypatch):
        """Different programs of one cache, interleaved over two passes, with
        the slab poisoned between replays: still bit-identical to solo eager."""
        model = _jittered(OptLevel.DECOMPOSE_FS)
        engine = InferenceEngine(
            model, n_workers=2, compile=True, max_batch_structs=4, max_programs=64
        )
        solo = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=1
        ).predict_many(graphs)
        engine.predict_many(graphs)  # captures
        count = _poison_before_every_replay(monkeypatch, lambda: [engine.cache])
        for _ in range(2):
            served = engine.predict_many(graphs) + engine.predict_many(graphs[::-1])[::-1]
            assert all(_equal(a, b) for a, b in zip(served, solo + solo))
        assert count[0] >= 8 and len(engine.cache.programs) > 1
        assert engine.snapshot()["eager_fallbacks"] == 0

    def test_validated_training_steps_on_a_shared_cache(self, entries, monkeypatch):
        """Two ranks step one after another on one cache (FUSED, double
        backward), every replay poisoned first and re-run eagerly
        (``validate``): a stale or unwritten byte would raise."""
        trainer = DistributedTrainer(
            lambda: CHGNetModel(
                CFG.with_level(OptLevel.FUSED), np.random.default_rng(1)
            ),
            StructureDataset(entries[:8]),
            DistributedConfig(
                world_size=2,
                global_batch_size=4,
                epochs=3,
                compile=True,
                validate_replay=True,
                seed=0,
            ),
        )
        caches = {id(c.cache): c.cache for c in trainer.compilers}
        assert len(caches) == 1  # one slab for both ranks
        count = _poison_before_every_replay(monkeypatch, caches.values)
        for epoch in range(3):
            for shards in trainer.loader.iter_epoch(epoch):
                stats = trainer.train_step(shards)
                assert np.isfinite(stats.loss)
        assert count[0] > 0 and trainer.replicas_in_sync()
        assert trainer.compile_stats()["eager_fallbacks"] == 0
