"""The arena: a byte plan per program, one slab per cache.

The contract under test (ISSUE 16, docs/architecture.md "Arena"):

* the plan — buffers whose live ranges intersect never share a byte, every
  offset is 64-byte aligned, each planned range covers the buffer's last
  reader as the instruction list itself has it, and the plan stays within
  1.25x of the peak of bytes those readers keep live at once;
* parts — each part of a multi-output kernel has its own buffer, which
  lowers a FUSED training program's arena, and a gradient that leaves its
  kernel through a part still maps to the launch that writes it;
* the slab — every program of a :class:`SharedProgramCache` is a set of
  views of the cache's one slab; a larger capture grows it and re-attaches
  the programs already cached; two caches never share one;
* validity — a replay writes every byte it reads (NaN-poisoning the slab
  before each replay changes nothing) and every consumer copies results out
  before the next replay on the same cache, so interleaving different
  programs stays bit-identical to eager.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.graph.batching import collate
from repro.graph.crystal_graph import build_graph
from repro.model import CHGNetModel, OptLevel
from repro.runtime import memory_stats
from repro.serve import InferenceEngine
from repro.tensor import compile as compile_module
from repro.tensor.compile import (
    _ALIGN,
    CompiledStep,
    InferenceCompiler,
    SharedProgramCache,
    StepCompiler,
)
from repro.train import DistributedConfig, DistributedTrainer
from repro.train.loss import CompositeLoss
from oracles import pad_to_bucket
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


def _derived_ranges(prog: CompiledStep, low) -> dict[int, tuple[int, int]]:
    """``buffer id -> (producer, last reader)`` from the instruction list alone.

    ``low`` is the program's :func:`run_passes` output, whose ``instrs`` is
    the instruction list as the arena planner saw it (the static split
    later drops views from the replay).  A slot lies in the buffers of its
    producing launch (every piece of a split multi-output kernel), or of
    its base when it is a view; a ``part`` of a split kernel lies in the
    piece its element offset falls on.  A kernel reads its inputs and
    keyword arrays; a view reads nothing.  Program outputs and gradient
    sources are read at the end.
    """
    held: dict[int, tuple[int, ...]] = {}
    ranges: dict[int, list[int]] = {}
    for t, ins in enumerate(low.instrs):
        if ins.alias:
            base = ins.in_slots[0]
            if ins.name == "part" and base in low.split:
                pieces = low.split[base]
                starts = np.cumsum([0] + [prog.buffers[b].size for b in pieces])
                (piece,) = [b for b, lo in zip(pieces, starts) if lo == ins.kwargs["offset"]]
                assert ins.buf == piece and prog.buffers[piece].shape == ins.shape
                held[ins.out_slot] = (piece,)
            else:
                held[ins.out_slot] = held.get(base, ())
            continue
        for slot in (*ins.in_slots, *(slot for _, slot in ins.kw_ext)):
            for b in held.get(slot, ()):
                ranges[b][1] = t
        if ins.out_slot in low.split:
            held[ins.out_slot] = tuple(low.split[ins.out_slot])
        else:
            held[ins.out_slot] = (ins.buf,) if ins.buf >= 0 else ()
        for b in held[ins.out_slot]:
            assert b not in ranges, "an arena buffer written by two launches"
            ranges[b] = [t, t]
    for slot in (*prog.outputs.values(), *(slot for _, slot in prog.grad_writes)):
        for b in held.get(slot, ()):
            ranges[b][1] = len(low.instrs)
    return {b: tuple(r) for b, r in ranges.items()}


def _peak_live(ranges) -> int:
    """Largest sum of bytes live at one instruction over ``(first, last, nbytes)``."""
    ranges = list(ranges)
    events = sorted(
        [(first, nbytes) for first, _last, nbytes in ranges]
        + [(last + 1, -nbytes) for _first, last, nbytes in ranges]
    )
    live = peak = 0
    for _t, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


def _check_plan(prog: CompiledStep, low) -> None:
    """The program attaches the plan the passes made; no byte shared while
    live, aligned offsets, every planned range covers its derived one, plan
    <= 1.25x the derived peak-live bytes."""
    assert prog.specs() == low.plan and prog.arena_bytes == low.arena_bytes
    nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for _off, shape, dtype in low.plan]
    spans = [
        (first, last, off, off + _padded(n))
        for (first, last), (off, _shape, _dtype), n in zip(low.live, low.plan, nbytes)
        if n
    ]
    assert spans
    for (off, shape, _dtype), n, buf in zip(low.plan, nbytes, prog.buffers):
        assert off % _ALIGN == 0
        assert off + n <= prog.arena_bytes
        assert buf.shape == shape and buf.nbytes == n
    for i, (f0, l0, lo0, hi0) in enumerate(spans):
        for f1, l1, lo1, hi1 in spans[i + 1 :]:
            if f0 <= l1 and f1 <= l0:  # live ranges intersect
                assert hi0 <= lo1 or hi1 <= lo0, "live buffers share bytes"
    derived = _derived_ranges(prog, low)
    assert sorted(derived) == list(range(len(low.plan)))
    for b, (first, last) in derived.items():
        planned_first, planned_last = low.live[b]
        assert planned_first == first and planned_last >= last, (b, low.live[b], (first, last))
    peak = _peak_live((first, last, _padded(nbytes[b])) for b, (first, last) in derived.items())
    assert _peak_live((f, l, hi - lo) for f, l, lo, hi in spans) <= prog.arena_bytes
    assert prog.arena_bytes <= 1.25 * peak


def _lowest_free(live, sizes) -> tuple[list[int], int]:
    """The greedy plan by brute force: largest first (ties: earliest live),
    each buffer at the lowest offset no placed buffer it is live with
    overlaps, trying 0 and every such buffer's end."""
    offsets, placed = [0] * len(sizes), []
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], live[i][0])):
        (first, last), size = live[i], sizes[i]
        if not size:
            continue
        busy = [(lo, hi) for lo, hi, f, l in placed if f <= last and l >= first]
        starts = {0, *(hi for _, hi in busy)}
        fits = [c for c in starts if all(hi <= c or lo >= c + size for lo, hi in busy)]
        offsets[i] = min(fits)
        placed.append((offsets[i], offsets[i] + size, first, last))
    return offsets, max((hi for _, hi, _, _ in placed), default=0)


class TestPlanOffsets:
    def test_equals_the_lowest_free_offset_on_random_plans(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            first = rng.integers(0, 40, size=n)
            live = [(int(f), int(f + rng.integers(0, 12))) for f in first]
            sizes = [int(s) * _ALIGN for s in rng.choice([0, 1, 2, 3, 8, 64], size=n)]
            assert compile_module._plan_offsets(live, sizes) == _lowest_free(live, sizes)


class TestBytePlan:
    def test_inference_programs(self, graphs, lowered):
        comp = InferenceCompiler(_jittered(OptLevel.DECOMPOSE_FS), cache=SharedProgramCache(16))
        for group in (graphs[:1], graphs[:4], graphs[4:12]):
            comp.run(pad_to_bucket(collate(group)))
        assert comp.stats.captures == 3
        for prog in comp.cache.programs.values():
            _check_plan(prog, lowered[prog])

    def test_fused_training_program(self, entries, lowered):
        dataset = StructureDataset(entries)
        comp = StepCompiler(_jittered(OptLevel.FUSED), CompositeLoss())
        comp.step(pad_to_bucket(dataset.batch([0, 1, 2, 3])))
        (prog,) = comp.cache.programs.values()
        assert prog.n_instrs > 1000  # forward + double backward
        assert lowered[prog].split  # the multi-output kernels' parts have their own buffers
        _check_plan(prog, lowered[prog])


class TestPartBuffers:
    """Each part of a multi-output kernel has its own arena buffer."""

    @staticmethod
    def _capture(entries) -> CompiledStep:
        comp = StepCompiler(_jittered(OptLevel.FUSED), CompositeLoss())
        comp.step(pad_to_bucket(StructureDataset(entries).batch([0, 1, 2, 3])))
        (prog,) = comp.cache.programs.values()
        return prog

    def test_split_lowers_the_training_arena(self, entries, monkeypatch, lowered):
        split = self._capture(entries)
        monkeypatch.setattr(compile_module, "_FLAT_KERNELS", frozenset())
        whole = self._capture(entries)  # the same program, each flat one buffer
        assert not lowered[whole].split and lowered[split].split
        names = [[ins.name for ins in lowered[prog].replay] for prog in (split, whole)]
        assert names[0] == names[1] and split._kernels == whole._kernels == tuple(names[0])
        assert len(split.specs()) > len(whole.specs())
        assert split.arena_bytes < 0.9 * whole.arena_bytes
        # every part is a whole buffer of the launch's tuple, in output order
        for flat, bufs in lowered[split].split.items():
            parts = split._slots[flat]
            assert isinstance(parts, tuple) and len(parts) == len(bufs) >= 2
            assert all(part is split.buffers[b] for part, b in zip(parts, bufs))

    def test_gradients_map_to_the_launch_writing_them(self, entries, lowered):
        """Every gradient source resolves to the launch whose output holds
        it, never to -1; so does every part, the way a gradient leaving its
        kernel through a part (or a view of one) would."""
        prog = self._capture(entries)
        prog.replay()
        low = lowered[prog]
        parts = [ins.out_slot for ins in low.instrs if ins.name == "part"]
        parts = [slot for slot in parts if slot in low.removed_alias]  # prefilled
        assert any(low.removed_alias[slot] in low.split for slot in parts)
        grads = [slot for _pid, slot in prog.grad_writes]
        index = compile_module._launch_index(low, parts)
        index.update((slot, prog.grad_instr_index(slot)) for slot in grads)
        for slot in grads + parts:
            t = index[slot]
            assert t >= 0, slot
            out = prog._slots[low.replay[t].out_slot]
            bufs = out if isinstance(out, tuple) else (out,)
            assert any(np.shares_memory(prog._slots[slot], buf) for buf in bufs)

    def test_measured_ready_fractions_per_bucket(self, entries):
        trainer = DistributedTrainer(
            lambda: CHGNetModel(CFG.with_level(OptLevel.FUSED), np.random.default_rng(1)),
            StructureDataset(entries[:8]),
            DistributedConfig(world_size=2, global_batch_size=4, epochs=1, compile=True, seed=0),
        )
        for shards in trainer.loader.iter_epoch(0):
            trainer.train_step(shards)
        fractions = trainer.measured_ready_fractions()
        trainer.close()
        assert len(fractions) == trainer._buckets.n_buckets
        assert all(0.0 < f <= 1.0 for f in fractions)


class TestSlabOwnership:
    def test_growth_reattaches_cached_programs(self, graphs):
        model = _jittered(OptLevel.DECOMPOSE_FS)
        comp = InferenceCompiler(model, cache=SharedProgramCache(16))
        small, large = pad_to_bucket(collate(graphs[:1])), pad_to_bucket(collate(graphs[4:12]))
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
        comp = InferenceCompiler(_jittered(OptLevel.DECOMPOSE_FS), cache=SharedProgramCache(16))
        comp.run(pad_to_bucket(collate(graphs[4:12])))
        slab = comp.cache._slab
        comp.run(pad_to_bucket(collate(graphs[:1])))
        assert comp.cache._slab is slab

    def test_two_caches_never_share_a_slab(self, graphs):
        model = _jittered(OptLevel.DECOMPOSE_FS)
        cache_a, cache_b = SharedProgramCache(), SharedProgramCache()
        comp_a = InferenceCompiler(model, cache=cache_a)
        comp_b = InferenceCompiler(model, cache=cache_b)
        batch = pad_to_bucket(collate(graphs[:3]))
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
        comp = InferenceCompiler(_jittered(OptLevel.DECOMPOSE_FS), cache=SharedProgramCache(1))
        with memory_stats() as memory:
            comp.run(pad_to_bucket(collate(graphs[:1])))
            small = comp.arena_bytes
            comp.run(pad_to_bucket(collate(graphs[4:12])))  # grows the slab, evicts the small one
            assert len(comp.cache.programs) == 1
            assert memory.current_bytes == comp.arena_bytes > small
            comp.run(pad_to_bucket(collate(graphs[:1])))  # recapture: eviction never shrank it
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
                seed=0,
            ),
        )
        for compiler in trainer.compilers:
            compiler.validate = True
        caches = {id(c.cache): c.cache for c in trainer.compilers}
        assert len(caches) == 1  # one slab for both ranks
        count = _poison_before_every_replay(monkeypatch, caches.values)
        for epoch in range(3):
            for shards in trainer.loader.iter_epoch(epoch):
                stats = trainer.train_step(shards)
                assert np.isfinite(stats.loss)
        assert count[0] > 0 and trainer.replicas_in_sync()
        assert trainer.compile_stats()["eager_fallbacks"] == 0
