"""A training capture runs its eager tape before the slab, or beside it.

The contract under test (docs/architecture.md, "Capture memory"):

* before the slab — a compiled trainer's constructor runs every eager
  capture on a cache that holds no slab, and the slab is then allocated
  once, at the largest program's size;
* beside the slab — a standalone compiler's later training capture on a
  cache that already holds a slab keeps that slab (same object, same size),
  resolves nothing from the C library, and the next replay is
  bit-identical to eager; outputs held across the capture (or a view of
  one) read the same bits until the next replay; a capture that fails
  part-way leaves the cache as usable as before;
* optional — without ``malloc_trim`` in the C library a trainer's build
  still replays bit-identically;
* inference untouched — an inference capture never resolves the C library.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.model import CHGNetModel, OptLevel
from repro.tensor import compile as compile_mod
from repro.tensor.compile import StepCompiler, TapeTrace, TraceUnsupported
from repro.train import DistributedConfig, DistributedTrainer
from repro.train.loss import CompositeLoss
from oracles import pad_to_bucket
from serve_harness import TINY_CFG as CFG, make_model

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def dataset():
    return StructureDataset(generate_mptrj(14, seed=9, max_atoms=10))


@pytest.fixture
def primed(dataset):
    """A validating FUSED compiler whose cache holds one large program, and
    a smaller batch it has not captured yet."""
    comp = StepCompiler(make_model(cfg=CFG.with_level(OptLevel.FUSED)), CompositeLoss())
    comp.validate = True
    large = pad_to_bucket(dataset.batch(list(range(8))))
    comp.step(large)  # capture: the slab is sized to this program
    comp.step(large)  # replay: every slot of it filled
    small = pad_to_bucket(dataset.batch([0, 1]))
    return comp, large, small


def _validated_replay(comp: StepCompiler, batch) -> None:
    before = comp.stats.replays
    comp.step(batch)  # raises if loss, predictions or any gradient differ
    assert comp.stats.replays == before + 1


def test_nothing_held_keeps_the_slab(primed):
    comp, large, small = primed
    slab, nbytes = comp.cache._slab, comp.cache.arena_bytes
    comp.step(small)
    assert comp.cache._slab is slab and comp.cache.arena_bytes == nbytes
    _validated_replay(comp, small)


@pytest.mark.parametrize("hold", ["outputs", "derived view"])
def test_held_views_survive_a_capture(primed, hold):
    comp, large, small = primed
    (prog,) = comp.cache.programs.values()
    outs = prog.output_arrays()
    if hold == "derived view":
        outs = {"forces": outs["forces"][1:]}
    kept = {k: v.copy() for k, v in outs.items()}
    slab = comp.cache._slab
    comp.step(small)  # capture: attaches the new program, writes no slab byte
    assert comp.stats.captures == 2 and comp.cache._slab is slab
    assert all(np.shares_memory(v, slab) for v in outs.values())
    assert all(np.array_equal(outs[k], kept[k]) for k in kept)
    _validated_replay(comp, small)  # held outputs are valid only until here
    _validated_replay(comp, large)


@pytest.mark.parametrize("hold", [False, True])
def test_failed_capture_leaves_the_cache_usable(primed, monkeypatch, hold):
    comp, large, small = primed
    held = comp.last_program.output_arrays() if hold else {}
    kept = {k: v.copy() for k, v in held.items()}
    slab, nbytes = comp.cache._slab, comp.cache.arena_bytes

    def unsupported(self, *args):
        raise TraceUnsupported("not replayable")

    monkeypatch.setattr(TapeTrace, "record", unsupported)
    comp.step(small)  # capture fails, the step falls back to eager
    monkeypatch.undo()
    assert comp.stats.unsupported == 1 and comp.cache.arena_bytes == nbytes
    assert comp.cache._slab is slab
    assert all(np.array_equal(held[k], kept[k]) for k in kept)  # no replay yet
    _validated_replay(comp, large)


def test_inference_capture_never_resolves_libc():
    code = (
        "from serve_harness import TINY_CFG as CFG, make_model\n"
        "from oracles import pad_to_bucket\n"
        "from repro.data.mptrj import generate_mptrj\n"
        "from repro.graph import build_graph, collate\n"
        "from repro.model import OptLevel\n"
        "from repro.tensor import compile as cm\n"
        "graphs = [build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond)\n"
        "          for e in generate_mptrj(3, seed=9, max_atoms=6)]\n"
        "comp = cm.InferenceCompiler(make_model(cfg=CFG.with_level(OptLevel.DECOMPOSE_FS)))\n"
        "batch = pad_to_bucket(collate(graphs))\n"
        "comp.run(batch); comp.run(batch)\n"
        "assert comp.stats.captures == 1 and comp.stats.replays == 1\n"
        "print(cm._libc.cache_info().misses)\n"
    )
    src = str(HERE.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(HERE)])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def _trainer(entries) -> DistributedTrainer:
    """A compiled, bucket-sampled two-rank FUSED trainer at smoke size."""
    cfg = CFG.with_level(OptLevel.FUSED)
    return DistributedTrainer(
        lambda: CHGNetModel(cfg, np.random.default_rng(5)),
        StructureDataset(entries),
        DistributedConfig(world_size=2, global_batch_size=8, epochs=1, compile=True, seed=0),
    )


def test_trainer_captures_before_the_slab_exists(tiny_entries, monkeypatch):
    seen, slabs = [], []  # slab bytes at each eager step; every slab allocated
    eager, new_slab = StepCompiler._eager, compile_mod._new_slab

    def probed(comp, batch):
        seen.append(comp.cache.arena_bytes)
        return eager(comp, batch)

    def counted(nbytes):
        slabs.append(nbytes)
        return new_slab(nbytes)

    monkeypatch.setattr(StepCompiler, "_eager", probed)
    monkeypatch.setattr(compile_mod, "_new_slab", counted)
    dt = _trainer(tiny_entries)
    cache = dt.compilers[0].cache
    assert dt.compile_stats()["captures"] == len(cache.programs) > 1
    assert seen and set(seen) == {0}
    largest = max(prog.arena_bytes for prog in cache.programs.values())
    assert [n for n in slabs if n] == [largest] == [cache.arena_bytes]


def test_capture_beside_the_slab_resolves_no_libc(primed):
    comp, large, small = primed
    compile_mod._libc.cache_clear()
    comp.step(small)  # capture on a cache that holds the large program's slab
    assert comp.stats.captures == 2
    assert compile_mod._libc.cache_info().misses == 0
    _validated_replay(comp, small)
    _validated_replay(comp, large)


def test_trainer_without_malloc_trim(tiny_entries, monkeypatch):
    calls = []
    monkeypatch.setattr(compile_mod, "_libc", lambda: calls.append(1))  # returns None
    dt = _trainer(tiny_entries)
    assert calls  # the build's heap trim asked, and found no malloc_trim
    try:
        for compiler in dt.compilers:
            compiler.validate = True  # each replay re-run eagerly, compared bit for bit
        dt.train()
    finally:
        dt.close()  # stops the rank executors the first step forked
    stats = dt.compile_stats()
    assert stats["replays"] > 0 and stats["eager_fallbacks"] == 0
    assert dt.replicas_in_sync()
