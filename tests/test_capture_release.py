"""A training capture holds no resident slab page and returns its freed heap.

The contract under test (docs/architecture.md, "Capture memory"):

* in place — a training capture on a cache that already holds a program
  runs its eager step with none of the slab's pages resident, keeps the
  slab object, and the next replay is bit-identical to eager;
* let go — when something outside the cached programs views the slab (an
  output held across the capture, or a view of one), the slab is let go as
  growth lets it go: the held arrays read the same bits afterwards, and the
  cache continues on a new slab of the same size;
* optional — without ``madvise`` / ``malloc_trim`` in the C library a
  training capture does nothing extra and still replays bit-identically,
  and a capture that fails part-way leaves the cache as usable as before;
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
from repro.model import OptLevel
from repro.tensor import compile as compile_mod
from repro.tensor.compile import StepCompiler, TapeTrace, TraceUnsupported
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


def _resident_pages(arr: np.ndarray) -> tuple[int, int]:
    """(resident, total) whole pages inside ``arr``'s bytes, read from
    ``/proc/self/pagemap`` (bit 63 of each page's entry: present in RAM).
    Per page, unlike ``smaps``, whose counts cover a whole mapping — and the
    slab may sit inside the heap's."""
    page = os.sysconf("SC_PAGE_SIZE")
    first = -(-arr.ctypes.data // page)
    end = (arr.ctypes.data + arr.nbytes) // page
    with open("/proc/self/pagemap", "rb") as fh:
        fh.seek(first * 8)
        entries = np.frombuffer(fh.read((end - first) * 8), dtype="<u8")
    return int((entries >> np.uint64(63)).sum()), end - first


def _probe_eager(comp: StepCompiler, probe) -> list:
    """Run ``probe()`` at the start of the compiler's next eager step only."""
    eager, seen = comp._eager, []

    def probed(batch):
        if not seen:
            seen.append(probe())
        return eager(batch)

    comp._eager = probed
    return seen


def _validated_replay(comp: StepCompiler, batch) -> None:
    before = comp.stats.replays
    comp.step(batch)  # raises if loss, predictions or any gradient differ
    assert comp.stats.replays == before + 1


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not os.access("/proc/self/pagemap", os.R_OK),
    reason="reads page residency from /proc/self/pagemap",
)
def test_capture_runs_with_no_slab_page_resident(primed):
    comp, large, small = primed
    slab = comp.cache._slab
    resident, pages = _resident_pages(slab)
    assert pages > 16 and resident == pages  # page-touched when allocated
    seen = _probe_eager(comp, lambda: _resident_pages(slab))
    comp.step(small)  # capture
    assert comp.stats.captures == 2
    assert seen == [(0, pages)]
    assert comp.cache._slab is slab  # released in place, kept
    assert _resident_pages(slab) == (pages, pages)  # touched again by store
    _validated_replay(comp, small)
    _validated_replay(comp, large)


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
    assert all(np.shares_memory(v, comp.cache._slab) for v in outs.values())
    kept = {k: v.copy() for k, v in outs.items()}
    slab, nbytes = comp.cache._slab, comp.cache.arena_bytes
    comp.step(small)  # capture: the slab is let go, not released in place
    assert comp.cache._slab is not slab and comp.cache.arena_bytes == nbytes
    _validated_replay(comp, large)  # writes the new slab
    assert all(np.array_equal(outs[k], kept[k]) for k in kept)
    assert not any(np.shares_memory(v, comp.cache._slab) for v in outs.values())
    for p in comp.cache.programs.values():
        assert all(np.shares_memory(b, comp.cache._slab) for b in p.buffers if b.size)
    _validated_replay(comp, small)


def test_without_madvise_or_malloc_trim(primed, monkeypatch):
    monkeypatch.setattr(compile_mod, "_libc", lambda: (None, None))
    comp, large, small = primed
    slab = comp.cache._slab
    comp.step(small)
    assert comp.stats.captures == 2 and comp.cache._slab is slab
    (small_prog,) = [p for p in comp.cache.programs.values() if p is comp.last_program]
    assert all(np.shares_memory(b, slab) for b in small_prog.buffers if b.size)
    _validated_replay(comp, small)
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
    assert (comp.cache._slab is slab) is not hold  # let go only while held
    _validated_replay(comp, large)
    assert all(np.array_equal(held[k], kept[k]) for k in kept)


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
