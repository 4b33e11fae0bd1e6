"""An inference program holds its batch only while it replays.

The contract under test (docs/architecture.md, "What a built program
holds"): :meth:`InferenceCompiler._replay` unbinds the program once its
outputs are taken, so between replays no cached inference program holds a
batch array or a weight snapshot, and a caller that drops its batch frees
its arrays; replaying an unbound program raises instead of failing inside
a kernel.  A training program stays bound: the trainer's instrumented
replay reads ``StepCompiler.last_program`` (``tests/test_distributed_compile.py``).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from oracles import pad_to_bucket
from serve_harness import TINY_CFG, make_graphs, make_model

from repro.graph import collate
from repro.model import OptLevel
from repro.serve import InferenceEngine
from repro.tensor.compile import InferenceCompiler

CFG = TINY_CFG.with_level(OptLevel.DECOMPOSE_FS)


@pytest.fixture(scope="module")
def model():
    return make_model(cfg=CFG)


@pytest.fixture(scope="module")
def graphs():
    return make_graphs(8, seed=9, max_atoms=6, cfg=CFG)


def _array_refs(batch) -> list[weakref.ref]:
    """Weak references to every array ``batch`` holds."""
    refs = [weakref.ref(v) for v in vars(batch).values() if isinstance(v, np.ndarray)]
    assert refs
    return refs


def _holds_nothing_bound(prog) -> bool:
    return all(prog._slots[slot] is None for slot, *_ in prog._shared.bound)


def test_run_lets_go_of_the_batch(model, graphs):
    """After a capture and after a replay, the caller's batch is the only
    owner of its arrays: dropping it frees them."""
    comp = InferenceCompiler(model)
    for runs in (1, 2):  # a capture; a capture then a replay
        comp.release()
        batch = pad_to_bucket(collate(graphs[:3]))
        for _ in range(runs):
            out = comp.run(batch)
        refs = _array_refs(batch)
        del batch
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert np.isfinite(out["energy"]).all()  # outputs stay readable
    assert comp.stats.replays == 1
    (prog,) = comp.cache.programs.values()
    assert _holds_nothing_bound(prog)


def test_predict_many_lets_go_of_its_batches(model, graphs, monkeypatch):
    """Every padded batch the engine replays is freed once ``predict_many``
    returns, and no cached program holds a batch or weight array."""
    engine = InferenceEngine(model, n_workers=2, compile=True, max_batch_structs=3)
    engine.predict_many(graphs)  # captures
    refs: list[weakref.ref] = []
    run = InferenceCompiler.run

    def recording(comp, batch):
        refs.extend(_array_refs(batch))
        return run(comp, batch)

    monkeypatch.setattr(InferenceCompiler, "run", recording)
    served = engine.predict_many(graphs)
    assert engine.snapshot()["replays"] > 0 and refs
    gc.collect()
    assert all(ref() is None for ref in refs)
    programs = [p for w in engine.fleet for p in w.compiler.cache.programs.values()]
    assert programs and all(_holds_nothing_bound(p) for p in programs)
    monkeypatch.undo()
    again = engine.predict_many(graphs)  # unbound programs bind and replay again
    assert all(np.array_equal(a.forces, b.forces) for a, b in zip(served, again))


def test_replaying_an_unbound_program_raises(model, graphs):
    comp = InferenceCompiler(model)
    batch = pad_to_bucket(collate(graphs[:2]))
    comp.run(batch)
    comp.run(batch)
    prog = comp.last_program
    named = r"^replay of unbound program \(\d+ launches, externals of shapes \(\("
    with pytest.raises(RuntimeError, match=named):
        prog.replay()
    with pytest.raises(RuntimeError, match="unbound"):
        prog.replay_measured()
    assert prog.bind(batch, comp.params) is None
    prog.replay()  # bound again: replays
    prog.unbind()
