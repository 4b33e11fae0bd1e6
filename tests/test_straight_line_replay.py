"""Straight-line replay: every compiled program runs as one generated function.

The contract under test (docs/architecture.md, "Straight-line replay"):

* the generated function indexes the slot list and keeps a small, fixed
  frame — no slot is hoisted into a local, whatever the program's size;
* programs of one model that differ only in shapes share one code object,
  each with its own constants namespace, and the code cache is bounded;
* keyword arrays are read from the slots at the call site, so ``bind``
  rebuilds nothing per instruction;
* the timed variant ``replay_measured`` runs the same kernels into the same
  buffers: outputs and gradients equal those of ``replay`` bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.graph.batching import collate
from repro.graph.crystal_graph import build_graph
from repro.model import OptLevel
from repro.tensor import compile as tc
from repro.tensor.compile import InferenceCompiler, StepCompiler
from repro.train.loss import CompositeLoss
from serve_harness import TINY_CFG as CFG, make_model

#: Locals of the generated functions: ``S``; ``S``, ``T`` and ``t0`` timed.
REPLAY_LOCALS = 1
TIMED_LOCALS = 3


@pytest.fixture(scope="module")
def entries():
    return generate_mptrj(14, seed=9, max_atoms=10)


@pytest.fixture(scope="module")
def graphs(entries):
    return [build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond) for e in entries]


@pytest.fixture(scope="module")
def trained(entries):
    """A FUSED training compiler holding two programs of different shapes."""
    dataset = StructureDataset(entries)
    comp = StepCompiler(make_model(cfg=CFG.with_level(OptLevel.FUSED)), CompositeLoss())
    batches = [dataset.batch([0, 1, 2, 3]), dataset.batch([4, 5, 6, 7, 8, 9])]
    for batch in batches:
        comp.step(batch)
    assert comp.stats.captures == 2
    return comp, batches


def _inference_programs(graphs):
    comp = InferenceCompiler(make_model(cfg=CFG.with_level(OptLevel.DECOMPOSE_FS)))
    for group in (graphs[:1], graphs[:4], graphs[4:12]):
        comp.run(collate(group))
    assert comp.stats.captures == 3
    return list(comp.cache.programs.values())


class TestFrame:
    def test_every_replay_function_has_a_small_fixed_frame(self, trained, graphs):
        comp, _ = trained
        progs = [*comp.cache.programs.values(), *_inference_programs(graphs)]
        assert max(p.n_instrs for p in progs) > 1000  # forward + double backward
        for prog in progs:
            assert prog._run.__code__.co_nlocals == REPLAY_LOCALS
            timed = tc._replay_function(prog.instrs, timed=True)
            assert timed.__code__.co_nlocals == TIMED_LOCALS

    def test_tiers_of_one_model_share_one_code_object(self, trained, graphs):
        comp, _ = trained
        for progs in (list(comp.cache.programs.values()), _inference_programs(graphs)):
            first = progs[0]._run
            assert all(p._run.__code__ is first.__code__ for p in progs)
            namespaces = {id(p._run.__globals__) for p in progs}
            assert len(namespaces) == len(progs)

    def test_code_cache_is_bounded(self, graphs, monkeypatch):
        monkeypatch.setattr(tc, "_CODE", OrderedDict())
        monkeypatch.setattr(tc, "_CODE_CAPACITY", 1)
        for level in (OptLevel.DECOMPOSE_FS, OptLevel.FUSED):
            comp = InferenceCompiler(make_model(cfg=CFG.with_level(level)))
            eager = {k: v.copy() for k, v in comp.run(collate(graphs[:4])).items()}
            assert len(tc._CODE) == 1
            replayed = comp.run(collate(graphs[:4]))
            assert all(np.array_equal(replayed[k], v) for k, v in eager.items())


class TestCallSites:
    def test_kwarg_arrays_are_read_from_the_slots_at_the_call_site(self, trained):
        comp, _ = trained
        prog = next(iter(comp.cache.programs.values()))
        source, _ = tc._replay_source(prog.instrs, timed=False)
        lines = iter(source.splitlines()[1:])
        checked = 0
        for ins in prog.instrs:
            statements = [next(lines) for _ in ins.chain or [ins]]
            for key, slot in ins.kw_ext:
                if ins.name == "gather" and key == "plan":
                    continue  # the scatter plan of its VJP; the take ignores it
                assert f"S[{slot}]" in statements[0]
                checked += 1
        assert next(lines, None) is None
        assert checked > 0

    def test_gather_is_a_clipped_take_into_its_buffer(self, trained):
        comp, _ = trained
        prog = next(iter(comp.cache.programs.values()))
        source, _ = tc._replay_source(prog.instrs, timed=False)
        gathers = [ins for ins in prog.instrs if ins.name == "gather"]
        assert gathers
        for ins in gathers:
            (idx,) = [slot for key, slot in ins.kw_ext if key == "idx"]
            assert (
                f"S[{ins.in_slots[0]}].take(S[{idx}], axis=0, "
                f'out=S[{ins.out_slot}], mode="clip")'
            ) in source


class TestReplayMeasured:
    def test_timed_replay_equals_replay_bit_for_bit(self, trained):
        comp, batches = trained
        for batch in batches:
            comp.step(batch)  # bind, replay(), apply_grads
            prog = comp.last_program
            outs = {k: v.copy() for k, v in prog.output_arrays().items()}
            grads = [None if p.grad is None else p.grad.data.copy() for p in comp.params]
            comp.cache._slab.fill(0xFF)  # NaN in every float: the timed run must write it all
            times = prog.replay_measured()
            prog.apply_grads(comp.params)
            assert times.shape == (prog.n_instrs,)
            assert np.all(np.diff(times) >= 0.0) and times[0] >= 0.0
            for key, arr in prog.output_arrays().items():
                assert np.array_equal(arr, outs[key]), key
            for p, g in zip(comp.params, grads):
                assert (p.grad is None) == (g is None)
                assert g is None or np.array_equal(p.grad.data, g)
