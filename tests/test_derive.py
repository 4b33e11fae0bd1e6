"""Programs derived from a few eager captures of their structure.

The contract under test (docs/architecture.md, "Derived programs"):

* for every planned shape of the perf ledger's ``train_ddp`` (full size at
  two seeds, and smoke size) the trace a template derives equals a fresh
  eager capture — instructions, kernels, keyword arguments, shapes, slots,
  externals with their constant values, gradient writes and outputs — and
  the program the trainer replays has a fresh capture's buffer specs and
  offsets;
* replays of derived programs with ``validate`` set are bit-identical to
  eager, gradients included;
* two collinear samples leave a target unresolved: it is captured eagerly;
* a model that branches on a count marks its structure never-derive, and
  every shape stays bit-identical;
* a batch with another structure count gets a template of its own.
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.loader import ShardedLoader
from repro.data.mptrj import generate_mptrj
from repro.data.samplers import BucketBatchSampler
from repro.graph.batching import pad_batch
from repro.model import OptLevel
from repro.tensor import derive
from repro.tensor.compile import CompiledStep, Instr, StepCompiler, program_signature
from repro.tensor.derive import RawTrace
from repro.train import DistributedConfig, DistributedTrainer
from repro.train.loss import CompositeLoss
from serve_harness import TINY_CFG as CFG, make_model

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "workloads.py"


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("ledger_workloads", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _ledger_inputs(scale: str, seed: int):
    """``train_ddp``'s dataset, model factory and size at ``scale``."""
    w = _workloads()
    size = w.SIZES[scale]["train_ddp"]
    workload = w.TrainDDP(seed, size)
    workload.inputs()
    config = w._config(size["dim"], 7, 3, OptLevel.FUSED)
    return workload.dataset, functools.partial(w._model, config), size


class _Record:
    """Stands in for the templates of one capture: keeps its raw trace."""

    def add(self, sig, trace, outputs):
        self.raw = RawTrace.of(trace, outputs)


def _fresh(model, batch) -> RawTrace:
    """The raw trace of an eager capture of ``batch`` on a fresh compiler."""
    comp, record = StepCompiler(model, CompositeLoss()), _Record()
    step = functools.partial(comp._traced_step, batch)
    comp._trace(program_signature(batch, False, "train"), batch, step, record)
    return record.raw


def _assert_same_trace(derived: RawTrace, fresh: RawTrace) -> None:
    assert derived.n_slots == fresh.n_slots
    assert derived.grad_writes == fresh.grad_writes
    assert derived.outputs == fresh.outputs
    assert len(derived.instrs) == len(fresh.instrs)
    for a, b in zip(derived.instrs, fresh.instrs):
        for name in Instr.__slots__:
            x, y = getattr(a, name), getattr(b, name)
            assert x is y if name == "fn" else x == y, (a.name, name, x, y)
    assert len(derived.externals) == len(fresh.externals)
    for a, b in zip(derived.externals, fresh.externals):
        assert (a[0], a[1], a[3], a[4]) == (b[0], b[1], b[3], b[4])
        if a[1] == "const":
            assert a[2].dtype == b[2].dtype and a[2].shape == b[2].shape
            assert a[2].tobytes() == b[2].tobytes()
        else:
            assert a[2] == b[2]


@pytest.fixture
def kept(monkeypatch):
    """The templates every ``prepare`` made, kept past its return."""
    made = []

    class Kept(derive.TraceTemplates):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    monkeypatch.setattr(derive, "TraceTemplates", Kept)
    return made


class TestLedgerShapes:
    @pytest.mark.parametrize(
        "scale, seed",
        [("full", 11), pytest.param("full", 23, marks=pytest.mark.slow), ("smoke", 1)],
    )
    def test_every_planned_shape_derives_a_fresh_capture(self, kept, scale, seed):
        dataset, model, size = _ledger_inputs(scale, seed)
        sampler = BucketBatchSampler(
            dataset.feature_numbers, size["global_batch"], 2, seed=seed, dims=dataset.graph_dims
        )
        batches = ShardedLoader(dataset, sampler).planned_batches()
        comp = StepCompiler(model(), CompositeLoss())
        comp.prepare(batches)
        assert comp.stats.captures == len(batches) == len(sampler.tier_targets)
        if scale == "full":
            assert comp.stats.derived > 0
        (templates,) = kept
        for batch in batches:
            sig = program_signature(batch, False, "train")
            derived = templates.derive(sig)
            fresh = _fresh(model(), batch)
            _assert_same_trace(derived, fresh)
            built = CompiledStep(fresh, fresh.outputs, len(comp.params))
            replayed = comp.cache.programs[sig]
            assert replayed.specs() == built.specs()
            assert replayed.arena_bytes == built.arena_bytes

    def test_derived_replays_are_bit_identical_to_eager(self):
        dataset, model, size = _ledger_inputs("full", 11)
        trainer = DistributedTrainer(
            model,
            dataset,
            DistributedConfig(
                world_size=2,
                global_batch_size=size["global_batch"],
                epochs=1,
                compile=True,
                seed=11,
            ),
        )
        try:
            for compiler in trainer.compilers:
                compiler.validate = True  # every replay re-run eagerly, compared
            trainer.train()
        finally:
            trainer.close()
        stats = trainer.compile_stats()
        assert stats["derived"] > 0
        assert stats["replays"] == 2 * len(trainer.steps)
        assert stats["captures"] == len(trainer.sampler.tier_targets)
        assert stats["eager_fallbacks"] == 0
        assert trainer.replicas_in_sync()


@pytest.fixture(scope="module")
def dataset():
    return StructureDataset(generate_mptrj(6, seed=4, max_atoms=6))


@pytest.fixture(scope="module")
def base(dataset):
    """An unpadded two-structure batch."""
    return dataset.batch([0, 1])


def _padded(batch, *steps):
    """``batch`` padded by each ``(atoms, edges, short edges, angles)`` step."""
    dims = np.array(
        [batch.num_atoms, batch.num_edges, batch.num_short_edges, batch.num_angles]
    )
    return [pad_batch(batch, *(dims + step).tolist()) for step in steps]


def _validated(batches, model=None):
    comp = StepCompiler(model or make_model(cfg=CFG.with_level(OptLevel.FUSED)), CompositeLoss())
    comp.prepare(batches)
    comp.validate = True
    for batch in batches:
        comp.step(batch)  # a replay, re-run eagerly and compared bit for bit
    assert comp.stats.replays == len(batches)
    assert comp.stats.eager_fallbacks == 0
    return comp


class TestRefusals:
    def test_collinear_samples_leave_the_target_to_an_eager_capture(self, base):
        # The two samples move every count in step, so an integer that
        # follows one count follows the others too, and they disagree at
        # the target: it is captured, not derived.
        on_a_line = _padded(base, (1, 10, 10, 10), (2, 20, 20, 20), (3, 35, 30, 30))
        comp = _validated(on_a_line)
        assert comp.stats.captures == 3
        assert comp.stats.derived == 0
        # A third sample off that line resolves the same target.
        off_it = _padded(base, (1, 10, 10, 10), (2, 20, 20, 20), (1, 30, 12, 14), (3, 35, 30, 30))
        comp = _validated(off_it)
        assert comp.stats.captures == 4
        assert comp.stats.derived == 1

    def test_a_branch_on_a_count_marks_the_structure_never_derive(self, base, kept):
        model = make_model(cfg=CFG.with_level(OptLevel.FUSED))
        forward = model.forward

        def branching(batch, training=False):
            out = forward(batch, training=training)
            if batch.num_atoms % 2:  # one more kernel at odd atom counts
                out.energy_per_atom = out.energy_per_atom * 1.0
            return out

        model.forward = branching
        steps = [(1, 10, 10, 10), (2, 20, 20, 20), (1, 30, 12, 14), (3, 35, 30, 30)]
        comp = _validated(_padded(base, *steps), model)
        assert comp.stats.never_derive == 1
        assert comp.stats.derived == 0
        assert comp.stats.captures == len(steps)
        (templates,) = kept
        assert not templates.templates and len(templates.never) == 1

    def test_another_structure_count_gets_its_own_template(self, dataset, base, kept):
        three = dataset.batch([0, 1, 2])
        batches = _padded(base, (1, 10, 10, 10)) + _padded(three, (1, 10, 10, 10))
        _validated(batches)
        (templates,) = kept
        assert sorted(key[1] for key in templates.templates) == [
            base.num_structs + 1,
            three.num_structs + 1,
        ]
