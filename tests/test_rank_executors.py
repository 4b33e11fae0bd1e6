"""Rank executors: the ranks of a replay-only step run in forked processes.

The contract under test: a compiled trainer whose ranks run at the same
time, in the trainer's process and its forks (:mod:`repro.train.ranks`),
finishes bit-identical to the same trainer running every rank in its own
process, with the same per-step losses and compiler counters; a worker's
failure reaches the caller with its type and rank; no worker outlives its
trainer.
"""

from __future__ import annotations

import copy
import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.comm import FaultPlan
from repro.data import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.runtime import kernel_stats
from repro.tensor.compile import CompiledStep
from repro.train import DistributedConfig, DistributedTrainer, ranks, run_elastic

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(os, "fork"), reason="rank executors fork"
)

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
    return StructureDataset(generate_mptrj(24, seed=3, max_atoms=4))


def factory():
    return CHGNetModel(CFG.with_level(OptLevel.FUSED), np.random.default_rng(5))


def _trainer(dataset, world_size=2, plan=None, **overrides):
    cfg = dict(
        world_size=world_size,
        global_batch_size=12,
        epochs=2,
        learning_rate=1e-4,
        seed=0,
        compile=True,
    )
    cfg.update(overrides)
    return DistributedTrainer(factory, dataset, DistributedConfig(**cfg), plan)


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def two_cpus(monkeypatch):
    """Two processes per trainer whatever this machine has."""
    monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)


def _train_profiling_one_step(trainer):
    """Train all epochs, the second epoch's last step under a kernel
    profile (between two steps that run in parallel); returns the profile."""
    for epoch in range(trainer.config.epochs):
        for i, shards in enumerate(trainer.loader.iter_epoch(epoch)):
            if (epoch, i) == (1, len(trainer.loader) - 1):
                with kernel_stats() as kernels:
                    trainer.train_step(shards)
            else:
                trainer.train_step(shards)
    return kernels


@pytest.mark.parametrize("world_size", [2, 3, 4])
def test_executors_match_the_in_process_loop(dataset, monkeypatch, world_size):
    """Three epochs on two processes (several ranks per process at 3 and 4)
    and on one: the same weights, step losses, compiler counters and
    profiled kernels."""
    monkeypatch.setattr(ranks, "usable_cpus", lambda: 2)
    forked = []
    fork = ranks.RankExecutors.fork
    monkeypatch.setattr(
        ranks.RankExecutors, "fork", lambda ex, *a: forked.append(fork(ex, *a))
    )
    parallel = _trainer(dataset, world_size, epochs=3)
    profiled = _train_profiling_one_step(parallel)
    monkeypatch.setattr(ranks, "usable_cpus", lambda: 1)
    serial = _trainer(dataset, world_size, epochs=3)
    assert _train_profiling_one_step(serial).by_name == profiled.by_name
    assert forked and parallel._ranks.processes == 2 and serial._ranks.processes == 1

    for a, b in zip(parallel.model.parameters(), serial.model.parameters()):
        assert np.array_equal(a.data, b.data)
    assert parallel.replicas_in_sync()
    fields = ("loss", "energy_mae", "force_mae", "stress_mae", "magmom_mae")
    for a, b in zip(parallel.steps, serial.steps, strict=True):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert parallel.compile_stats() == serial.compile_stats()
    assert parallel.compile_stats()["captures"] == len(parallel.sampler.tier_targets)
    parallel.close()


def test_a_worker_divergence_names_its_rank(dataset, monkeypatch, two_cpus):
    """A replay poisoned in the worker only, under ``validate``: the parent
    raises the worker's RuntimeError with the rank named."""
    parent = os.getpid()
    replay = CompiledStep.replay

    def poisoned(prog):
        replay(prog)
        if os.getpid() != parent:
            prog.output_arrays()["loss"].fill(np.nan)

    monkeypatch.setattr(CompiledStep, "replay", poisoned)
    trainer = _trainer(dataset)
    for compiler in trainer.compilers:
        compiler.validate = True
    with pytest.raises(RuntimeError, match=r"^rank 1: compiled replay loss diverged"):
        trainer.train()
    trainer.close()


def test_a_workers_bind_error_keeps_its_type(dataset, two_cpus):
    trainer = _trainer(dataset, epochs=1)
    trainer.train()
    shards = next(iter(trainer.loader.iter_epoch(1)))
    bad = copy.deepcopy(shards[1])
    bad.edge_src = bad.edge_src.copy()
    bad.edge_src[0] = bad.num_atoms + 7
    with pytest.raises(IndexError, match=r"^rank 1: batch index array"):
        trainer.train_step([shards[0], bad])
    # the executor survives its rank's failure
    trainer.train_step(shards)
    assert trainer.replicas_in_sync()
    trainer.close()


def test_no_worker_outlives_its_trainer(dataset, two_cpus, tmp_path):
    gc.collect()
    assert _no_children()
    trainer = _trainer(dataset)
    trainer.train()
    assert not _no_children()
    del trainer
    gc.collect()
    assert _no_children()

    old = _trainer(dataset, plan=FaultPlan().kill(rank=1, step=3))
    result = run_elastic(old, checkpoint_path=str(tmp_path / "ckpt"), shrink=False)
    assert len(result.failures) == 1 and old._ranks.generation is None
    result.trainer.close()
    assert _no_children()


def test_blas_runs_one_thread_while_executors_live(two_cpus):
    """The parent and every executor replay on CPUs of their own, so each
    runs BLAS on one thread while executors live; closing them gives the
    parent its thread count back."""
    blas = ranks.blas_threads()
    if blas is None:
        pytest.skip("no BLAS thread-count API found in this process")
    get, put = blas
    before = get()
    put(2)  # a pool to pin, whatever the environment asked for
    executors = ranks.RankExecutors(world_size=2)
    try:
        executors.fork(lambda rank, shard, validate: ranks.blas_threads()[0](), 0)
        assert get() == 1
        assert executors.submit([(1, None, False)]) == {1}
        assert executors.collect() == [(1, 1)]
        executors.close()
        assert get() == 2
    finally:
        executors.close()
        put(before)


def test_a_parallel_step_imports_no_multiprocessing():
    """The executors talk over plain pipes: a fresh process that trains a
    parallel step has not imported ``multiprocessing``."""
    code = (
        "import sys\n"
        "import test_rank_executors as t\n"
        "from repro.train import ranks\n"
        "ranks.usable_cpus = lambda: 2\n"
        "dataset = t.StructureDataset(t.generate_mptrj(24, seed=3, max_atoms=4))\n"
        "trainer = t._trainer(dataset, epochs=1)\n"
        "trainer.train()\n"
        "assert trainer._ranks.generation is not None\n"
        "trainer.close()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
