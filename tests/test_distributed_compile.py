"""Compiled distributed training: bit-exact equivalence, buckets, overlap.

The contract under test (ISSUE 3): ``DistributedConfig(compile=True)`` runs
bucket-sampled, plan-padded, compiled per-rank steps that are bit-identical
to the eager distributed path on the same padded pipeline; gradients flush
through liveness-ordered buckets via the in-place collective; the planned
shapes are cached once each before the first step (a few captured eagerly,
the rest derived from them) and every epoch is replay-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import ClusterSpec, SimCommunicator, simulate_overlap
from repro.data import StructureDataset
from repro.graph.batching import workload_cost
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.train import DistributedConfig, DistributedTrainer, GradientBuckets

CFG = CHGNetConfig(
    atom_fea_dim=8,
    bond_fea_dim=8,
    angle_fea_dim=8,
    num_radial=5,
    angular_order=2,
    hidden_dim=8,
)


@pytest.fixture(scope="module")
def dataset(tiny_entries):
    return StructureDataset(tiny_entries)


def factory():
    return CHGNetModel(CFG.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(5))


def _epoch(dt: DistributedTrainer) -> None:
    """Train one pass over the loader's next epoch."""
    for shards in dt.loader:
        dt.train_step(shards)


def _cfg(**overrides) -> DistributedConfig:
    base = dict(
        world_size=2, global_batch_size=8, epochs=2, learning_rate=1e-4, seed=0
    )
    base.update(overrides)
    return DistributedConfig(**base)


class TestCompiledEquivalence:
    @pytest.mark.parametrize("world_size", [1, 2])
    def test_compiled_bit_identical_to_eager_padded_across_epochs(self, dataset, world_size):
        """Weights and losses of a compiled run equal the eager run through
        the identical padded pipeline, bit for bit, after two epochs — on
        one device as on two ranks."""
        compiled = DistributedTrainer(
            factory, dataset, _cfg(world_size=world_size, compile=True)
        )
        for compiler in compiled.compilers:
            compiler.validate = True
        compiled.train()
        eager = DistributedTrainer(
            factory,
            dataset,
            _cfg(
                world_size=world_size,
                compile=False,
                bucket_sampler=True,
                memoize_shards=True,
            ),
        )
        eager.train()
        assert compiled.replicas_in_sync()
        assert eager.replicas_in_sync()
        state_c = compiled.model.state_dict()
        state_e = eager.model.state_dict()
        assert all(np.array_equal(state_c[k], state_e[k]) for k in state_c)
        assert len(compiled.steps) == len(eager.steps) > 0
        for a, b in zip(compiled.steps, eager.steps):
            assert a.loss == b.loss
            assert a.energy_mae == b.energy_mae
        assert compiled.history == eager.history
        # the compiled run really replayed (validated bitwise per replay)
        stats = compiled.compile_stats()
        assert stats["replays"] > 0
        assert stats["eager_fallbacks"] == 0

    def test_replicas_stay_in_sync_compiled(self, dataset):
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=1))
        assert dt.replicas_in_sync()
        for shards in dt.loader:
            dt.train_step(shards)
            assert dt.replicas_in_sync()

    def test_warm_start_first_epoch_captures_once_per_tier(self, dataset):
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=2))
        n_tiers = len(dt.sampler.tier_targets)
        assert n_tiers > 0
        _epoch(dt)
        after_first = dt.compile_stats()["captures"]
        _epoch(dt)
        stats = dt.compile_stats()
        # captures bounded by the warm-started tier count per rank, and the
        # second epoch added none (replay-only).
        assert stats["captures"] <= n_tiers * dt.config.world_size
        assert stats["captures"] == after_first
        assert stats["replays"] > 0

    def test_padded_shards_share_tier_shapes_across_ranks(self, dataset):
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=1))
        planned = set(dt.sampler.tier_targets.values())
        for shards in dt.loader:
            shapes = {
                (b.num_atoms, b.num_edges, b.num_short_edges, b.num_angles)
                for b in shards
            }
            # every rank's shard was padded to a planned shape; the ranks of
            # a step may differ (they replay from one shared cache)
            assert shapes <= planned
            assert all(b.pad_info is not None for b in shards)

    def test_padded_epoch_spends_under_half_on_ghosts(self, dataset):
        """Planned padding keeps the ghost share of an epoch's workload
        below one half."""
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=1))
        padded = real = 0
        for shards in dt.loader:
            for b in shards:
                pi = b.pad_info
                padded += workload_cost(
                    b.num_atoms, b.num_edges, b.num_short_edges, b.num_angles
                )
                real += workload_cost(
                    pi.num_atoms, pi.num_edges, pi.num_short_edges, pi.num_angles
                )
        assert 0 < real <= padded
        assert 1.0 - real / padded < 0.5


class TestPlannedCapture:
    """A padded run caches exactly its planned shapes before its first step
    — a few captured eagerly, the rest derived from them — and every step
    replays (docs/architecture.md, "Derived programs")."""

    def test_captures_are_the_planned_shapes_largest_first(self, dataset, monkeypatch):
        from repro.graph.batching import workload_cost
        from repro.tensor.compile import SharedProgramCache, StepCompiler

        stored = []  # (padded dims, slab bytes once stored), in store order
        traced = []  # padded dims of every eager capture, in capture order
        slabs = []  # bytes of every slab allocated
        real_store, real_trace = SharedProgramCache.store, StepCompiler._trace
        real_reslab = SharedProgramCache._reslab

        def store(cache, sig, prog):
            real_store(cache, sig, prog)
            stored.append((sig[2:6], cache.arena_bytes))

        def trace(comp, sig, *args):
            traced.append(sig[2:6])
            return real_trace(comp, sig, *args)

        def reslab(cache, nbytes):
            slabs.extend([nbytes] if nbytes else [])
            real_reslab(cache, nbytes)

        monkeypatch.setattr(SharedProgramCache, "store", store)
        monkeypatch.setattr(StepCompiler, "_trace", trace)
        monkeypatch.setattr(SharedProgramCache, "_reslab", reslab)
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=3))
        planned = list(dt.sampler.tier_targets.values())
        assert 1 < len(planned) <= dt.compilers[0].max_programs
        cache = dt.compilers[0].cache
        # before any step: one program per planned shape, eager or derived
        stats = dt.compile_stats()
        assert stats["captures"] == len(planned)
        assert 0 < stats["derived"] < len(planned)
        assert sorted(dims for dims, _ in stored) == sorted(planned)
        assert sorted(sig[2:6] for sig in cache.programs) == sorted(planned)
        # the eager captures, cheapest first, ran before any slab existed;
        # the largest plan was stored first, so the slab was allocated once,
        # at its final size
        assert len(traced) == len(planned) - stats["derived"]
        costs = [workload_cost(*dims) for dims in traced]
        assert costs == sorted(costs)
        slab = cache.arena_bytes
        assert slab == max(prog.arena_bytes for prog in cache.programs.values())
        assert slabs == [slab]
        assert {nbytes for _, nbytes in stored} == {slab}

        programs = list(cache.programs)
        _epoch(dt)
        _epoch(dt)
        _epoch(dt)
        stats = dt.compile_stats()
        assert stats["captures"] == len(planned)  # no epoch captured anything
        assert len(traced) == len(planned) - stats["derived"]
        assert stats["eager_fallbacks"] == 0
        # every rank-step replayed a prepared program
        assert stats["replays"] == 3 * len(dt.loader) * dt.config.world_size
        assert sorted(cache.programs) == sorted(programs)  # none evicted
        assert cache.misses == 0
        assert slabs == [slab]
        assert dt.replicas_in_sync()

    def test_single_device_blocks_capture_the_plan_too(self, dataset):
        trainer = DistributedTrainer(
            factory, dataset, _cfg(world_size=1, global_batch_size=6, compile=True)
        )
        (compiler,) = trainer.compilers
        planned = trainer.sampler.tier_targets
        assert len(planned) > 1
        assert compiler.stats.captures == len(planned)
        assert compiler.stats.derived > 0
        slab = compiler.arena_bytes
        trainer.train()
        assert compiler.stats.captures == len(planned)
        assert compiler.stats.replays == len(trainer.steps)
        assert compiler.stats.eager_fallbacks == 0
        assert compiler.arena_bytes == slab


class TestTrainableMask:
    def test_mask_cached_once_and_skips_gradless_params(self, dataset):
        dt = DistributedTrainer(factory, dataset, _cfg(compile=False, epochs=1))
        shards = next(iter(dt.loader))
        dt.train_step(shards)
        mask = dt._trainable
        buckets = dt._buckets
        assert mask is not None
        assert mask == [p.grad is not None for p in dt._params[0]]
        dt.train_step(shards)
        # same objects: computed once, reused
        assert dt._trainable is mask
        assert dt._buckets is buckets
        bucketed = sorted(i for b in buckets.buckets for i in b)
        assert bucketed == [i for i, t in enumerate(mask) if t]

    def test_flush_plan_and_work_reused_across_steps(self, dataset):
        dt = DistributedTrainer(factory, dataset, _cfg(compile=False, epochs=1))
        shards = next(iter(dt.loader))
        dt.train_step(shards)
        assert dt._flush and all(w is not None for w in dt._flush_work)
        view_ids = [[id(v) for v in views] for views in dt._flush]
        work_ids = [id(w) for w in dt._flush_work]
        dt.train_step(shards)
        assert [[id(v) for v in views] for views in dt._flush] == view_ids
        assert [id(w) for w in dt._flush_work] == work_ids


class TestGradientBuckets:
    class _P:
        def __init__(self, n):
            self.data = np.zeros(n)

    def test_covers_trainable_exactly_once_in_reverse_order(self):
        params = [self._P(4), self._P(2), self._P(8), self._P(1)]
        gb = GradientBuckets(params, [True, False, True, True], n_buckets=2)
        flat = [i for b in gb.buckets for i in b]
        assert sorted(flat) == [0, 2, 3]
        assert flat == sorted(flat, reverse=True)  # liveness (reverse) order
        assert gb.total_bytes == sum(params[i].data.nbytes for i in (0, 2, 3))
        assert sum(gb.bucket_bytes) == gb.total_bytes

    def test_bucket_count_bounded(self):
        params = [self._P(2) for _ in range(3)]
        gb = GradientBuckets(params, [True] * 3, n_buckets=8)
        assert 1 <= gb.n_buckets <= 3
        with pytest.raises(ValueError):
            GradientBuckets(params, [True] * 3, n_buckets=0)
        with pytest.raises(ValueError):
            GradientBuckets(params, [False] * 3, n_buckets=2)

    def test_ready_fractions_monotone_to_one(self):
        params = [self._P(n) for n in (5, 3, 7, 2, 9)]
        gb = GradientBuckets(params, [True] * 5, n_buckets=3)
        fr = gb.ready_fractions
        assert all(b > a for a, b in zip(fr, fr[1:]))
        assert fr[-1] == pytest.approx(1.0)


class TestInplaceAllreduce:
    def test_matches_stacked_mean_bitwise(self):
        comm = SimCommunicator(3)
        rng = np.random.default_rng(0)
        bufs = [rng.normal(size=(4, 5)) for _ in range(3)]
        expected = np.sum(np.stack(bufs), axis=0) / 3
        work = comm.allreduce_mean_inplace(bufs)
        for buf in bufs:
            assert np.array_equal(buf, expected)
        # scratch is reusable and reused
        bufs2 = [rng.normal(size=(4, 5)) for _ in range(3)]
        expected2 = np.sum(np.stack(bufs2), axis=0) / 3
        work2 = comm.allreduce_mean_inplace(bufs2, work)
        assert work2 is work
        assert all(np.array_equal(b, expected2) for b in bufs2)

    def test_shape_mismatch_raises(self):
        comm = SimCommunicator(2)
        with pytest.raises(ValueError):
            comm.allreduce_mean_inplace([np.ones(2), np.ones(3)])


class TestBucketedOverlapModel:
    def test_uniform_defaults_unchanged(self):
        spec = ClusterSpec()
        a = simulate_overlap(0.1, 10**7, 8, spec, n_buckets=4)
        b = simulate_overlap(
            0.1,
            0,
            8,
            spec,
            bucket_bytes=[10**7 / 4] * 4,
            ready_times=[0.1 * (i + 1) / 4 for i in range(4)],
        )
        assert a.total_time == pytest.approx(b.total_time)
        assert a.comm_time == pytest.approx(b.comm_time)

    def test_early_ready_buckets_hide_more_comm(self):
        spec = ClusterSpec()
        uniform = simulate_overlap(0.1, 10**8, 8, spec, n_buckets=4)
        early = simulate_overlap(
            0.1,
            10**8,
            8,
            spec,
            bucket_bytes=[10**8 / 4] * 4,
            ready_times=[0.01, 0.02, 0.03, 0.04],
        )
        assert early.exposed_comm <= uniform.exposed_comm + 1e-12
        assert early.comm_time == pytest.approx(uniform.comm_time)

    def test_validation(self):
        spec = ClusterSpec()
        with pytest.raises(ValueError):
            simulate_overlap(0.1, 100, 4, spec, bucket_bytes=[])
        with pytest.raises(ValueError):
            simulate_overlap(0.1, 100, 4, spec, bucket_bytes=[-1.0])
        with pytest.raises(ValueError):
            simulate_overlap(0.1, 100, 4, spec, bucket_bytes=[50.0], ready_times=[0.2])
        with pytest.raises(ValueError):
            simulate_overlap(
                0.1, 100, 4, spec, bucket_bytes=[50.0, 50.0], ready_times=[0.05]
            )

    def test_modeled_overlap_uses_trainer_buckets(self, dataset):
        dt = DistributedTrainer(
            factory, dataset, _cfg(compile=False, epochs=1, n_buckets=4)
        )
        with pytest.raises(RuntimeError):
            dt.modeled_overlap(ClusterSpec())
        dt.train_step(next(iter(dt.loader)))
        res = dt.modeled_overlap(ClusterSpec())
        assert res.total_time > 0
        assert 0 <= res.exposed_comm < res.total_time
        assert dt._buckets.n_buckets <= 4


class TestSharedProgramsAcrossRanks:
    def test_one_capture_per_tier_total_not_per_rank(self, dataset):
        """With the shared cache, the capture budget is the tier count —
        not tiers x world_size: rank 0 captures, the others rebind+replay."""
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=2))
        dt.train()
        stats = dt.compile_stats()
        n_tiers = len(dt.sampler.tier_targets)
        assert stats["captures"] <= n_tiers
        assert stats["replays"] > stats["captures"]
        assert stats["eager_fallbacks"] == 0
        assert dt.replicas_in_sync()


class TestFlattenedBucketCollectives:
    def test_flat_equals_per_param_flush_bitwise(self, dataset):
        """The packed per-bucket flush leaves every rank's gradients equal,
        bit for bit, to one mean-allreduce per parameter of the same
        per-rank gradients."""
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=1))
        world = range(dt.config.world_size)
        comm = SimCommunicator(dt.config.world_size)
        flushes = 0
        for shards in dt.loader:
            for compiler, batch in zip(dt.compilers, shards):
                compiler.step(batch)
            grads = [
                [None if p.grad is None else p.grad.data.copy() for p in params]
                for params in dt._params
            ]
            dt._flush_gradients()
            for i, grad in enumerate(grads[0]):
                if grad is None:
                    continue
                expected = [grads[r][i] for r in world]
                comm.allreduce_mean_inplace(expected)
                for r in world:
                    assert np.array_equal(dt._params[r][i].grad.data, expected[r])
            for opt in dt.optimizers:
                opt.step()
            flushes += 1
        assert flushes == len(dt.loader) > 1

    def test_one_collective_per_bucket(self, dataset):
        dt = DistributedTrainer(factory, dataset, _cfg(compile=False, epochs=1))
        calls = []
        orig = dt.comm.allreduce_mean_inplace

        def counting(per_rank, work=None):
            calls.append(per_rank[0].size)
            return orig(per_rank, work)

        dt.comm.allreduce_mean_inplace = counting
        dt.train_step(next(iter(dt.loader)))
        assert len(calls) == dt._buckets.n_buckets
        assert calls == [int(b) // 8 for b in dt._buckets.bucket_bytes]

    def test_bucket_is_one_slab_slice_per_rank(self, dataset):
        """Each collective reduces a slice of every rank's Adam gradient
        slab in place, and that slice holds exactly the bucket's gradients."""
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=1))
        dt.train_step(next(iter(dt.loader)))
        assert len(dt._flush) == dt._buckets.n_buckets
        for bucket, views in zip(dt._buckets.buckets, dt._flush):
            for rank, view in enumerate(views):
                assert np.shares_memory(view, dt.optimizers[rank].flat_grads)
                assert view.size == sum(dt._params[rank][i].size for i in bucket)
                for i in bucket:
                    grad = dt._params[rank][i].grad.data
                    assert np.shares_memory(grad, view)


class TestMeasuredReadyTimes:
    def test_fractions_available_after_compiled_step(self, dataset):
        dt = DistributedTrainer(
            factory, dataset, _cfg(compile=True, epochs=1, n_buckets=4)
        )
        assert dt.measured_ready_fractions() is None  # before any step
        _epoch(dt)
        fractions = dt.measured_ready_fractions()
        assert fractions is not None
        assert len(fractions) == dt._buckets.n_buckets
        assert all(0.0 <= f <= 1.0 for f in fractions)
        # the last-flushed bucket completes near the end of the replay
        assert fractions[-1] >= max(fractions) - 1e-9

    def test_a_captured_program_is_measurable_before_any_replay(self, dataset):
        """``last_program`` — the last program the build stored — is bound
        by the build itself.  Under per-rank tier equality the
        next rank's replay of the same program bound it; with planned shapes
        no other rank may ever meet it, and the instrumented replay of a
        never-bound program crashed."""
        dt = DistributedTrainer(factory, dataset, _cfg(compile=True, epochs=1))
        stats = dt.compile_stats()
        assert stats["captures"] == len(dt.sampler.tier_targets)
        assert stats["derived"] > 0 and stats["replays"] == 0
        prog = dt.compilers[0].last_program
        assert prog is list(dt.compilers[0].cache.programs.values())[-1]
        assert prog.replay_measured().size > 0

    def test_modeled_overlap_measured_vs_byteshare(self, dataset):
        dt = DistributedTrainer(
            factory, dataset, _cfg(compile=True, epochs=1, n_buckets=4)
        )
        _epoch(dt)
        measured = dt.modeled_overlap(ClusterSpec(), measured=True)
        modeled = dt.modeled_overlap(ClusterSpec(), measured=False)
        assert measured.total_time > 0 and modeled.total_time > 0
        assert measured.comm_time == modeled.comm_time  # same bucket bytes

    def test_measured_requires_compiled_trainer(self, dataset):
        dt = DistributedTrainer(factory, dataset, _cfg(compile=False, epochs=1))
        dt.train_step(next(iter(dt.loader)))
        assert dt.measured_ready_fractions() is None
        with pytest.raises(RuntimeError):
            dt.modeled_overlap(ClusterSpec(), measured=True)
        # auto mode falls back to the byte-share model
        res = dt.modeled_overlap(ClusterSpec())
        assert res.total_time > 0
