"""Elastic fault tolerance: fault plans, checkpoints, kill/resume, stragglers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    CollectiveTimeout,
    FaultPlan,
    FaultyCommunicator,
    RankFailure,
    SimCommunicator,
)
from repro.data import StructureDataset
from repro.data.samplers import BucketBatchSampler
from repro.model import CHGNetModel, OptLevel
from repro.train import (
    CheckpointError,
    DistributedConfig,
    DistributedTrainer,
    TrainConfig,
    Trainer,
    largest_feasible_world,
    load_checkpoint,
    run_elastic,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def dataset(tiny_entries):
    return StructureDataset(tiny_entries, memoize_batches=True)


def make_factory(small_config, seed=5):
    return lambda: CHGNetModel(
        small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(seed)
    )


def dist_config(**overrides) -> DistributedConfig:
    base = dict(
        world_size=2, global_batch_size=4, epochs=2, learning_rate=1e-4, seed=0
    )
    base.update(overrides)
    return DistributedConfig(**base)


class TestFaultPlan:
    def test_kills_are_consumed(self):
        plan = FaultPlan().kill(rank=1, step=3)
        assert plan.take_kills(2) == []
        assert plan.take_kills(3) == [1]
        assert plan.take_kills(3) == []  # consumed: a resumed run survives

    def test_timeout_budget_drains(self):
        plan = FaultPlan().timeout(step=2, attempts=2)
        assert plan.take_transient(None, 1) == 0
        assert [plan.take_transient(None, 2) for _ in range(3)] == [1, 2, 0]
        assert plan.take_transient(None, 3) == 0

    def test_skew_windows(self):
        plan = FaultPlan().straggle(rank=0, seconds=0.5, start=2, stop=4)
        assert plan.skew(0, 1) == 0.0
        assert plan.skew(0, 2) == 0.5
        assert plan.skew(0, 3) == 0.5
        assert plan.skew(0, 4) == 0.0
        assert plan.skew(1, 2) == 0.0

    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            ["kill:1:3", "timeout:2:2", "straggle:0:0.25:1:5"]
        )
        assert plan.take_kills(3) == [1]
        assert [plan.take_transient(None, 2) for _ in range(3)] == [1, 2, 0]
        assert plan.skew(0, 1) == 0.25

    @pytest.mark.parametrize(
        "spec", ["", "kill:1", "kill:a:b", "explode:0:1", "straggle:0", "timeout"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError, match="fault spec"):
            FaultPlan.parse([spec])

    def test_random_plan_deterministic(self):
        a = FaultPlan.random(seed=7, world_size=4, n_steps=20, p_kill=0.2)
        b = FaultPlan.random(seed=7, world_size=4, n_steps=20, p_kill=0.2)
        assert a.unfired() == b.unfired()

    def test_seeded_plans_frozen(self):
        """Seeded draws, canonical specs and timeout attempt numbers are
        pinned: the same seed gives the same plan across releases."""
        plan = FaultPlan.random(
            seed=7, world_size=4, n_steps=24, p_kill=0.15, p_timeout=0.3,
            straggler_seconds=0.01,
        )  # fmt: skip
        assert plan.unfired() == [
            "kill:1:3", "kill:3:11", "kill:2:18", "kill:3:22", "timeout:1:1",
            "timeout:5:1", "timeout:9:1", "timeout:11:1", "timeout:15:1",
            "timeout:18:1", "straggle:2:0.01",
        ]  # fmt: skip
        plan = FaultPlan.parse(
            ["timeout:3", "kill:1:4", "timeout:3:2", "straggle:0:0.5:0",
             "straggle:1:0.25:0:6", "timeout:1", "straggle:2:1e-3:2"]
        )  # fmt: skip
        assert plan.unfired() == [
            "kill:1:4", "timeout:1:1", "timeout:3:3", "straggle:0:0.5",
            "straggle:1:0.25:0:6", "straggle:2:0.001:2",
        ]  # fmt: skip
        assert FaultPlan.parse(plan.unfired()).unfired() == plan.unfired()
        comm = FaultyCommunicator(2, plan)
        comm.advance(3)
        attempts = []
        for _ in range(3):
            with pytest.raises(CollectiveTimeout) as err:
                comm.allreduce_sum([np.ones(2), np.ones(2)])
            attempts.append(err.value.attempt)
        assert attempts == [1, 2, 3]
        comm.allreduce_sum([np.ones(2), np.ones(2)])  # budget drained
        assert comm.timeouts_injected == 3

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan().kill(rank=0, step=0).empty

    def test_parse_rejects_duplicates(self):
        """A repeated spec is a typo, not a request for the fault twice."""
        with pytest.raises(ValueError, match="duplicate fault spec"):
            FaultPlan.parse(["kill:1:3", " kill:1:3 "])
        with pytest.raises(ValueError, match="duplicate fault spec"):
            FaultPlan.parse(["timeout:2", "timeout:2"])

    def test_unfired_reports_what_never_landed(self):
        """A plan that schedules past the end of the run is caught, not
        silently a weaker rehearsal than the test believed."""
        plan = FaultPlan.parse(["kill:1:3", "timeout:2:2", "straggle:0:0.25"])
        assert sorted(plan.unfired()) == [
            "kill:1:3",
            "straggle:0:0.25",
            "timeout:2:2",
        ]
        plan.take_kills(3)
        plan.take_transient(None, 2)
        assert plan.unfired() == ["timeout:2:1", "straggle:0:0.25"]
        plan.take_transient(None, 2)
        plan.skew(0, 0)
        assert plan.unfired() == []

    def test_injected_timeouts_count_as_fired(self, rng):
        comm = FaultyCommunicator(2, FaultPlan().timeout(step=0, attempts=1))
        comm.advance(0)
        with pytest.raises(CollectiveTimeout):
            comm.allreduce_sum([rng.standard_normal(3) for _ in range(2)])
        assert comm.plan.unfired() == []


class TestFaultyCommunicator:
    def test_no_faults_is_transparent(self, rng):
        plain = SimCommunicator(2)
        faulty = FaultyCommunicator(2, FaultPlan())
        bufs = [rng.standard_normal(5) for _ in range(2)]
        assert np.array_equal(
            plain.allreduce_sum([b.copy() for b in bufs])[0],
            faulty.allreduce_sum([b.copy() for b in bufs])[0],
        )

    def test_kill_raises_at_step(self, rng):
        comm = FaultyCommunicator(2, FaultPlan().kill(rank=1, step=1))
        bufs = [rng.standard_normal(3) for _ in range(2)]
        comm.advance(0)
        comm.allreduce_sum([b.copy() for b in bufs])
        comm.advance(1)
        with pytest.raises(RankFailure) as err:
            comm.allreduce_sum([b.copy() for b in bufs])
        assert err.value.rank == 1 and err.value.step == 1
        # a dead rank keeps the communicator dead
        with pytest.raises(RankFailure):
            comm.allreduce_sum([b.copy() for b in bufs])

    def test_timeout_budget_then_success(self, rng):
        comm = FaultyCommunicator(2, FaultPlan().timeout(step=0, attempts=1))
        bufs = [rng.standard_normal(3) for _ in range(2)]
        comm.advance(0)
        with pytest.raises(CollectiveTimeout):
            comm.allreduce_sum([b.copy() for b in bufs])
        out = comm.allreduce_sum([b.copy() for b in bufs])  # retry succeeds
        assert np.allclose(out[0], bufs[0] + bufs[1])


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        path = str(tmp_path / "a.rckpt")
        arrays = {"w": rng.standard_normal((3, 4)), "m": rng.standard_normal(7)}
        meta = {"kind": "t", "lr": 1e-4, "nested": {"epoch": 3}}
        save_checkpoint(path, arrays, meta)
        loaded, got_meta = load_checkpoint(path)
        assert got_meta == meta
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])

    def test_corrupted_payload_rejected(self, tmp_path, rng):
        path = str(tmp_path / "a.rckpt")
        save_checkpoint(path, {"w": rng.standard_normal(8)}, {"kind": "t"})
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, rng):
        path = str(tmp_path / "a.rckpt")
        save_checkpoint(path, {"w": rng.standard_normal(8)}, {"kind": "t"})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "a.rckpt")
        open(path, "wb").write(b"PK\x03\x04 definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a training checkpoint"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.rckpt"))

    def test_reserved_meta_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="__meta__"):
            save_checkpoint(
                str(tmp_path / "a.rckpt"), {"__meta__": np.zeros(1)}, {}
            )


class TestSingleTrainerResume:
    def test_epoch_resume_bit_identical(self, small_config, dataset, tmp_path):
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-4, seed=0)
        ref = Trainer(make_factory(small_config)(), dataset, config=cfg)
        ref.train()

        path = str(tmp_path / "single.rckpt")
        first = Trainer(make_factory(small_config)(), dataset, config=cfg)
        first.add_checkpoint_hook(path)
        first.train_epoch(0)  # interrupted after one epoch
        resumed = Trainer.resume(path, make_factory(small_config)(), dataset, config=cfg)
        assert resumed._epoch == 1
        resumed.train()

        a, b = ref.model.state_dict(), resumed.model.state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_mismatched_run_rejected(self, small_config, dataset, tmp_path):
        path = str(tmp_path / "single.rckpt")
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        t = Trainer(make_factory(small_config)(), dataset, config=cfg)
        t.save_checkpoint(path)
        other = TrainConfig(epochs=1, batch_size=4, seed=1)
        with pytest.raises(CheckpointError, match="seed"):
            Trainer.resume(path, make_factory(small_config)(), dataset, config=other)


class TestDistributedResume:
    def test_kill_resume_bit_identical(self, small_config, dataset, tmp_path):
        """The tentpole oracle: kill at step k + replacement resume finishes
        bit-identical to the uninterrupted reference."""
        factory = make_factory(small_config)
        ref = DistributedTrainer(factory, dataset, dist_config())
        ref.train()

        path = str(tmp_path / "dist.rckpt")
        plan = FaultPlan().kill(rank=1, step=3)
        result = run_elastic(
            factory,
            dataset,
            dist_config(),
            checkpoint_path=path,
            checkpoint_every=2,
            fault_plan=plan,
            shrink=False,
        )
        assert len(result.failures) == 1
        assert result.failures[0].steps_lost >= 1  # sparse cadence redoes work
        assert result.trainer.replicas_in_sync()
        a, b = ref.model.state_dict(), result.trainer.model.state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_mid_epoch_cursor_restored(self, small_config, dataset, tmp_path):
        factory = make_factory(small_config)
        path = str(tmp_path / "dist.rckpt")
        trainer = DistributedTrainer(factory, dataset, dist_config())
        shards_iter = trainer.loader.iter_epoch(0)
        trainer.train_step(next(shards_iter))
        trainer.train_step(next(shards_iter))
        trainer.save_checkpoint(path)
        resumed = DistributedTrainer.resume(path, factory, dataset, dist_config())
        assert resumed.global_step == 2
        assert resumed._epoch == 0 and resumed._step_in_epoch == 2

    def test_elastic_shrink_survivors_in_sync(self, small_config, dataset, tmp_path):
        factory = make_factory(small_config)
        path = str(tmp_path / "dist.rckpt")
        plan = FaultPlan().kill(rank=0, step=2)
        result = run_elastic(
            factory,
            dataset,
            dist_config(world_size=4, global_batch_size=8),
            checkpoint_path=path,
            fault_plan=plan,
            shrink=True,
        )
        event = result.failures[0]
        assert event.world_before == 4 and event.world_after == 2
        assert result.trainer.config.world_size == 2
        assert result.trainer.replicas_in_sync()
        assert result.trainer.global_step == len(result.trainer.loader) * 2

    def test_world_mismatch_allowed_seed_mismatch_rejected(
        self, small_config, dataset, tmp_path
    ):
        factory = make_factory(small_config)
        path = str(tmp_path / "dist.rckpt")
        DistributedTrainer(factory, dataset, dist_config()).save_checkpoint(path)
        # different world size is the elastic contract: allowed
        resumed = DistributedTrainer.resume(
            path, factory, dataset, dist_config(world_size=1)
        )
        assert resumed.config.world_size == 1
        # a different data order is a different run: rejected
        with pytest.raises(CheckpointError, match="seed"):
            DistributedTrainer.resume(path, factory, dataset, dist_config(seed=9))

    def test_compiled_trainer_resumes(self, small_config, dataset, tmp_path):
        factory = make_factory(small_config)
        path = str(tmp_path / "dist.rckpt")
        plan = FaultPlan().kill(rank=1, step=2)
        result = run_elastic(
            factory,
            dataset,
            dist_config(compile=True),
            checkpoint_path=path,
            fault_plan=plan,
            shrink=False,
        )
        assert result.trainer.replicas_in_sync()
        stats = result.trainer.compile_stats()
        assert stats["replays"] > 0

    def test_largest_feasible_world(self):
        assert largest_feasible_world(8, 3) == 2
        assert largest_feasible_world(8, 4) == 4
        assert largest_feasible_world(6, 5) == 3
        assert largest_feasible_world(7, 3) == 1
        with pytest.raises(ValueError):
            largest_feasible_world(8, 0)


class TestStragglersAndRetries:
    def test_straggler_skew_priced_into_step_stats(self, small_config, dataset):
        factory = make_factory(small_config)
        plan = FaultPlan().straggle(rank=0, seconds=0.5)
        slow = DistributedTrainer(
            factory, dataset, dist_config(epochs=1), fault_plan=plan
        )
        slow.train()
        fast = DistributedTrainer(factory, dataset, dist_config(epochs=1))
        fast.train()
        for s_slow, s_fast in zip(slow.steps, fast.steps):
            assert s_slow.rank_compute_seconds[0] >= 0.5
            # weights are unaffected: a slow rank is late, not wrong
            assert s_slow.loss == s_fast.loss

    def test_timeout_retried_within_budget(self, small_config, dataset):
        factory = make_factory(small_config)
        plan = FaultPlan().timeout(step=1, attempts=2)
        trainer = DistributedTrainer(
            factory,
            dataset,
            dist_config(epochs=1, max_flush_retries=2),
            fault_plan=plan,
        )
        trainer.train()
        assert trainer.flush_retries == 2
        assert trainer.backoff_seconds > 0
        assert trainer.replicas_in_sync()

    def test_timeout_exhausts_bounded_retries(self, small_config, dataset):
        factory = make_factory(small_config)
        plan = FaultPlan().timeout(step=1, attempts=5)
        trainer = DistributedTrainer(
            factory,
            dataset,
            dist_config(epochs=1, max_flush_retries=2),
            fault_plan=plan,
        )
        with pytest.raises(CollectiveTimeout):
            trainer.train()

    def test_retry_does_not_change_weights(self, small_config, dataset):
        factory = make_factory(small_config)
        plan = FaultPlan().timeout(step=1, attempts=1)
        retried = DistributedTrainer(
            factory, dataset, dist_config(epochs=1), fault_plan=plan
        )
        retried.train()
        clean = DistributedTrainer(factory, dataset, dist_config(epochs=1))
        clean.train()
        a, b = retried.model.state_dict(), clean.model.state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestRingTracedFlush:
    def test_traces_recorded_and_ranks_agree(self, small_config, dataset):
        factory = make_factory(small_config)
        trainer = DistributedTrainer(
            factory, dataset, dist_config(epochs=1, trace_ring=True)
        )
        trainer.train()
        assert trainer.replicas_in_sync()
        traces = trainer.comm.ring_traces
        assert traces and all(t.steps == 2 for t in traces)  # 2(p-1), p=2

    def test_ring_sum_order_differs_but_is_self_consistent(
        self, small_config, dataset
    ):
        """The ring path is a different reduction order than the pairwise
        flush — not necessarily bit-equal across paths, but every rank sees
        the same result within a path."""
        factory = make_factory(small_config)
        ringed = DistributedTrainer(
            factory, dataset, dist_config(epochs=1, world_size=4,
                                          global_batch_size=8, trace_ring=True)
        )
        ringed.train()
        assert ringed.replicas_in_sync()


class TestSamplerReshard:
    def test_reshard_preserves_blocks(self, tiny_entries):
        ds = StructureDataset(tiny_entries)
        sampler = BucketBatchSampler(ds.feature_numbers, 8, world_size=4, seed=3)
        resharded = sampler.reshard(2)
        assert resharded.world_size == 2
        assert resharded.seed == sampler.seed
        for old, new in zip(sampler.epoch_partitions(0), resharded.epoch_partitions(0)):
            assert np.array_equal(
                np.sort(np.concatenate(old)), np.sort(np.concatenate(new))
            )
