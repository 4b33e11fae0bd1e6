"""Communication: collectives, ring allreduce, cost model, overlap."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    ClusterSpec,
    ComputeModel,
    FaultPlan,
    SimCommunicator,
    model_iteration,
    ring_allreduce,
    ring_allreduce_time,
    simulate_overlap,
)


class TestSimCommunicator:
    def test_wrong_rank_count_raises(self, rng):
        with pytest.raises(ValueError):
            SimCommunicator(3).allreduce_mean_inplace([np.ones(2)] * 2)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            SimCommunicator(0)

    def test_mismatched_buffer_counts_raise(self, rng):
        """Too many buffers fail like too few, before any buffer is written."""
        bufs = [rng.normal(size=3) for _ in range(4)]
        before = [b.copy() for b in bufs]
        with pytest.raises(ValueError, match="3 ranks, got 4"):
            SimCommunicator(3).allreduce_mean_inplace(bufs)
        assert all(np.array_equal(b, c) for b, c in zip(bufs, before))

    def test_allreduce_mean_inplace(self, rng):
        comm = SimCommunicator(4)
        bufs = [rng.normal(size=(3, 2)) for _ in range(4)]
        expected = np.mean(bufs, axis=0)
        work = comm.allreduce_mean_inplace(bufs)
        assert work.shape == (5, 3, 2)
        assert np.allclose(work[4], expected)
        for buf in bufs:
            assert np.allclose(buf, expected)
            assert not np.shares_memory(buf, work)

    def test_single_rank_is_identity(self, rng):
        buf = rng.normal(size=7)
        out = [buf.copy()]
        SimCommunicator(1).allreduce_mean_inplace(out)
        assert np.array_equal(out[0], buf)

    def test_float32_buffers_reduce_in_float32(self, rng):
        bufs = [rng.normal(size=9).astype(np.float32) for _ in range(3)]
        expected = np.sum(np.stack(bufs), axis=0) / np.float32(3)
        work = SimCommunicator(3).allreduce_mean_inplace(bufs)
        assert work.dtype == np.float32
        assert all(b.dtype == np.float32 and np.array_equal(b, expected) for b in bufs)

    @pytest.mark.parametrize(
        "shape, dtype", [((3, 4), np.float64), ((4,), np.float32)], ids=["shape", "dtype"]
    )
    def test_stale_work_block_is_replaced(self, rng, shape, dtype):
        """A scratch block from another bucket (other shape or dtype) is not
        written into; a fresh one of the right layout comes back."""
        comm = SimCommunicator(2)
        stale = np.full((3, *shape), 7.0, dtype=dtype)
        bufs = [rng.normal(size=4) for _ in range(2)]
        expected = np.sum(np.stack(bufs), axis=0) / 2
        work = comm.allreduce_mean_inplace(bufs, stale)
        assert work is not stale and np.all(stale == 7.0)
        assert work.shape == (3, 4) and work.dtype == np.float64
        assert all(np.array_equal(b, expected) for b in bufs)

    def test_compute_skew_follows_the_advanced_step(self):
        plan = FaultPlan().straggle(rank=1, seconds=0.5, start=2, stop=4)
        comm = SimCommunicator(2, plan)
        seen = []
        for step in range(5):
            comm.advance(step)
            seen.append((comm.compute_skew(0), comm.compute_skew(1)))
        assert comm.step == 4
        assert seen == [(0.0, 0.0), (0.0, 0.0), (0.0, 0.5), (0.0, 0.5), (0.0, 0.0)]

    def test_kill_outside_the_world_is_ignored(self, rng):
        """A plan written for a larger world cannot kill a rank this one lacks."""
        comm = SimCommunicator(2, FaultPlan().kill(rank=5, step=0))
        bufs = [rng.normal(size=3) for _ in range(2)]
        comm.allreduce_mean_inplace(bufs)
        assert comm.dead == set()
        assert np.array_equal(bufs[0], bufs[1])


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    shape=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_inplace_mean_equals_stacked_mean(p, shape, seed):
    """Bit for bit: the in-place allreduce is the stacked pairwise sum over
    ranks divided by the world size, for any world and buffer shape."""
    rng = np.random.default_rng(seed)
    bufs = [rng.normal(size=tuple(shape)) for _ in range(p)]
    expected = np.sum(np.stack(bufs), axis=0) / p
    inputs = [b.copy() for b in bufs]
    comm = SimCommunicator(p)
    work = comm.allreduce_mean_inplace(bufs)
    assert all(np.array_equal(b, expected) for b in bufs)
    # a second call on the same inputs, through the kept scratch block,
    # gives the same bits
    again = [b.copy() for b in inputs]
    assert comm.allreduce_mean_inplace(again, work) is work
    assert all(np.array_equal(b, expected) for b in again)


class TestRingAllreduce:
    def test_matches_direct_sum(self, rng):
        bufs = [rng.normal(size=(5, 3)) for _ in range(4)]
        out, trace = ring_allreduce(bufs)
        expected = sum(bufs)
        for o in out:
            assert np.allclose(o, expected)
        assert trace.steps == 2 * 3

    def test_average(self, rng):
        bufs = [rng.normal(size=7) for _ in range(3)]
        out, _ = ring_allreduce(bufs, average=True)
        assert np.allclose(out[0], np.mean(bufs, axis=0))

    def test_single_rank_identity(self, rng):
        buf = rng.normal(size=4)
        out, trace = ring_allreduce([buf])
        assert np.allclose(out[0], buf)
        assert trace.steps == 0

    def test_buffer_smaller_than_world(self, rng):
        """n < p forces empty chunks; algorithm must still be exact."""
        bufs = [rng.normal(size=2) for _ in range(5)]
        out, _ = ring_allreduce(bufs)
        assert all(np.allclose(o, sum(bufs)) for o in out)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            ring_allreduce([np.ones(3), np.ones(4)])

    def test_empty_rank_list_raises(self):
        with pytest.raises(ValueError):
            ring_allreduce([])

    def test_transfer_volume_factor(self, rng):
        """Each rank sends ~2 (p-1)/p * n elements."""
        p, n = 4, 64
        bufs = [rng.normal(size=n) for _ in range(p)]
        _, trace = ring_allreduce(bufs)
        expected_bytes = 2 * (p - 1) / p * n * 8
        assert abs(trace.bytes_per_rank - expected_bytes) / expected_bytes < 0.05


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_ring_equals_direct(p, n, seed):
    rng = np.random.default_rng(seed)
    bufs = [rng.normal(size=n) for _ in range(p)]
    out, _ = ring_allreduce(bufs)
    expected = sum(bufs)
    for o in out:
        assert np.allclose(o, expected, atol=1e-9)


class TestCostModel:
    def test_single_rank_free(self):
        assert ring_allreduce_time(10**6, 1, ClusterSpec()) == 0.0

    def test_monotone_in_bytes(self):
        spec = ClusterSpec()
        assert ring_allreduce_time(10**7, 4, spec) > ring_allreduce_time(10**6, 4, spec)

    def test_internode_slower(self):
        spec = ClusterSpec(gpus_per_node=4)
        t_intra = ring_allreduce_time(10**7, 4, spec)
        t_inter = ring_allreduce_time(10**7, 8, spec)
        assert t_inter > t_intra

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(-1, 4, ClusterSpec())

    def test_bandwidth_term_dominates_large_messages(self):
        spec = ClusterSpec()
        t = ring_allreduce_time(10**9, 4, spec)
        bandwidth_term = 2 * 3 / 4 * 10**9 / spec.intra_bw
        assert abs(t - bandwidth_term) / t < 0.01


class TestOverlap:
    def test_blocking_exposes_everything(self):
        spec = ClusterSpec()
        res = simulate_overlap(backward_time=0.1, grad_bytes=10**8, world_size=8, spec=spec, n_buckets=1)
        assert np.isclose(res.exposed_comm, res.comm_time, rtol=0.01)

    def test_bucketing_hides_communication(self):
        spec = ClusterSpec()
        blocking = simulate_overlap(0.1, 10**8, 8, spec, n_buckets=1)
        overlapped = simulate_overlap(0.1, 10**8, 8, spec, n_buckets=16)
        assert overlapped.exposed_comm < blocking.exposed_comm

    def test_zero_comm_when_tiny_message(self):
        res = simulate_overlap(1.0, 1000, 4, ClusterSpec(), n_buckets=8)
        assert res.exposed_comm < 1e-3

    def test_total_at_least_backward(self):
        res = simulate_overlap(0.5, 10**7, 8, ClusterSpec())
        assert res.total_time >= 0.5

    def test_invalid_buckets_raise(self):
        with pytest.raises(ValueError):
            simulate_overlap(0.1, 100, 4, ClusterSpec(), n_buckets=0)


class TestComputeModel:
    def test_calibration_recovers_line(self):
        feats = np.array([100.0, 200.0, 400.0, 800.0])
        secs = 2e-5 * feats + 0.01
        cm = ComputeModel.calibrate(feats, secs)
        assert np.isclose(cm.rate, 2e-5, rtol=1e-6)
        assert np.isclose(cm.overhead, 0.01, rtol=1e-6)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            ComputeModel.calibrate(np.array([1.0]), np.array([1.0]))

    def test_model_iteration_straggler_dominates(self):
        cm = ComputeModel(rate=1e-5, overhead=0.0)
        spec = ClusterSpec()
        balanced = model_iteration(np.array([100.0, 100.0]), cm, 10**6, 2, spec)
        skewed = model_iteration(np.array([50.0, 150.0]), cm, 10**6, 2, spec)
        assert skewed.iteration_time > balanced.iteration_time

    def test_rank_count_mismatch_raises(self):
        cm = ComputeModel(rate=1e-5, overhead=0.0)
        with pytest.raises(ValueError):
            model_iteration(np.array([1.0, 2.0, 3.0]), cm, 10**6, 2, ClusterSpec())

    def test_strong_scaling_efficiency_below_one(self):
        """Halving per-rank work while adding comm gives sub-linear speedup."""
        cm = ComputeModel(rate=1e-6, overhead=0.001)
        spec = ClusterSpec()
        p4 = model_iteration(np.full(4, 8000.0), cm, 4 * 400_000 * 8, 4, spec)
        p8 = model_iteration(np.full(8, 4000.0), cm, 4 * 400_000 * 8, 8, spec)
        assert 1.0 < p8.speedup(p4) < 2.0
        assert p8.efficiency(p4) < 1.0

    def test_weak_scaling_time_grows(self):
        """Constant per-rank work: only communication grows with the world."""
        cm = ComputeModel(rate=1e-6, overhead=0.001)
        spec = ClusterSpec()
        points = [
            model_iteration(np.full(p, 8000.0), cm, 4 * 400_000 * 8, p, spec)
            for p in (4, 8, 16)
        ]
        times = [p.iteration_time for p in points]
        assert times[1] >= times[0] and times[2] >= times[1] - 1e-12


class TestRingHardening:
    def test_mixed_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            ring_allreduce([np.ones(4, dtype=np.float64), np.ones(4, dtype=np.float32)])

    def test_shape_error_names_offending_rank(self):
        with pytest.raises(ValueError, match="rank 1"):
            ring_allreduce([np.ones(3), np.ones(4)])

    def test_traced_communicator_self_consistent(self, rng):
        """trace_ring routes the packed flush through the explicit ring: all
        ranks receive identical buffers and each collective leaves a trace."""
        comm = SimCommunicator(3, trace_ring=True)
        bufs = [rng.normal(size=10) for _ in range(3)]
        originals = [b.copy() for b in bufs]
        comm.allreduce_mean_inplace(bufs)
        assert all(np.array_equal(bufs[0], b) for b in bufs[1:])
        assert np.allclose(bufs[0], np.mean(originals, axis=0))
        assert len(comm.ring_traces) == 1
        assert comm.ring_traces[0].steps == 4  # 2(p-1), p=3


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    n=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_ring_volume_closed_form(p, n, seed):
    """Traced bytes match 2 (p-1)/p * n exactly, non-divisible chunks included."""
    rng = np.random.default_rng(seed)
    bufs = [rng.normal(size=n) for _ in range(p)]
    _, trace = ring_allreduce(bufs)
    assert trace.bytes_per_rank == 2 * (p - 1) * n // p * bufs[0].itemsize
    assert trace.steps == 2 * (p - 1)
