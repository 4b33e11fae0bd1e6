"""Simulated device runtime: kernel stats, memory tracking, streams."""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.runtime import (
    PrefetchQueue,
    device_profile,
    kernel_stats,
    memory_stats,
    record_kernel,
    record_tape_alloc,
    record_tape_free,
)
from repro.runtime import stream
from repro.runtime.kernels import KernelStats, profiling_active


class TestKernelStats:
    def test_records_counts_and_names(self):
        with kernel_stats() as ks:
            record_kernel("matmul", 100)
            record_kernel("matmul", 100)
            record_kernel("add", 50)
        assert ks.count == 3
        assert ks.by_name == {"matmul": 2, "add": 1}
        assert ks.bytes_out == 250

    def test_no_scope_is_noop(self):
        record_kernel("free_floating", 10)  # must not raise

    def test_nested_scopes_both_record(self):
        with kernel_stats() as outer:
            record_kernel("a", 1)
            with kernel_stats() as inner:
                record_kernel("b", 1)
        assert outer.count == 2
        assert inner.count == 1

    def test_top(self):
        ks = KernelStats()
        for _ in range(5):
            ks.record("x", 1)
        ks.record("y", 1)
        assert ks.top(1) == [("x", 5)]

    def test_merge(self):
        a, b = KernelStats(), KernelStats()
        a.record("x", 10)
        b.record("x", 5)
        b.record("y", 1)
        a.merge(b)
        assert a.count == 3
        assert a.by_name == {"x": 2, "y": 1}

    def test_profiling_active_flag(self):
        assert not profiling_active()
        with kernel_stats():
            assert profiling_active()
        assert not profiling_active()

    def test_thread_isolation(self):
        seen = []

        def worker():
            with kernel_stats() as ks:
                record_kernel("w", 1)
                seen.append(ks.count)

        with kernel_stats() as main:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [1]
        assert main.count == 0  # worker kernels don't leak into main scope


class TestMemoryStats:
    def test_alloc_free_peak(self):
        with memory_stats() as ms:
            record_tape_alloc(100)
            record_tape_alloc(200)
            record_tape_free(100)
            record_tape_alloc(50)
        assert ms.peak_bytes == 300
        assert ms.current_bytes == 250
        assert ms.total_allocated == 350

    def test_peak_mib(self):
        with memory_stats() as ms:
            record_tape_alloc(2 * 1024 * 1024)
        assert ms.peak_mib == pytest.approx(2.0)

    def test_no_scope_noop(self):
        record_tape_alloc(1)
        record_tape_free(1)


class TestDeviceProfile:
    def test_collects_kernels_memory_and_time(self):
        with device_profile() as prof:
            record_kernel("k", 8)
            record_tape_alloc(8)
        assert prof.kernels.count == 1
        assert prof.memory.peak_bytes == 8
        assert prof.wall_time > 0


class TestPrefetchQueue:
    def test_yields_all_items_in_order(self):
        assert list(PrefetchQueue(range(10))) == list(range(10))

    def test_depth_is_fixed_double_buffering(self):
        assert stream.DEPTH == 1
        with pytest.raises(TypeError):
            PrefetchQueue([1], depth=0)

    def test_overlaps_production_with_consumption(self):
        """The producer builds item 1 while the consumer still holds item 0.

        A handshake, not a stopwatch: the consumer waits on an event the
        producer sets once item 1 exists.  Serial iteration cannot get
        there (it would wait out the timeout and fail).
        """
        produced_next = threading.Event()
        held = []

        def source():
            yield 0
            produced_next.set()  # item 1 is built
            yield 1
            yield 2

        for item in PrefetchQueue(source()):
            if item == 0:
                held.append(produced_next.wait(timeout=10.0))
        assert held == [True]

    def test_producer_error_propagates(self):
        def bad():
            yield 1
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            list(PrefetchQueue(bad()))

    def test_abandoned_iteration_stops_the_producer(self):
        """Closing the consumer mid-stream ends the worker thread and lets
        go of the source, instead of leaving it blocked in ``put``."""

        def source():
            yield from range(100)

        items = source()
        ref = weakref.ref(items)
        it = iter(PrefetchQueue(items))
        assert next(it) == 0
        producers = [t for t in threading.enumerate() if "produce" in t.name]
        assert producers
        it.close()
        del items, it
        gc.collect()
        assert not any(t.is_alive() for t in producers)
        assert ref() is None

    @pytest.mark.parametrize("how", ["break", "raise"])
    def test_break_or_error_in_consumer_stops_the_producer(self, how):
        """A ``for`` loop left by ``break`` or by an exception closes the
        generator, which stops the worker like an explicit ``close()``."""

        class Stop(Exception):
            pass

        before = set(threading.enumerate())
        try:
            for item in PrefetchQueue(iter(range(100))):
                if item == 1:
                    if how == "raise":
                        raise Stop
                    break
        except Stop:
            pass
        gc.collect()
        assert not [t for t in set(threading.enumerate()) - before if t.is_alive()]

    def test_exhausted_iteration_ends_the_worker(self):
        before = set(threading.enumerate())
        assert list(PrefetchQueue(iter(range(5)))) == list(range(5))
        assert not [t for t in set(threading.enumerate()) - before if t.is_alive()]
