"""Autodiff-tape memory accounting.

The paper attributes CHGNet's high memory footprint to the intermediate
tensors retained for first- and second-order derivative computation; the
Force/Stress heads ("decompose_fs") cut memory by 3.38-3.59x because the
derivative graph is never built (Fig. 8c).  Here the tracked quantity is the
number of bytes held alive by the autodiff tape: every tensor recorded as a
graph node output adds its ``nbytes`` on creation and releases them when the
node is released, which backward does node by node as it walks.  The walk
pins nothing else, so bytes booked as freed here are freed in the process
too — with or without a tape tracer active (views count their full
``nbytes`` here though they share their base's storage).  Peak tape bytes is
the reproduction's "GPU memory usage".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass
class MemoryStats:
    """Live/peak tape-memory tally for one profile scope.

    Attributes
    ----------
    current_bytes:
        Bytes currently retained by graph nodes created in this scope.
    peak_bytes:
        High-water mark of ``current_bytes``.
    total_allocated:
        Cumulative bytes ever recorded (never decremented).
    """

    current_bytes: int = 0
    peak_bytes: int = 0
    total_allocated: int = 0

    def alloc(self, nbytes: int) -> None:
        self.current_bytes += nbytes
        self.total_allocated += nbytes
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def free(self, nbytes: int) -> None:
        self.current_bytes -= nbytes

    @property
    def peak_mib(self) -> float:
        """Peak tape memory in MiB."""
        return self.peak_bytes / (1024.0 * 1024.0)


class _TLS(threading.local):
    def __init__(self) -> None:
        self.stack: list[MemoryStats] = []


_tls = _TLS()


def record_tape_alloc(nbytes: int) -> None:
    """Account ``nbytes`` of newly tape-retained tensor storage."""
    stack = _tls.stack
    if stack:
        for stats in stack:
            stats.alloc(nbytes)


def record_tape_free(nbytes: int) -> None:
    """Account ``nbytes`` released when a graph node is freed."""
    stack = _tls.stack
    if stack:
        for stats in stack:
            stats.free(nbytes)


class memory_stats:
    """Context manager collecting tape allocations into a :class:`MemoryStats`."""

    def __init__(self) -> None:
        self.stats = MemoryStats()

    def __enter__(self) -> MemoryStats:
        _tls.stack.append(self.stats)
        return self.stats

    def __exit__(self, *exc: object) -> None:
        _tls.stack.remove(self.stats)
