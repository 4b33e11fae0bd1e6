"""Kernel-launch accounting.

The reference CHGNet implementation launches tens of thousands of tiny CUDA
kernels per iteration (72,659 at batch size 64, per the paper); FastCHGNet's
kernel fusion and batched basis computation reduce this by 12.7-20.2x.  In
this reproduction each executed autodiff primitive is one "kernel".  The
counter is a thread-local stack of open profile scopes, so scopes nest.  A
training step under an open scope runs every rank in the trainer's own
process (:mod:`repro.train.ranks`), so the scope sees every rank's kernels.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class KernelStats:
    """Tally of kernels launched while a profile scope is active.

    Attributes
    ----------
    count:
        Total number of primitive executions (forward *and* backward).
    by_name:
        Launch count per primitive name, e.g. ``{"matmul": 120, "add": 300}``.
    bytes_out:
        Total bytes written by kernel outputs (a proxy for memory traffic).
    """

    count: int = 0
    by_name: dict[str, int] = field(default_factory=dict)
    bytes_out: int = 0

    def record(self, name: str, nbytes: int) -> None:
        self.count += 1
        self.by_name[name] = self.by_name.get(name, 0) + 1
        self.bytes_out += nbytes

    def merge(self, other: "KernelStats") -> None:
        """Fold another tally into this one (used by nested scopes)."""
        self.count += other.count
        self.bytes_out += other.bytes_out
        for name, n in other.by_name.items():
            self.by_name[name] = self.by_name.get(name, 0) + n

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most frequently launched kernels, descending."""
        return sorted(self.by_name.items(), key=lambda kv: -kv[1])[:n]


class _TLS(threading.local):
    def __init__(self) -> None:
        self.stack: list[KernelStats] = []


_tls = _TLS()


def record_kernel(name: str, nbytes: int = 0) -> None:
    """Record one kernel launch on every active profile scope.

    Called by the autodiff engine on each primitive execution.  Cheap when no
    scope is active (one attribute lookup and a truth test).
    """
    stack = _tls.stack
    if stack:
        for stats in stack:
            stats.record(name, nbytes)


def profiling_active() -> bool:
    """Whether any kernel-profile scope is currently open on this thread."""
    return bool(_tls.stack)


class kernel_stats:
    """Context manager collecting kernel launches into a :class:`KernelStats`.

    Example
    -------
    >>> with kernel_stats() as ks:
    ...     _ = model(batch)
    >>> ks.count
    1234
    """

    def __init__(self) -> None:
        self.stats = KernelStats()

    def __enter__(self) -> KernelStats:
        _tls.stack.append(self.stats)
        return self.stats

    def __exit__(self, *exc: object) -> None:
        _tls.stack.remove(self.stats)
