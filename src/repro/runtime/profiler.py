"""Combined device profile: kernels + tape memory + wall time.

This is the measurement harness behind the Fig. 8 reproduction: one
:func:`device_profile` scope around a training iteration yields the three
panels (iteration time, kernel count, memory usage) in a single report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.runtime.kernels import KernelStats, kernel_stats
from repro.runtime.memory import MemoryStats, memory_stats


@dataclass
class DeviceProfile:
    """Report produced by :func:`device_profile`.

    Attributes
    ----------
    kernels:
        Kernel-launch tally for the scope.
    memory:
        Tape-memory tally for the scope.
    wall_time:
        Elapsed wall-clock seconds (populated when the scope exits).
    """

    kernels: KernelStats = field(default_factory=KernelStats)
    memory: MemoryStats = field(default_factory=MemoryStats)
    wall_time: float = 0.0


@contextmanager
def device_profile() -> Iterator[DeviceProfile]:
    """Profile kernels, tape memory and wall time for the enclosed block.

    Example
    -------
    >>> with device_profile() as prof:
    ...     trainer.train_step(batch)
    >>> prof.kernels.count, prof.memory.peak_mib, prof.wall_time
    """
    report = DeviceProfile()
    start = time.perf_counter()
    with kernel_stats() as ks, memory_stats() as ms:
        report.kernels = ks
        report.memory = ms
        try:
            yield report
        finally:
            report.wall_time = time.perf_counter() - start
