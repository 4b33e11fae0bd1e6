"""Simulated device runtime.

FastCHGNet's system optimizations are evaluated in the paper with three
device-level metrics (Fig. 8): average iteration time, number of launched
CUDA kernels, and GPU memory usage.  This package provides the equivalent
instrumentation for the NumPy substrate used in this reproduction:

* every executed autodiff primitive counts as one *kernel launch*
  (:mod:`repro.runtime.kernels`),
* every tensor retained by the autodiff tape counts toward *device memory*
  (:mod:`repro.runtime.memory`),
* :func:`repro.runtime.profiler.device_profile` combines both with wall-clock
  timing into a single report, and
* :mod:`repro.runtime.stream` models the asynchronous copy stream of the
  data-prefetch optimization as a double-buffered queue.
"""

from repro.runtime.kernels import KernelStats, kernel_stats, record_kernel
from repro.runtime.memory import MemoryStats, memory_stats, record_tape_alloc, record_tape_free
from repro.runtime.profiler import DeviceProfile, device_profile
from repro.runtime.stream import PrefetchQueue

__all__ = [
    "KernelStats",
    "kernel_stats",
    "record_kernel",
    "MemoryStats",
    "memory_stats",
    "record_tape_alloc",
    "record_tape_free",
    "DeviceProfile",
    "device_profile",
    "PrefetchQueue",
]
