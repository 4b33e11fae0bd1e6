"""Resident memory of one ledger workload, phase by phase.

Usage::

    python3 tools/rss_phases.py WORKLOAD --seed N [--scale smoke|full]

Builds the workload of ``benchmarks/perf/workloads.py`` (imported, never
modified) in this process, as the ledger's child does, and prints one line
per phase with the process's ``VmRSS`` (resident now) and ``VmHWM`` (peak
resident so far) from ``/proc/self/status``, in MB, and the memory blocks
Python's allocator holds (``sys.getallocatedblocks()``: a phase's growth in
Python objects): after import, after the inputs, after every eager capture,
every heap trim and every slab (re)allocation of the compiled programs, after
warm-up, and after each of ``CYCLES`` steady cycles.  ``peak_rss_mb`` in a
ledger run is the ``VmHWM`` of its child at the end, so the line where
``VmHWM`` last rises is the phase that sets it.  Both are the kernel's counters, which it updates lazily:
a reading can trail the last allocation by a few hundred kB (``VmHWM``
has been seen to fall by 0.3 MB between two lines).  Linux only
(``/proc``); standard library plus the program.
"""

from __future__ import annotations

import os

# As the ledger's child does, before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
CYCLES = 3


def status_mb() -> tuple[float, float]:
    """``(VmRSS, VmHWM)`` of this process in MB (10**6 bytes)."""
    fields = {}
    with open("/proc/self/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0]) * 1024 / 1e6
    return fields["VmRSS"], fields["VmHWM"]


def report(phase: str) -> None:
    rss, hwm = status_mb()
    print(f"{phase:<40} {rss:9.2f} {hwm:9.2f} {sys.getallocatedblocks():9d}", flush=True)


def _after(owner, name: str, phase) -> None:
    """Report ``phase(*args)`` after every call of ``owner.name``."""
    inner = getattr(owner, name)

    def reporting(*args, **kwargs):
        result = inner(*args, **kwargs)
        report(phase(*args))
        return result

    setattr(owner, name, reporting)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "perf")]
    from repro.tensor import compile as tc
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    print(f"{'phase':<40} {'VmRSS MB':>9} {'VmHWM MB':>9} {'blocks':>9}")
    report("import")
    _after(tc._CompilerBase, "_trace", lambda comp, sig, *_: f"eager capture {sig[0]} {sig[1:6]}")
    _after(tc, "_trim_heap", lambda: "heap trim")
    _after(tc.SharedProgramCache, "_reslab", lambda cache, n: f"slab -> {n / 2**20:.2f} MiB")
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.scale][args.workload])
    workload.inputs()
    report("inputs")
    workload.warmup()
    report("warm-up")
    for k in range(CYCLES):
        workload.run_cycle()
        report(f"steady cycle {k + 1}")
    trainer = getattr(workload, "trainer", None)
    if trainer is not None:
        trainer.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
