"""Same-process A/B of rank executors against the one-process rank loop, on
one warmed ``train_ddp`` trainer.

Usage (from the repository root)::

    PYTHONPATH=src:benchmarks/perf python docs/perf/pr41_inprocess_ab.py SEED [RUNS] > out.json

One process builds the workload once and then runs ABBA blocks of 16 ops:
"executor" blocks run rank 1 in a forked rank executor
(``repro.train.ranks``), "inprocess" blocks run both ranks in this process
(the trainer's executors set to one process, as on a one-CPU machine).
Both sides train the same trainer on the same heap, the same warmed
program cache and the same box state, so the per-op ratio has no
calibration term.  Each block starts with one untimed op, which on the
executor side forks the executor.

Besides the op wall times it records, per side, this process's CPU seconds
per op (``time.process_time``) and the executor's CPU seconds per op (utime
+ stime from ``/proc/<pid>/stat``), and the executor's peak RSS
(``VmHWM`` from ``/proc/<pid>/status``; it counts the pages the executor
still shares with this process) and private memory (``Private_*`` from
``/proc/<pid>/smaps_rollup``) next to this process's peak (``RUSAGE_SELF``,
cumulative over the runs of one invocation).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time

# BLAS pinned to one thread, as the ledger's child processes pin it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from workloads import SIZES, WORKLOADS  # noqa: E402

BLOCKS, OPS_PER_BLOCK = 24, 16
ORDER = ("executor", "inprocess", "inprocess", "executor")
TICK = os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICK


def _hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _private_mb(pid: int) -> float:
    """Pages ``pid`` does not share with any other process (its own
    copy-on-write copies included)."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total / 1024.0


def one_run(seed: int) -> dict:
    workload = WORKLOADS["train_ddp"](seed, SIZES["full"]["train_ddp"])
    workload.inputs()
    workload.warmup()
    executors = workload.trainer._ranks
    parallel = executors.processes
    sides = {
        side: {"ops": [], "cpu": [], "worker_cpu": 0.0, "worker_hwm_mb": 0.0, "worker_private_mb": 0.0}
        for side in ("executor", "inprocess")
    }
    for block in range(BLOCKS):
        side = ORDER[block % len(ORDER)]
        executors.close()
        executors.processes = parallel if side == "executor" else 1
        workload.run_op()  # untimed: forks the executor on that side
        pids = [pid for pid, _conn in executors._workers]
        worker0 = sum(_cpu_s(pid) for pid in pids)
        record = sides[side]
        for _ in range(OPS_PER_BLOCK):
            c0 = time.process_time()
            t0 = time.perf_counter()
            workload.run_op()
            record["ops"].append((time.perf_counter() - t0) * 1e3)
            record["cpu"].append((time.process_time() - c0) * 1e3)
        record["worker_cpu"] += sum(_cpu_s(pid) for pid in pids) - worker0
        for pid in pids:
            record["worker_hwm_mb"] = max(record["worker_hwm_mb"], _hwm_mb(pid))
            record["worker_private_mb"] = max(record["worker_private_mb"], _private_mb(pid))
    executors.close()
    executors.processes = parallel
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        side: {
            "op_ms_p50": float(np.median(r["ops"])),
            "op_ms_p90": float(np.percentile(r["ops"], 90)),
            "ops": len(r["ops"]),
            "parent_cpu_ms_per_op": float(np.mean(r["cpu"])),
            "worker_cpu_ms_per_op": r["worker_cpu"] * 1e3 / len(r["ops"]),
            "parent_peak_rss_mb": parent_mb,
            "worker_peak_rss_mb": r["worker_hwm_mb"],
            "worker_private_mb": r["worker_private_mb"],
        }
        for side, r in sides.items()
    }


def main() -> None:
    seed = int(sys.argv[1])
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    results = [one_run(seed) for _ in range(runs)]
    for r in results:
        ex, inp = r["executor"], r["inprocess"]
        for key in ("op_ms_p50", "op_ms_p90"):
            r[key.replace("_ms", "") + "_ratio"] = ex[key] / inp[key]
        r["total_cpu_ratio"] = (
            ex["parent_cpu_ms_per_op"] + ex["worker_cpu_ms_per_op"]
        ) / inp["parent_cpu_ms_per_op"]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    print(json.dumps({
        "workload": "train_ddp",
        "seed": seed,
        "blocks": BLOCKS,
        "ops_per_block": OPS_PER_BLOCK,
        "order": ORDER,
        "provenance": {
            "commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "cpu": models[0] if models else "",
            "cpus": len(os.sched_getaffinity(0)),
        },
        "runs": results,
    }, indent=1))


if __name__ == "__main__":
    main()
