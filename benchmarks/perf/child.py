"""One workload in one process: set-up, timed ops, traced ops, output checks.

Spawned by ``run.py``; writes one JSON document to ``--result``.  The clock
for ``setup_s`` starts on the first line below, before NumPy or the program
is imported, and BLAS is pinned to one thread before NumPy loads.
"""

import time

_T_ENTRY = time.perf_counter()

import os  # noqa: E402

PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LOADER_NEXT, ROOT, SpanTable, Tracer  # noqa: E402  (stdlib only)

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: Wall time (ms) of one calibration slice on the reference box in its fast
#: state.  It only fixes the scale of ``bench.slowdown``: 1.0 = that state.
CALIB_REF_MS = 2.0
#: The slice slows down more than the program's ops do when the box gets
#: busy: regressing log(cycle time) on log(slice time) gave slopes of
#: 0.6-0.9 across the four workloads and several hours, so the factor
#: applied to an op is ``(slice / reference) ** 0.8``.
SLOWDOWN_EXPONENT = 0.8
#: Ops on either side whose calibration slices are pooled (median) into the
#: slow-down factor of one op.
CALIB_HALF_WINDOW = 2


class Calibrator:
    """A fixed loop that measures how fast the box is *now*.

    The container this ledger was built on runs 1.0-2.0x slower from one
    second to the next (a noisy neighbour: CPU time tracks wall time, and
    pure-Python code, small NumPy calls, matmuls and the program's ops all
    slow down together, though not by the same factor).  One slice —
    interpreter work, small-array NumPy dispatch, a matmul and a
    cache-resident streaming add, about equal shares — runs between every
    two timed ops; dividing an op's time by the (damped) slow-down of the
    slices around it removes most of that swing.
    """

    def __init__(self, np) -> None:
        self._np = np
        self._small = np.ones((24, 24))
        self._v = np.linspace(0.0, 1.0, 256)
        self._idx = np.arange(256) % 37
        self._square = np.ones((96, 96))
        self._x = np.ones(30_000)
        self._y = np.ones(30_000)
        self._z = np.empty(30_000)

    def slice_ms(self) -> float:
        np, small, v, idx = self._np, self._small, self._v, self._idx
        t0 = time.perf_counter()
        acc = 0
        for i in range(12_000):
            acc += (i * 7) % 5
        for _ in range(120):
            w = np.exp(v) * v + 1.0
            acc += (small @ small)[0, 0] + w[idx][1]
        for _ in range(16):
            self._square @ self._square
        for _ in range(40):
            np.add(self._x, self._y, out=self._z)
        return (time.perf_counter() - t0) * 1e3


def _p90(values: list[float]) -> float:
    """90th percentile, linearly interpolated (NumPy's default method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _slowdowns(calib: list[float]) -> list[float]:
    """Slow-down factor of each op from the slices around it.

    ``calib[i]`` ran just before op ``i`` and ``calib[i + 1]`` just after.
    """
    n_ops = len(calib) - 1
    out = []
    for i in range(n_ops):
        lo = max(0, i - CALIB_HALF_WINDOW + 1)
        hi = min(len(calib), i + CALIB_HALF_WINDOW + 1)
        out.append((statistics.median(calib[lo:hi]) / CALIB_REF_MS) ** SLOWDOWN_EXPONENT)
    return out


def _provenance(np) -> dict:
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, AttributeError):  # NumPy < 1.25 has no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def _run_ops(workload, n_ops: int, calibrator, tracer=None):
    """Run ``n_ops`` ops; per-op wall/cpu seconds, units, failures, slices."""
    wall, cpu, calib = [], [], []
    units = failed = 0
    if calibrator is not None:
        calib.append(calibrator.slice_ms())
    for _ in range(n_ops):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.root():
                    units += workload.run_op()
            else:
                units += workload.run_op()
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            failed += 1
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        if calibrator is not None:
            calib.append(calibrator.slice_ms())
    return {"wall": wall, "cpu": cpu, "calib": calib, "units": units, "failed": failed}


def _end_to_end(run: dict, rss_mb: float) -> dict:
    """The end-to-end metrics of a timed section, at reference speed."""
    slow = _slowdowns(run["calib"])
    wall = [w / s for w, s in zip(run["wall"], slow)]
    cpu = [c / s for c, s in zip(run["cpu"], slow)]
    units = max(1, run["units"])
    return {
        "throughput_per_s": units / sum(wall),
        "op_ms_p50": statistics.median(wall) * 1e3,
        "op_ms_p90": _p90(wall) * 1e3,
        "cpu_ms_per_unit": sum(cpu) / units * 1e3,
        "peak_rss_mb": rss_mb,
    }


def _raw(run: dict) -> dict:
    """The same section on the raw wall clock (demoted: too noisy to bound)."""
    units = max(1, run["units"])
    out = {
        "bench.raw_throughput_per_s": units / sum(run["wall"]),
        "bench.raw_op_ms_p50": statistics.median(run["wall"]) * 1e3,
        "bench.raw_op_ms_p90": _p90(run["wall"]) * 1e3,
    }
    if run["calib"]:
        out["bench.calib_ms"] = statistics.median(run["calib"])
        out["bench.slowdown"] = (out["bench.calib_ms"] / CALIB_REF_MS) ** SLOWDOWN_EXPONENT
    return out


#: Span names of the engine's public calls (``serve`` layer self time).
SERVE_CALLS = ("serve.submit", "serve.poll", "serve.flush", "serve.predict_many",
               "serve.predict_wave", "serve.publish_weights")


def _per_layer(table, units: int, delta: dict, gauges: dict) -> dict:
    """Per-layer metrics of the traced cycles (see README.md for each)."""
    per_unit = 1e3 / max(1, units)  # seconds -> ms per unit
    steps = max(1, table.count("train.train_step"))
    replays = max(1, table.count("tensor.CompiledStep.replay"))
    submits = [d * 1e3 for d in table.durations("serve.submit")]
    waves = [d * 1e3 for d in table.durations("serve.predict_wave")]
    instrs = table.attrs("tensor.CompiledStep.replay")
    allreduce_bytes = table.attrs("comm.allreduce_mean_inplace")
    lookups = delta["cache_hits"] + delta["cache_misses"]
    batches = delta.get("batches", 0)
    queries = delta.get("neighbor_builds", 0) + delta.get("neighbor_reuses", 0)
    named = sum(
        table.self_time(name) for name in table.by_name if name != ROOT
    )
    return {
        "bench.span_coverage": named / max(1e-12, table.total(ROOT)),
        "structures.neighbor_ms_per_unit": per_unit * table.self_time(
            "structures.neighbor_list", "structures.NeighborCache.query"),
        "structures.neighbor_searches_per_unit": table.count("structures.neighbor_list") / max(1, units),
        "structures.neighbor_cache_hit_rate": delta.get("neighbor_reuses", 0) / queries if queries else 0.0,
        "graph.build_ms_per_unit": per_unit * table.self_time("graph.build_graph"),
        "graph.collate_ms_per_unit": per_unit * table.self_time("graph.collate"),
        "graph.pad_ms_per_unit": per_unit * table.self_time("graph.pad_batch"),
        "graph.padding_overhead": delta["padded_cost"] / delta["raw_cost"] - 1.0 if delta["raw_cost"] else 0.0,
        "graph.angle_reuse_rate": delta.get("angle_reuses", 0) / delta["angle_events"] if delta.get("angle_events") else 0.0,
        "data.load_ms_per_unit": per_unit * table.self_time(LOADER_NEXT, "data.ShardedLoader.iter_epoch"),
        "tensor.replay_ms_per_unit": per_unit * table.total("tensor.CompiledStep.replay"),
        "tensor.replay_ms_per_call": 1e3 * table.total("tensor.CompiledStep.replay") / replays,
        "tensor.bind_ms_per_unit": per_unit * table.total("tensor.CompiledStep.bind"),
        "tensor.apply_grads_ms_per_unit": per_unit * table.total("tensor.CompiledStep.apply_grads"),
        "tensor.dispatch_self_ms_per_unit": per_unit * table.self_time(
            "tensor.InferenceCompiler.run", "tensor.StepCompiler.step"),
        "tensor.replays_per_unit": delta["replays"] / max(1, units),
        "tensor.program_hit_rate": delta["cache_hits"] / lookups if lookups else 0.0,
        "tensor.instrs_per_replay": sum(instrs) / len(instrs) if instrs else 0.0,
        "tensor.arena_mib": gauges["arena_bytes"] / 2**20,
        "train.step_self_ms": 1e3 * table.self_time("train.train_step") / steps,
        "train.optimizer_ms_per_step": 1e3 * table.total("train.Adam.step") / steps,
        "comm.allreduce_ms_per_step": 1e3 * table.total("comm.allreduce_mean_inplace") / steps,
        "comm.allreduce_calls_per_step": table.count("comm.allreduce_mean_inplace") / steps,
        "comm.bytes_per_step": sum(allreduce_bytes) / steps,
        "serve.self_ms_per_unit": per_unit * table.self_time(*SERVE_CALLS),
        "serve.submit_ms_p50": statistics.median(submits) if submits else 0.0,
        "serve.submit_ms_p90": _p90(submits) if len(submits) > 1 else 0.0,
        "serve.poll_ms_per_unit": per_unit * table.total("serve.poll"),
        "serve.publish_ms_per_call": 1e3 * table.total("serve.publish_weights")
        / max(1, table.count("serve.publish_weights")),
        "serve.batches_per_unit": batches / max(1, units),
        "serve.mean_batch_structs": delta.get("requests", 0) / batches if batches else 0.0,
        "serve.merged_share": delta.get("merged_batches", 0) / batches if batches else 0.0,
        "serve.modeled_latency_p95_ms": gauges.get("modeled_latency_p95", 0.0) * 1e3,
        "md.integrate_ms_per_unit": per_unit * table.self_time("md.TrajectoryFarm.run"),
        "md.wave_ms_p50": statistics.median(waves) if waves else 0.0,
        "md.mean_wave_size": delta.get("evaluations", 0) / delta["waves"] if delta.get("waves") else 0.0,
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _traced_section(workload, tracer, cycles: int, calibrator, kernel_stats, spans_path):
    """Alternate untraced and traced cycles, then count launches.

    Alternating means drift (of the box, and of serve_stream's growing
    queue table) hits both sides alike.  Returns the untraced reference
    run, the per-layer metrics, and (ops attempted, ops failed, traced ops,
    traced units).
    """
    cycle = workload.ops_per_cycle
    reference = {"wall": [], "cpu": [], "calib": [], "units": 0, "failed": 0}
    traced = {"wall": [], "units": 0, "failed": 0}
    sections = []
    delta: dict[str, float] = {}
    for _ in range(cycles):
        ref = _run_ops(workload, cycle, calibrator)
        for key in reference:
            reference[key] += ref[key]
        before = workload.counters()
        with tracer.installed():
            lo = tracer.mark()
            run = _run_ops(workload, cycle, None, tracer)
            sections.append((lo, tracer.mark()))
        for key, value in _delta(workload.counters(), before).items():
            delta[key] = delta.get(key, 0) + value
        for key in traced:
            traced[key] += run[key]
    per_layer = _per_layer(
        SpanTable(tracer.spans, sections), traced["units"], delta, workload.gauges()
    )
    # Scheduler bookkeeping per cycle, last traced cycle over first: the
    # cycles are identical, so anything above 1 is state the engine
    # accumulated in between (serve_stream's queue table).
    first, last = (
        SpanTable(tracer.spans, [section]).self_time(*SERVE_CALLS)
        for section in (sections[0], sections[-1])
    )
    per_layer["serve.self_growth_ratio"] = last / first if first else 0.0
    per_layer["bench.trace_overhead_ratio"] = (
        sum(traced["wall"]) / max(1, traced["units"])
    ) / (sum(reference["wall"]) / max(1, reference["units"]))
    # Launch counts need the kernel-profile scope, which switches replay to
    # its instrumented loop: a separate pass, never a timed one.
    with kernel_stats() as kernels:
        counted = _run_ops(workload, cycle, None)
    per_layer["runtime.kernels_per_unit"] = kernels.count / max(1, counted["units"])
    per_layer["runtime.kernel_bytes_per_unit"] = kernels.bytes_out / max(1, counted["units"])
    if spans_path:
        tracer.write_jsonl(spans_path)
    ops = len(reference["wall"]) + len(traced["wall"]) + len(counted["wall"])
    failed = reference["failed"] + traced["failed"] + counted["failed"]
    return reference, per_layer, (ops, failed, len(traced["wall"]), traced["units"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--timed", type=int, choices=(0, 1), required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="span JSONL path")
    args = parser.parse_args()

    sys.path.insert(0, str(REPO / "src"))
    import numpy as np
    from repro.runtime import kernel_stats, memory_stats

    from workloads import SIZES, WORKLOADS

    import_s = time.perf_counter() - _T_ENTRY
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.scale][args.workload])
    t0 = time.perf_counter()
    workload.inputs()
    inputs_s = time.perf_counter() - t0

    # Run length is a whole number of cycles fixed by --seconds (not a
    # deadline): the same ops run on every commit, and serve_stream's
    # queue-table growth makes its late cycles slower than its early ones.
    timed_cycles, traced_cycles = 1, 2
    if args.scale == "full":
        timed_cycles = max(1, round(workload.cycles_per_10s * args.seconds / 10.0))
        traced_cycles = max(2, timed_cycles // 4)
    timed_cycles *= args.timed
    traced_cycles *= args.traced
    tracer = Tracer() if traced_cycles else None
    per_layer: dict[str, float] = {}
    t0 = time.perf_counter()
    if tracer is None:
        workload.warmup()
    else:
        # The traced child also watches its own warm-up: capture time from
        # the compiler spans, tape + arena peak from the memory scope.
        with tracer.installed(), memory_stats() as memory:
            workload.warmup()
        warm = SpanTable(tracer.spans, [(0, tracer.mark())])
        per_layer["tensor.capture_s"] = sum(
            dur
            for name in ("tensor.InferenceCompiler.run", "tensor.StepCompiler.step")
            for dur, _self, captured in warm.by_name.get(name, ())
            if captured
        )
        per_layer["runtime.tape_peak_mib"] = memory.peak_mib
    warmup_s = time.perf_counter() - t0
    setup_s = time.perf_counter() - _T_ENTRY

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "setup_s": setup_s,
        "provenance": _provenance(np),
    }
    per_layer.update(
        {"bench.import_s": import_s, "bench.inputs_s": inputs_s, "bench.warmup_s": warmup_s}
    )
    start = workload.counters()
    per_layer["tensor.captures"] = start["captures"]
    calibrator = Calibrator(np)
    attempted = failed = 0
    untraced = None

    if timed_cycles:
        untraced = _run_ops(workload, timed_cycles * workload.ops_per_cycle, calibrator)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = _end_to_end(untraced, rss_mb)
        result["ops"] = len(untraced["wall"])
        result["units"] = untraced["units"]
        result["calib_ms"] = untraced["calib"]
        attempted += len(untraced["wall"])
        failed += untraced["failed"]

    if tracer is not None:
        reference, layers, (ops, ops_failed, result["traced_ops"], result["traced_units"]) = (
            _traced_section(workload, tracer, traced_cycles, calibrator, kernel_stats, args.spans)
        )
        per_layer.update(layers)
        attempted += ops
        failed += ops_failed
        if untraced is None:
            untraced = reference

    measured = _delta(workload.counters(), start)
    per_layer["tensor.captures_timed"] = measured["captures"]
    per_layer["tensor.eager_fallbacks"] = measured["eager_fallbacks"]
    per_layer["serve.lost"] = measured.get("lost", 0)

    if untraced is not None:  # not a set-up-only child
        per_layer.update(_raw(untraced))
        failed += workload.drain()
        checks, wrong = workload.verify()
        attempted += checks
        failed += wrong
        per_layer["bench.failed_share"] = failed / max(1, attempted)
        invalid = [
            f"{name} = {per_layer[name]}"
            for name in ("tensor.captures_timed", "tensor.eager_fallbacks", "serve.lost")
            if per_layer[name] > 0
        ]
        if invalid:
            result["invalid"] = "; ".join(invalid)
    result["attempted"] = attempted
    result["failed"] = failed
    result["per_layer"] = per_layer
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
