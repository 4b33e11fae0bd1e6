"""The perf ledger: four end-to-end workloads, a per-layer trace, provenance.

Usage::

    python benchmarks/perf/run.py [--workload NAME] [--seed N] [--smoke]
                                  [--repeat K] [--out FILE]
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/perf/run.py compare A.json B.json

The first form runs every workload (or one), prints each metric by name
with its unit, direction and regression bound, checks the outputs and
writes a result file with provenance.  The second is the form the PR driver
calls: it prints one JSON object as its last line — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The third
compares two result files.  README.md documents every metric and workload;
BENCHMARK.json (repo root) is the single declaration of their names, units,
directions and bounds.

This process stays on the standard library; each workload runs in child
processes (``child.py``) that import NumPy and the program with BLAS pinned
to one thread.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

#: Child processes that measure ``setup_s`` per run (its median is reported).
SETUP_REPEATS = 3
#: No child may outlive this (the driver allows a whole run 180 s).
CHILD_TIMEOUT_S = 150
#: Default ``--seconds`` of the human form; BENCHMARK.json sets the driver's.
DEFAULT_SECONDS = 10.0
#: Slices of the calibration loop may differ this much (p90 vs p10, relative
#: to the median) inside one timed section before the row is ``unresolved``.
MAX_CALIB_SWING = 1.0

#: Per-layer counts that must repeat bit for bit between two runs of the
#: same commit, seed and scale (``compare`` and the tier-1 test check them).
EXACT = frozenset(
    {
        "structures.neighbor_searches_per_unit",
        "structures.neighbor_cache_hit_rate",
        "graph.padding_overhead",
        "graph.angle_reuse_rate",
        "tensor.captures",
        "tensor.captures_timed",
        "tensor.replays_per_unit",
        "tensor.eager_fallbacks",
        "tensor.program_hit_rate",
        "tensor.instrs_per_replay",
        "runtime.kernels_per_unit",
        "runtime.kernel_bytes_per_unit",
        "comm.allreduce_calls_per_step",
        "comm.bytes_per_step",
        "serve.batches_per_unit",
        "serve.mean_batch_structs",
        "serve.merged_share",
        "serve.lost",
        "md.mean_wave_size",
    }
)


def load_contract() -> dict:
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ children
def _child(workload: str, seed: int, scale: str, seconds: float, timed: int, traced: int,
           tag: str, spans_dir: Path = OUT) -> dict:
    """Run one child process to completion and return its result document."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}_{scale}_s{seed}_{tag}_{os.getpid()}"
    result_path = OUT / f"{stem}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--seconds", str(seconds), "--timed", str(timed), "--traced", str(traced),
        "--result", str(result_path),
    ]
    if traced:
        cmd += ["--spans", str(spans_dir / f"spans_{workload}_{scale}_s{seed}.jsonl")]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        raise SystemExit(f"{workload}: child ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    with open(result_path) as fh:
        document = json.load(fh)
    result_path.unlink()
    if "invalid" in document:
        raise SystemExit(f"{workload}: invalid run ({document['invalid']})")
    return document


def run_workload(workload: str, seed: int, scale: str, seconds: float, timed: bool,
                 traced: bool, spans_dir: Path = OUT) -> dict:
    """All child processes of one workload, folded into one ledger row."""
    setups = []
    if timed:
        # setup_s is noisy and cheap to repeat: extra children that only set
        # up, then the median over all of them.
        for i in range(SETUP_REPEATS - 1):
            setups.append(_child(workload, seed, scale, seconds, 0, 0, f"setup{i}")["setup_s"])
    if scale == "full" and timed and traced:
        # Two processes: the traced child watches its own warm-up, which
        # must not count into the timed child's set-up time.
        main = _child(workload, seed, scale, seconds, 1, 0, "timed")
        side = _child(workload, seed, scale, seconds, 0, 1, "traced", spans_dir)
        main["per_layer"] = {**main["per_layer"], **side["per_layer"]}
        for key in ("attempted", "failed"):
            main[key] += side[key]
        for key in ("traced_ops", "traced_units"):
            main[key] = side[key]
    else:
        main = _child(workload, seed, scale, seconds, int(timed), int(traced), "main", spans_dir)
    row = {
        "ops": main.get("ops", 0),
        "units": main.get("units", 0),
        "traced_ops": main.get("traced_ops", 0),
        "traced_units": main.get("traced_units", 0),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "per_layer": main["per_layer"],
        "provenance": main["provenance"],
        "status": "ok",
    }
    if timed:
        setups.append(main["setup_s"])
        row["end_to_end"] = {**main["end_to_end"], "setup_s": statistics.median(setups)}
        row["setup_samples_s"] = setups
        deciles = statistics.quantiles(main["calib_ms"], n=10, method="inclusive")
        swing = (deciles[-1] - deciles[0]) / statistics.median(main["calib_ms"])
        row["calib_swing"] = swing
        if swing > MAX_CALIB_SWING:
            row["status"] = "unresolved"
    return row


# ---------------------------------------------------------------- provenance
def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(REPO), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(child: dict) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit or "unknown",
        "dirty": bool(status) if status is not None else None,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        **child,
    }


# ------------------------------------------------------------------ printing
def _metric_rows(contract: dict, section: str, values: dict) -> list[tuple]:
    rows = []
    for metric in contract[section]:
        value = values.get(metric["name"])
        if value is None:
            continue
        bound = f"bound {metric['bound'] * 100:.0f}%" if "bound" in metric else ""
        if metric["name"] in EXACT:
            bound = "exact"
        rows.append((metric["name"], value, metric["unit"], metric["better"], bound))
    return rows


def print_row(contract: dict, name: str, row: dict) -> None:
    why = next(w["why"] for w in contract["workloads"] if w["name"] == name)
    print(f"\n== {name} [{row['status']}] — {why}")
    print(f"   checked {row['attempted']} ops/outputs, {row['failed']} failed")
    if "end_to_end" in row:
        print(f"   end-to-end over {row['ops']} ops / {row['units']} units "
              f"(times at reference speed; setup_s = median of {len(row['setup_samples_s'])})")
        for metric, value, unit, better, bound in _metric_rows(contract, "end_to_end", row["end_to_end"]):
            print(f"     {metric:<34} {value:>14.4f} {unit:<8} {better:<6} {bound}")
    if row["traced_ops"]:
        print(f"   per-layer over {row['traced_ops']} traced ops / {row['traced_units']} units")
    for metric, value, unit, better, bound in _metric_rows(contract, "per_layer", row["per_layer"]):
        print(f"     {metric:<34} {value:>14.4f} {unit:<8} {better:<6} {bound}")


# ------------------------------------------------------------------- compare
def _medians(document: dict, section: str) -> dict:
    """(workload, metric) -> values over the runs of a result file."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        for workload, row in run["workloads"].items():
            for metric, value in row.get(section, {}).items():
                out.setdefault((workload, metric), []).append(value)
    return out


def _spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median (IQR from 4 runs up)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    contract = load_contract()
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    values_a, values_b = _medians(a, "end_to_end"), _medians(b, "end_to_end")
    unresolved = {
        workload
        for document in (a, b)
        for run in document["runs"]
        for workload, row in run["workloads"].items()
        if row["status"] != "ok"
    }
    worse = 0
    print(f"A = {path_a} ({a['provenance']['commit'][:12]}, {len(a['runs'])} runs)")
    print(f"B = {path_b} ({b['provenance']['commit'][:12]}, {len(b['runs'])} runs)")
    print(f"{'workload':<16} {'metric':<18} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                continue
            med_a = statistics.median(values_a[key])
            med_b = statistics.median(values_b[key])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worsening = sign * (med_b - med_a) / med_a
            bound = metric["bound"]
            if worsening > bound:
                verdict = "worse"
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "same"
            noisy = max(_spread(values_a[key]), _spread(values_b[key])) > bound
            if workload in unresolved or noisy:
                # Only a clean separation of every run survives the noise.
                lo_a, hi_a = min(values_a[key]), max(values_a[key])
                lo_b, hi_b = min(values_b[key]), max(values_b[key])
                b_all_better = hi_b < lo_a if sign > 0 else lo_b > hi_a
                b_all_worse = lo_b > hi_a if sign > 0 else hi_b < lo_a
                if not (verdict == "better" and b_all_better) and not (
                    verdict == "worse" and b_all_worse
                ):
                    verdict = "unresolved"
            worse += verdict == "worse"
            print(f"{workload:<16} {metric['name']:<18} {med_a:>12.4f} {med_b:>12.4f} "
                  f"{med_b / med_a:>7.3f} {bound * 100:>5.0f}%  {verdict}")
    same_inputs = (
        a["provenance"]["commit"] == b["provenance"]["commit"]
        and a["provenance"]["commit"] != "unknown"
        and a["seed"] == b["seed"]
        and a["scale"] == b["scale"]
    )
    mismatched = 0
    if same_inputs:
        layer_a, layer_b = _medians(a, "per_layer"), _medians(b, "per_layer")
        for key in sorted(layer_a):
            if key[1] in EXACT and set(layer_a[key]) != set(layer_b.get(key, [])):
                mismatched += 1
                print(f"exact count differs: {key[0]} {key[1]}: "
                      f"{sorted(set(layer_a[key]))} vs {sorted(set(layer_b.get(key, [])))}")
        print(f"exact counts: {'all identical' if not mismatched else f'{mismatched} differ'} "
              f"(same commit, seed and scale)")
    else:
        print("exact counts: not compared (commit, seed or scale differ)")
    return 1 if worse or mismatched else 0


# ---------------------------------------------------------------------- main
def driver_line(contract: dict, row: dict, trace: int) -> str:
    """The one-line JSON result the PR driver reads."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in contract[section]:
        value = row[section][metric["name"]]
        if not math.isfinite(value):
            raise SystemExit(f"{metric['name']} is not finite: {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps(
        {"correct": row["failed"] == 0, "attempted": row["attempted"],
         "failed": row["failed"], "metrics": metrics}
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed section at full scale (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tier-1 scale: seconds in total")
    parser.add_argument("--repeat", type=int, default=1, help="runs in the result file")
    parser.add_argument("--out", default=None, help="result file (default: out/ledger_*.json)")
    args = parser.parse_args(argv)

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; have {names}")
    scale = "smoke" if args.smoke else "full"
    seconds = DEFAULT_SECONDS if args.seconds is None else args.seconds

    if args.trace is not None:
        if args.workload is None:
            raise SystemExit("--trace needs --workload")
        row = run_workload(args.workload, args.seed, scale, seconds,
                           timed=not args.trace, traced=bool(args.trace))
        print_row(contract, args.workload, row)
        print(driver_line(contract, row, args.trace))
        return 0

    selected = names if args.workload is None else [args.workload]
    OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT / f"ledger_{scale}_s{args.seed}.json"
    runs = []
    failed = 0
    child_provenance: dict = {}
    for repeat in range(args.repeat):
        rows = {}
        for name in selected:
            row = run_workload(name, args.seed, scale, seconds, timed=True, traced=True,
                               spans_dir=out.parent)
            child_provenance = row.pop("provenance")
            if args.repeat > 1:
                print(f"\n-- run {repeat + 1} of {args.repeat}")
            print_row(contract, name, row)
            failed += row["failed"]
            rows[name] = row
        runs.append({"workloads": rows})
    document = {
        "schema": 1,
        "provenance": provenance(child_provenance),
        "seed": args.seed,
        "scale": scale,
        "seconds": seconds,
        "exact": sorted(EXACT),
        "runs": runs,
    }
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"\nwrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
