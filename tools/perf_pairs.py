"""Alternating pairs of the ledger's driver form on two checkouts.

Usage::

    python3 tools/perf_pairs.py PARENT CHANGE --workload train_ddp --seed 11 [--pairs 10]
                                [--out pairs.json]

Runs ``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0`` (``S`` from the parent's ``BENCHMARK.json``) inside each
checkout, ``--pairs`` times per side, alternating which side goes first, and
prints for every end-to-end metric the per-pair table, each side's median
and quartiles, the pairs the change won and the verdict by the rule of the
choosing-metrics guide: a **gain** needs the change to win at least nine
tenths of the pairs (ties count for neither side) *and* the medians to
differ by more than the parent's interquartile range; **worse** is the same
rule with the sides swapped; anything else is **no claim**.  Make each
checkout a clean ``git clone`` at its commit, so both run committed files
only.  Standard library only; nothing under ``benchmarks/perf/`` is imported
or touched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One driver-form run in ``checkout``: its end-to-end metrics by name."""
    done = subprocess.run(
        [
            sys.executable,
            "benchmarks/perf/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],  # fmt: skip
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"run in {checkout} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"run in {checkout} is invalid: {result['failed']} failed ops")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def judge(parent: list[float], change: list[float], better: str) -> dict:
    """Wins, medians, quartiles and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    needed = 0.9 * len(parent)
    beyond_spread = abs(c_med - p_med) > p_q3 - p_q1
    if wins >= needed and beyond_spread and sign * (c_med - p_med) > 0:
        verdict = "gain"
    elif losses >= needed and beyond_spread and sign * (c_med - p_med) < 0:
        verdict = "worse"
    else:
        verdict = "no claim"
    return {
        "wins": wins,
        "losses": losses,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "median_change": (c_med - p_med) / p_med if p_med else 0.0,
        "verdict": verdict,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write every run and verdict as JSON")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    with open(args.parent / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    metrics = contract["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, seconds))
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first)", file=sys.stderr, flush=True)

    verdicts = {}
    for metric in metrics:
        name = metric["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        verdicts[name] = judged = judge(parent, change, metric["better"])
        print(f"\n{name} [{metric['unit']}, {metric['better']} is better]")
        print("  pair      parent      change")
        for pair, (p, c) in enumerate(zip(parent, change), 1):
            print(f"  {pair:>4}  {p:>10.3f}  {c:>10.3f}")
        for side in ("parent", "change"):
            q = judged[side]
            print(f"  {side:<6} median {q['median']:.3f}  quartiles {q['q1']:.3f} .. {q['q3']:.3f}")
        print(
            f"  change wins {judged['wins']}/{args.pairs}, loses {judged['losses']}/{args.pairs}; "
            f"median {judged['median_change']:+.1%} of parent; parent IQR "
            f"{judged['parent']['q3'] - judged['parent']['q1']:.3f} -> {judged['verdict']}"
        )
    if args.out:
        document = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "pairs": args.pairs,
            "runs": runs,
            "verdicts": verdicts,
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
