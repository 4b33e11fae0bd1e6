"""Append one ledger result set to ``docs/perf/trajectory.jsonl``.

Usage::

    python3 tools/perf_trajectory.py docs/perf/pr16_set_head.json [--label pr16]

The trajectory has one line per PR: the median over the set's runs of every
end-to-end metric of every workload (names read from ``BENCHMARK.json``),
the run count, and the set's own provenance block — so a re-anchor reads a
curve instead of diffing per-PR markdown.  The label defaults to the file
name's ``prNN`` prefix; a line with the same label is replaced, so the
command is idempotent.  Lines stay sorted by label number.  Standard
library only, and nothing under ``benchmarks/perf/`` is imported or touched.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRAJECTORY = REPO / "docs" / "perf" / "trajectory.jsonl"


def summarize(path: Path, label: str) -> dict:
    """The trajectory line of one result set."""
    with open(REPO / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    with open(path) as fh:
        document = json.load(fh)
    metrics = [m["name"] for m in contract["end_to_end"]]
    workloads = {}
    for spec in contract["workloads"]:
        rows = [
            run["workloads"][spec["name"]]["end_to_end"]
            for run in document["runs"]
            if "end_to_end" in run["workloads"].get(spec["name"], {})
        ]
        if rows:
            workloads[spec["name"]] = {
                name: statistics.median(row[name] for row in rows) for name in metrics
            }
    return {
        "label": label,
        "set": path.resolve().relative_to(REPO).as_posix(),
        "seed": document["seed"],
        "scale": document["scale"],
        "runs": len(document["runs"]),
        "end_to_end": workloads,
        "provenance": document["provenance"],
    }


def _order(line: dict) -> tuple[int, str]:
    number = re.search(r"\d+", line["label"])
    return (int(number.group()) if number else 0, line["label"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set", type=Path, help="a ledger result file (run.py --out)")
    parser.add_argument("--label", help="trajectory label (default: the prNN file prefix)")
    args = parser.parse_args()
    label = args.label
    if label is None:
        match = re.match(r"pr\d+", args.set.name)
        if match is None:
            parser.error(f"cannot derive a label from {args.set.name!r}; pass --label")
        label = match.group()
    lines = []
    if TRAJECTORY.exists():
        with open(TRAJECTORY) as fh:
            lines = [json.loads(text) for text in fh if text.strip()]
    lines = [line for line in lines if line["label"] != label]
    lines.append(summarize(args.set, label))
    lines.sort(key=_order)
    with open(TRAJECTORY, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"{TRAJECTORY.relative_to(REPO)}: {len(lines)} lines, wrote {label!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
