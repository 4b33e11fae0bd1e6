"""Result tables for the benchmark harness.

Every bench prints (and writes to ``benchmarks/out/``) a markdown table in
the same row format the paper reports, plus the paper's values for
side-by-side comparison; ``benchmarks/README.md`` lists which bench writes
which table.
"""

from __future__ import annotations

import os
from pathlib import Path


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Render a markdown table."""
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def output_dir() -> Path:
    """Directory for bench artifacts (created on demand)."""
    root = os.environ.get("REPRO_BENCH_OUT", "")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[3] / "benchmarks" / "out"
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(name: str, table: str) -> None:
    """Print a result table and persist it under ``benchmarks/out/``."""
    print("\n" + table + "\n", flush=True)
    (output_dir() / f"{name}.md").write_text(table + "\n")


def ascii_histogram(values, bins: int = 12, width: int = 40, label: str = "") -> str:
    """Log-binned ASCII histogram (stand-in for Fig. 5 / Fig. 9 plots)."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    values = values[values > 0]
    if values.size == 0:
        return f"{label}: (no data)"
    edges = np.logspace(np.log10(values.min()), np.log10(values.max() + 1), bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    peak = max(int(counts.max()), 1)
    lines = [f"{label} (n={values.size}, min={values.min():.0f}, max={values.max():.0f})"]
    for i, c in enumerate(counts):
        bar = "#" * max(1 if c else 0, int(round(width * c / peak)))
        lines.append(f"  [{edges[i]:8.0f}, {edges[i + 1]:8.0f}) {c:6d} {bar}")
    return "\n".join(lines)
