"""Table II — one-step molecular-dynamics time, CHGNet vs FastCHGNet.

Paper (A100):

    crystal     atoms bonds angles  CHGNet  FastCHGNet  speedup
    LiMnO2          8   336    744  0.022 s    0.0077 s    2.86x
    LiTiPO5        32  1258   2292  0.021 s    0.0076 s    2.63x
    Li9Co7O16      32  1780   8376  0.023 s    0.0077 s    3.03x

Shape to reproduce: FastCHGNet's head-based inference beats the reference's
derivative-based inference by a factor in the low single digits on every
structure, with the speedup *not* strongly dependent on system size (the
paper attributes the gap to GPU under-utilization in step-by-step MD; on
this substrate it comes from skipping the force/stress backward pass).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.reporting import emit, format_table
from repro.graph import build_graph
from repro.md import MDSpec, ModelCalculator, Trajectory
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.structures import named_structures

PAPER = {
    "LiMnO2": (8, 336, 744, 0.022, 0.0077, 2.86),
    "LiTiPO5": (32, 1258, 2292, 0.021, 0.0076, 2.63),
    "Li9Co7O16": (32, 1780, 8376, 0.023, 0.0077, 3.03),
}
_RESULTS: dict[str, dict] = {}


def _step_time(crystal, level: OptLevel, n_steps: int = 2) -> float:
    """Mean seconds per MD step over ``n_steps`` after one warm-up step."""
    model = CHGNetModel(CHGNetConfig(opt_level=level), np.random.default_rng(2))
    calc = ModelCalculator(model)
    trajectory = Trajectory(0, MDSpec(crystal, 1 + n_steps), record=False)
    trajectory.start(calc.calculate(crystal))
    trajectory.advance(calc)
    t0 = time.perf_counter()
    for _ in range(n_steps):
        trajectory.advance(calc)
    return (time.perf_counter() - t0) / n_steps


@pytest.mark.parametrize("name", list(PAPER))
def test_md_one_step(benchmark, name):
    crystal = named_structures()[name]
    graph = build_graph(crystal)

    def run():
        t_ref = _step_time(crystal, OptLevel.BASELINE)
        t_fast = _step_time(crystal, OptLevel.DECOMPOSE_FS)
        return t_ref, t_fast

    t_ref, t_fast = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS[name] = {
        "atoms": crystal.num_atoms,
        "bonds": graph.num_edges,
        "angles": graph.num_angles,
        "t_ref": t_ref,
        "t_fast": t_fast,
    }
    assert t_fast < t_ref, "FastCHGNet MD step must be faster"


def test_report_table2(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name, rec in _RESULTS.items():
        p = PAPER[name]
        rows.append(
            [
                name,
                str(rec["atoms"]),
                str(rec["bonds"]),
                str(rec["angles"]),
                f"{rec['t_ref']:.3f}",
                f"{rec['t_fast']:.3f}",
                f"{rec['t_ref'] / rec['t_fast']:.2f}x",
                f"{p[5]:.2f}x",
            ]
        )
    table = format_table(
        ["crystal", "atoms", "bonds", "angles", "CHGNet (s)", "FastCHGNet (s)", "speedup", "paper speedup"],
        rows,
        title="Table II — one-step MD time (step-by-step structure processing)",
    )
    emit("table2_md", table)

    speedups = [rec["t_ref"] / rec["t_fast"] for rec in _RESULTS.values()]
    assert all(s > 1.3 for s in speedups), "low-single-digit speedup expected"
    assert all(s < 20 for s in speedups)
