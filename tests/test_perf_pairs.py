"""``tools/perf_pairs.py``: the pairs verdict and the printed-table parser.

A **gain** needs the change to win at least nine tenths of the pairs (ties
count for neither side) and the medians to differ by more than the parent's
interquartile range; **worse** is the same rule with the sides swapped;
anything else is **no claim**.  The parser keeps the per-layer side metrics
(``bench.raw_*``, ``bench.calib_ms``, ``bench.warmup_s``) of a ``run.py
--trace 0`` table and nothing else.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # IQR 0.45


class TestJudge:
    def test_gain_lower_is_better(self, tool):
        change = [p - 1.0 for p in PARENT]
        judged = tool.judge(PARENT, change, "lower")
        assert (judged["wins"], judged["losses"], judged["verdict"]) == (10, 0, "gain")
        assert judged["parent"]["median"] == pytest.approx(10.45)
        assert judged["change"]["median"] == pytest.approx(9.45)
        assert judged["median_change"] == pytest.approx(-1.0 / 10.45)

    def test_gain_higher_is_better(self, tool):
        judged = tool.judge(PARENT, [p + 1.0 for p in PARENT], "higher")
        assert judged["verdict"] == "gain" and judged["wins"] == 10

    def test_worse(self, tool):
        judged = tool.judge(PARENT, [p + 1.0 for p in PARENT], "lower")
        assert (judged["wins"], judged["losses"], judged["verdict"]) == (0, 10, "worse")

    def test_nine_of_ten_is_enough(self, tool):
        change = [p - 1.0 for p in PARENT]
        change[3] = PARENT[3] + 0.5  # one lost pair
        judged = tool.judge(PARENT, change, "lower")
        assert (judged["wins"], judged["losses"], judged["verdict"]) == (9, 1, "gain")

    def test_ties_count_for_neither_side(self, tool):
        change = [p - 1.0 for p in PARENT]
        change[0] = PARENT[0]
        change[1] = PARENT[1]  # two ties: 8 wins, no loss
        judged = tool.judge(PARENT, change, "lower")
        assert (judged["wins"], judged["losses"], judged["verdict"]) == (8, 0, "no claim")
        equal = tool.judge(PARENT, list(PARENT), "lower")
        assert (equal["wins"], equal["losses"], equal["verdict"]) == (0, 0, "no claim")

    def test_inside_the_parent_spread_is_no_claim(self, tool):
        judged = tool.judge(PARENT, [p - 0.3 for p in PARENT], "lower")  # 0.3 < IQR 0.45
        assert judged["wins"] == 10 and judged["verdict"] == "no claim"


TABLE = """
== train_ddp [ok] — loader next plus a 2-rank synchronized FUSED step
   checked 233 ops/outputs, 0 failed
   end-to-end over 104 ops / 416 units (times at reference speed; setup_s = median of 3)
     throughput_per_s                         234.2006 units/s  higher bound 25%
     peak_rss_mb                               99.0547 MB       lower  bound 20%
     bench.import_s                             0.3599 s        lower
     bench.warmup_s                             2.6809 s        lower
     bench.calib_ms                             3.8550 ms       lower
     bench.slowdown                             1.6904 ratio    lower
     bench.raw_throughput_per_s               139.7926 units/s  higher
     bench.raw_op_ms_p50                       22.2530 ms       lower
     tensor.captures                            8.0000 count    lower  exact
{"correct": true, "attempted": 233, "failed": 0, "metrics": {}}
"""


def test_side_values_keep_raw_calibration_and_warmup(tool):
    assert tool.side_values(TABLE) == {
        "bench.warmup_s": 2.6809,
        "bench.calib_ms": 3.855,
        "bench.raw_throughput_per_s": 139.7926,
        "bench.raw_op_ms_p50": 22.253,
    }
    assert tool.side_values("") == {}


def test_side_metrics_are_declared_per_layer_metrics(tool):
    contract = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in contract["per_layer"]}
    assert set(tool.SIDE_METRICS) <= declared
    assert {"bench.raw_op_ms_p50", "bench.raw_op_ms_p90"} <= {
        name for name in declared if tool.is_side_metric(name)
    }
