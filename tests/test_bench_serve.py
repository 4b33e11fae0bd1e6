"""The serving benchmark's smoke mode must always run end-to-end."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_serve.py"


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_serve", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_smoke_runs_end_to_end(bench_module, tmp_path):
    out = tmp_path / "BENCH_serve.json"
    results = bench_module.main(["--smoke", "--out", str(out)])

    assert results["mode"] == "smoke"
    r = results["workloads"]["medium"]
    assert r["eager_structs_per_s"] > 0 and r["served_structs_per_s"] > 0
    # the ratio is reported; speed-ups are claimed on the perf ledger
    # (alternating runs, docs/perf/), not asserted on tier-1's wall clock
    assert r["speedup"] > 0
    # served predictions are bit-identical to solo eager predictions
    assert r["bit_identical"] is True
    assert results["medium_bit_identical"] is True
    # post-warmup passes replay cached programs almost exclusively
    assert r["warm_hit_rate"] >= 0.9
    assert r["eager_fallbacks"] == 0
    assert r["replays"] > r["captures"]
    # modeled worker parallelism adds throughput over one worker's wall rate
    assert r["modeled_parallel_structs_per_s"] > 0
    assert r["latency_p95"] >= r["latency_p50"] > 0
    # the JSON artifact round-trips
    on_disk = json.loads(out.read_text())
    assert on_disk["medium_speedup"] == results["medium_speedup"]
    assert on_disk["medium_warm_hit_rate"] == results["medium_warm_hit_rate"]
