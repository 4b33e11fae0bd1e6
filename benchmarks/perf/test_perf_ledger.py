"""Tier-1 smoke + schema test of the perf ledger (``benchmarks/perf``).

Runs ``run.py --smoke`` twice with the same seed (concurrently: the box has
two cores and smoke timings are not judged) and checks the ledger's shape,
not its speed: every workload and metric of BENCHMARK.json is reported once
with a finite value, outputs verify, the trace accounts for the traced
wall time, and the exact counts repeat bit for bit.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> list[dict]:
    out_dir = tmp_path_factory.mktemp("perf_ledger")
    procs = []
    for i in range(2):
        out = out_dir / f"smoke_{i}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", "--out", str(out)]
        procs.append((out, subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)))
    documents = []
    for out, proc in procs:
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, stdout
        with open(out) as fh:
            documents.append(json.load(fh) | {"stdout": stdout})
    return documents


def test_contract_shape(contract):
    assert contract["paths"] == ["benchmarks/perf"]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in contract["workloads"]] == [
        "screen_crystals", "serve_stream", "train_ddp", "farm_waves"
    ]
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in contract["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_every_metric_reported_once(contract, smoke_runs):
    document = smoke_runs[0]
    assert document["scale"] == "smoke" and document["seed"] == 3
    (run,) = document["runs"]
    assert list(run["workloads"]) == [w["name"] for w in contract["workloads"]]
    for name, row in run["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            declared = [m["name"] for m in contract[section]]
            assert sorted(row[section]) == sorted(declared), (name, section)
            for metric in contract[section]:
                value = row[section][metric["name"]]
                assert math.isfinite(value), (name, metric["name"], value)
                assert metric["unit"]
                # printed by name with its unit, once per workload
                line = re.compile(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\s", re.M)
                assert len(line.findall(document["stdout"])) == len(run["workloads"]), metric["name"]
        assert all(row["end_to_end"][m["name"]] > 0 for m in contract["end_to_end"])


def test_outputs_verify_and_run_is_valid(smoke_runs):
    for document in smoke_runs:
        for name, row in document["runs"][0]["workloads"].items():
            layer = row["per_layer"]
            assert row["failed"] == 0 and row["attempted"] > 0, name
            assert layer["bench.failed_share"] == 0
            assert layer["tensor.captures_timed"] == 0
            assert layer["tensor.eager_fallbacks"] == 0
            assert layer["serve.lost"] == 0
            assert layer["tensor.program_hit_rate"] == 1.0


def test_trace_accounts_for_the_traced_wall(smoke_runs):
    for name, row in smoke_runs[0]["runs"][0]["workloads"].items():
        # self times of the named spans vs the wall of the traced ops
        assert 0.9 <= row["per_layer"]["bench.span_coverage"] <= 1.0 + 1e-9, name
        assert row["traced_ops"] > 0 and row["traced_units"] > 0


def test_layers_show_up_where_the_readme_says(smoke_runs):
    rows = smoke_runs[0]["runs"][0]["workloads"]
    assert rows["screen_crystals"]["per_layer"]["structures.neighbor_searches_per_unit"] == 1.0
    assert rows["serve_stream"]["per_layer"]["graph.build_ms_per_unit"] == 0.0
    assert rows["serve_stream"]["per_layer"]["serve.publish_ms_per_call"] > 0
    assert rows["serve_stream"]["per_layer"]["serve.merged_share"] > 0
    assert rows["train_ddp"]["per_layer"]["serve.self_ms_per_unit"] == 0.0
    assert rows["train_ddp"]["per_layer"]["comm.allreduce_calls_per_step"] > 0
    assert rows["train_ddp"]["per_layer"]["tensor.apply_grads_ms_per_unit"] > 0
    assert rows["farm_waves"]["per_layer"]["structures.neighbor_cache_hit_rate"] > 0
    assert rows["farm_waves"]["per_layer"]["md.integrate_ms_per_unit"] > 0
    assert rows["farm_waves"]["per_layer"]["md.mean_wave_size"] > 1


def test_provenance(smoke_runs):
    provenance = smoke_runs[0]["provenance"]
    for key in ("commit", "dirty", "utc", "python", "numpy", "scipy", "blas", "cpu", "nproc"):
        assert key in provenance
    assert provenance["threads_env"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
    }
    row = smoke_runs[0]["runs"][0]["workloads"]["train_ddp"]
    assert row["ops"] > 0 and row["units"] > 0 and len(row["setup_samples_s"]) >= 3
    assert row["per_layer"]["bench.calib_ms"] > 0


def test_exact_counts_repeat_and_compare_agrees(smoke_runs, tmp_path):
    first, second = (d["runs"][0]["workloads"] for d in smoke_runs)
    assert smoke_runs[0]["exact"]
    for name in first:
        for metric in smoke_runs[0]["exact"]:
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric], (name, metric)
    paths = []
    for i, document in enumerate(smoke_runs):
        paths.append(tmp_path / f"set_{i}.json")
        body = {k: v for k, v in document.items() if k != "stdout"}
        # same commit by construction; pin it so the exact check runs even
        # outside a git checkout
        body["provenance"] = body["provenance"] | {"commit": "test"}
        paths[-1].write_text(json.dumps(body))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", str(paths[0]), str(paths[0])],
        stdout=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert "worse" not in proc.stdout.replace("verdict", "")
    assert "exact counts: all identical" in proc.stdout
    cross = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", str(paths[0]), str(paths[1])],
        stdout=subprocess.PIPE, text=True,
    )
    assert "exact counts: all identical" in cross.stdout, cross.stdout
