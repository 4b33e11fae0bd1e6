"""``tools/knobs.py``: the configuration-surface count agrees with the code."""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from repro.data.loader import ShardedLoader
from repro.md import ModelCalculator, TrajectoryFarm
from repro.serve import AutoscaleConfig, InferenceEngine
from repro.train import DistributedConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "knobs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("knobs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defaulted(cls) -> int:
    params = inspect.signature(cls.__init__).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def test_counts_agree_with_fields_and_signatures():
    configs = (DistributedConfig, AutoscaleConfig)
    constructors = (InferenceEngine, ShardedLoader, TrajectoryFarm, ModelCalculator)
    expected = {cls.__name__: len(dataclasses.fields(cls)) for cls in configs}
    expected.update({cls.__name__: _defaulted(cls) for cls in constructors})
    assert _load_tool().knob_counts() == expected


def test_tool_runs_and_prints_the_total():
    out = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    counts = _load_tool().knob_counts()
    assert len(out) == len(counts) + 1
    for line, (name, n) in zip(out, counts.items()):
        assert line.split()[:2] == [str(n), name]
    assert out[-1].split() == [str(sum(counts.values())), "total"]
