"""Independently settable values of the public configuration surface.

Usage::

    python3 tools/knobs.py

Prints one line per configuration class and the total: the number of
dataclass fields of each config object, and the number of constructor
keywords with a default (what a caller may set or leave out) of each
configurable class.  Required inputs — the model, the dataset, the sampler,
the batch size, the engine — are what is configured, not configuration, and
are not counted.  Every independent value doubles the configurations tests
and benchmarks must cover, so a simplifying change reports this count
before and after.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.data.loader import ShardedLoader  # noqa: E402
from repro.md import ModelCalculator, TrajectoryFarm  # noqa: E402
from repro.serve import AutoscaleConfig, InferenceEngine  # noqa: E402
from repro.train import DistributedConfig  # noqa: E402

#: Config objects, counted by dataclass field.
CONFIGS = (DistributedConfig, AutoscaleConfig)
#: Configurable classes, counted by constructor keyword with a default.
CONSTRUCTORS = (InferenceEngine, ShardedLoader, TrajectoryFarm, ModelCalculator)


def keywords(cls: type) -> list[str]:
    """Names of ``cls``'s constructor parameters that have a default."""
    params = inspect.signature(cls.__init__).parameters.values()
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def knob_names() -> dict[type, list[str]]:
    """Class -> the names of its independently settable values, in print
    order: every dataclass field of a config object, every defaulted
    constructor keyword of a configurable class."""
    names = {cls: [f.name for f in dataclasses.fields(cls)] for cls in CONFIGS}
    names.update({cls: keywords(cls) for cls in CONSTRUCTORS})
    return names


def knob_counts() -> dict[str, int]:
    """Class name -> independently settable values, in print order."""
    return {cls.__name__: len(names) for cls, names in knob_names().items()}


def main() -> int:
    counts = knob_counts()
    kinds = ["fields"] * len(CONFIGS) + ["keywords"] * len(CONSTRUCTORS)
    for (name, n), kind in zip(counts.items(), kinds):
        print(f"{n:7d}  {name} ({kind})")
    print(f"{sum(counts.values()):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
