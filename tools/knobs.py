"""Independently settable values of the public configuration surface.

Usage::

    python3 tools/knobs.py

Prints one line per configuration class or function and the total: the
number of dataclass fields of each config object, the number of constructor
keywords with a default (what a caller may set or leave out) of each
configurable class, and the number of parameters with a default of each
configurable function.  Required inputs — the model, the dataset, the
sampler, the batch size, the engine — are what is configured, not
configuration, and are not counted.  Every independent value doubles the
configurations tests and benchmarks must cover, so a simplifying change
reports this count before and after.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.comm.communicator import SimCommunicator  # noqa: E402
from repro.data.dataset import StructureDataset, split_dataset  # noqa: E402
from repro.data.loader import ShardedLoader  # noqa: E402
from repro.data.mptrj import generate_mptrj  # noqa: E402
from repro.data.oracle import OraclePotential  # noqa: E402
from repro.data.samplers import BucketBatchSampler, LoadBalanceSampler  # noqa: E402
from repro.md import FIREConfig, MDSpec, ModelCalculator, TrajectoryFarm  # noqa: E402
from repro.model.config import CHGNetConfig  # noqa: E402
from repro.runtime.stream import PrefetchQueue  # noqa: E402
from repro.serve import AutoscaleConfig, InferenceEngine  # noqa: E402
from repro.structures.neighbors import NeighborCache  # noqa: E402
from repro.tensor.compile import (  # noqa: E402
    InferenceCompiler,
    SharedProgramCache,
    StepCompiler,
)
from repro.train import DistributedConfig  # noqa: E402
from repro.train.elastic import run_elastic  # noqa: E402
from repro.train.loss import CompositeLoss  # noqa: E402
from repro.train.metrics import evaluate  # noqa: E402
from repro.train.optimizer import Adam  # noqa: E402
from repro.train.trainer import ServingTrainer  # noqa: E402

#: Config objects, counted by dataclass field.
CONFIGS = (
    DistributedConfig,
    AutoscaleConfig,
    CHGNetConfig,
    FIREConfig,
    MDSpec,
)
#: Configurable classes, counted by constructor keyword with a default.
CONSTRUCTORS = (
    InferenceEngine,
    ShardedLoader,
    TrajectoryFarm,
    ModelCalculator,
    StructureDataset,
    LoadBalanceSampler,
    BucketBatchSampler,
    NeighborCache,
    OraclePotential,
    Adam,
    PrefetchQueue,
    StepCompiler,
    InferenceCompiler,
    SharedProgramCache,
    SimCommunicator,
    CompositeLoss,
    ServingTrainer,
)
#: Configurable functions, counted by parameter with a default.
FUNCTIONS = (split_dataset, generate_mptrj, run_elastic, evaluate)


def keywords(obj) -> list[str]:
    """Names of a class's constructor parameters, or a function's
    parameters, that have a default."""
    params = inspect.signature(obj).parameters.values()
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def knob_names() -> dict:
    """Class or function -> the names of its independently settable values,
    in print order: every dataclass field of a config object, every
    defaulted constructor keyword of a configurable class, every defaulted
    parameter of a configurable function."""
    names = {cls: [f.name for f in dataclasses.fields(cls)] for cls in CONFIGS}
    names.update({obj: keywords(obj) for obj in CONSTRUCTORS + FUNCTIONS})
    return names


def knob_counts() -> dict[str, int]:
    """Class or function name -> independently settable values, in print
    order."""
    return {obj.__name__: len(names) for obj, names in knob_names().items()}


def main() -> int:
    counts = knob_counts()
    kinds = (
        ["fields"] * len(CONFIGS)
        + ["keywords"] * len(CONSTRUCTORS)
        + ["parameters"] * len(FUNCTIONS)
    )
    for (name, n), kind in zip(counts.items(), kinds):
        print(f"{n:7d}  {name} ({kind})")
    print(f"{sum(counts.values()):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
