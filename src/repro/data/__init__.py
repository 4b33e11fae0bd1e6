"""Dataset substrate: oracle labels, synthetic MPtrj, samplers, loaders."""

from repro.data.dataset import (
    CompositionNormalizer,
    DatasetSplits,
    StructureDataset,
    split_dataset,
)
from repro.data.loader import DataLoader, PlannedPaddingError, ShardedLoader
from repro.data.mptrj import LabeledStructure, dataset_statistics, generate_crystals, generate_mptrj
from repro.data.oracle import OraclePotential
from repro.data.samplers import (
    BatchSampler,
    BucketBatchSampler,
    DefaultSampler,
    LoadBalanceSampler,
    coefficient_of_variation,
    imbalance_study,
)

__all__ = [
    "CompositionNormalizer",
    "DatasetSplits",
    "StructureDataset",
    "split_dataset",
    "DataLoader",
    "PlannedPaddingError",
    "ShardedLoader",
    "LabeledStructure",
    "dataset_statistics",
    "generate_crystals",
    "generate_mptrj",
    "OraclePotential",
    "BatchSampler",
    "BucketBatchSampler",
    "DefaultSampler",
    "LoadBalanceSampler",
    "coefficient_of_variation",
    "imbalance_study",
]
