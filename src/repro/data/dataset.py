"""Dataset with precomputed graphs, splits, and energy normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.mptrj import LabeledStructure
from repro.graph.batching import GraphBatch, Labels, collate
from repro.graph.crystal_graph import CrystalGraph, build_graph
from repro.structures.elements import MAX_Z


class CompositionNormalizer:
    """Per-element reference energies fitted by least squares.

    CHGNet training subtracts composition reference energies so the model
    fits the (much smaller) residual.  Fit on the training split, applied to
    every split.  Because the shift depends only on composition, MAEs on
    normalized energies equal MAEs on raw energies for any model trained on
    the same normalization.
    """

    def __init__(self) -> None:
        self.reference = np.zeros(MAX_Z + 1)
        self.fitted = False

    @staticmethod
    def _fractions(entries: list[LabeledStructure]) -> np.ndarray:
        x = np.zeros((len(entries), MAX_Z + 1))
        for i, entry in enumerate(entries):
            counts = np.bincount(entry.crystal.species, minlength=MAX_Z + 1)
            x[i] = counts / entry.crystal.num_atoms
        return x

    def fit(self, entries: list[LabeledStructure]) -> "CompositionNormalizer":
        if not entries:
            raise ValueError("cannot fit normalizer on an empty split")
        x = self._fractions(entries)
        y = np.array([e.labels.energy_per_atom for e in entries])
        self.reference, *_ = np.linalg.lstsq(x, y, rcond=None)
        self.fitted = True
        return self

    def shift(self, entry: LabeledStructure) -> float:
        """Reference energy per atom for one structure's composition."""
        counts = np.bincount(entry.crystal.species, minlength=MAX_Z + 1)
        return float(self.reference @ (counts / entry.crystal.num_atoms))

    def transform(self, entries: list[LabeledStructure]) -> list[LabeledStructure]:
        """Return entries with composition reference subtracted from energies."""
        if not self.fitted:
            raise RuntimeError("normalizer must be fitted before transform")
        out = []
        for entry in entries:
            lab = entry.labels
            out.append(
                LabeledStructure(
                    entry.crystal,
                    Labels(
                        energy_per_atom=lab.energy_per_atom - self.shift(entry),
                        forces=lab.forces,
                        stress=lab.stress,
                        magmom=lab.magmom,
                    ),
                )
            )
        return out


@dataclass
class DatasetSplits:
    """The paper's 0.9 : 0.05 : 0.05 split."""

    train: "StructureDataset"
    val: "StructureDataset"
    test: "StructureDataset"


def _build_graphs(entries: list[LabeledStructure], n_workers: int | None) -> list[CrystalGraph]:
    """Build one graph per entry, optionally through a worker pool.

    ``n_workers`` > 1 fans the per-structure graph construction out to a
    thread pool (the heavy parts — neighbor search, sorting, the vectorized
    angle assembly — run in NumPy's C loops, which release the GIL).  Order
    and results are identical to the serial build.
    """
    if not n_workers or n_workers <= 1 or len(entries) < 2:
        return [build_graph(e.crystal) for e in entries]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(lambda e: build_graph(e.crystal), entries))


class StructureDataset:
    """Labeled structures with graphs precomputed once (as reference CHGNet does).

    Every graph is built at the graph layer's cutoffs
    (:data:`~repro.graph.crystal_graph.CUTOFF_ATOM` /
    :data:`~repro.graph.crystal_graph.CUTOFF_BOND`), the ones every model
    reads through its config, so a model never trains on graphs built at
    other cutoffs than it serves on.

    ``n_workers`` parallelizes the one-time graph construction (see
    :func:`_build_graphs`); the default stays serial.
    """

    def __init__(self, entries: list[LabeledStructure], n_workers: int | None = None) -> None:
        if not entries:
            raise ValueError("dataset must contain at least one entry")
        self.entries = entries
        self._batch_cache: dict[tuple[int, ...], GraphBatch] = {}
        self.graphs: list[CrystalGraph] = _build_graphs(entries, n_workers)
        self.feature_numbers = np.array([g.feature_number for g in self.graphs])
        # Per-graph (atoms, edges, short edges, angles): the padding planner's
        # input (BucketBatchSampler dims).
        self.graph_dims = np.array(
            [
                [g.num_atoms, g.num_edges, g.num_short_edges, g.num_angles]
                for g in self.graphs
            ],
            dtype=np.int64,
        )

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self, i: int) -> Labels:
        return self.entries[i].labels

    def batch(self, indices: list[int] | np.ndarray, memoize: bool = False) -> GraphBatch:
        """Collate the given entries into a :class:`GraphBatch`.

        ``memoize`` returns the batch assembled by an earlier memoized call
        with the identical index tuple instead of re-collating — the win for
        fixed index sets (static shards), which is what memoizing callers
        pass.  Cached batches are shared; callers must treat them as
        read-only.
        """
        key = tuple(int(i) for i in indices)
        cached = self._batch_cache.get(key) if memoize else None
        if cached is not None:
            return cached
        batch = collate(
            [self.graphs[i] for i in key], [self.entries[i].labels for i in key]
        )
        if memoize:
            self._batch_cache[key] = batch
        return batch


def split_dataset(
    entries: list[LabeledStructure],
    seed: int = 0,
    fractions: tuple[float, float, float] = (0.9, 0.05, 0.05),
    n_workers: int | None = None,
) -> DatasetSplits:
    """Shuffle, split 0.9/0.05/0.05 and normalize energies by the
    composition references fitted on the training split."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(entries))
    n_train = max(1, int(round(fractions[0] * len(entries))))
    n_val = max(1, int(round(fractions[1] * len(entries))))
    train_idx = order[:n_train]
    val_idx = order[n_train : n_train + n_val]
    test_idx = order[n_train + n_val :]
    if len(test_idx) == 0:
        raise ValueError(f"dataset of {len(entries)} too small for split {fractions}")

    train = [entries[i] for i in train_idx]
    val = [entries[i] for i in val_idx]
    test = [entries[i] for i in test_idx]
    normalizer = CompositionNormalizer().fit(train)
    return DatasetSplits(
        *(
            StructureDataset(normalizer.transform(split), n_workers=n_workers)
            for split in (train, val, test)
        )
    )
