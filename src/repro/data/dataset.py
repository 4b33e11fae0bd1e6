"""Dataset with precomputed graphs, splits, and energy normalization."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.data.mptrj import LabeledStructure
from repro.graph.batching import Labels, collate
from repro.graph.crystal_graph import CrystalGraph, GraphDiffStats, build_graph
from repro.structures.elements import MAX_Z
from repro.structures.neighbors import NeighborCache


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


def _build_graphs(
    entries: list[LabeledStructure],
    cutoff_atom: float,
    cutoff_bond: float,
    n_workers: int | None,
    skin: float = 0.0,
    cache: NeighborCache | None = None,
    diff_stats: GraphDiffStats | None = None,
) -> list[CrystalGraph]:
    """Build one graph per entry, optionally through a worker pool.

    ``n_workers`` > 1 fans the per-structure graph construction out to a
    thread pool (the heavy parts — neighbor search, sorting, the vectorized
    angle assembly — run in NumPy's C loops, which release the GIL).  Order
    and results are identical to the serial build.

    ``skin`` > 0 instead builds serially through one Verlet
    :class:`NeighborCache` (passed as ``cache``) shared across consecutive
    entries, with the angle arrays diffed against each previous build —
    the trajectory-dataset case, where consecutive frames of one base
    structure reuse the pair search.  The cache's own rebuild checks
    (lattice/species/displacement) keep every graph exact, so arbitrary
    entry orders are safe, just cache-cold.
    """
    if skin > 0:
        graphs: list[CrystalGraph] = []
        prev: CrystalGraph | None = None
        for e in entries:
            graph = build_graph(
                e.crystal,
                cutoff_atom,
                cutoff_bond,
                nl=cache.query(e.crystal),
                prev=prev,
                diff_stats=diff_stats,
            )
            graphs.append(graph)
            prev = graph
        return graphs
    if not n_workers or n_workers <= 1 or len(entries) < 2:
        return [build_graph(e.crystal, cutoff_atom, cutoff_bond) for e in entries]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(
            pool.map(lambda e: build_graph(e.crystal, cutoff_atom, cutoff_bond), entries)
        )


class StructureDataset:
    """Labeled structures with graphs precomputed once (as reference CHGNet does).

    ``memoize_batches`` turns on collate memoization: repeated :meth:`batch`
    calls with an identical index tuple return the same assembled
    :class:`GraphBatch` object instead of re-collating.  This pays off for
    fixed index sets — eval loaders with ``shuffle=False``, static shards.
    Passing an ``int`` bounds the cache with that many entries (LRU
    eviction), which makes memoization safe to leave on under shuffled
    loaders too; ``True`` keeps the cache unbounded and is off by default.
    Cached batches are shared; callers must treat them as read-only.

    ``n_workers`` parallelizes the one-time graph construction (see
    :func:`_build_graphs`); the default stays serial.

    ``skin`` > 0 builds graphs through one Verlet neighbor cache shared
    across consecutive entries (serial; mutually exclusive with
    ``n_workers`` > 1) — the win for relaxation/MD trajectory datasets
    whose consecutive frames share a base structure.  Graphs are
    bit-identical to the default build; :attr:`neighbor_builds` /
    :attr:`neighbor_reuses` and :attr:`graph_diff_stats` report how much
    work the cache saved.
    """

    def __init__(
        self,
        entries: list[LabeledStructure],
        cutoff_atom: float = 6.0,
        cutoff_bond: float = 3.0,
        memoize_batches: bool | int = False,
        n_workers: int | None = None,
        skin: float = 0.0,
    ) -> None:
        if not entries:
            raise ValueError("dataset must contain at least one entry")
        if skin < 0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        if skin > 0 and n_workers and n_workers > 1:
            raise ValueError("skin-cached graph building is serial; use n_workers=1")
        self.entries = entries
        self.cutoff_atom = cutoff_atom
        self.cutoff_bond = cutoff_bond
        self.memoize_batches = memoize_batches
        self.skin = skin
        self._skin_cache = NeighborCache(cutoff_atom, skin) if skin > 0 else None
        self.graph_diff_stats = GraphDiffStats()
        self._batch_cache: OrderedDict[tuple[int, ...], object] = OrderedDict()
        self.graphs: list[CrystalGraph] = _build_graphs(
            entries,
            cutoff_atom,
            cutoff_bond,
            n_workers,
            skin=skin,
            cache=self._skin_cache,
            diff_stats=self.graph_diff_stats,
        )
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

    @property
    def neighbor_builds(self) -> int:
        """Pair searches run during skin-cached graph building (0 otherwise)."""
        return self._skin_cache.num_builds if self._skin_cache is not None else 0

    @property
    def neighbor_reuses(self) -> int:
        """Graph builds that reused the cached pair search (0 otherwise)."""
        return self._skin_cache.num_reuses if self._skin_cache is not None else 0

    @property
    def _cache_cap(self) -> int | None:
        """Max memoized batches (None: unbounded)."""
        cap = self.memoize_batches
        return cap if isinstance(cap, int) and not isinstance(cap, bool) else None

    def labels(self, i: int) -> Labels:
        return self.entries[i].labels

    def batch(self, indices: list[int] | np.ndarray, memoize: bool | None = None):
        """Collate the given entries into a :class:`GraphBatch`.

        ``memoize`` overrides the dataset-level ``memoize_batches`` default
        for this call (the dataset-level value still provides the LRU cap).
        """
        key = tuple(int(i) for i in indices)
        if memoize is None:
            memoize = bool(self.memoize_batches)
        if memoize:
            cached = self._batch_cache.get(key)
            if cached is not None:
                self._batch_cache.move_to_end(key)
                return cached
        batch = collate(
            [self.graphs[i] for i in key], [self.entries[i].labels for i in key]
        )
        if memoize:
            self._batch_cache[key] = batch
            cap = self._cache_cap
            if cap is not None and len(self._batch_cache) > cap:
                self._batch_cache.popitem(last=False)
        return batch


def split_dataset(
    entries: list[LabeledStructure],
    seed: int = 0,
    fractions: tuple[float, float, float] = (0.9, 0.05, 0.05),
    normalize: bool = True,
    cutoff_atom: float = 6.0,
    cutoff_bond: float = 3.0,
    n_workers: int | None = None,
) -> DatasetSplits:
    """Shuffle, split 0.9/0.05/0.05 and (optionally) normalize energies."""
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
    if normalize:
        normalizer = CompositionNormalizer().fit(train)
        train = normalizer.transform(train)
        val = normalizer.transform(val)
        test = normalizer.transform(test)
    return DatasetSplits(
        train=StructureDataset(train, cutoff_atom, cutoff_bond, n_workers=n_workers),
        val=StructureDataset(val, cutoff_atom, cutoff_bond, n_workers=n_workers),
        test=StructureDataset(test, cutoff_atom, cutoff_bond, n_workers=n_workers),
    )
