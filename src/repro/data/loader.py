"""Batch loaders: single-device and sharded (multi-rank), with prefetch.

The prefetching loader implements the paper's "Data Prefetch": a background
worker collates the next batch while the current one trains, analogous to
the separate-stream host-to-device copies of the original.

Both loaders advance their ``epoch`` counter when an iterator is *created*,
so a consumer that breaks out mid-epoch still sees a fresh shuffle order on
the next pass.  ``memoize`` is tri-state: ``True`` reuses assembled batches
for repeated index tuples (useful for ``shuffle=False`` eval loaders and
fixed shards), ``False`` forces re-collation even on a memoizing dataset
(shuffled training loaders never repeat a tuple, so caching would only
grow), and ``None`` (default) defers to the dataset's ``memoize_batches``
setting; see :meth:`repro.data.dataset.StructureDataset.batch`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import StructureDataset
from repro.data.samplers import BatchSampler, BucketBatchSampler
from repro.graph.batching import GraphBatch, pad_batch
from repro.runtime.stream import PrefetchQueue


class PlannedPaddingError(RuntimeError):
    """A shard does not fit the padded shape its sampler planned for it.

    The plan is made from the same per-sample dims the shard is collated
    from, so this is a planner bug, never a property of the data.  Yielding
    the shard unpadded instead would hand the compiler a shape nobody
    planned: it would tier and capture it silently, mid-epoch.
    """

    def __init__(self, shard: np.ndarray, batch: GraphBatch, target: tuple) -> None:
        raw = (batch.num_atoms, batch.num_edges, batch.num_short_edges, batch.num_angles)
        super().__init__(
            f"shard {[int(i) for i in shard]} with raw dims {raw} cannot be "
            f"padded to its planned target {tuple(target)}"
        )


def _pad_planned(sampler: BatchSampler, batch: GraphBatch, shard: np.ndarray) -> GraphBatch:
    """``batch`` padded to the shape ``sampler`` planned for ``shard``, if any."""
    planned = sampler.padding_targets(shard)
    if planned is None:
        return batch
    padded = pad_batch(batch, *planned)
    if padded is None:
        raise PlannedPaddingError(shard, batch, planned)
    return padded


def _largest_planned_batch(
    dataset: StructureDataset, sampler: BatchSampler, memoize: bool | None
) -> GraphBatch | None:
    """A padded shard of the costliest shape ``sampler`` planned, if it plans."""
    shard = sampler.largest_planned_shard()
    if shard is None:
        return None
    return _pad_planned(sampler, dataset.batch(shard, memoize=memoize), shard)


class DataLoader:
    """Single-device loader yielding :class:`GraphBatch` per iteration.

    ``blocks=True`` switches to **size-sorted block mode** (the
    single-device analogue of the distributed bucket sampler): batches are
    fixed contiguous blocks of the size-sorted dataset, epochs shuffle only
    the block *order*, and — when the dataset carries per-graph dims, so
    the block sampler plans shapes — every block is padded to the shape
    planned for it before being yielded.  Block composition is
    static across epochs, so a compiled trainer captures once per planned
    shape (the largest up front, :meth:`largest_planned_batch`) and only
    replays after.  Block mode covers every sample (the tail forms one
    short block) and ignores ``drop_last``/``shuffle``.
    """

    def __init__(
        self,
        dataset: StructureDataset,
        batch_size: int,
        seed: int = 0,
        shuffle: bool = True,
        drop_last: bool = True,
        prefetch: bool = False,
        memoize: bool | None = None,
        blocks: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.prefetch = prefetch
        self.memoize = memoize
        self.epoch = 0
        self.block_sampler: BucketBatchSampler | None = None
        if blocks:
            self.block_sampler = BucketBatchSampler(
                dataset.feature_numbers,
                min(batch_size, len(dataset)),
                world_size=1,
                seed=seed,
                dims=getattr(dataset, "graph_dims", None),
            )

    def __len__(self) -> int:
        if self.block_sampler is not None:
            return self.block_sampler.num_batches()
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _indices(self, epoch: int) -> np.ndarray:
        if self.shuffle:
            rng = np.random.default_rng((self.seed, epoch))
            return rng.permutation(len(self.dataset))
        return np.arange(len(self.dataset))

    def _batches(self, epoch: int) -> Iterator[GraphBatch]:
        if self.block_sampler is not None:
            yield from self._block_batches(epoch)
            return
        order = self._indices(epoch)
        for lo in range(0, len(order), self.batch_size):
            chunk = order[lo : lo + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                return
            yield self.dataset.batch(chunk, memoize=self.memoize)

    def _block_batches(self, epoch: int) -> Iterator[GraphBatch]:
        sampler = self.block_sampler
        for (block,) in sampler.epoch_partitions(epoch):
            batch = self.dataset.batch(block, memoize=self.memoize)
            yield _pad_planned(sampler, batch, block)

    def largest_planned_batch(self) -> GraphBatch | None:
        """A padded block of the costliest planned shape.

        What a compiled trainer captures on before its first step; ``None``
        unless this loader's block sampler plans shapes.
        """
        if self.block_sampler is None:
            return None
        return _largest_planned_batch(self.dataset, self.block_sampler, self.memoize)

    def __iter__(self) -> Iterator[GraphBatch]:
        # Plain method (not a generator) so the epoch advances at iterator
        # *creation*: a consumer that abandons the iterator mid-epoch still
        # gets a fresh shuffle order next time.
        epoch = self.epoch
        self.epoch += 1
        return self._iter_at(epoch)

    def iter_epoch(self, epoch: int) -> Iterator[GraphBatch]:
        """Iterate a *specific* epoch's batches (checkpoint-resume support).

        Every shuffle is a pure function of ``(seed, epoch)``, so replaying
        an epoch needs no saved RNG state — just its number.  The
        auto-advancing counter is re-anchored to continue past ``epoch``.
        """
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        self.epoch = epoch + 1
        return self._iter_at(epoch)

    def _iter_at(self, epoch: int) -> Iterator[GraphBatch]:
        source = self._batches(epoch)
        if self.prefetch:
            source = iter(PrefetchQueue(source, depth=1))
        return source


class ShardedLoader:
    """Multi-rank loader: one list of per-rank :class:`GraphBatch` per step.

    Drives the simulated data-parallel trainer; the ``sampler`` decides how
    each global batch is split across ranks (default vs load-balanced).

    Every shard the sampler planned a shape for
    (:meth:`repro.data.samplers.BucketBatchSampler.padding_targets`) is
    padded to it before being yielded, so a run meets only the planned
    shapes — the ranks of a step may carry different ones — and compiled
    per-rank steps replay one program per planned shape, the largest
    captured up front (:meth:`largest_planned_batch`; docs/architecture.md,
    "Padding: tiers for streams, plans for fixed blocks").  Padded results
    are cached on the source batch, so combined with ``memoize`` a repeated
    epoch yields the *identical* padded objects — bind-and-replay with no
    re-collation and no re-concatenation.  A sampler that plans nothing
    passes shards through unpadded (the compiler then tiers them itself); a
    planned shape the shard does not fit raises
    :class:`PlannedPaddingError`.
    """

    def __init__(
        self,
        dataset: StructureDataset,
        sampler: BatchSampler,
        memoize: bool | None = None,
    ) -> None:
        self.dataset = dataset
        self.sampler = sampler
        self.memoize = memoize
        self.epoch = 0

    def __iter__(self) -> Iterator[list[GraphBatch]]:
        # Plain method, not a generator: epoch advances at creation (see
        # DataLoader.__iter__).
        epoch = self.epoch
        self.epoch += 1
        return self._steps(epoch)

    def iter_epoch(self, epoch: int) -> Iterator[list[GraphBatch]]:
        """Iterate a *specific* epoch's steps (checkpoint-resume support).

        Shard order is a pure function of ``(seed, epoch)``, so a resumed
        run re-enters an interrupted epoch by number and skips the steps it
        already completed.  Re-anchors the auto-advance counter.
        """
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        self.epoch = epoch + 1
        return self._steps(epoch)

    def _steps(self, epoch: int) -> Iterator[list[GraphBatch]]:
        for shards in self.sampler.epoch_partitions(epoch):
            yield [
                _pad_planned(self.sampler, self.dataset.batch(s, memoize=self.memoize), s)
                for s in shards
            ]

    def largest_planned_batch(self) -> GraphBatch | None:
        """A padded shard of the costliest planned shape.

        What compiled trainers capture on before their first step; ``None``
        unless the sampler plans shapes.
        """
        return _largest_planned_batch(self.dataset, self.sampler, self.memoize)

    def __len__(self) -> int:
        return self.sampler.num_batches()
