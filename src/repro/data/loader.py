"""The batch loader: one list of per-rank batches per training step.

A single-device run is the one-rank case (a one-shard list per step).  The
paper's "Data Prefetch" wraps an epoch's iterator in
:class:`repro.runtime.stream.PrefetchQueue`, which collates the next step
in a background worker while the current one trains.

The loader advances its ``epoch`` counter when an iterator is *created*, so
a consumer that breaks out mid-epoch still sees a fresh shuffle order on
the next pass.  ``memoize`` reuses assembled batches for repeated index
tuples (fixed shards); it is off by default, because shuffled shards rarely
repeat a tuple and the cache would only grow; see
:meth:`repro.data.dataset.StructureDataset.batch`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import StructureDataset
from repro.data.samplers import BatchSampler
from repro.graph.batching import GraphBatch, pad_batch


class PlannedPaddingError(RuntimeError):
    """A shard does not fit the padded shape its sampler planned for it.

    The plan is made from the same per-sample dims the shard is collated
    from, so this is a planner bug, never a property of the data.  Yielding
    the shard unpadded instead would hand the compiler a shape nobody
    planned: it would capture it silently, mid-epoch.
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


class ShardedLoader:
    """Multi-rank loader: one list of per-rank :class:`GraphBatch` per step.

    Drives the simulated data-parallel trainer; the ``sampler`` decides how
    each global batch is split across ranks (default vs load-balanced).

    Every shard the sampler planned a shape for
    (:meth:`repro.data.samplers.BucketBatchSampler.padding_targets`) is
    padded to it before being yielded, so a run meets only the planned
    shapes — the ranks of a step may carry different ones — and compiled
    per-rank steps replay one program per planned shape, every one of them
    prepared up front (:meth:`planned_batches`; docs/architecture.md,
    "Padding: tiers for streams, plans for fixed blocks").  Padded results
    are cached on the source batch, so combined with ``memoize`` a repeated
    epoch yields the *identical* padded objects — bind-and-replay with no
    re-collation and no re-concatenation.  A sampler that plans nothing
    passes shards through unpadded (a compiler replays each at its own
    shape); a planned shape the shard does not fit raises
    :class:`PlannedPaddingError`.
    """

    def __init__(
        self,
        dataset: StructureDataset,
        sampler: BatchSampler,
        memoize: bool = False,
    ) -> None:
        self.dataset = dataset
        self.sampler = sampler
        self.memoize = memoize
        self.epoch = 0

    def __iter__(self) -> Iterator[list[GraphBatch]]:
        # Plain method, not a generator: the epoch advances at iterator
        # *creation*, so a consumer that abandons it mid-epoch still gets a
        # fresh shuffle order next time.
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

    def planned_batches(self) -> list[GraphBatch]:
        """A padded shard of every planned shape.

        What compiled trainers prepare their programs on before their first
        step; none unless the sampler plans shapes.
        """
        return [
            _pad_planned(self.sampler, self.dataset.batch(shard, memoize=self.memoize), shard)
            for shard in self.sampler.planned_shards()
        ]

    def __len__(self) -> int:
        return self.sampler.num_batches()
