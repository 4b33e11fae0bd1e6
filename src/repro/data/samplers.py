"""Batch samplers: default sharding vs the load-balance sampler (Fig. 4).

With large global batches across many GPUs, per-rank workloads diverge
because structure sizes follow a long-tail distribution (Fig. 5).  The
paper's sampler sorts the global batch by total feature number
(atoms + bonds + angles) and lets each rank take the smallest and largest
remaining samples in turn, cutting the coefficient of variation of per-rank
work from 0.186 to 0.064 (Fig. 9).

:class:`BucketBatchSampler` composes that load balancing with the padding
of the compile-once training step: global batches become fixed contiguous
blocks of the size-sorted dataset (epochs shuffle the *order* of blocks),
every block's rank shards are fixed by the greedy pairing, and — given
per-sample graph dims — every shard is assigned one of a few exact padded
shapes planned over all shards at once
(:func:`repro.graph.batching.plan_shapes`).  Shard shapes are then static
across epochs, and known before the first step: a compiled trainer
captures one program per planned shape, the largest before its first step,
and only replays from the second epoch on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.batching import MAX_PROGRAMS, plan_shapes, workload_cost


def coefficient_of_variation(values: np.ndarray) -> float:
    """std / mean — the paper's load-imbalance criterion."""
    values = np.asarray(values, dtype=np.float64)
    m = values.mean()
    if m == 0:
        return 0.0
    return float(values.std() / m)


class BatchSampler:
    """Base sampler: shuffled global batches of indices.

    Subclasses override :meth:`partition` to assign a global batch's samples
    to ranks.
    """

    def __init__(
        self,
        feature_numbers: np.ndarray,
        global_batch_size: int,
        world_size: int = 1,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if global_batch_size < world_size:
            raise ValueError(
                f"global batch {global_batch_size} smaller than world size {world_size}"
            )
        if global_batch_size % world_size != 0:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by world size {world_size}"
            )
        self.feature_numbers = np.asarray(feature_numbers)
        self.n = len(self.feature_numbers)
        self.global_batch_size = global_batch_size
        self.world_size = world_size
        self.seed = seed
        self.drop_last = drop_last

    def global_batches(self, epoch: int = 0) -> Iterator[np.ndarray]:
        """Yield shuffled index arrays of size ``global_batch_size``."""
        rng = np.random.default_rng((self.seed, epoch))
        order = rng.permutation(self.n)
        for lo in range(0, self.n, self.global_batch_size):
            chunk = order[lo : lo + self.global_batch_size]
            if len(chunk) < self.global_batch_size:
                if self.drop_last:
                    return
                if len(chunk) < self.world_size:
                    return
                chunk = chunk[: len(chunk) - (len(chunk) % self.world_size)]
            yield chunk

    def num_batches(self) -> int:
        """Global batches yielded per epoch (matches :meth:`global_batches`)."""
        full = self.n // self.global_batch_size
        rem = self.n % self.global_batch_size
        if not self.drop_last and rem >= self.world_size:
            return full + 1
        return full

    def partition(self, batch_indices: np.ndarray) -> list[np.ndarray]:
        """Assign one global batch's indices to ``world_size`` ranks."""
        raise NotImplementedError

    def epoch_partitions(self, epoch: int = 0) -> Iterator[list[np.ndarray]]:
        """Per-iteration rank assignments for a full epoch."""
        for batch in self.global_batches(epoch):
            yield self.partition(batch)

    def rank_loads(self, shards: list[np.ndarray]) -> np.ndarray:
        """Total feature number per rank for one iteration."""
        return np.array([self.feature_numbers[s].sum() for s in shards], dtype=np.float64)

    # Padding plans need shards that never change; samplers that reshuffle
    # membership every epoch plan nothing (:class:`BucketBatchSampler` does).
    def padding_targets(
        self, shard_indices: np.ndarray
    ) -> tuple[int, int, int, int] | None:
        """Planned padded shape for a shard (``None``: nothing planned)."""
        return None

    def largest_planned_shard(self) -> np.ndarray | None:
        """A shard of the costliest planned shape (``None``: nothing planned)."""
        return None

    def warm_start_entries(
        self, has_labels: bool = True
    ) -> list[tuple[int, bool, tuple[int, int, int, int]]]:
        """Raw per-shard batch stats for ``StepCompiler.warm_start`` (none here)."""
        return []


class DefaultSampler(BatchSampler):
    """Reference sharding: contiguous equal-count slices of the shuffled batch."""

    def partition(self, batch_indices: np.ndarray) -> list[np.ndarray]:
        return [np.asarray(s) for s in np.array_split(batch_indices, self.world_size)]


class LoadBalanceSampler(BatchSampler):
    """The paper's greedy smallest+largest pairing (Section III-C, Fig. 4).

    Samples are sorted by feature number ascending; ranks take turns
    claiming the (smallest, largest) pair of the remaining pool until the
    batch is exhausted.  Every rank receives the same *count* of samples
    with near-equal total work.
    """

    def partition(self, batch_indices: np.ndarray) -> list[np.ndarray]:
        batch_indices = np.asarray(batch_indices)
        order = np.argsort(self.feature_numbers[batch_indices], kind="stable")
        sorted_idx = batch_indices[order]
        shards: list[list[int]] = [[] for _ in range(self.world_size)]
        lo, hi = 0, len(sorted_idx) - 1
        rank = 0
        while lo <= hi:
            shards[rank].append(int(sorted_idx[lo]))
            lo += 1
            if lo <= hi:
                shards[rank].append(int(sorted_idx[hi]))
                hi -= 1
            rank = (rank + 1) % self.world_size
        return [np.array(s, dtype=np.int64) for s in shards]


class BucketBatchSampler(LoadBalanceSampler):
    """Fig. 9 load balancing composed with planned padding.

    Global batches are contiguous **blocks of the size-sorted dataset**, so
    every block holds similarly-sized structures; an epoch shuffles the
    order in which blocks are visited (every sample still appears exactly
    once per epoch).  Each block's rank shards are fixed once by the greedy
    smallest+largest pairing — per-rank assignment within a global batch
    does not affect the averaged gradient, so only the block *composition*
    matters to SGD, exactly the size-bucketed batching of Koker et al.

    With per-sample graph ``dims`` (``(n, 4)`` — atoms, edges, short edges,
    angles), the sampler also plans padding.  The shards are fixed, so their
    raw dims are all known here: :func:`repro.graph.batching.plan_shapes`
    cuts them, per shard length, into at most
    :data:`~repro.graph.batching.MAX_PROGRAMS` groups in total and pads each
    group to the exact maximum of its members — no geometric tier, no bucket
    rounding.  ``tier_targets`` is the table of those shapes (one compiled
    program each); :meth:`largest_planned_shard` names the one to capture first.
    The ranks of a step need not share a shape; they replay different
    programs of one shared cache.  docs/architecture.md, "Padding: tiers
    for streams, plans for fixed blocks", has the objective and the reasons.

    Because blocks are fixed, dropping the sorted tail would exclude the
    *same largest structures from every epoch* (the other samplers drop a
    different random remainder each time).  The bucket sampler therefore
    ignores ``drop_last``'s full-batch guarantee in favor of coverage: the
    tail becomes one short block (rank counts still equal; it takes its
    shapes from the same program budget), and only the unavoidable
    ``n % world_size`` leftover is excluded — taken from evenly spaced
    interior positions of the size-sorted order, never the extremes.
    """

    def __init__(
        self,
        feature_numbers: np.ndarray,
        global_batch_size: int,
        world_size: int = 1,
        seed: int = 0,
        drop_last: bool = True,
        dims: np.ndarray | None = None,
    ) -> None:
        super().__init__(feature_numbers, global_batch_size, world_size, seed, drop_last)
        self._dims = None if dims is None else np.asarray(dims, dtype=np.int64)
        order = np.argsort(self.feature_numbers, kind="stable")
        leftover = self.n % world_size
        if leftover:
            drop_at = (np.arange(1, leftover + 1) * (self.n // (leftover + 1))).astype(
                np.int64
            )
            order = np.delete(order, drop_at)
        blocks: list[np.ndarray] = []
        for lo in range(0, len(order), global_batch_size):
            chunk = order[lo : lo + global_batch_size]
            blocks.append(chunk)
        self._blocks = blocks
        self._shards = [self.partition(block) for block in blocks]
        #: the planned-shape table: (shard_len, shape index) -> padded
        #: (atoms, edges, short, angles); one compiled program per entry
        self.tier_targets: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        self._shard_targets: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
        self._shard_dims: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
        if self._dims is not None:
            self._plan_padding(self._dims)

    def reshard(self, world_size: int) -> "BucketBatchSampler":
        """Re-shard the same corpus for a new world size (elastic membership).

        Returns a fresh sampler over the identical ``feature_numbers`` /
        ``dims`` with the same seed and global batch size — block
        composition, shard pairing, and padded shapes are all re-planned
        for ``world_size``.  The global batch must stay divisible by the
        new world size (pick it with
        :func:`repro.train.elastic.largest_feasible_world`).  Sharding a
        block across fewer ranks does not change its averaged gradient;
        only the unavoidable ``n % world_size`` interior leftover may
        shift block membership at the margin.
        """
        return BucketBatchSampler(
            self.feature_numbers,
            self.global_batch_size,
            world_size,
            seed=self.seed,
            drop_last=self.drop_last,
            dims=self._dims,
        )

    def partition(self, batch_indices: np.ndarray) -> list[np.ndarray]:
        """Serpentine split of the size-sorted block: equal rank counts.

        The greedy pairing hands out *two* samples per turn, so block
        lengths that are not multiples of ``2 * world_size`` leave ranks
        with unequal counts (a ``world_size``-long tail block would leave
        half the ranks empty).  Walking the sorted block in rows of
        ``world_size``, alternating direction per row, gives every rank
        exactly ``len / world_size`` samples with near-equal work — and
        reduces to the smallest+largest pairing when the block is exactly
        two rows.
        """
        batch_indices = np.asarray(batch_indices)
        if len(batch_indices) % self.world_size != 0:
            return super().partition(batch_indices)
        order = np.argsort(self.feature_numbers[batch_indices], kind="stable")
        rows = batch_indices[order].reshape(-1, self.world_size)
        rows[1::2] = rows[1::2, ::-1]
        return [rows[:, r].copy() for r in range(self.world_size)]

    # ------------------------------------------------------------ scheduling
    def num_batches(self) -> int:
        """Fixed blocks per epoch (the tail short block included)."""
        return len(self._blocks)

    def _block_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, epoch))
        return rng.permutation(len(self._blocks))

    def global_batches(self, epoch: int = 0) -> Iterator[np.ndarray]:
        """Yield the fixed size-sorted blocks in this epoch's shuffled order.

        Unlike the base sampler, batch *composition* never changes across
        epochs — only the visit order does — which is what keeps shard
        shapes (and compiled programs) static.
        """
        for i in self._block_order(epoch):
            yield self._blocks[i]

    def epoch_partitions(self, epoch: int = 0) -> Iterator[list[np.ndarray]]:
        """Per-iteration rank shards in this epoch's shuffled block order.

        Shards are fixed per block, so the cached pairing is reused rather
        than recomputed.
        """
        for i in self._block_order(epoch):
            yield self._shards[i]

    # ------------------------------------------------------- padding planning
    def _plan_padding(self, dims: np.ndarray) -> None:
        if dims.shape != (self.n, 4):
            raise ValueError(f"dims must be ({self.n}, 4), got {dims.shape}")
        classes: dict[int, list[tuple[int, ...]]] = {}
        for shards in self._shards:
            for shard in shards:
                shard_key = tuple(int(i) for i in shard)
                self._shard_dims[shard_key] = tuple(
                    int(c) for c in dims[shard].sum(axis=0)
                )
                classes.setdefault(len(shard), []).append(shard_key)
        # Programs are keyed by structure count, so each shard-length class
        # (full blocks, the short tail block) gets shapes of its own out of
        # the one program budget: a share by shard count, at least one, and
        # the class with the most shards takes what the others leave.
        total = sum(len(keys) for keys in classes.values())
        main = max(classes, key=lambda n: len(classes[n]))
        budget = {
            n: max(1, MAX_PROGRAMS * len(keys) // total)
            for n, keys in classes.items()
            if n != main
        }
        budget[main] = MAX_PROGRAMS - sum(budget.values())
        for n, keys in classes.items():
            assignment, shapes = plan_shapes(
                [self._shard_dims[k] for k in keys], budget[n]
            )
            for i, shape in enumerate(shapes):
                self.tier_targets[(n, i)] = shape
            for shard_key, i in zip(keys, assignment):
                self._shard_targets[shard_key] = shapes[i]

    def padding_targets(
        self, shard_indices: np.ndarray
    ) -> tuple[int, int, int, int] | None:
        """Planned padded shape for one of the fixed shards.

        ``None`` when the sampler was built without ``dims`` or the indices
        are not one of its shards (callers then fall back to compiler-side
        tiering).
        """
        return self._shard_targets.get(tuple(int(i) for i in shard_indices))

    def largest_planned_shard(self) -> np.ndarray | None:
        """A shard of the costliest planned shape (``None`` without a plan).

        What a trainer captures before its first step: the largest program
        sizes the cache's arena slab, so capturing it first allocates the
        slab once, at its final size.
        """
        if not self._shard_targets:
            return None
        shard_key = max(
            self._shard_targets,
            key=lambda key: workload_cost(*self._shard_targets[key]),
        )
        return np.array(shard_key, dtype=np.int64)

    def warm_start_entries(
        self, has_labels: bool = True
    ) -> list[tuple[int, bool, tuple[int, int, int, int]]]:
        """Raw per-shard batch stats for ``StepCompiler.warm_start``."""
        return [
            (len(shard_key), has_labels, raw)
            for shard_key, raw in self._shard_dims.items()
        ]


def imbalance_study(
    sampler: BatchSampler, epochs: int = 1
) -> dict[str, np.ndarray]:
    """Per-iteration rank loads and CoV for a sampler (Fig. 9 data)."""
    loads = []
    covs = []
    for epoch in range(epochs):
        for shards in sampler.epoch_partitions(epoch):
            rank_loads = sampler.rank_loads(shards)
            loads.append(rank_loads)
            covs.append(coefficient_of_variation(rank_loads))
    return {"loads": np.array(loads), "cov": np.array(covs)}
