"""Simulated multi-GPU communicator.

One collective over "ranks" living in one process: the in-place mean
allreduce the data-parallel trainer runs to average each gradient bucket
(:meth:`SimCommunicator.allreduce_mean_inplace`), numerically exact, with
algorithmic fidelity available through the explicit ring allreduce in
:mod:`repro.comm.ring`.  Timing is modeled separately
(:mod:`repro.comm.cost_model`) — the paper's scaling numbers come from
compute measurements + this model, mirroring how the real system's
efficiency is compute/communication-ratio bound.  The collective first
consults the communicator's
:class:`~repro.comm.faults.FaultPlan`; the default, empty plan never fires.
"""

from __future__ import annotations

import numpy as np

from repro.comm.faults import CollectiveTimeout, FaultPlan, RankFailure
from repro.comm.ring import RingTrace, ring_allreduce


class SimCommunicator:
    """MPI-like mean allreduce across ``world_size`` simulated ranks.

    All per-rank buffers are passed together (rank-major lists), since the
    ranks share one process.

    ``trace_ring=True`` routes :meth:`allreduce_mean_inplace` — the
    trainer's per-bucket gradient-flush collective — through the
    explicit ring algorithm of :func:`repro.comm.ring.ring_allreduce` and
    accumulates each collective's :class:`~repro.comm.ring.RingTrace` in
    ``ring_traces``.  The traced per-rank byte volumes are what the
    alpha-beta cost model assumes (``2 (p-1)/p * n`` elements per rank), so
    modeled overlap/scaling numbers can be checked against the messages the
    flush actually sent.  Ring summation visits addends in ring order, so
    traced averages are *not* bit-identical to the default pairwise path —
    but all ranks still receive identical results, which is the invariant
    the trainer relies on.

    ``fault_plan`` rehearses failures (``None`` holds an empty plan, which
    never fires).  The collective consults it for the current step (set by
    the trainer through :meth:`advance`) before touching a buffer:

    * scheduled **kills** mark the rank dead and raise
      :class:`~repro.comm.faults.RankFailure` — and keep raising it on every
      later collective, as a real job's collectives would keep failing until
      the world is rebuilt;
    * scheduled **timeouts** raise
      :class:`~repro.comm.faults.CollectiveTimeout` once per budgeted
      attempt, so a caller's bounded retry drains the budget and the retried
      collective completes;
    * **stragglers** never fail anything — :meth:`compute_skew` reports the
      per-rank virtual seconds the trainer adds to its measured compute
      times, so modeled throughput prices the slow rank honestly.
    """

    def __init__(
        self,
        world_size: int,
        fault_plan: FaultPlan | None = None,
        trace_ring: bool = False,
    ) -> None:
        if world_size < 1:
            raise ValueError(f"world size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.fault_plan = FaultPlan() if fault_plan is None else fault_plan
        self.trace_ring = bool(trace_ring)
        self.ring_traces: list[RingTrace] = []
        self.step = 0
        self.dead: set[int] = set()
        self.timeouts_injected = 0

    def advance(self, step: int) -> None:
        """Set the global step the next collectives belong to."""
        self.step = int(step)

    def compute_skew(self, rank: int) -> float:
        """Virtual straggler seconds for ``rank`` at the current step."""
        return self.fault_plan.skew(rank, self.step)

    def _inject(self) -> None:
        """Raise the fault the plan schedules for this collective, if any."""
        for rank in self.fault_plan.take_kills(self.step):
            if 0 <= rank < self.world_size:
                self.dead.add(rank)
        if self.dead:
            raise RankFailure(min(self.dead), self.step)
        attempt = self.fault_plan.take_transient(None, self.step)
        if attempt:
            self.timeouts_injected += 1
            raise CollectiveTimeout(self.step, attempt)

    def allreduce_mean_inplace(
        self,
        per_rank: list[np.ndarray],
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mean-allreduce writing the result back into every rank's buffer.

        Bitwise-equal to ``np.sum(np.stack(per_rank), axis=0) / world_size``
        (same stacked pairwise sum, same division) but allocation-free in
        steady state: ``work`` is a
        ``(world_size + 1, *shape)`` scratch block — rows ``0..world-1``
        stage the stacked operands, row ``world`` receives the mean — that
        callers keep and pass back on every step (the gradient-flush hot
        path).  Returns the scratch block for reuse.

        With ``trace_ring`` the reduction instead runs the explicit ring
        algorithm and records its transfer trace (see the class docstring);
        the scratch block is passed through untouched.
        """
        self._inject()
        if len(per_rank) != self.world_size:
            raise ValueError(
                f"expected buffers for {self.world_size} ranks, got {len(per_rank)}"
            )
        shape, dtype = per_rank[0].shape, per_rank[0].dtype
        for arr in per_rank:
            if arr.shape != shape:
                raise ValueError("ranks disagree on buffer shape")
        if self.trace_ring:
            outs, trace = ring_allreduce(per_rank, average=True)
            self.ring_traces.append(trace)
            for arr, out in zip(per_rank, outs):
                np.copyto(arr, out)
            return work
        if work is None or work.shape != (self.world_size + 1, *shape) or work.dtype != dtype:
            work = np.empty((self.world_size + 1, *shape), dtype=dtype)
        for r, arr in enumerate(per_rank):
            np.copyto(work[r], arr)
        mean = work[self.world_size]
        # np.sum delegates to np.add.reduce (same pairwise path, so the sum
        # is bit-identical to summing the stacked buffers).
        np.add.reduce(work[: self.world_size], axis=0, out=mean)
        mean /= self.world_size
        for arr in per_rank:
            np.copyto(arr, mean)
        return work
