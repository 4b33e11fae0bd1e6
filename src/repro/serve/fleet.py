"""The serving engine's workers: one record per worker and the policy over them.

A :class:`Worker` is everything the engine knows about one simulated
worker: its model replica and parameters, its
:class:`~repro.tensor.compile.InferenceCompiler` on the engine's shared
program cache, the weight version it has installed, its virtual clock, and
its health.  :class:`Fleet` holds the records and decides over them
(docs/fault_tolerance.md, "Serving failures"):

* **pick** the believed-healthy worker whose clock frees first, re-admitting
  workers whose breaker cooldown elapsed half-open, ties to the lowest index;
* **record a failure**: a flake trips the breaker after
  :data:`BREAKER_THRESHOLD` consecutive failures, a discovered kill drains
  the worker for good or replaces it in place;
* **add** a worker (reactivating a retired slot first), **retire** one, and
  report the fleet's size and idleness.

"Dead" has two meanings here, both on the record.  ``dead`` is the fault
plan's truth: a planned kill fired, but the engine finds out only when it
next dispatches to the worker.  A drain of ``inf`` is the engine's view
after that discovery.  Indices are stable for the engine's lifetime
(retiring marks a slot, scale-out reactivates it), so a plan's worker index
always names the same slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.batching import GraphBatch
from repro.model.chgnet import CHGNetModel
from repro.model.config import CHGNetConfig
from repro.serve.faults import WorkerFaultPlan
from repro.tensor.compile import InferenceCompiler, SharedProgramCache, eager_predict

#: Consecutive failures that trip a worker's circuit breaker: one may be a
#: flake, two in a row drain the worker from the rotation.
BREAKER_THRESHOLD = 2
#: Virtual seconds a tripped worker stays drained before half-open
#: re-admission: twenty default flush waits, so the rotation moves on but a
#: recovered worker still returns within a run.
BREAKER_COOLDOWN = 1.0

INF = float("inf")


@dataclass(eq=False)
class Worker:
    """One worker's record: replica, compiler, installed weights, clock, health."""

    model: CHGNetModel
    #: ``model.parameters()``, rebound to a weight version by :meth:`install`
    params: list
    #: ``None`` on an eager engine
    compiler: InferenceCompiler | None
    #: virtual time at which the worker's clock frees up
    free: float = 0.0
    #: installed weight version (``-1``: nothing installed yet)
    version: int = -1
    #: consecutive failed dispatches
    failures: int = 0
    #: end of the breaker cooldown (``None``: not drained, ``inf``: for good)
    drained_until: float | None = None
    retired: bool = False
    #: a planned kill fired (discovered on the next dispatch to the worker)
    dead: bool = False

    @property
    def active(self) -> bool:
        """In (or admissible to) the rotation: not retired, not drained for good.

        A breaker-tripped worker is active: it re-admits after its cooldown.
        """
        return not self.retired and self.drained_until != INF

    def install(self, version: int, arrays: list[np.ndarray]) -> None:
        """Rebind the replica's parameters to ``arrays`` (by reference).

        Registry arrays are private snapshots and workers never write
        parameter data in place, so replicas (and the compiled programs bound
        through them) can share them directly.
        """
        for p, arr in zip(self.params, arrays):
            p.data = arr
        self.version = version

    def run(self, batch: GraphBatch) -> dict[str, np.ndarray]:
        """Predict ``batch``: replay on a compiled engine, else eager."""
        if self.compiler is not None:
            return self.compiler.run(batch)
        return eager_predict(self.model, batch)


class Fleet:
    """The engine's workers, indexed stably, and the policy over them.

    ``plan`` is the engine's fault plan (its kills and flakes are decided
    here; its stragglers price service times in the engine), and
    ``replace`` swaps a discovered dead worker for a fresh replica instead
    of draining it for good.
    """

    def __init__(
        self,
        config: CHGNetConfig,
        n_workers: int,
        cache: SharedProgramCache | None,
        plan: WorkerFaultPlan,
        replace: bool,
    ) -> None:
        self.config = config
        self.cache = cache
        self.plan = plan
        self.replace = replace
        # Kills planned for indices the fleet has not grown to: they land on
        # the worker that later takes the index.
        self._doomed: set[int] = set()
        self.workers = [self._spawn(w) for w in range(n_workers)]

    def _spawn(self, index: int, free: float = 0.0) -> Worker:
        """A fresh replica (and compiler on the shared cache) for ``index``."""
        model = CHGNetModel(self.config, np.random.default_rng(index))
        compiler = None if self.cache is None else InferenceCompiler(model, cache=self.cache)
        dead = index in self._doomed
        self._doomed.discard(index)
        return Worker(model, model.parameters(), compiler, free=free, dead=dead)

    @staticmethod
    def _join(worker: Worker, now: float) -> Worker:
        """Reset ``worker``'s health as it (re)joins the rotation at ``now``."""
        worker.retired = False
        worker.failures = 0
        worker.drained_until = None
        worker.free = max(worker.free, now)
        return worker

    def __len__(self) -> int:
        return len(self.workers)

    def __getitem__(self, index: int) -> Worker:
        return self.workers[index]

    def __iter__(self):
        return iter(self.workers)

    # ------------------------------------------------------------- dispatch
    def pick(self, now: float, exclude: int | None = None) -> int | None:
        """Believed-healthy worker whose virtual clock frees first, or ``None``.

        Skips retired workers and drained ones whose cooldown has not
        elapsed; a worker whose cooldown *has* elapsed is re-admitted
        half-open (one more failure re-trips the breaker immediately) — a
        side effect of asking.  Ties break to the lowest index, matching
        the fault-free argmin, so an engine with no fault plan schedules
        bit-for-bit identically.
        """
        best = None
        for w, worker in enumerate(self.workers):
            if w == exclude or worker.retired:
                continue
            if worker.drained_until is not None:
                if worker.drained_until > now:
                    continue
                worker.drained_until = None
                worker.failures = max(0, BREAKER_THRESHOLD - 1)
            if best is None or worker.free < self.workers[best].free:
                best = w
        return best

    def partner(self, now: float, exclude: int) -> int | None:
        """:meth:`pick` for a hedge: ``None`` when the pick is known dead."""
        other = self.pick(now, exclude=exclude)
        return None if other is None or self.workers[other].dead else other

    def wake(self) -> float | None:
        """Earliest finite cooldown end in the rotation (``None``: none pending)."""
        return min(
            (
                w.drained_until
                for w in self.workers
                if not w.retired and w.drained_until not in (None, INF)
            ),
            default=None,
        )

    def spare(self) -> bool:
        """Whether a retired slot the plan has not killed can be reactivated."""
        return any(w.retired and not w.dead for w in self.workers)

    def fire_kills(self, dispatch: int) -> None:
        """Fire the plan's kills for global dispatch index ``dispatch``."""
        for index in self.plan.take_kills(dispatch):
            if index < len(self.workers):
                self.workers[index].dead = True
            else:
                self._doomed.add(index)

    def fails(self, index: int, dispatch: int) -> bool:
        """Whether dispatch ``dispatch`` to worker ``index`` fails before
        writing anything: a kill discovered now, or a planned flake."""
        return self.workers[index].dead or self.plan.take_flake(index, dispatch)

    def record_failure(self, index: int, now: float) -> bool:
        """Account one failed dispatch; returns whether the worker was replaced.

        A kill is unambiguous: the worker leaves the rotation for good, or
        with ``replace`` a fresh replica takes its index at once with
        nothing installed, so its first batch installs whatever version it
        is pinned to (cached programs survive: they are keyed by batch shape
        and rebind parameters on every replay).  Anything else counts toward
        the breaker, which drains the worker for :data:`BREAKER_COOLDOWN`.
        """
        worker = self.workers[index]
        worker.failures += 1
        if worker.dead:
            if self.replace:
                self.workers[index] = self._join(self._spawn(index, worker.free), now)
                return True
            worker.drained_until = INF
        elif worker.failures >= BREAKER_THRESHOLD:
            worker.drained_until = now + BREAKER_COOLDOWN
        return False

    def record_success(self, index: int) -> None:
        """A dispatch to ``index`` went through: its failure streak ends."""
        self.workers[index].failures = 0

    # ------------------------------------------------------------ elasticity
    @property
    def size(self) -> int:
        """Active workers (see :attr:`Worker.active`)."""
        return sum(w.active for w in self.workers)

    def idle(self, now: float) -> bool:
        """Whether every active worker's virtual clock is at or behind ``now``."""
        return all(w.free <= now for w in self.workers if w.active)

    def add(self, now: float) -> int:
        """Grow by one worker at ``now``; returns its index.

        A retired slot the plan has not killed is reactivated first (its
        replica and compiler are still warm); otherwise a fresh replica is
        appended on the shared program cache.
        """
        for index, worker in enumerate(self.workers):
            if worker.retired and not worker.dead:
                self._join(worker, now)
                return index
        self.workers.append(self._join(self._spawn(len(self.workers)), now))
        return len(self.workers) - 1

    def retire(self, index: int | None = None) -> int | None:
        """Take one active worker out of the rotation; returns its index.

        ``None`` picks the highest-index active worker not known to the plan
        as dead.  Returns ``None`` (retiring nothing) for a worker already
        out of the rotation and when only one active worker is left; an
        index outside the fleet raises ``ValueError``.
        """
        if index is not None and not 0 <= index < len(self.workers):
            raise ValueError(
                f"worker {index} out of range for {len(self.workers)} workers"
            )
        if index is None:
            index = next(
                (
                    w
                    for w in reversed(range(len(self.workers)))
                    if self.workers[w].active and not self.workers[w].dead
                ),
                None,
            )
        if index is None or not self.workers[index].active or self.size <= 1:
            return None
        self.workers[index].retired = True
        return index
