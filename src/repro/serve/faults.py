"""Deterministic fault injection for the serving engine's workers.

PR 6 taught the simulated training cluster to rehearse rank deaths,
stragglers and timeouts (:mod:`repro.comm.faults`); a serving tier that is
supposed to sit in the hot path of production traffic must survive the
same failures.  :class:`WorkerFaultPlan` is the serving-side front-end of
the same :class:`~repro.comm.faults.FaultSchedule` that backs
:class:`~repro.comm.faults.FaultPlan` — a declarative, seeded schedule of
worker faults keyed by the engine's **global dispatch index** (every batch
dispatch attempt increments it, so a plan is exactly reproducible):

* **kills** mark a worker permanently dead from a dispatch index on; the
  death is *discovered* when a batch is next dispatched to that worker and
  surfaces as a typed :class:`WorkerFailure` **before any result is
  written**, so the engine can re-queue the batch on survivors;
* **flakes** fail a bounded number of dispatches routed to a worker and
  then let it recover — the transient fault class that makes the circuit
  breaker's cooldown re-admission meaningful;
* **stragglers** never fail anything: they add virtual seconds to the
  service time of matching dispatches, so the worker's virtual clock (and
  the engine's modeled latencies) price the slowdown honestly — and give
  hedging something to win against.

Like the comm-layer plan, kills and flakes are *consumed* as they fire and
:meth:`WorkerFaultPlan.unfired` reports anything that never landed, so a
test can assert the rehearsed failure actually happened.
:class:`DeadlineExceeded` is the per-request deadline miss the engine
raises from :meth:`~repro.serve.engine.InferenceEngine.poll` when a
request expired in the queue before it could be served.

Elastic fleets (PR 10) keep plans meaningful: worker indices are *stable*
for the engine's whole lifetime — retiring a worker marks its slot
retired instead of removing it, and scale-out reactivates retired slots
before appending fresh replicas — so a plan's worker index always names
the same replica, and a kill may target a worker that only joins the
rotation via a later scale-out.  The global dispatch index likewise keeps
counting across scale events, so ``unfired()`` remains an exact proof of
which rehearsed faults landed on an autoscaled fleet.
"""

from __future__ import annotations

import numpy as np

from repro.comm.faults import FaultSchedule


class WorkerFailure(RuntimeError):
    """A serving worker failed a dispatch; no results were written.

    Carries the failed ``worker`` and the global ``dispatch`` index the
    failure surfaced at.  Inside the engine the failure is transparently
    retried on surviving workers; it only reaches a caller (from ``poll``
    or ``predict_many``) when a request exhausted its retry budget —
    ``request_id`` is set on that terminal form.
    """

    def __init__(
        self, worker: int, dispatch: int, request_id: int | None = None
    ) -> None:
        detail = f" (request {request_id} shed)" if request_id is not None else ""
        super().__init__(f"worker {worker} failed at dispatch {dispatch}{detail}")
        self.worker = worker
        self.dispatch = dispatch
        self.request_id = request_id


class DeadlineExceeded(RuntimeError):
    """A request's deadline passed while it was still queued.

    Raised by :meth:`~repro.serve.engine.InferenceEngine.poll` for requests
    submitted with ``deadline=`` that expired before dispatch; the request
    was shed (counted in ``stats.deadline_misses``) instead of burning
    worker time on an answer nobody is waiting for.
    """

    def __init__(self, request_id: int, deadline: float, now: float) -> None:
        super().__init__(
            f"request {request_id} missed its deadline "
            f"({now - deadline:.3f}s past {deadline:.3f})"
        )
        self.request_id = request_id
        self.deadline = deadline


class WorkerFaultPlan(FaultSchedule):
    """Declarative schedule of worker faults, keyed by global dispatch index.

    Build with the chainable methods::

        plan = WorkerFaultPlan().kill(worker=1, dispatch=4)
        plan = WorkerFaultPlan().flake(worker=0, dispatch=2, count=3)
        plan = WorkerFaultPlan().straggle(worker=2, seconds=0.5)

    or parse CLI specs (``serve --inject-worker-fault``; :meth:`parse`) of
    the forms ``kill:WORKER:DISPATCH``, ``flake:WORKER:DISPATCH[:COUNT]``
    and ``straggle:WORKER:SECONDS[:START[:STOP]]``, or draw a seeded random
    plan (:meth:`random`).  Kills and flakes are consumed when they fire;
    :meth:`unfired` names anything still pending.  An empty plan injects
    nothing: the engine's fault-free schedule.
    """

    TARGET = "worker"
    TICK = "dispatch"
    TRANSIENT = "flake"
    SPEC = "worker fault spec"
    GRAMMAR = {
        "kill": (2, ("WORKER", int), ("DISPATCH", int)),
        "flake": (2, ("WORKER", int), ("DISPATCH", int), ("COUNT", int)),
        "straggle": (2, ("WORKER", int), ("SECONDS", float), ("START", int), ("STOP", int)),
    }

    def kill(self, worker: int, dispatch: int) -> "WorkerFaultPlan":
        """Kill ``worker`` permanently at global dispatch index ``dispatch``."""
        return self._add_kill(worker, dispatch)

    def flake(self, worker: int, dispatch: int, count: int = 1) -> "WorkerFaultPlan":
        """Fail the next ``count`` dispatches routed to ``worker``.

        Active from dispatch index ``dispatch`` on; unlike a kill the
        worker recovers once the budget is consumed, which is what lets a
        circuit breaker's cooldown re-admission succeed.
        """
        return self._add_transient(worker, dispatch, count, None, "count")

    def straggle(
        self,
        worker: int,
        seconds: float,
        start: int = 0,
        stop: int | None = None,
    ) -> "WorkerFaultPlan":
        """Add ``seconds`` of virtual service time to ``worker``'s dispatches.

        Active for dispatch indices in ``[start, stop)``; ``stop=None``
        means forever.  Overlapping windows accumulate.
        """
        return self._add_straggle(worker, seconds, start, stop)

    def take_flake(self, worker: int, dispatch: int) -> bool:
        """Consume one flake unit for ``worker`` at ``dispatch``, if any."""
        return self.take_transient(worker, dispatch) > 0

    @classmethod
    def random(
        cls,
        seed: int,
        n_workers: int,
        n_dispatches: int,
        p_kill: float = 0.0,
        p_flake: float = 0.0,
        straggler_seconds: float = 0.0,
    ) -> "WorkerFaultPlan":
        """Seeded random plan over ``n_dispatches`` (same seed, same plan).

        Each dispatch index independently schedules a kill of a
        uniform-random worker with probability ``p_kill`` and a one-shot
        flake with probability ``p_flake``; ``straggler_seconds > 0``
        additionally skews one random worker for the whole run.
        """
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        return cls._random(
            seed, n_workers, n_dispatches, p_kill, p_flake, straggler_seconds,
            lambda plan, rng, dispatch: plan.flake(int(rng.integers(n_workers)), dispatch),
        )  # fmt: skip
