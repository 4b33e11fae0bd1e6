"""Deterministic fault injection at the communication layer.

Real multi-GPU runs at the paper's scale lose ranks, hit slow NICs, and see
collectives time out; the simulated cluster should be able to *rehearse*
those failures deterministically.  :class:`FaultPlan` is a declarative,
seeded schedule of faults — rank kills, per-rank virtual-clock skew
(stragglers), and collective timeouts — and :class:`FaultyCommunicator`
wraps :class:`~repro.comm.communicator.SimCommunicator` so that every
collective passes through the plan before touching data.  Faults surface as
typed errors (:class:`RankFailure`, :class:`CollectiveTimeout`) instead of
silently corrupting averages; the trainer's recovery machinery
(checkpoint-resume, elastic re-sharding, bounded flush retries) is tested
against exactly these errors.

Both fault plans of the repo — this one over ranks and steps, and the
serving engine's :class:`~repro.serve.faults.WorkerFaultPlan` over workers
and dispatches — are thin front-ends of one :class:`FaultSchedule`.

The plan is *consumed* as it fires: a kill scheduled for step ``k`` fires
once and never again, so a run that resumes from a checkpoint and replays
step ``k`` does not die a second time; a timeout budget likewise drains
once.  Use a fresh plan per run.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


class RankFailure(RuntimeError):
    """A simulated rank died; the collective cannot complete.

    Carries the failed ``rank`` and the global ``step`` the failure
    surfaced at — the elastic driver uses both to shrink the world and
    price the recovery.
    """

    def __init__(self, rank: int, step: int) -> None:
        super().__init__(f"rank {rank} failed at step {step}")
        self.rank = rank
        self.step = step


class CollectiveTimeout(RuntimeError):
    """A collective exceeded its (virtual) timeout and was aborted.

    Transient by construction: retrying the collective consumes the step's
    injected-timeout budget, so a bounded retry loop recovers unless the
    plan schedules more timeouts than the retry budget allows.
    """

    def __init__(self, step: int, attempt: int) -> None:
        super().__init__(f"collective timed out at step {step} (attempt {attempt})")
        self.step = step
        self.attempt = attempt


class FaultSchedule:
    """Seeded schedule of faults keyed by ``(target, tick)``.

    The one mechanism behind :class:`FaultPlan` (ranks x global steps) and
    :class:`~repro.serve.faults.WorkerFaultPlan` (workers x dispatch
    indices).  Three entry kinds:

    * **kill** — ``target`` dies at ``tick``; consumed when
      :meth:`take_kills` hands it out;
    * **transient** — a budget of ``count`` failures drawn one at a time by
      :meth:`take_transient` at ticks in ``[tick, stop)`` (``stop=None``:
      forever); target ``None`` matches any target;
    * **straggle** — :meth:`skew` sums the seconds of every window
      ``[start, stop)`` covering a tick.

    A front-end names its target and tick (error messages), its transient
    kind and its spec grammar, and keeps its own builder keywords.
    """

    #: Nouns of the front-end's target and tick, for error messages.
    TARGET = "target"
    TICK = "tick"
    #: Spec kind of a transient entry.
    TRANSIENT = "transient"
    #: What :meth:`parse` calls one spec string in its errors.
    SPEC = "fault spec"
    #: ``kind -> (required argument count, (NAME, type) per argument)``;
    #: ``kind`` is also the builder method :meth:`parse` calls.
    GRAMMAR: dict[str, tuple] = {}

    def __init__(self) -> None:
        self._kills: dict[int, list[int]] = {}
        # [target, tick, stop, count, taken]
        self._transients: list[list] = []
        self._straggles: list[tuple[int, float, int, int | None]] = []
        self._straggles_fired: set[int] = set()

    # -------------------------------------------------------------- builders
    def _check(self, target: int | None, tick: int = 0) -> None:
        if target is not None and target < 0:
            raise ValueError(f"{self.TARGET} must be >= 0, got {target}")
        if tick < 0:
            raise ValueError(f"{self.TICK} must be >= 0, got {tick}")

    def _add_kill(self, target: int, tick: int):
        self._check(target, tick)
        self._kills.setdefault(tick, []).append(target)
        return self

    def _add_transient(
        self, target: int | None, tick: int, count: int, stop: int | None, noun: str
    ):
        self._check(target, tick)
        if count < 1:
            raise ValueError(f"{noun} must be >= 1, got {count}")
        for entry in self._transients:
            if entry[:3] == [target, tick, stop]:
                entry[3] += count  # one budget per window, drawn in order
                return self
        self._transients.append([target, tick, stop, count, 0])
        return self

    def _add_straggle(
        self, target: int, seconds: float, start: int, stop: int | None
    ):
        self._check(target)
        if seconds < 0:
            raise ValueError(f"straggler seconds must be >= 0, got {seconds}")
        if start < 0 or (stop is not None and stop <= start):
            raise ValueError(f"bad straggler window [{start}, {stop})")
        self._straggles.append((target, float(seconds), start, stop))
        return self

    # --------------------------------------------------------------- queries
    @property
    def empty(self) -> bool:
        """Whether no faults remain scheduled (fired ones are consumed)."""
        return not (
            self._kills
            or any(taken < count for *_, count, taken in self._transients)
            or self._straggles
        )

    def take_kills(self, tick: int) -> list[int]:
        """Targets scheduled to die at ``tick``; consumed (fires once)."""
        return self._kills.pop(tick, [])

    def take_transient(self, target: int | None, tick: int) -> int:
        """Consume one transient failure of ``target`` at ``tick``.

        Returns its 1-based attempt number within the budget it was drawn
        from, or 0 when no budget covers ``(target, tick)``.  Budgets are
        drawn in the order they were scheduled.
        """
        for entry in self._transients:
            who, start, stop, count, taken = entry
            if (
                (who is None or who == target)
                and start <= tick
                and (stop is None or tick < stop)
                and taken < count
            ):
                entry[4] = taken + 1
                return taken + 1
        return 0

    def skew(self, target: int, tick: int) -> float:
        """Virtual straggler seconds for ``target`` at ``tick``.

        Windows that contribute are marked fired (see :meth:`unfired`);
        overlapping windows accumulate.
        """
        total = 0.0
        for i, (who, seconds, start, stop) in enumerate(self._straggles):
            if who == target and start <= tick and (stop is None or tick < stop):
                total += seconds
                self._straggles_fired.add(i)
        return total

    def unfired(self) -> list[str]:
        """Canonical specs of planned faults that have not fired yet.

        Kills and transient budgets are consumed as they fire and straggler
        windows are marked the first time :meth:`skew` samples them, so a
        test that planned faults can assert ``plan.unfired() == []`` to
        prove every fault actually landed instead of silently scheduling
        past the end of the run.  Kills and transients come in tick order.
        """
        specs = [
            f"kill:{target}:{tick}"
            for tick in sorted(self._kills)
            for target in self._kills[tick]
        ]
        for who, tick, _stop, count, taken in sorted(
            self._transients, key=lambda entry: entry[1]
        ):
            if taken < count:
                target = "" if who is None else f"{who}:"
                specs.append(f"{self.TRANSIENT}:{target}{tick}:{count - taken}")
        for i, (who, seconds, start, stop) in enumerate(self._straggles):
            if i not in self._straggles_fired:
                window = f":{start}" + ("" if stop is None else f":{stop}")
                specs.append(f"straggle:{who}:{seconds}{'' if window == ':0' else window}")
        return specs

    # ---------------------------------------------------------- constructors
    @classmethod
    def _forms(cls) -> str:
        forms = []
        for kind, (required, *fields) in cls.GRAMMAR.items():
            names = [kind] + [name for name, _ in fields]
            optional = names[required + 1 :]
            head = ":".join(names[: required + 1])
            forms.append(head + "".join(f"[:{n}" for n in optional) + "]" * len(optional))
        return ", ".join(forms[:-1]) + ", or " + forms[-1]

    @classmethod
    def parse(cls, specs: list[str]):
        """Build a plan from CLI specs, one fault per string.

        The accepted forms are the front-end's grammar (its class
        docstring lists them).  Malformed specs and duplicates raise
        ``ValueError`` naming the offending spec string — a typo'd fault
        plan should fail the run immediately, not silently rehearse a
        different failure.
        """
        plan = cls()
        seen: set[str] = set()
        for spec in specs:
            normalized = spec.strip()
            if normalized in seen:
                raise ValueError(
                    f"duplicate {cls.SPEC} {spec!r}: each fault may be "
                    "specified only once"
                )
            seen.add(normalized)
            kind, *args = spec.split(":")
            try:
                required, *fields = cls.GRAMMAR.get(kind, (None,))
                if required is None or not required <= len(args) <= len(fields):
                    raise ValueError("unrecognized form")
                getattr(plan, kind)(*(t(a) for (_, t), a in zip(fields, args)))
            except ValueError as exc:
                raise ValueError(
                    f"bad {cls.SPEC} {spec!r} ({exc}); expected {cls._forms()}"
                ) from exc
        return plan

    @classmethod
    def _random(
        cls,
        seed: int,
        n_targets: int,
        n_ticks: int,
        p_kill: float,
        p_transient: float,
        straggler_seconds: float,
        transient: Callable[[FaultSchedule, np.random.Generator, int], object],
    ):
        rng = np.random.default_rng(seed)
        plan = cls()
        for tick in range(n_ticks):
            if p_kill and rng.random() < p_kill:
                plan._add_kill(int(rng.integers(n_targets)), tick)
            if p_transient and rng.random() < p_transient:
                transient(plan, rng, tick)
        if straggler_seconds > 0:
            plan._add_straggle(int(rng.integers(n_targets)), straggler_seconds, 0, None)
        return plan


class FaultPlan(FaultSchedule):
    """Declarative schedule of comm-layer faults, keyed by global step.

    Build with the chainable methods::

        plan = FaultPlan().kill(rank=1, step=7).straggle(rank=0, seconds=2e-3)
        plan = FaultPlan().timeout(step=3, attempts=2)

    or parse CLI specs (``train --inject-fault``; :meth:`parse`) of the
    forms ``kill:RANK:STEP``, ``timeout:STEP[:ATTEMPTS]`` and
    ``straggle:RANK:SECONDS[:START[:STOP]]``, or draw a seeded random plan
    (:meth:`random`).  Kills and timeout budgets are consumed when they
    fire (see the module docstring); skews are pure functions of the step.
    """

    TARGET = "rank"
    TICK = "step"
    TRANSIENT = "timeout"
    GRAMMAR = {
        "kill": (2, ("RANK", int), ("STEP", int)),
        "timeout": (1, ("STEP", int), ("ATTEMPTS", int)),
        "straggle": (2, ("RANK", int), ("SECONDS", float), ("START", int), ("STOP", int)),
    }

    def kill(self, rank: int, step: int) -> "FaultPlan":
        """Schedule ``rank`` to die at global step ``step`` (fires once)."""
        return self._add_kill(rank, step)

    def timeout(self, step: int, attempts: int = 1) -> "FaultPlan":
        """Time out the first ``attempts`` collectives of step ``step``."""
        return self._add_transient(None, step, attempts, step + 1, "attempts")

    def straggle(
        self,
        rank: int,
        seconds: float,
        start: int = 0,
        stop: int | None = None,
    ) -> "FaultPlan":
        """Add ``seconds`` of virtual compute skew to ``rank`` each step.

        Active for steps in ``[start, stop)``; ``stop=None`` means forever.
        Overlapping windows accumulate.
        """
        return self._add_straggle(rank, seconds, start, stop)

    @classmethod
    def random(
        cls,
        seed: int,
        world_size: int,
        n_steps: int,
        p_kill: float = 0.0,
        p_timeout: float = 0.0,
        straggler_seconds: float = 0.0,
    ) -> "FaultPlan":
        """Seeded random plan over ``n_steps`` (same seed, same plan).

        Each step independently schedules a kill of a uniform-random rank
        with probability ``p_kill`` and a single-collective timeout with
        probability ``p_timeout``; ``straggler_seconds > 0`` additionally
        skews one random rank for the whole run.
        """
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        return cls._random(
            seed, world_size, n_steps, p_kill, p_timeout, straggler_seconds,
            lambda plan, rng, step: plan.timeout(step),
        )  # fmt: skip


class FaultyCommunicator:
    """A :class:`~repro.comm.communicator.SimCommunicator` under a fault plan.

    Wraps the simulated communicator (full attribute delegation, so it is a
    drop-in replacement) and makes every collective first consult the plan
    for the current step (set by the trainer through :meth:`advance`):

    * scheduled **kills** mark the rank dead and raise :class:`RankFailure`
      — and keep raising it on every later collective, as a real job's
      collectives would keep failing until the world is rebuilt;
    * scheduled **timeouts** raise :class:`CollectiveTimeout` once per
      budgeted attempt, so a caller's bounded retry drains the budget and
      the retried collective completes;
    * **stragglers** never fail anything — :meth:`compute_skew` reports the
      per-rank virtual seconds the trainer adds to its measured compute
      times, so modeled throughput prices the slow rank honestly.
    """

    def __init__(self, world_size: int, plan: FaultPlan, trace_ring: bool = False) -> None:
        # Imported here to keep module import order obvious (communicator
        # does not know about faults).
        from repro.comm.communicator import SimCommunicator

        self._base = SimCommunicator(world_size, trace_ring=trace_ring)
        self.plan = plan
        self.step = 0
        self.dead: set[int] = set()
        self.timeouts_injected = 0

    # Delegation keeps FaultyCommunicator drop-in for SimCommunicator users.
    def __getattr__(self, name: str):
        return getattr(self._base, name)

    def advance(self, step: int) -> None:
        """Set the global step the next collectives belong to."""
        self.step = int(step)

    def compute_skew(self, rank: int) -> float:
        """Virtual straggler seconds for ``rank`` at the current step."""
        return self.plan.skew(rank, self.step)

    def _inject(self) -> None:
        for rank in self.plan.take_kills(self.step):
            if 0 <= rank < self.world_size:
                self.dead.add(rank)
        if self.dead:
            raise RankFailure(min(self.dead), self.step)
        attempt = self.plan.take_transient(None, self.step)
        if attempt:
            self.timeouts_injected += 1
            raise CollectiveTimeout(self.step, attempt)

    # ------------------------------------------------------------ collectives
    def allreduce_sum(self, per_rank):
        """Faulting wrapper over :meth:`SimCommunicator.allreduce_sum`."""
        self._inject()
        return self._base.allreduce_sum(per_rank)

    def allreduce_mean(self, per_rank):
        """Faulting wrapper over :meth:`SimCommunicator.allreduce_mean`."""
        self._inject()
        return self._base.allreduce_mean(per_rank)

    def allreduce_mean_inplace(self, per_rank, work=None):
        """Faulting wrapper over :meth:`SimCommunicator.allreduce_mean_inplace`."""
        self._inject()
        return self._base.allreduce_mean_inplace(per_rank, work)

    def allreduce_mean_lists(self, per_rank):
        """Faulting wrapper over :meth:`SimCommunicator.allreduce_mean_lists`."""
        self._inject()
        return self._base.allreduce_mean_lists(per_rank)

    def broadcast(self, value, root: int = 0):
        """Faulting wrapper over :meth:`SimCommunicator.broadcast`."""
        self._inject()
        return self._base.broadcast(value, root)

    def gather(self, per_rank, root: int = 0):
        """Faulting wrapper over :meth:`SimCommunicator.gather`."""
        self._inject()
        return self._base.gather(per_rank, root)
