"""Weighted-fair scheduling and load-driven autoscaling for the engine.

One FIFO per ``(version, tier)`` queue served a single stream fine, but a
shared fleet under multi-tenant traffic has a starvation problem: one
tenant's 10k-structure screening sweep lands ahead of another tenant's
interactive relaxation step and the interactive user waits out the whole
backlog.  Two cooperating pieces fix that:

Start-time fair queuing (:class:`FairScheduler`)
    Every accepted request is stamped with a **virtual start tag** drawn
    from its tenant's fair-share clock: ``start = max(V, finish_t)``,
    ``finish_t = start + cost / weight_t``, where ``cost`` is the
    request's modeled workload (:func:`repro.graph.batching.workload_cost`
    — the same cost model the engine's virtual worker clocks are built
    on) and ``V`` is the global virtual time, advanced to the largest
    start tag ever dispatched.  Queues dispatch in ``(tag, seq)`` order,
    so while a heavy tenant is backlogged its tags race ahead and a light
    tenant's occasional request slots in almost immediately — the classic
    SFQ guarantee that any backlogged tenant's service lags its ideal
    weighted fluid share by at most one maximum request cost per
    competitor.  With a single tenant the tags are nondecreasing in
    arrival order, so the schedule degenerates to exactly FIFO —
    bit-for-bit the pre-tenancy engine.

Load-driven elasticity (:class:`Autoscaler`)
    The engine's latency model is fully deterministic (measured service
    times on virtual worker clocks), which makes the scale-out signal
    honest: when the modeled p95 of the watched request class breaches
    the SLA for ``breach_scans`` consecutive drain scans, one worker is
    added — a fresh replica on the :class:`~repro.tensor.compile.
    SharedProgramCache` (zero recaptures, the PR-8 in-place replacement
    machinery).  When the queue stays empty and the whole fleet idle for
    ``idle_scans`` scans, the highest-index worker is drained and
    retired.  Retired slots are reactivated before new replicas are
    built, so repeated load swings don't grow the fleet without bound.

Grouping (:func:`plan_groups`)
    Which queued requests share a micro-batch: per-tier chunks of
    ``max_batch_structs`` plus priced cross-tier absorption for partial
    tails.  One pure generator that every dispatch path of the engine and
    its ``warm_start`` simulation iterate (docs/serving.md, "Grouping").
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.serve.tenants import percentile

T = TypeVar("T")


def plan_groups(
    queues: Mapping[int, Sequence[T]],
    cap: int,
    fits: Callable[[list[T]], bool] | None = None,
    order: Iterable[int] | None = None,
    tail: Callable[[Sequence[T]], bool] | None = None,
) -> Iterator[list[tuple[int, T]]]:
    """Group queued work into micro-batches of at most ``cap``; the one
    grouping policy of the engine (live queues, ``warm_start`` simulation
    and the synchronous paths all iterate it).

    ``queues`` maps a workload tier to its FIFO of items and is never
    mutated; every tier is consumed strictly from the front.  Tiers are
    drained in ``order`` (default: ascending): full groups of ``cap`` first,
    then the leftover partial — if ``tail(leftover)`` says it may go
    (default: always).  With ``fits`` a partial **absorbs** from the other
    tiers that still hold items, nearest tier first (ties to the lower
    tier), FIFO within a tier, until it is full; absorption from a tier
    stops at the first item for which ``fits(members + [item])`` is false.
    ``fits=None`` disables absorption, which is exact per-tier chunking.

    Yields each group as ``[(tier, item), ...]``, home tier first, *lazily*:
    the next group is only planned when asked for, so a caller may dispatch
    between groups and ``fits`` may price against what the dispatch changed.
    Apart from calling ``fits``/``tail`` the function is pure — the same
    queues and answers give the same plan.
    """
    taken = dict.fromkeys(queues, 0)
    for tier in sorted(queues) if order is None else order:
        queue = queues[tier]
        while len(queue) - taken[tier] >= cap:
            start = taken[tier]
            taken[tier] = start + cap
            yield [(tier, item) for item in queue[start : start + cap]]
        members = list(queue[taken[tier] :])
        if not members or (tail is not None and not tail(members)):
            continue
        taken[tier] = len(queue)
        group = [(tier, item) for item in members]
        if fits is not None:
            for other in sorted(
                (k for k in queues if k != tier and taken[k] < len(queues[k])),
                key=lambda k: (abs(k - tier), k),
            ):
                pool = queues[other]
                while taken[other] < len(pool) and len(group) < cap:
                    item = pool[taken[other]]
                    if not fits(members + [item]):
                        break
                    members.append(item)
                    group.append((other, item))
                    taken[other] += 1
                if len(group) >= cap:
                    break
        yield group


class FairScheduler:
    """Start-time fair queuing (SFQ) tags over modeled request cost.

    The scheduler only hands out tags and tracks virtual time; ordering
    and dispatch stay in the engine (queues are kept sorted by the tags).
    Weights come from registered tenants
    (:class:`~repro.serve.tenants.TenantPolicy`); unknown tenants
    auto-register with weight 1.
    """

    def __init__(self, weights: dict[str, float] | None = None) -> None:
        self._weights: dict[str, float] = {}
        self._finish: dict[str, float] = {}
        self._vtime = 0.0
        self._seq = 0
        for tenant, weight in (weights or {}).items():
            self.register(tenant, weight)

    def register(self, tenant: str, weight: float = 1.0) -> None:
        """Declare ``tenant``'s fair-share weight (idempotent override)."""
        if weight <= 0:
            raise ValueError(f"tenant {tenant!r}: weight must be > 0, got {weight}")
        self._weights[tenant] = float(weight)

    def weight(self, tenant: str) -> float:
        """The registered weight of ``tenant`` (1.0 when unregistered)."""
        return self._weights.get(tenant, 1.0)

    @property
    def vtime(self) -> float:
        """Global virtual time: the largest start tag ever dispatched."""
        return self._vtime

    def tag(self, tenant: str, cost: float) -> tuple[float, int]:
        """Stamp one request of modeled ``cost``; returns ``(start, seq)``.

        ``start = max(V, tenant's last finish)`` and the tenant's finish
        advances by ``cost / weight`` — a backlogged tenant's tags march
        ahead of the global clock in proportion to the service it has
        been promised, which is exactly what lets lighter tenants
        overtake its queue.  ``seq`` breaks ties by arrival order, so
        equal-tag requests (and the whole single-tenant degenerate case)
        dispatch FIFO.
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        start = max(self._vtime, self._finish.get(tenant, 0.0))
        self._finish[tenant] = start + cost / self.weight(tenant)
        seq = self._seq
        self._seq += 1
        return (start, seq)

    def advance(self, start_tag: float) -> None:
        """Advance virtual time to a dispatched request's start tag.

        Monotonic; called by the engine when a group is dispatched.  This
        is what prevents a long-idle tenant from banking an unbounded
        burst of low tags: after an idle period its next tag starts at
        the current virtual time, not at its stale finish tag.
        """
        self._vtime = max(self._vtime, start_tag)

    def lag(self, tenant: str) -> float:
        """How far ``tenant``'s finish tag trails virtual time (>= 0 when
        the tenant is owed service; backlogged heavy tenants go negative)."""
        return self._vtime - self._finish.get(tenant, 0.0)


@dataclass(frozen=True)
class AutoscaleConfig:
    """Policy for load-driven worker scale-out/in.

    Parameters
    ----------
    sla_p95:
        Target modeled p95 latency (virtual seconds) for ``watch_class``.
    watch_class:
        Request class whose p95 drives scale-out (default: interactive —
        bulk traffic is throughput-bound and does not page anyone).
    breach_scans:
        Consecutive drain scans with p95 over the SLA before one worker
        is added (hysteresis against a single slow batch).
    idle_scans:
        Consecutive drain scans with an empty queue and a fully idle
        fleet before one worker is drained and retired.
    max_workers / min_workers:
        Fleet bounds; scale-out stops at ``max_workers`` even while
        breaching, scale-in never goes below ``min_workers``.
    window:
        Sliding window of recent watched-class latencies the p95 is
        modeled over.
    min_samples:
        Completions required in the window before a breach can be
        declared (a p95 over two requests is noise).
    """

    sla_p95: float
    watch_class: str = "interactive"
    breach_scans: int = 3
    idle_scans: int = 16
    max_workers: int = 8
    min_workers: int = 1
    window: int = 64
    min_samples: int = 8

    def validate(self) -> None:
        """Raise ``ValueError`` on non-sensical scaling policy."""
        if self.sla_p95 <= 0:
            raise ValueError(f"sla_p95 must be > 0, got {self.sla_p95}")
        if self.breach_scans < 1:
            raise ValueError(f"breach_scans must be >= 1, got {self.breach_scans}")
        if self.idle_scans < 1:
            raise ValueError(f"idle_scans must be >= 1, got {self.idle_scans}")
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= "
                f"min_workers ({self.min_workers})"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")


class Autoscaler:
    """Drives engine fleet size off the modeled SLA of one request class.

    The engine calls :meth:`record` for every completed request and
    :meth:`scan` once per drain scan; the autoscaler decides out/in and
    calls back into :meth:`~repro.serve.engine.InferenceEngine.add_worker`
    / :meth:`~repro.serve.engine.InferenceEngine.retire_worker`.
    """

    def __init__(self, config: AutoscaleConfig) -> None:
        config.validate()
        self.config = config
        self._latencies: deque = deque(maxlen=config.window)
        self._breaches = 0
        self._idle = 0

    def record(self, request_class: str, latency: float) -> None:
        """Feed one completed request's modeled latency into the window."""
        if request_class == self.config.watch_class:
            self._latencies.append(latency)

    def watched_p95(self) -> float:
        """Modeled p95 of the watched class over the sliding window."""
        return percentile(self._latencies, 95)

    def scan(self, engine, now: float) -> str | None:
        """One drain-scan evaluation; returns ``"out"``/``"in"``/``None``.

        Scale-out: ``breach_scans`` consecutive scans with enough samples
        and watched p95 over the SLA add one worker and clear the window
        (the new capacity deserves a fresh verdict).  Scale-in:
        ``idle_scans`` consecutive scans with nothing queued and every
        active worker's virtual clock at or behind ``now`` retire one.
        """
        cfg = self.config
        action = None
        if len(self._latencies) >= cfg.min_samples and self.watched_p95() > cfg.sla_p95:
            self._breaches += 1
            if self._breaches >= cfg.breach_scans and engine.fleet_size < cfg.max_workers:
                engine.add_worker(now)
                self._breaches = 0
                self._latencies.clear()
                action = "out"
        else:
            self._breaches = 0
        if engine.pending == 0 and engine.fleet_idle(now):
            self._idle += 1
            if self._idle >= cfg.idle_scans and engine.fleet_size > cfg.min_workers:
                if engine.retire_worker() is not None:
                    action = action or "in"
                self._idle = 0
        else:
            self._idle = 0
        return action
