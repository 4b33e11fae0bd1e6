"""Multi-tenant serving policy: request classes, quotas, per-tenant stats.

Production traffic against one shared universal potential is not one
stream — it is many *tenants* (per-material-system projects, interactive
users, screening pipelines) issuing two very different kinds of traffic
against the same fleet:

* **interactive** — a human (or an MD driver) is waiting: small bursts,
  latency-sensitive, happy with partial batches.  Short flush wait, tight
  default deadline.
* **bulk** — screening sweeps, trajectory farms, fine-tuning data
  generation: huge backlogs, throughput-sensitive, nobody cares about any
  single request's latency.  Long flush wait (fill the batch), no default
  deadline.

:class:`ClassPolicy` declares a request class (per-class flush wait and
default deadline); :class:`TenantPolicy` declares a tenant (fair-share
weight for the scheduler, bounded pending quota for admission control);
:class:`TenantStats` is the per-tenant accounting block the engine keeps
alongside the global :class:`~repro.serve.engine.EngineStats` — the
conservation invariant (every submitted request is exactly one of
served / shed / expired / failed, and tenant blocks sum to the global
counters) is what ``tests/serve_harness.py`` checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

#: Class name used when ``submit`` is called without ``request_class`` —
#: behaves exactly like the pre-tenancy engine (engine-wide ``max_wait``,
#: no default deadline), so unlabeled traffic is bit-for-bit unchanged.
DEFAULT_CLASS = "bulk"

#: Tenant name used when ``submit`` is called without ``tenant``.
DEFAULT_TENANT = "default"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a sequence (0 <= q <= 100)."""
    if not values:
        return 0.0
    return float(np.percentile(np.fromiter(values, dtype=np.float64), q))


def counters(stats) -> dict:
    """The scalar counter fields of a stats dataclass, by name.

    Read off the dataclass declaration, so a counter added to a stats
    block is reported without touching its ``as_dict``.  Windows and nested
    blocks (non-scalar fields) and fields declared with
    ``metadata={"derived_only": True}`` — reported only through a derived
    key — are left to the caller.
    """
    out = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, (int, float)) and not f.metadata.get("derived_only"):
            out[f.name] = value
    return out


@dataclass(frozen=True)
class ClassPolicy:
    """One request class: latency policy shared by every request in it.

    Parameters
    ----------
    name:
        Class name (``submit(..., request_class=name)``).
    max_wait:
        Flush wait for partial batches of this class (seconds on the
        virtual clock); ``None`` uses the engine's global ``max_wait``.
        Interactive classes set this small — a partial batch is better
        than a waiting user; bulk classes set it large — a full batch is
        better than a fragmented one.
    deadline:
        Default relative deadline applied when ``submit`` passes none
        (``None`` = no default).  An explicit ``submit(..., deadline=...)``
        always wins.
    """

    name: str
    max_wait: float | None = None
    deadline: float | None = None

    def validate(self) -> None:
        """Raise ``ValueError`` on non-sensical policy values."""
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.max_wait is not None and self.max_wait < 0:
            raise ValueError(f"class {self.name}: max_wait must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"class {self.name}: deadline must be > 0")


def standard_classes(max_wait: float) -> dict[str, ClassPolicy]:
    """The two stock request classes, scaled to the engine's ``max_wait``.

    ``interactive`` flushes partial batches five times sooner than the
    engine default; ``bulk`` (the default class) keeps exactly the
    engine-wide wait, so unlabeled traffic behaves like the pre-tenancy
    engine.
    """
    return {
        "interactive": ClassPolicy("interactive", max_wait=max_wait / 5),
        "bulk": ClassPolicy("bulk", max_wait=None),
    }


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant: fair-share weight and admission quota.

    Parameters
    ----------
    name:
        Tenant id (``submit(..., tenant=name)``).
    weight:
        Fair-queuing weight: a tenant with weight 2 is entitled to twice
        the modeled service of a weight-1 tenant while both are
        backlogged (:class:`~repro.serve.scheduler.FairScheduler`).
    max_pending:
        Bounded per-tenant pending quota (``0`` = unbounded).  A submit
        that would exceed it is shed with a typed
        :class:`~repro.serve.engine.EngineOverloaded` and counted in the
        tenant's ``shed`` — one tenant's burst cannot fill the global
        queue and starve everyone else's admission.
    """

    name: str
    weight: float = 1.0
    max_pending: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on non-sensical policy values."""
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name}: weight must be > 0")
        if self.max_pending < 0:
            raise ValueError(f"tenant {self.name}: max_pending must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "TenantPolicy":
        """Parse a CLI tenant spec ``NAME[:WEIGHT[:MAX_PENDING]]``."""
        parts = spec.split(":")
        try:
            if not 1 <= len(parts) <= 3:
                raise ValueError("unrecognized form")
            policy = cls(
                name=parts[0],
                weight=float(parts[1]) if len(parts) >= 2 else 1.0,
                max_pending=int(parts[2]) if len(parts) == 3 else 0,
            )
            policy.validate()
        except ValueError as exc:
            raise ValueError(
                f"bad tenant spec {spec!r} ({exc}); expected "
                "NAME[:WEIGHT[:MAX_PENDING]]"
            ) from exc
        return policy


#: Sliding latency window per tenant (mirrors the global window; a busy
#: tenant must not grow its stats with lifetime request count).
_TENANT_LATENCY_WINDOW = 1024


@dataclass
class TenantStats:
    """Per-tenant serving counters (one block per tenant in ``EngineStats``).

    The conservation contract: ``submitted == served + shed + expired +
    failed + pending`` at every point in time, and each counter here sums
    across tenants to its global ``EngineStats`` counterpart.
    """

    #: requests accepted into the queue for this tenant
    submitted: int = 0
    #: requests completed with a :class:`~repro.serve.engine.Prediction`
    served: int = 0
    #: requests rejected at submit by the tenant quota (EngineOverloaded)
    shed: int = 0
    #: requests shed in the queue by their deadline (DeadlineExceeded)
    expired: int = 0
    #: requests shed terminally after worker failures (WorkerFailure)
    failed: int = 0
    #: summed raw workload cost of this tenant's dispatched structures
    raw_cost: int = 0
    #: summed share of priced padded batch cost attributed to this tenant
    #: (raw-cost-proportional split of each batch's padded cost, so the
    #: shares sum across tenants to the global ``padded_cost``)
    padded_cost: float = 0.0
    #: most recent per-request latencies (bounded sliding window)
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=_TENANT_LATENCY_WINDOW)
    )

    @property
    def padding_overhead(self) -> float:
        """Mean relative ghost-row overhead of this tenant's batches."""
        return self.padded_cost / self.raw_cost - 1.0 if self.raw_cost else 0.0

    def as_dict(self) -> dict:
        """Flat dict of every counter field plus derived rates and percentiles."""
        return {
            **counters(self),
            "padding_overhead": self.padding_overhead,
            "latency_p50": percentile(self.latencies, 50),
            "latency_p95": percentile(self.latencies, 95),
        }
