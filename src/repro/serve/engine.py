"""The serving engine: tiered dynamic batching over compiled-program replay.

:class:`InferenceEngine` queues requests per ``(weight version, workload
tier)``, groups them with :func:`repro.serve.scheduler.plan_groups`,
dispatches every group through one loop (``_dispatch_ready``) onto
simulated workers that replay programs from one shared
:class:`~repro.tensor.compile.SharedProgramCache`, and models latency on
per-worker virtual clocks advanced by *measured* service times.
docs/serving.md gives each mechanism its one canonical section — the
request pipeline, dispatch, grouping, versioned weight publishes, collate
memoization, the latency model and multi-tenancy — and
docs/fault_tolerance.md the worker fault model (kills, flakes,
stragglers, retries, the circuit breaker, hedging and replacement).

Bit-identity
    Padded, batched, replayed predictions are **bit-identical** to eager
    per-request inference.  Replay-vs-eager equality is the compile
    module's existing contract; batching and padding preserve per-structure
    bits because every kernel in the inference path (including the
    derivative-force backward) is **row-stable** (docs/architecture.md,
    "Row-stable kernels").  The same property makes predictions
    independent of *grouping*, *ordering* and *which worker* serves them,
    which is what licenses cross-tier absorption, version-interleaved
    batches, weighted-fair reordering, retries and hedging.  The tests and
    the perf ledger's verify step check the end-to-end guarantee on models
    with non-trivial weights.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.graph.batching import (
    GraphBatch,
    collate,
    group_padded_targets,
    padding_overhead,
    workload_cost,
    workload_tier,
)
from repro.graph.crystal_graph import CrystalGraph, build_graph
from repro.model.chgnet import CHGNetModel
from repro.serve.faults import DeadlineExceeded, WorkerFailure, WorkerFaultPlan
from repro.serve.scheduler import Autoscaler, AutoscaleConfig, FairScheduler, plan_groups
from repro.serve.tenants import (
    DEFAULT_CLASS,
    DEFAULT_TENANT,
    ClassPolicy,
    TenantPolicy,
    TenantStats,
    counters,
    percentile,
    standard_classes,
)
from repro.structures.crystal import Crystal
from repro.tensor import no_grad
from repro.tensor.compile import InferenceCompiler, SharedProgramCache

#: Largest priced padding overhead a partial group may reach by absorbing
#: other tiers: a merge trades at most half a group of ghost rows for the
#: replay it saves.
MERGE_OVERHEAD_CAP = 0.5
#: Weight versions a publish keeps before pruning the oldest unpinned ones:
#: room for the current version, a queued pin and a publish in flight.
MAX_VERSIONS = 4
#: Virtual seconds priced onto a group's clock after its first failed
#: attempt, doubling per attempt: the order of one batch's service time.
RETRY_BACKOFF = 1e-3
#: Consecutive failures that trip a worker's circuit breaker: one may be a
#: flake, two in a row drain the worker from the rotation.
BREAKER_THRESHOLD = 2
#: Virtual seconds a tripped worker stays drained before half-open
#: re-admission: twenty default flush waits, so the rotation moves on but a
#: recovered worker still returns within a run.
BREAKER_COOLDOWN = 1.0


class EngineClosed(RuntimeError):
    """Raised when work is submitted to an engine after :meth:`shutdown`."""


class EngineOverloaded(RuntimeError):
    """Raised when a bounded engine sheds a request (``max_pending`` reached).

    The request is **not** enqueued; the caller owns retry policy.  Every
    shed is counted in :attr:`EngineStats.load_shed`.
    """


#: Sliding window of per-request latencies kept for p50/p95 reporting; a
#: long-lived engine (an MD calculator's persistent engine, a day-long
#: request loop) must not grow its stats with lifetime request count.
_LATENCY_WINDOW = 4096


@dataclass
class Prediction:
    """Served single-structure prediction (bit-equal to solo eager)."""

    request_id: int
    energy: float  # total, eV
    energy_per_atom: float
    forces: np.ndarray  # (n, 3)
    stress: np.ndarray  # (3, 3)
    magmom: np.ndarray  # (n,)
    worker: int = 0
    batch_structs: int = 1
    latency: float = 0.0  # modeled seconds from submit to batch completion
    version: int = 0  # weight version this prediction was served on


@dataclass
class EngineStats:
    """Aggregate serving counters (see :meth:`InferenceEngine.stats`)."""

    requests: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: publish_weights calls (the constructor's initial snapshot included)
    publishes: int = 0
    #: requests absorbed into another tier's group by the planner (every path)
    merges: int = 0
    #: dispatched batches that mixed more than one workload tier
    merged_batches: int = 0
    #: warm starts whose plan-and-seed fixpoint had not settled when it stopped
    warm_unsettled: int = 0
    collate_hits: int = 0
    collate_misses: int = 0
    #: requests rejected because the pending queue was at ``max_pending``
    load_shed: int = 0
    #: lockstep trajectory-farm rounds served via :meth:`InferenceEngine.predict_wave`
    waves: int = 0
    #: structures served across those waves
    wave_structs: int = 0
    #: summed raw workload cost of all dispatched structures
    raw_cost: int = field(default=0, metadata={"derived_only": True})
    #: summed priced workload cost of the padded batches serving them
    padded_cost: int = field(default=0, metadata={"derived_only": True})
    #: dispatches that discovered a dead/flaking worker (typed WorkerFailure)
    worker_failures: int = 0
    #: requests transparently re-queued after a worker failure
    retries: int = 0
    #: batches duplicated to a second worker (straggler hedging)
    hedges: int = 0
    #: hedged batches where the duplicate finished first
    hedge_wins: int = 0
    #: requests shed because their deadline passed while queued
    deadline_misses: int = 0
    #: dead workers replaced in place by a fresh replica
    worker_replacements: int = 0
    #: requests rejected at submit by a per-tenant pending quota
    quota_shed: int = 0
    #: requests shed terminally after exhausting worker-failure retries
    failed: int = 0
    #: workers added (or retired slots reactivated) by scale-out
    scale_outs: int = 0
    #: workers drained and retired by idle scale-in
    scale_ins: int = 0
    #: most recent per-request latencies (bounded sliding window)
    latencies: deque = field(default_factory=lambda: deque(maxlen=_LATENCY_WINDOW))
    #: per-request-class latency windows (same bound), for SLA reporting
    class_latencies: dict = field(default_factory=dict)
    #: per-tenant accounting blocks (see :class:`~repro.serve.tenants.TenantStats`)
    tenants: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Program-cache hit rate over all dispatched batches."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def padding_overhead(self) -> float:
        """Mean relative ghost-row overhead of dispatched batches (0 = none)."""
        return self.padded_cost / self.raw_cost - 1.0 if self.raw_cost else 0.0

    def tenant(self, name: str) -> TenantStats:
        """The accounting block for ``name`` (created on first touch)."""
        stats = self.tenants.get(name)
        if stats is None:
            stats = self.tenants[name] = TenantStats()
        return stats

    def record_class_latency(self, request_class: str, latency: float) -> None:
        """Append one completion to ``request_class``'s latency window."""
        window = self.class_latencies.get(request_class)
        if window is None:
            window = self.class_latencies[request_class] = deque(
                maxlen=_LATENCY_WINDOW
            )
        window.append(latency)

    def as_dict(self) -> dict:
        """Flat dict of every counter field plus derived rates (for benches/CLI)."""
        windows = sorted(self.class_latencies.items())
        return {
            **counters(self),
            "hit_rate": self.hit_rate,
            "padding_overhead": self.padding_overhead,
            "latency_p50": percentile(self.latencies, 50),
            "latency_p95": percentile(self.latencies, 95),
            "class_latency_p50": {name: percentile(w, 50) for name, w in windows},
            "class_latency_p95": {name: percentile(w, 95) for name, w in windows},
            "tenants": {
                name: stats.as_dict() for name, stats in sorted(self.tenants.items())
            },
        }


@dataclass
class _Pending:
    request_id: int
    graph: CrystalGraph
    submitted: float
    version: int
    dims: tuple[int, int, int, int]
    deadline: float | None = None  # absolute, on the engine's virtual clock
    retries: int = 0  # re-dispatches consumed after worker failures
    tenant: str = DEFAULT_TENANT
    cls: str = DEFAULT_CLASS
    wait: float = 0.0  # effective flush wait (the class's, else the engine's)
    cost: int = 0  # modeled workload cost (the fair scheduler's currency)
    tag: float = 0.0  # weighted-fair virtual start tag
    seq: int = 0  # arrival tie-break (FIFO within equal tags)


class InferenceEngine:
    """Dynamic-batching inference server over versioned model weights.

    Parameters
    ----------
    model:
        The source of truth for weights.  ``n_workers`` replicas serve the
        traffic; the source model itself is never evaluated by the engine,
        so a trainer may keep fine-tuning it while the engine serves —
        weights only reach the workers through published version snapshots
        (:meth:`publish_weights`; the constructor publishes version 0).
    n_workers:
        Simulated workers; batches go to the worker whose virtual clock
        frees up first.
    compile:
        Replay cached :class:`~repro.tensor.compile.InferenceCompiler`
        programs (tier-padded batches, shared cache).  ``False`` evaluates
        every batch eagerly without padding — with ``max_batch_structs=1``
        this is exactly the per-request eager baseline.
    max_batch_structs:
        Flush threshold per tier queue; also the micro-batch size
        :meth:`predict_many` packs.
    max_wait:
        Deadline (seconds, on the caller-supplied ``now`` clock) after
        which a partial tier queue is flushed by :meth:`poll`/:meth:`submit`.
    max_programs:
        LRU capacity of the worker-shared program cache.
    merge_tiers:
        Let deadline-flushed partial groups of the live queue absorb
        pending same-version requests from adjacent tiers, bounded by
        :data:`MERGE_OVERHEAD_CAP` (docs/serving.md, "Grouping").  The
        synchronous paths always plan with absorption on.
    memoize:
        LRU entries for engine-side collate memoization (``0`` disables).
        Micro-batches are cached by member-graph identity and built graphs
        by crystal identity, so recurring pools re-serve with zero
        re-concatenation.  Submitted objects must not be mutated afterwards.
    max_pending:
        Bound on the pending-request queue (``0`` = unbounded).  A submit
        that would exceed it is **shed**: the request is rejected with
        :class:`EngineOverloaded`, counted in ``stats.load_shed``, and the
        engine keeps serving — honest backpressure instead of an unbounded
        queue hiding an overload.
    fault_plan:
        :class:`~repro.serve.faults.WorkerFaultPlan` injecting worker
        kills/flakes/stragglers at dispatch time; ``None`` holds an empty
        plan, the fault-free engine.
    max_retries:
        Re-dispatches a request may consume after worker failures before
        it is shed with a terminal :class:`~repro.serve.faults.WorkerFailure`.
    hedge:
        Duplicate batches stuck behind a straggling worker (known plan
        skew, or queue delay beyond ``max_wait``) onto the idlest healthy
        worker, keeping the first modeled completion.  Both workers'
        clocks advance — hedging buys latency with duplicate work,
        honestly priced.  Safe: replays are bit-identical, so the winner's
        bits equal the loser's.
    replace_workers:
        Replace a worker discovered *dead* (killed, not merely flaking)
        with a fresh replica + compiler on the shared program cache,
        mirroring :func:`repro.train.run_elastic`'s replace-recovery; the
        replacement installs whatever version its next batch is pinned
        to.  ``False`` drains dead workers permanently.
    tenants:
        Tenant policies (:class:`~repro.serve.tenants.TenantPolicy` list,
        or a ``name -> policy`` dict): fair-share weights and per-tenant
        pending quotas.  Declaring them closes the tenant world — a submit
        naming an undeclared tenant is rejected with ``ValueError``, while
        unlabeled traffic joins the default tenant at weight 1 — and
        dispatches each queue in weighted-fair (start-tag) order; with one
        tenant and one class that order *is* FIFO, bit-for-bit.  ``None``
        leaves the world open (any label auto-registers at weight 1) and
        the queues FIFO.
    classes:
        Request-class policies (``name -> ClassPolicy``); ``None``
        installs the stock ``interactive``/``bulk`` pair
        (:func:`~repro.serve.tenants.standard_classes`).  The default
        class (``bulk``) always behaves exactly like the pre-tenancy
        engine: global ``max_wait``, no default deadline.
    paced:
        Hold queued work until a worker's virtual clock is actually free
        (discrete-event dispatch, global weighted-fair order) instead of
        dispatching every ready group immediately.  This is what gives
        fair ordering leverage under backlog — later interactive arrivals
        overtake queued bulk work — and makes the SLA signal honest.
        ``flush()`` (and therefore ``shutdown()``) still force-drains
        everything.
    autoscale:
        :class:`~repro.serve.scheduler.AutoscaleConfig` enabling
        load-driven elasticity: scale out on sustained watched-class p95
        SLA breach, drain-and-retire when idle.  New workers are fresh
        replicas on the shared program cache — zero recaptures.
    """

    def __init__(
        self,
        model: CHGNetModel,
        n_workers: int = 1,
        compile: bool = True,
        max_batch_structs: int = 8,
        max_wait: float = 0.05,
        max_programs: int = 16,
        merge_tiers: bool = False,
        memoize: int = 0,
        max_pending: int = 0,
        fault_plan: WorkerFaultPlan | None = None,
        max_retries: int = 2,
        hedge: bool = False,
        replace_workers: bool = False,
        tenants: list[TenantPolicy] | dict[str, TenantPolicy] | None = None,
        classes: dict[str, ClassPolicy] | None = None,
        paced: bool = False,
        autoscale: AutoscaleConfig | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_batch_structs < 1:
            raise ValueError(f"max_batch_structs must be >= 1, got {max_batch_structs}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be non-negative, got {max_wait}")
        if memoize < 0:
            raise ValueError(f"memoize must be non-negative, got {memoize}")
        if max_pending < 0:
            raise ValueError(f"max_pending must be non-negative, got {max_pending}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        self.model = model
        self.config = model.config
        self.n_workers = n_workers
        self.max_batch_structs = max_batch_structs
        self.max_wait = max_wait
        self.merge_tiers = merge_tiers
        self.memoize = int(memoize)
        self.max_pending = int(max_pending)
        self.fault_plan = WorkerFaultPlan() if fault_plan is None else fault_plan
        self.max_retries = int(max_retries)
        self.hedge = hedge
        self.replace_workers = replace_workers
        if isinstance(tenants, dict):
            tenant_policies = dict(tenants)
        elif tenants is not None:
            tenant_policies = {p.name: p for p in tenants}
            if len(tenant_policies) != len(tenants):
                raise ValueError("duplicate tenant names in tenants")
        else:
            tenant_policies = None
        # Declared tenants: a closed tenant world and weighted-fair order.
        self.fair = tenant_policies is not None
        self.tenants: dict[str, TenantPolicy] = tenant_policies or {}
        for policy in self.tenants.values():
            policy.validate()
        self.classes: dict[str, ClassPolicy] = (
            standard_classes(self.max_wait) if classes is None else dict(classes)
        )
        for policy in self.classes.values():
            policy.validate()
        self.classes.setdefault(DEFAULT_CLASS, ClassPolicy(DEFAULT_CLASS))
        self.paced = bool(paced)
        self.scheduler = FairScheduler(
            {name: p.weight for name, p in self.tenants.items()}
        )
        self.autoscaler = Autoscaler(autoscale) if autoscale is not None else None
        self._tenant_pending: dict[str, int] = {}
        self._closed = False
        self.workers: list[CHGNetModel] = [
            CHGNetModel(model.config, np.random.default_rng(w))
            for w in range(n_workers)
        ]
        self._worker_params = [replica.parameters() for replica in self.workers]
        self._worker_version = [-1] * n_workers
        self.cache: SharedProgramCache | None = None
        self.compilers: list[InferenceCompiler] | None = None
        if compile:
            self.cache = SharedProgramCache(max_programs)
            self.compilers = [
                InferenceCompiler(worker, cache=self.cache) for worker in self.workers
            ]
        self.stats = EngineStats()
        self._worker_free = [0.0] * n_workers
        # Fault-tolerance state: global dispatch-attempt counter (the fault
        # plan's key), the set of actually-dead workers (plan truth, only
        # *discovered* by dispatching to one), and the engine's health view.
        self._dispatches = 0
        self._dead: set[int] = set()
        self._consec_failures = [0] * n_workers
        self._drained_until: list[float | None] = [None] * n_workers
        # Elastic fleet: retired workers stay in place (indices are stable
        # for fault plans and stats) but leave the dispatch rotation.
        self._retired = [False] * n_workers
        # (version, tier) -> FIFO of pending requests
        self._queues: dict[tuple[int, int], list[_Pending]] = {}
        self._results: dict[int, Prediction] = {}
        # request id -> terminal typed failure, raised (once) by poll()
        self._failed: dict[int, Exception] = {}
        self._next_id = 0
        self._now = 0.0
        self._collate_cache: OrderedDict[tuple, tuple[list, GraphBatch]] = OrderedDict()
        self._graph_cache: OrderedDict[int, tuple[Crystal, CrystalGraph]] = OrderedDict()
        # version id -> parameter arrays aligned with model.parameters() order
        self._versions: OrderedDict[int, list[np.ndarray]] = OrderedDict()
        self._next_version = 0
        self.current_version = -1
        self.publish_weights()

    # ------------------------------------------------------------ weight sync
    def publish_weights(
        self, state: dict[str, np.ndarray] | None = None, version: int | None = None
    ) -> int:
        """Register a new weight version and make it current; returns its id.

        ``state`` is a ``name -> array`` state dict (validated against the
        model's parameter names/shapes); ``None`` snapshots the source
        model's current weights — the hook a live trainer uses at epoch end
        (:class:`repro.train.ServingTrainer`).  ``version`` picks an
        explicit id (must be unused); ``None`` auto-increments.

        Publishing is **copy-on-write** with respect to the workers: the
        snapshot is one array copy into the registry, worker replicas
        rebind to it lazily (by reference) when they next serve a batch
        pinned to it, and cached programs never recapture — their
        signatures contain no weights, and replays rebind parameters on
        every call.  Requests already queued stay pinned to the version
        they were submitted under.
        """
        if state is None:
            arrays = [p.data.copy() for p in self.model.parameters()]
        else:
            arrays = self.workers[0].aligned_state(state)
        if len(arrays) != len(self._worker_params[0]):
            raise ValueError(
                f"{len(arrays)} parameter arrays for "
                f"{len(self._worker_params[0])} worker parameters"
            )
        if version is None:
            version = self._next_version
        elif int(version) < 0:
            # Negative ids are reserved (the workers' "nothing installed"
            # sentinel is -1).
            raise ValueError(f"version must be non-negative, got {version}")
        elif int(version) in self._versions:
            raise ValueError(f"version {version} already published")
        version = int(version)
        self._next_version = max(self._next_version, version) + 1
        self._versions[version] = arrays
        self.current_version = version
        self.stats.publishes += 1
        self._prune_versions()
        return version

    @property
    def versions(self) -> list[int]:
        """Ids of the currently retained weight versions (oldest first)."""
        return list(self._versions)

    def _prune_versions(self) -> None:
        if len(self._versions) <= MAX_VERSIONS:
            return
        pinned = {version for version, _tier in self._queues}
        pinned.add(self.current_version)
        pinned.update(v for v in self._worker_version if v >= 0)
        for v in list(self._versions):
            if len(self._versions) <= MAX_VERSIONS:
                break
            if v not in pinned:
                del self._versions[v]

    def _ensure_version(self, worker: int, version: int) -> None:
        """Install ``version``'s arrays on ``worker`` (by reference) if stale."""
        if self._worker_version[worker] == version:
            return
        arrays = self._versions.get(version)
        if arrays is None:
            raise RuntimeError(f"weight version {version} evicted while in flight")
        # Zero-copy rebinding: registry arrays are private snapshots and
        # workers never write parameter data in place, so replicas (and the
        # compiled programs bound through them) can share them directly.
        for p, arr in zip(self._worker_params[worker], arrays):
            p.data = arr
        self._worker_version[worker] = version

    # ------------------------------------------------------------- submission
    @staticmethod
    def _validate_item(item: Crystal | CrystalGraph) -> None:
        """Reject poisoned inputs before they reach a batch.

        A NaN/inf coordinate would propagate through every structure
        collated alongside it; failing the one bad request here keeps the
        engine (and its neighbours in the batch) healthy.
        """
        if isinstance(item, Crystal):
            if not np.all(np.isfinite(item.lattice.matrix)):
                raise ValueError("crystal lattice contains non-finite values")
            if not np.all(np.isfinite(item.frac_coords)):
                raise ValueError("crystal coordinates contain non-finite values")

    def _graph_of(self, item: Crystal | CrystalGraph) -> CrystalGraph:
        self._validate_item(item)
        if isinstance(item, CrystalGraph):
            return item
        if self.memoize:
            entry = self._graph_cache.get(id(item))
            if entry is not None and entry[0] is item:
                self._graph_cache.move_to_end(id(item))
                return entry[1]
        graph = build_graph(item, self.config.cutoff_atom, self.config.cutoff_bond)
        if self.memoize:
            self._graph_cache[id(item)] = (item, graph)
            if len(self._graph_cache) > self.memoize * self.max_batch_structs:
                self._graph_cache.popitem(last=False)
        return graph

    def _resolve_tenant(self, tenant: str | None) -> TenantPolicy:
        """The policy for ``tenant``, auto-registering in an open world.

        With declared ``tenants`` the world is closed: unknown names are a
        caller bug (``ValueError``), not a shed.  Without declarations any
        label is admitted at weight 1 with no quota — and so is the
        default tenant of unlabeled traffic (the synchronous paths) on a
        closed world.
        """
        name = DEFAULT_TENANT if tenant is None else tenant
        policy = self.tenants.get(name)
        if policy is None:
            if self.fair and name != DEFAULT_TENANT:
                raise ValueError(f"tenant {name!r} is not declared on this engine")
            policy = self.tenants[name] = TenantPolicy(name)
            self.scheduler.register(name, policy.weight)
        return policy

    def _resolve_class(self, request_class: str | None) -> ClassPolicy:
        """The policy for ``request_class`` (default class when ``None``)."""
        name = DEFAULT_CLASS if request_class is None else request_class
        policy = self.classes.get(name)
        if policy is None:
            raise ValueError(
                f"request class {name!r} is not declared on this engine "
                f"(have {sorted(self.classes)})"
            )
        return policy

    def submit(
        self,
        item: Crystal | CrystalGraph,
        now: float | None = None,
        version: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        request_class: str | None = None,
    ) -> int:
        """Enqueue one structure; returns its request id.

        The request is pinned to ``version`` (default: the current one) and
        is served on exactly those weights even if newer versions are
        published while it waits.  Full tier queues flush immediately
        (when a worker is free, on a ``paced`` engine); partial queues
        wait for more same-tier work until the request class's flush wait
        (default: the engine's ``max_wait``) passes on the ``now`` clock.

        ``tenant`` names the submitting tenant: the request is stamped
        with the tenant's weighted-fair start tag and counted against its
        pending quota and :class:`~repro.serve.tenants.TenantStats` block.
        ``request_class`` picks the latency class (``interactive`` /
        ``bulk`` by default); a class may carry a shorter flush wait and
        a default deadline.

        ``deadline`` is a relative budget in virtual seconds (default:
        the class's): a request still *queued* when ``now`` passes
        ``submit-time + deadline`` is shed (counted in
        ``stats.deadline_misses``) and its :meth:`poll` raises
        :class:`~repro.serve.faults.DeadlineExceeded` — nobody is
        waiting for a late answer, so no worker time is burned on one.
        A request already dispatched always completes.

        Raises :class:`EngineClosed` after :meth:`shutdown`,
        :class:`EngineOverloaded` when the global queue bound or the
        tenant's quota is full (the shed is counted, nothing is
        enqueued), and ``ValueError`` for undeclared tenants/classes and
        structures with non-finite coordinates (one poisoned request
        fails without touching anything already queued).
        """
        admitted = self._admit(now, version, deadline, tenant, request_class)
        request_id = self._enqueue(self._graph_of(item), *admitted)
        self._flush_ready(admitted[0])
        return request_id

    def _admit(
        self,
        now: float | None = None,
        version: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        request_class: str | None = None,
    ) -> tuple[float, int, float | None, TenantPolicy, ClassPolicy]:
        """Admission half of :meth:`submit`: everything decided before the
        structure itself is looked at.  Raises as :meth:`submit` documents;
        returns the resolved ``(now, version, deadline, tenant, class)``.
        """
        if self._closed:
            raise EngineClosed("engine is shut down; submit rejected")
        policy = self._resolve_tenant(tenant)
        cls = self._resolve_class(request_class)
        tenant_stats = self.stats.tenant(policy.name)
        if self.max_pending and self.pending >= self.max_pending:
            self.stats.load_shed += 1
            tenant_stats.shed += 1
            raise EngineOverloaded(
                f"pending queue full ({self.pending}/{self.max_pending}); request shed"
            )
        tenant_pending = self._tenant_pending.get(policy.name, 0)
        if policy.max_pending and tenant_pending >= policy.max_pending:
            self.stats.quota_shed += 1
            tenant_stats.shed += 1
            raise EngineOverloaded(
                f"tenant {policy.name!r} quota full "
                f"({tenant_pending}/{policy.max_pending}); request shed"
            )
        if deadline is None:
            deadline = cls.deadline
        elif deadline < 0:
            raise ValueError(f"deadline must be non-negative, got {deadline}")
        now = self._advance(now)
        if version is None:
            version = self.current_version
        elif version not in self._versions:
            raise ValueError(f"version {version!r} is not published")
        return now, version, deadline, policy, cls

    def _enqueue(
        self,
        graph: CrystalGraph,
        now: float,
        version: int,
        deadline: float | None,
        policy: TenantPolicy,
        cls: ClassPolicy,
    ) -> int:
        """Queue an admitted, already validated and resolved graph; returns its id.

        Nothing is dispatched here: :meth:`submit` follows with the ready
        scan, :meth:`predict_many` enqueues its whole set (graphs it
        resolved itself, so no item is validated or built twice) and then
        plans it in one flush.
        """
        dims = (
            graph.num_atoms,
            graph.num_edges,
            graph.num_short_edges,
            graph.num_angles,
        )
        request_id = self._next_id
        self._next_id += 1
        self.stats.requests += 1
        self.stats.tenant(policy.name).submitted += 1
        self._tenant_pending[policy.name] = self._tenant_pending.get(policy.name, 0) + 1
        cost = workload_cost(*dims)
        if self.fair:
            tag, seq = self.scheduler.tag(policy.name, cost)
        else:
            tag, seq = 0.0, request_id
        pending = _Pending(
            request_id,
            graph,
            now,
            version,
            dims,
            deadline=None if deadline is None else now + float(deadline),
            tenant=policy.name,
            cls=cls.name,
            wait=self.max_wait if cls.max_wait is None else cls.max_wait,
            cost=cost,
            tag=tag,
            seq=seq,
        )
        queue = self._queues.setdefault((version, workload_tier(dims)), [])
        # Keep the queue in (tag, seq) dispatch order.  FIFO requests carry
        # their arrival as seq and single-tenant fair tags are
        # nondecreasing, so both insert at the end — exactly the append of
        # the pre-tenancy engine.
        i = len(queue)
        while i > 0 and (queue[i - 1].tag, queue[i - 1].seq) > (tag, seq):
            i -= 1
        queue.insert(i, pending)
        return request_id

    def poll(self, request_id: int, now: float | None = None) -> Prediction | None:
        """The finished prediction for ``request_id``, or ``None`` if pending.

        Polling advances the deadline clock: any tier queue whose oldest
        request has waited ``max_wait`` is flushed as a partial batch, so a
        trickle of traffic is served within a bounded delay instead of
        waiting forever for a full batch.

        A request that terminally failed raises its typed error (once):
        :class:`~repro.serve.faults.DeadlineExceeded` if its deadline
        passed while it was queued,
        :class:`~repro.serve.faults.WorkerFailure` if every retry was shed.
        """
        now = self._advance(now)
        self._flush_ready(now)
        failure = self._failed.pop(request_id, None)
        if failure is not None:
            raise failure
        return self._results.pop(request_id, None)

    def flush(self, now: float | None = None, merge: bool | None = None) -> int:
        """Dispatch every queued request regardless of batch size/deadline.

        Everything queued is planned over the whole set
        (:func:`~repro.serve.scheduler.plan_groups`); ``merge`` controls
        whether partial tail groups absorb adjacent-tier requests
        (default: the engine's ``merge_tiers`` setting).  Returns the
        number of batches dispatched.  On a ``paced`` engine the
        force-drain dispatches in global weighted-fair order (smallest
        start tag first across every queue) rather than per-key FIFO, so
        the backlog's modeled latencies still respect tenant shares.
        """
        now = self._advance(now)
        merge = self.merge_tiers if merge is None else merge
        return self._dispatch_ready(now, merge, force=True)

    def shutdown(self, flush: bool = True) -> int:
        """Stop accepting work; idempotent.  Returns batches dispatched.

        ``flush=True`` (default) drains everything still queued so no
        accepted request is lost; finished results stay pollable after
        shutdown.  Further :meth:`submit`/:meth:`predict_many` calls raise
        :class:`EngineClosed`.
        """
        if self._closed:
            return 0
        dispatched = self.flush() if flush else 0
        self._closed = True
        return dispatched

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        return self._closed

    @property
    def pending(self) -> int:
        """Number of submitted requests not yet dispatched in a batch."""
        return sum(len(q) for q in self._queues.values())

    def _advance(self, now: float | None) -> float:
        if now is not None:
            self._now = max(self._now, float(now))
        return self._now

    def _flush_ready(self, now: float) -> None:
        """One ready scan (every submit and poll): autoscale, then dispatch
        whatever is ready."""
        if self.autoscaler is not None:
            self.autoscaler.scan(self, now)
        self._dispatch_ready(now, self.merge_tiers, force=False)

    def _dispatch_ready(self, now: float, merge: bool, force: bool) -> int:
        """The engine's one dispatch loop; returns the number of batches.

        Sheds expired requests, then repeats: pick the ready ``(version,
        tier)`` key — a full group, a member whose flush wait expired, or
        ``force`` — with the smallest rank; plan its next group over its
        version's tiers (:func:`~repro.serve.scheduler.plan_groups` with
        ``order=(tier,)``, absorbing other tiers when ``merge``); dispatch.
        Unpaced, the rank is the key itself (versions, then tiers,
        ascending); paced, it is the head's ``(tag, seq)`` — global
        weighted-fair order — and a scan that is not forced stops once no
        worker is idle at ``now``.  Each group is planned after the previous
        dispatch, so it is priced against the canonical shapes that
        dispatch left.
        """
        for key in list(self._queues):
            self._set_queue(key, self._shed_expired(self._queues[key], now))
        cap = self.max_batch_structs
        fits = self._fits if merge else None
        n = 0
        while force or not self.paced or self._idle_worker(now):
            best = best_rank = None
            for key, queue in self._queues.items():
                if (
                    force
                    or len(queue) >= cap
                    or any(now - p.submitted >= p.wait for p in queue)
                ):
                    rank = (queue[0].tag, queue[0].seq) if self.paced else key
                    if best is None or rank < best_rank:
                        best, best_rank = key, rank
            if best is None:
                break
            version, tier = best
            tiers = {t: q for (v, t), q in self._queues.items() if v == version}
            group = next(plan_groups(tiers, cap, fits, order=(tier,)))
            self._dispatch(self._take(version, group), now)
            n += 1
        return n

    def _take(
        self, version: int, group: list[tuple[int, _Pending]]
    ) -> list[_Pending]:
        """Remove a planned group from the live queues; returns its requests.

        The planner consumes every tier from the front, so a group's
        members are the heads of their queues.  Members from another tier
        than the group's home (first) tier are counted as merges.
        """
        counts: dict[int, int] = {}
        for tier, _ in group:
            counts[tier] = counts.get(tier, 0) + 1
        for tier, n in counts.items():
            key = (version, tier)
            self._set_queue(key, self._queues[key][n:])
        self.stats.merges += len(group) - counts[group[0][0]]
        return [pending for _, pending in group]

    def _set_queue(self, key: tuple[int, int], queue: list[_Pending]) -> list[_Pending]:
        """Store ``key``'s queue, reclaiming the key once it is empty.

        ``_queues`` holds live (non-empty) queues only, so every scan over
        it — each submit and poll runs one — costs O(queued keys), not
        O(every ``(version, tier)`` ever seen).  Returns ``queue``.
        """
        if queue:
            self._queues[key] = queue
        else:
            self._queues.pop(key, None)
        return queue

    def _shed_expired(self, queue: list[_Pending], now: float) -> list[_Pending]:
        """Drop queued requests whose deadline has passed; returns survivors.

        Each miss is counted and recorded as a typed
        :class:`~repro.serve.faults.DeadlineExceeded` for :meth:`poll` to
        raise.  Only *queued* requests can miss — once dispatched, a
        request always completes.
        """
        kept = []
        for pending in queue:
            if pending.deadline is not None and now > pending.deadline:
                self.stats.deadline_misses += 1
                self.stats.tenant(pending.tenant).expired += 1
                self._tenant_pending[pending.tenant] -= 1
                self._failed[pending.request_id] = DeadlineExceeded(
                    pending.request_id, pending.deadline, now
                )
            else:
                kept.append(pending)
        return kept

    def _idle_worker(self, now: float) -> bool:
        """Whether the rotation worker that frees first is free at ``now``."""
        worker = self._pick_worker(now)
        return worker is not None and self._worker_free[worker] <= now

    # ------------------------------------------------------- adaptive merging
    def _canonical_seeds(self, dims_list: list[tuple]) -> tuple:
        """Seed shapes for pricing a group's padding (estimate).

        The shared canonical tier entry the compilers have grown so far for
        the group's prospective batch tier, so the price reflects the shape
        the batch will actually be padded to (up to canonical growth caused
        by the batch itself).
        """
        if self.cache is None:
            return ()
        summed = tuple(map(sum, zip(*dims_list)))
        stored = self.cache.canonical.get(
            (len(dims_list) + 1, False, workload_tier(summed))
        )
        return () if stored is None else (stored,)

    def _affordable(self, dims_list: list[tuple]) -> bool:
        """The planner's price test: padding overhead within :data:`MERGE_OVERHEAD_CAP`."""
        if self.compilers is None:
            return True  # eager batches are never padded
        overhead = padding_overhead(dims_list, seeds=self._canonical_seeds(dims_list))
        return overhead <= MERGE_OVERHEAD_CAP

    def _fits(self, members: list[_Pending]) -> bool:
        """:meth:`_affordable` on live requests."""
        return self._affordable([p.dims for p in members])

    # ------------------------------------------------------------ synchronous
    def predict_many(
        self, items: list[Crystal | CrystalGraph]
    ) -> list[Prediction]:
        """Predict all items, grouped over the whole set; order follows inputs.

        All requests are treated as submitted at the engine's current
        virtual time and pinned to the current weight version.  The caller
        waits for every result anyway, so there is no latency to protect:
        the set is enqueued as a whole and flushed **planned over the whole
        set** — full per-tier groups, then partial tails absorbing adjacent
        tiers under :data:`MERGE_OVERHEAD_CAP`, whatever ``merge_tiers``
        says (docs/serving.md, "Grouping").  Deterministic; leaves nothing
        queued — a terminal failure is raised only after every request of
        the set has been collected.
        """
        if self._closed:
            raise EngineClosed("engine is shut down; predict_many rejected")
        graphs = [self._graph_of(item) for item in items]
        if self.compilers is not None:
            self._warm_start(graphs, merge=True)
        # A synchronous wave arrives after all previously dispatched work
        # finished; rebasing the clock keeps its latencies self-contained.
        self._now = max(self._now, self.makespan())
        ids = [self._enqueue(g, *self._admit()) for g in graphs]
        self.flush(merge=True)
        outcomes = [(self._failed.pop(i, None), self._results.pop(i, None)) for i in ids]
        for failure, _ in outcomes:
            if failure is not None:
                raise failure
        return [prediction for _, prediction in outcomes]

    def predict_wave(self, items: list[Crystal | CrystalGraph]) -> list[Prediction]:
        """One lockstep wave of a trajectory farm; order follows inputs.

        Identical to :meth:`predict_many` (planned over the whole set,
        current version, nothing left queued) but counted as a wave in
        :attr:`EngineStats.waves`/``wave_structs``, so farm throughput and
        wave shrinkage show up in :meth:`snapshot`.
        """
        predictions = self.predict_many(items)
        self.stats.waves += 1
        self.stats.wave_structs += len(items)
        return predictions

    def warm_start(self, items: list[Crystal | CrystalGraph]) -> int:
        """Seed canonical tier shapes from a known upcoming stream.

        Async callers that know their stream up front (the CLI's queue
        driver, screening loops) can pre-size tier shapes the way
        :meth:`predict_many` does implicitly: the grouping a :meth:`flush`
        of this stream would perform is planned over the whole set by the
        same planner (absorbing across tiers iff ``merge_tiers``), so
        first-pass captures happen once per group shape instead of
        recompiling as canonical shapes grow.  Returns the number of tier
        groups seeded (0 on an eager engine).
        """
        if self.compilers is None:
            return 0
        return self._warm_start(
            [self._graph_of(item) for item in items], merge=self.merge_tiers
        )

    def _warm_start(self, graphs: list[CrystalGraph], merge: bool) -> int:
        """Pre-size canonical tier shapes from the planned micro-batches.

        :func:`~repro.serve.scheduler.plan_groups` is run on the stream's
        dims ahead of submission — the very code the flush will run — so
        every group's canonical shape is known before the first capture:
        one capture per group shape for the whole stream, exactly like the
        trainers' warm start.

        Absorption prices padding against the canonical shapes this very
        seeding creates, so with ``merge`` the plan-and-seed loop runs to a
        fixpoint (canonical entries only grow; one extra pass usually
        settles it).  A stream that is still moving after four passes is
        served anyway — later captures just re-grow shapes live — and
        counted in ``stats.warm_unsettled``.
        """
        tiers: dict[int, list[tuple[int, int, int, int]]] = {}
        for g in graphs:
            dims = (g.num_atoms, g.num_edges, g.num_short_edges, g.num_angles)
            tiers.setdefault(workload_tier(dims), []).append(dims)
        fits = self._affordable if merge else None
        for _ in range(4):
            entries = [
                self._group_entry([dims for _, dims in group])
                for group in plan_groups(tiers, self.max_batch_structs, fits)
            ]
            before = dict(self.cache.canonical)
            # The canonical dict is shared through the cache: seeding one
            # compiler seeds them all.
            seeded = self.compilers[0].warm_start(entries)
            if not merge or self.cache.canonical == before:
                return seeded
        self.stats.warm_unsettled += 1
        return seeded

    @staticmethod
    def _group_entry(
        dims: list[tuple[int, int, int, int]]
    ) -> tuple[int, bool, tuple[int, int, int, int]]:
        return (len(dims), False, tuple(map(sum, zip(*dims))))

    # -------------------------------------------------------------- dispatch
    def _collate_group(self, graphs: list[CrystalGraph]) -> GraphBatch:
        """Collate a group, through the identity-keyed LRU when memoizing.

        A hit returns the previously assembled :class:`GraphBatch` object —
        including its pad/aux caches, so the compiled step binds and
        replays with zero re-concatenation.  Strong references to the
        member graphs are held alongside the batch to keep the id key
        valid.
        """
        if not self.memoize:
            return collate(graphs)
        key = tuple(id(g) for g in graphs)
        entry = self._collate_cache.get(key)
        if entry is not None:
            self._collate_cache.move_to_end(key)
            self.stats.collate_hits += 1
            return entry[1]
        batch = collate(graphs)
        self.stats.collate_misses += 1
        self._collate_cache[key] = (list(graphs), batch)
        if len(self._collate_cache) > self.memoize:
            self._collate_cache.popitem(last=False)
        return batch

    def _eval_batch(self, worker: int, batch: GraphBatch) -> dict[str, np.ndarray]:
        if self.compilers is not None:
            return self.compilers[worker].run(batch)
        model = self.workers[worker]
        if model.config.use_heads:
            with no_grad():
                output = model.forward(batch, training=False)
        else:
            output = model.forward(batch, training=False)
        return {
            "energy": output.energy_per_atom.data,
            "forces": output.forces.data,
            "stress": output.stress.data,
            "magmom": output.magmom.data,
        }

    def _pick_worker(self, now: float, exclude: int | None = None) -> int | None:
        """Believed-healthy worker whose virtual clock frees first, or ``None``.

        Skips workers drained by the circuit breaker whose cooldown has not
        elapsed; a worker whose cooldown *has* elapsed is re-admitted
        half-open (one more failure re-trips the breaker immediately).
        Ties break to the lowest index, matching the fault-free argmin, so
        an engine with no fault plan schedules bit-for-bit identically.
        """
        best = None
        for w in range(self.n_workers):
            if w == exclude or self._retired[w]:
                continue
            until = self._drained_until[w]
            if until is not None:
                if until > now:
                    continue
                self._drained_until[w] = None
                self._consec_failures[w] = max(0, BREAKER_THRESHOLD - 1)
            if best is None or self._worker_free[w] < self._worker_free[best]:
                best = w
        return best

    def _replace_worker(self, worker: int, now: float) -> None:
        """Swap a dead worker for a fresh replica on the shared cache.

        Like :func:`repro.train.run_elastic`'s replace-recovery, the
        replacement joins the rotation immediately with nothing installed
        (version sentinel ``-1``), so its first batch installs whatever
        version that batch is pinned to — not merely the current one.
        Cached programs survive: they are keyed by batch shape and rebind
        parameters on every replay.
        """
        self.workers[worker] = CHGNetModel(
            self.model.config, np.random.default_rng(worker)
        )
        self._worker_params[worker] = self.workers[worker].parameters()
        self._worker_version[worker] = -1
        if self.compilers is not None:
            self.compilers[worker] = InferenceCompiler(
                self.workers[worker], cache=self.cache
            )
        self._dead.discard(worker)
        self._consec_failures[worker] = 0
        self._drained_until[worker] = None
        self._retired[worker] = False
        self._worker_free[worker] = max(self._worker_free[worker], now)
        self.stats.worker_replacements += 1

    # ------------------------------------------------------------- elasticity
    @property
    def fleet_size(self) -> int:
        """Workers in (or admissible to) the dispatch rotation.

        Retired workers and permanently drained dead ones don't count;
        breaker-tripped workers do (they re-admit after cooldown).
        """
        return sum(
            1
            for w in range(self.n_workers)
            if not self._retired[w] and self._drained_until[w] != float("inf")
        )

    def fleet_idle(self, now: float) -> bool:
        """Whether every active worker's virtual clock is at or behind ``now``."""
        return all(
            self._worker_free[w] <= now
            for w in range(self.n_workers)
            if not self._retired[w] and self._drained_until[w] != float("inf")
        )

    def add_worker(self, now: float | None = None) -> int:
        """Scale out by one worker; returns its index.

        A retired slot is reactivated first (its replica and compiler are
        still warm); otherwise a fresh replica joins on the shared
        program cache — programs are keyed by batch shape and rebind
        parameters per replay, so growing the fleet captures **nothing**.
        The new worker installs whatever version its first batch is
        pinned to (sentinel ``-1``), mirroring :meth:`_replace_worker`.
        """
        now = self._advance(now)
        for w in range(self.n_workers):
            if self._retired[w] and w not in self._dead:
                self._retired[w] = False
                self._consec_failures[w] = 0
                self._drained_until[w] = None
                self._worker_free[w] = max(self._worker_free[w], now)
                self.stats.scale_outs += 1
                return w
        w = self.n_workers
        replica = CHGNetModel(self.model.config, np.random.default_rng(w))
        self.workers.append(replica)
        self._worker_params.append(replica.parameters())
        self._worker_version.append(-1)
        self._worker_free.append(now)
        self._consec_failures.append(0)
        self._drained_until.append(None)
        self._retired.append(False)
        if self.compilers is not None:
            self.compilers.append(InferenceCompiler(replica, cache=self.cache))
        self.n_workers += 1
        self.stats.scale_outs += 1
        return w

    def retire_worker(self, worker: int | None = None) -> int | None:
        """Drain-and-retire one worker; returns its index (``None`` if not
        possible).

        The worker leaves the dispatch rotation immediately — modeled
        work already on its virtual clock finishes (dispatched batches
        always complete) and nothing new lands on it.  Its replica stays
        in place so a later :meth:`add_worker` can reactivate the slot
        (indices stay stable for fault plans and per-worker stats).  The
        last active worker is never retired; an index outside
        ``[0, n_workers)`` raises ``ValueError``.
        """
        if worker is not None and not 0 <= worker < self.n_workers:
            raise ValueError(
                f"worker {worker} out of range for {self.n_workers} workers"
            )
        if worker is None:
            candidates = [
                w
                for w in reversed(range(self.n_workers))
                if not self._retired[w]
                and w not in self._dead
                and self._drained_until[w] != float("inf")
            ]
            worker = candidates[0] if candidates else None
        if worker is None or self._retired[worker] or self.fleet_size <= 1:
            return None
        self._retired[worker] = True
        self.stats.scale_ins += 1
        return worker

    def _dispatch(self, group: list[_Pending], now: float) -> None:
        """Serve one collated group, surviving planned worker faults.

        The fault-free path is unchanged: one dispatch to the worker whose
        virtual clock frees first.  Under a fault plan a dispatch may
        instead *discover* a killed or flaking worker — a typed
        :class:`~repro.serve.faults.WorkerFailure` before any result is
        written — after which the whole group re-queues onto the surviving
        rotation with exponential backoff priced on the virtual clock,
        shedding only requests that exhausted ``max_retries``.
        """
        version = group[0].version
        for pending in group:
            self._tenant_pending[pending.tenant] -= 1
        # Advance virtual time to the *head's* start tag — the tag the
        # dispatch decision was made on.  Companions sliced from the same
        # queue to fill the batch may carry much higher tags; advancing
        # past them would catapult the clock ahead of the whole backlog and
        # tag later light-tenant arrivals behind it.  (FIFO tags are all 0.)
        self.scheduler.advance(min(p.tag for p in group))
        attempt = 0
        while group:
            dispatch = self._dispatches
            self._dispatches += 1
            self._dead.update(self.fault_plan.take_kills(dispatch))
            worker = self._pick_worker(now)
            if worker is None:
                # The whole rotation is drained; wait out the earliest
                # finite cooldown on the virtual clock.
                wake = min(
                    (u for u in self._drained_until if u is not None and u != float("inf")),
                    default=None,
                )
                if wake is None and any(
                    self._retired[w] and w not in self._dead
                    for w in range(self.n_workers)
                ):
                    # Every active worker is gone but a healthy retired
                    # slot remains — an emergency scale-out beats a
                    # terminal shed (the autoscaler composing with a
                    # fault plan can hit exactly this corner).
                    self.add_worker(now)
                    worker = self._pick_worker(now)
                elif wake is None:
                    # Every worker is permanently dead and irreplaceable.
                    for pending in group:
                        self._fail(pending, -1, dispatch)
                    return
                else:
                    now = max(now, wake)
                    worker = self._pick_worker(now)
            failed = worker in self._dead or self.fault_plan.take_flake(worker, dispatch)
            if failed:
                self.stats.worker_failures += 1
                self._consec_failures[worker] += 1
                if worker in self._dead:
                    # A kill is unambiguous: out of rotation for good, or
                    # replaced in place when the engine is elastic.
                    if self.replace_workers:
                        self._replace_worker(worker, now)
                    else:
                        self._drained_until[worker] = float("inf")
                elif self._consec_failures[worker] >= BREAKER_THRESHOLD:
                    self._drained_until[worker] = now + BREAKER_COOLDOWN
                survivors = []
                for pending in group:
                    pending.retries += 1
                    if pending.retries > self.max_retries:
                        self._fail(pending, worker, dispatch)
                    else:
                        self.stats.retries += 1
                        survivors.append(pending)
                group = survivors
                now += RETRY_BACKOFF * (2.0**attempt)
                attempt += 1
                continue
            self._consec_failures[worker] = 0
            self._evaluate(group, worker, version, dispatch, now)
            return

    def _fail(self, pending: _Pending, worker: int, dispatch: int) -> None:
        """Shed ``pending`` terminally; its :meth:`poll` raises the failure."""
        self._failed[pending.request_id] = WorkerFailure(
            worker, dispatch, pending.request_id
        )
        self.stats.failed += 1
        self.stats.tenant(pending.tenant).failed += 1

    def _evaluate(
        self,
        group: list[_Pending],
        worker: int,
        version: int,
        dispatch: int,
        now: float,
    ) -> None:
        """Evaluate a group on ``worker`` (optionally hedged) and record results."""
        batch = self._collate_group([p.graph for p in group])
        self._ensure_version(worker, version)
        before = (
            self.cache.hits if self.cache is not None else 0,
            self.cache.misses if self.cache is not None else 0,
        )
        t0 = time.perf_counter()
        out = self._eval_batch(worker, batch)
        measured = time.perf_counter() - t0
        skew = self.fault_plan.skew(worker, dispatch)
        start = max(self._worker_free[worker], now)
        finish = start + measured + skew
        served_by, served_at = worker, finish
        if self.hedge and (skew > 0.0 or start - now > self.max_wait):
            # Duplicate the stuck batch onto the idlest healthy worker and
            # keep the first modeled completion.  Both clocks advance: the
            # loser's work is not free, it is the price of the hedge.
            other = self._pick_worker(now, exclude=worker)
            if other is not None and other not in self._dead:
                self.stats.hedges += 1
                self._ensure_version(other, version)
                t1 = time.perf_counter()
                hedge_out = self._eval_batch(other, batch)
                hedge_measured = time.perf_counter() - t1
                hedge_finish = (
                    max(self._worker_free[other], now)
                    + hedge_measured
                    + self.fault_plan.skew(other, dispatch)
                )
                self._worker_free[other] = hedge_finish
                if hedge_finish < finish:
                    # Bit-identity makes the winner's bits equal the
                    # loser's, so keeping either output is safe.
                    self.stats.hedge_wins += 1
                    out, served_by, served_at = hedge_out, other, hedge_finish
        if self.cache is not None:
            self.stats.cache_hits += self.cache.hits - before[0]
            self.stats.cache_misses += self.cache.misses - before[1]
        dims_list = [p.dims for p in group]
        raw = sum(p.cost for p in group)
        padded = (
            workload_cost(
                *group_padded_targets(dims_list, seeds=self._canonical_seeds(dims_list))
            )
            if self.compilers is not None
            else raw
        )
        self.stats.raw_cost += raw
        self.stats.padded_cost += padded
        if len({workload_tier(d) for d in dims_list}) > 1:
            self.stats.merged_batches += 1
        self._worker_free[worker] = finish
        self.stats.batches += 1
        offsets = batch.atom_offsets
        for i, pending in enumerate(group):
            a0, a1 = int(offsets[i]), int(offsets[i + 1])
            e_pa = float(out["energy"][i])
            latency = served_at - pending.submitted
            self.stats.latencies.append(latency)
            self.stats.record_class_latency(pending.cls, latency)
            if self.autoscaler is not None:
                self.autoscaler.record(pending.cls, latency)
            ts = self.stats.tenant(pending.tenant)
            ts.served += 1
            ts.latencies.append(latency)
            ts.raw_cost += pending.cost
            # Padded batch cost is priced per batch; attribute each
            # request its raw-cost-proportional share so tenant blocks
            # sum to the global counter.
            ts.padded_cost += padded * pending.cost / raw if raw else 0
            self._results[pending.request_id] = Prediction(
                request_id=pending.request_id,
                energy=e_pa * (a1 - a0),
                energy_per_atom=e_pa,
                forces=out["forces"][a0:a1].copy(),
                stress=out["stress"][i].copy(),
                magmom=out["magmom"][a0:a1].copy(),
                worker=served_by,
                batch_structs=len(group),
                latency=latency,
                version=version,
            )

    # ----------------------------------------------------------------- stats
    def makespan(self) -> float:
        """Latest worker-finish time on the virtual clock."""
        return max(self._worker_free)

    def compile_stats(self) -> dict[str, int] | None:
        """Aggregated per-worker compiler counters (``None`` when eager)."""
        if self.compilers is None:
            return None
        totals: dict[str, int] = {}
        for compiler in self.compilers:
            for key, value in compiler.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def snapshot(self) -> dict:
        """One flat dict of serving + compiler counters (for benches/CLI)."""
        merged = self.stats.as_dict()
        comp = self.compile_stats()
        if comp is not None:
            merged.update(comp)
        return merged
