"""Shared multi-tenant serving harness: traffic generation + invariants.

One seeded generator and one set of invariant checkers, imported by the
scheduler unit tests, the hypothesis property suite and the dispatch-loop
oracle — so every serving test proves the same contracts on the same
traffic shapes.

:func:`generate_traffic` draws a deterministic multi-tenant arrival
stream (tenant / request class / structure tier / arrival-time mix) from
one seed; :func:`drive` replays a stream against an engine on the
virtual clock, polling to completion; the ``check_*`` functions assert
the engine-wide invariants:

* **conservation** — every submitted request is exactly one of served,
  shed (quota/global), expired, or terminally failed; nothing is lost,
  nothing double-counted;
* **tenant/global agreement** — per-tenant accounting blocks sum to the
  global :class:`~repro.serve.engine.EngineStats` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.mptrj import generate_mptrj
from repro.graph.crystal_graph import build_graph
from repro.model import CHGNetConfig, CHGNetModel
from repro.serve import EngineOverloaded
from repro.serve.faults import DeadlineExceeded, WorkerFailure

#: Tiny shared model config (mirrors tests/test_serve.py's CFG), so the
#: harness needs no ``tests`` package to import.
TINY_CFG = CHGNetConfig(
    atom_fea_dim=8,
    bond_fea_dim=8,
    angle_fea_dim=8,
    num_radial=5,
    angular_order=2,
    hidden_dim=8,
)


def make_model(seed: int = 2, jitter_seed: int = 200, cfg=None) -> CHGNetModel:
    """Tiny model with jittered (non-zero) readout heads.

    Zero-init heads predict exactly zero everywhere, which would make the
    bit-equality assertions the harness exists for vacuous.
    """
    model = CHGNetModel(cfg or TINY_CFG, np.random.default_rng(seed))
    rng = np.random.default_rng(jitter_seed)
    for p in model.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return model


@dataclass(frozen=True)
class Arrival:
    """One request in a generated traffic stream."""

    time: float
    tenant: str
    request_class: str
    graph: object
    deadline: float | None = None


@dataclass
class DriveResult:
    """Everything :func:`drive` observed while replaying a stream."""

    #: request id -> Prediction for every served request
    predictions: dict = field(default_factory=dict)
    #: request id -> Arrival for every accepted request
    accepted: dict = field(default_factory=dict)
    #: arrivals rejected at submit with EngineOverloaded
    shed: list = field(default_factory=list)
    #: request ids whose poll raised DeadlineExceeded
    expired: list = field(default_factory=list)
    #: request ids whose poll raised terminal WorkerFailure
    failed: list = field(default_factory=list)


def make_graphs(count: int, seed: int, max_atoms: int = 10, cfg=None):
    """Deterministic pool of small crystal graphs for traffic streams."""
    cfg = cfg or TINY_CFG
    entries = generate_mptrj(count, seed=seed, max_atoms=max_atoms)
    return [
        build_graph(e.crystal, cfg.cutoff_atom, cfg.cutoff_bond) for e in entries
    ]


def generate_traffic(
    graphs,
    tenants: dict[str, float],
    *,
    seed: int,
    n: int = 50,
    horizon: float = 10.0,
    interactive_fraction: float = 0.3,
    deadline: float | None = None,
) -> list[Arrival]:
    """Seeded multi-tenant arrival stream, sorted by arrival time.

    ``tenants`` maps tenant name to its share of the stream's requests
    (relative weights; a heavy tenant is a backlog, a light one a
    trickle).  Classes are drawn per request: ``interactive`` with
    ``interactive_fraction`` probability, ``bulk`` otherwise.  Structures
    cycle through ``graphs`` at seeded random, so tiers mix.
    """
    rng = np.random.default_rng(seed)
    names = sorted(tenants)
    shares = np.array([tenants[t] for t in names], dtype=float)
    shares /= shares.sum()
    arrivals = [
        Arrival(
            time=float(t),
            tenant=str(rng.choice(names, p=shares)),
            request_class=(
                "interactive" if rng.random() < interactive_fraction else "bulk"
            ),
            graph=graphs[int(rng.integers(len(graphs)))],
            deadline=deadline,
        )
        for t in np.sort(rng.uniform(0.0, horizon, size=n))
    ]
    return arrivals


def drive(engine, traffic: list[Arrival], settle: float = 1e6) -> DriveResult:
    """Replay ``traffic`` on the engine's virtual clock; poll to completion.

    Arrivals submit in time order; after the last arrival the engine is
    flushed and every accepted request polled at ``settle`` (far future,
    so nothing is still waiting on a flush deadline).  Typed failures are
    recorded, not raised — the checkers reconcile them against stats.
    """
    result = DriveResult()
    for arrival in traffic:
        try:
            request_id = engine.submit(
                arrival.graph,
                now=arrival.time,
                tenant=arrival.tenant,
                request_class=arrival.request_class,
                deadline=arrival.deadline,
            )
        except EngineOverloaded:
            result.shed.append(arrival)
            continue
        result.accepted[request_id] = arrival
    engine.flush(now=traffic[-1].time if traffic else None)
    for request_id in result.accepted:
        try:
            prediction = engine.poll(request_id, now=settle)
        except DeadlineExceeded:
            result.expired.append(request_id)
        except WorkerFailure:
            result.failed.append(request_id)
        else:
            assert prediction is not None, f"request {request_id} vanished"
            result.predictions[request_id] = prediction
    return result


def check_conservation(engine, result: DriveResult, traffic: list[Arrival]) -> None:
    """Every arrival is exactly one of served / shed / expired / failed."""
    stats = engine.stats
    served = len(result.predictions)
    assert served + len(result.expired) + len(result.failed) == len(result.accepted)
    assert len(result.accepted) + len(result.shed) == len(traffic)
    assert stats.requests == len(result.accepted)
    assert stats.load_shed + stats.quota_shed == len(result.shed)
    assert stats.deadline_misses == len(result.expired)
    assert stats.failed == len(result.failed)
    assert engine.pending == 0
    for name, tenant_stats in stats.tenants.items():
        pending = engine._tenant_pending.get(name, 0)
        assert pending == 0, f"tenant {name} still has {pending} pending"
        assert tenant_stats.submitted == (
            tenant_stats.served + tenant_stats.expired + tenant_stats.failed
        ), f"tenant {name} leaks requests"


def check_tenant_sums(engine) -> None:
    """Per-tenant accounting blocks sum to the global EngineStats."""
    stats = engine.stats
    blocks = list(stats.tenants.values())
    assert sum(b.submitted for b in blocks) == stats.requests
    assert sum(b.shed for b in blocks) == stats.load_shed + stats.quota_shed
    assert sum(b.expired for b in blocks) == stats.deadline_misses
    assert sum(b.failed for b in blocks) == stats.failed
    assert sum(b.served for b in blocks) == sum(
        b.submitted - b.expired - b.failed for b in blocks
    )
    assert sum(b.raw_cost for b in blocks) == stats.raw_cost
    assert abs(sum(b.padded_cost for b in blocks) - stats.padded_cost) < 1e-6 * max(
        1.0, stats.padded_cost
    )
