"""Fault-tolerant serving: kills, retries, hedging, deadlines, breakers.

The contract under test (ISSUE 8): a :class:`WorkerFaultPlan` injects
worker kills/flakes/stragglers at dispatch time; a dead worker surfaces a
typed :class:`WorkerFailure` before any result is written and the batch
transparently re-queues onto survivors — with predictions bit-identical to
the fault-free run, because that is what the row-stable kernel contract
licenses.  Deadlines shed queued requests with typed
:class:`DeadlineExceeded`; the circuit breaker drains flaking workers and
re-admits them half-open; ``replace_workers`` swaps dead replicas in place
and still honors version pinning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.mptrj import generate_mptrj
from repro.graph.batching import workload_tier
from repro.graph.crystal_graph import build_graph
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.serve import (
    DeadlineExceeded,
    EngineClosed,
    InferenceEngine,
    WorkerFailure,
    WorkerFaultPlan,
)
from repro.serve import engine as engine_module
from repro.serve import fleet as fleet_module

CFG = CHGNetConfig(
    atom_fea_dim=8,
    bond_fea_dim=8,
    angle_fea_dim=8,
    num_radial=5,
    angular_order=2,
    hidden_dim=8,
    opt_level=OptLevel.DECOMPOSE_FS,
)


def _jitter(model: CHGNetModel, seed: int) -> CHGNetModel:
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return model


@pytest.fixture(scope="module")
def model():
    return _jitter(CHGNetModel(CFG, np.random.default_rng(2)), seed=200)


@pytest.fixture(scope="module")
def graphs():
    entries = generate_mptrj(14, seed=9, max_atoms=10)
    return [
        build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond) for e in entries
    ]


def _equal(a, b) -> bool:
    return (
        a.energy_per_atom == b.energy_per_atom
        and a.energy == b.energy
        and np.array_equal(a.forces, b.forces)
        and np.array_equal(a.stress, b.stress)
        and np.array_equal(a.magmom, b.magmom)
    )


def _engine(model, **kwargs):
    kwargs.setdefault("n_workers", 3)
    kwargs.setdefault("max_batch_structs", 4)
    kwargs.setdefault("max_programs", 64)
    return InferenceEngine(model, **kwargs)


def _by_tier(graphs) -> dict[int, list]:
    out: dict[int, list] = {}
    for g in graphs:
        dims = (g.num_atoms, g.num_edges, g.num_short_edges, g.num_angles)
        out.setdefault(workload_tier(dims), []).append(g)
    return out


def _same_tier(graphs, n: int) -> list:
    """``n`` graphs sharing a workload tier, so a batch of them flushes full."""
    for members in _by_tier(graphs).values():
        if len(members) >= n:
            return members[:n]
    raise AssertionError(f"no tier with {n} members in the fixture stream")


class TestWorkerFaultPlan:
    def test_builders_validate(self):
        plan = WorkerFaultPlan()
        with pytest.raises(ValueError):
            plan.kill(worker=-1, dispatch=0)
        with pytest.raises(ValueError):
            plan.kill(worker=0, dispatch=-1)
        with pytest.raises(ValueError):
            plan.flake(worker=0, dispatch=0, count=0)
        with pytest.raises(ValueError):
            plan.straggle(worker=0, seconds=-0.1)
        with pytest.raises(ValueError):
            plan.straggle(worker=0, seconds=0.1, start=5, stop=5)

    def test_kills_are_consumed(self):
        plan = WorkerFaultPlan().kill(worker=1, dispatch=3)
        assert plan.take_kills(2) == []
        assert plan.take_kills(3) == [1]
        assert plan.take_kills(3) == []
        assert plan.empty

    def test_flakes_decrement_and_recover(self):
        plan = WorkerFaultPlan().flake(worker=0, dispatch=2, count=2)
        assert not plan.take_flake(0, 1)  # not active yet
        assert not plan.take_flake(1, 5)  # wrong worker
        assert plan.take_flake(0, 2)
        assert plan.take_flake(0, 7)
        assert not plan.take_flake(0, 8)  # budget drained: worker recovered
        assert plan.empty

    def test_skew_windows_accumulate(self):
        plan = (
            WorkerFaultPlan()
            .straggle(worker=0, seconds=0.5, start=2, stop=4)
            .straggle(worker=0, seconds=0.25)
        )
        assert plan.skew(0, 0) == 0.25
        assert plan.skew(0, 2) == 0.75  # overlapping windows accumulate
        assert plan.skew(0, 4) == 0.25
        assert plan.skew(1, 2) == 0.0

    def test_parse_round_trip(self):
        specs = ["kill:1:4", "flake:0:2:3", "straggle:2:0.5:1:9"]
        plan = WorkerFaultPlan.parse(specs)
        assert plan.unfired() == specs  # canonical forms survive the trip

    @pytest.mark.parametrize(
        "spec",
        ["kill:1", "kill:a:b", "flake:0:2:0", "straggle:0:-1.0", "nuke:0:1", ""],
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError, match="worker fault spec"):
            WorkerFaultPlan.parse([spec])

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate worker fault spec"):
            WorkerFaultPlan.parse(["kill:1:4", " kill:1:4 "])

    def test_unfired_drains_as_faults_land(self):
        plan = WorkerFaultPlan.parse(["kill:1:0", "flake:0:1", "straggle:2:0.5"])
        assert len(plan.unfired()) == 3
        plan.take_kills(0)
        plan.take_flake(0, 1)
        plan.skew(2, 0)
        assert plan.unfired() == []

    def test_seeded_plans_frozen(self):
        """Seeded draws and canonical specs are pinned: the same seed gives
        the same plan across releases, and parse renders canonical forms."""
        plan = WorkerFaultPlan.random(
            7, 4, 32, p_kill=0.1, p_flake=0.25, straggler_seconds=0.5
        )
        assert plan.unfired() == [
            "kill:0:11", "kill:2:17", "kill:0:21", "kill:1:31", "flake:0:1:1",
            "flake:1:2:1", "flake:3:9:1", "flake:0:10:1", "flake:2:14:1",
            "flake:3:17:1", "flake:2:23:1", "flake:3:31:1", "straggle:0:0.5",
        ]  # fmt: skip
        plan = WorkerFaultPlan.parse(
            ["flake:1:2", "kill:0:5", "flake:0:3:2", "straggle:0:0.5:0",
             "straggle:1:0.25:0:6", "kill:2:1", "straggle:2:1e-3:2"]
        )  # fmt: skip
        assert plan.unfired() == [
            "kill:2:1", "kill:0:5", "flake:1:2:1", "flake:0:3:2",
            "straggle:0:0.5", "straggle:1:0.25:0:6", "straggle:2:0.001:2",
        ]  # fmt: skip
        assert WorkerFaultPlan.parse(plan.unfired()).unfired() == plan.unfired()

    def test_random_plan_deterministic(self):
        a = WorkerFaultPlan.random(7, 4, 32, p_kill=0.2, p_flake=0.2)
        b = WorkerFaultPlan.random(7, 4, 32, p_kill=0.2, p_flake=0.2)
        assert a.unfired() == b.unfired()
        sure = WorkerFaultPlan.random(1, 2, 5, p_kill=1.0)
        assert len([s for s in sure.unfired() if s.startswith("kill")]) == 5


class TestKillRetry:
    def test_kill_one_worker_bit_identical(self, model, graphs):
        """Killing 1 of 3 workers mid-stream loses nothing and changes no bits."""
        baseline = _engine(model).predict_many(graphs)
        assert any(p.energy_per_atom != 0 for p in baseline)  # non-vacuous
        plan = WorkerFaultPlan().kill(worker=1, dispatch=1)
        engine = _engine(model, fault_plan=plan)
        served = engine.predict_many(graphs)
        assert len(served) == len(baseline)
        assert all(_equal(a, b) for a, b in zip(served, baseline))
        snap = engine.snapshot()
        assert snap["worker_failures"] >= 1
        assert snap["retries"] >= 1
        assert plan.unfired() == []  # the rehearsed kill actually fired

    def test_empty_plan_schedules_identically_to_no_plan(self, model, graphs):
        """The fault-free path is unchanged: an engine under an empty fault
        plan serves the same bits as one with no plan at all.  (Worker
        assignments are clock-driven and vary with measured wall time, so
        only the served bits — the actual contract — are compared.)"""
        plain = _engine(model).predict_many(graphs)
        planned = _engine(model, fault_plan=WorkerFaultPlan()).predict_many(graphs)
        assert all(_equal(a, b) for a, b in zip(plain, planned))

    def test_all_workers_dead_sheds_with_typed_failure(self, model, graphs):
        """A request whose every retry was shed raises WorkerFailure from
        poll — exactly once, then polls as unknown."""
        plan = WorkerFaultPlan().kill(worker=0, dispatch=0)
        engine = _engine(
            model, n_workers=1, max_batch_structs=2, fault_plan=plan
        )
        pair = _same_tier(graphs, 2)
        ids = [engine.submit(g, now=0.0) for g in pair]  # full flush
        with pytest.raises(WorkerFailure) as excinfo:
            engine.poll(ids[0])
        assert excinfo.value.request_id == ids[0]
        assert engine.poll(ids[0]) is None  # the typed error fires once
        with pytest.raises(WorkerFailure):
            engine.poll(ids[1])
        assert engine.snapshot()["worker_failures"] >= 1

    def test_predict_many_surfaces_terminal_failure(self, model, graphs):
        """The set's first failure is raised after every id of the set was
        collected: nothing is left behind in the engine."""
        plan = WorkerFaultPlan().kill(worker=0, dispatch=0)
        engine = _engine(model, n_workers=1, fault_plan=plan)
        with pytest.raises(WorkerFailure):
            engine.predict_many(graphs[:6])
        assert engine._results == {}
        assert engine._failed == {}
        assert engine.pending == 0


class TestHedging:
    def test_hedged_straggler_bit_identical(self, model, graphs):
        """Hedging a straggling worker's batches changes latency, not bits."""
        unhedged = _engine(
            model, fault_plan=WorkerFaultPlan().straggle(worker=0, seconds=0.5)
        )
        plain = unhedged.predict_many(graphs)
        hedged_engine = _engine(
            model,
            fault_plan=WorkerFaultPlan().straggle(worker=0, seconds=0.5),
            hedge=True,
        )
        hedged = hedged_engine.predict_many(graphs)
        assert all(_equal(a, b) for a, b in zip(plain, hedged))
        snap = hedged_engine.snapshot()
        assert snap["hedges"] >= 1
        assert snap["hedge_wins"] >= 1  # a 0.5 s skew always loses to a dup
        assert unhedged.snapshot()["hedges"] == 0  # hedging is opt-in

    def test_hedge_prices_both_workers(self, model, graphs):
        """A hedge is not free: the loser's clock advances too."""
        engine = _engine(
            model,
            n_workers=2,
            fault_plan=WorkerFaultPlan().straggle(worker=0, seconds=0.5),
            hedge=True,
        )
        engine.predict_many(graphs[:4])
        assert engine.snapshot()["hedges"] >= 1
        assert all(w.free > 0 for w in engine.fleet)


class TestDeadlines:
    def test_expired_requests_shed_with_typed_error(self, model, graphs):
        engine = _engine(model, max_batch_structs=4, max_wait=0.05)
        doomed = [engine.submit(g, now=0.0, deadline=0.01) for g in graphs[:3]]
        kept = engine.submit(graphs[3], now=0.0)
        engine.flush(now=1.0)
        for request_id in doomed:
            with pytest.raises(DeadlineExceeded) as excinfo:
                engine.poll(request_id)
            assert excinfo.value.request_id == request_id
            assert engine.poll(request_id) is None  # raised exactly once
        assert engine.poll(kept) is not None  # deadline-free rides unharmed
        assert engine.snapshot()["deadline_misses"] == 3

    def test_dispatched_request_always_completes(self, model, graphs):
        """Only *queued* requests can miss: a full batch dispatches at
        submit time, long before its deadline would have expired."""
        engine = _engine(model, max_batch_structs=2)
        pair = _same_tier(graphs, 2)
        ids = [engine.submit(g, now=0.0, deadline=0.01) for g in pair]
        assert all(engine.poll(i, now=5.0) is not None for i in ids)
        assert engine.snapshot()["deadline_misses"] == 0

    def test_deadline_validation(self, model, graphs):
        engine = _engine(model)
        with pytest.raises(ValueError):
            engine.submit(graphs[0], deadline=-1.0)


class TestCircuitBreaker:
    def test_flake_trips_then_readmits_half_open(self, model, graphs, monkeypatch):
        """A flaking worker drains out of rotation and is re-admitted after
        the cooldown — and actually serves again (it recovered)."""
        monkeypatch.setattr(fleet_module, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(fleet_module, "BREAKER_COOLDOWN", 0.5)
        plan = WorkerFaultPlan().flake(worker=0, dispatch=0)
        engine = _engine(model, n_workers=2, max_batch_structs=2, fault_plan=plan)
        quad = _same_tier(graphs, 4)
        first = [engine.submit(g, now=0.0) for g in quad[:2]]
        assert all(engine.poll(i) is not None for i in first)  # retried on 1
        assert engine.fleet[0].drained_until is not None  # breaker tripped
        second = [engine.submit(g, now=10.0) for g in quad[2:]]
        preds = [engine.poll(i) for i in second]
        assert all(p is not None for p in preds)
        assert preds[0].worker == 0  # re-admitted worker took the batch
        assert engine.fleet[0].drained_until is None
        snap = engine.snapshot()
        assert snap["worker_failures"] == 1
        assert snap["retries"] == 2  # both requests of the flaked batch

    def test_retired_cooldown_does_not_stall_a_drained_rotation(
        self, model, graphs, monkeypatch
    ):
        """A retired worker's pending cooldown is no wake-up time for the
        rotation: with every active worker dead, the retired slot is
        reactivated at once instead of waited for and then not picked."""
        monkeypatch.setattr(fleet_module, "BREAKER_THRESHOLD", 1)
        plan = (
            WorkerFaultPlan()
            .flake(worker=0, dispatch=0)
            .kill(worker=1, dispatch=2)
            .kill(worker=2, dispatch=2)
        )
        engine = _engine(model, n_workers=3, max_batch_structs=1, fault_plan=plan)
        assert engine.poll(engine.submit(graphs[0], now=0.0)) is not None
        assert engine.retire_worker(0) == 0  # tripped, cooling down, retired
        pred = engine.poll(engine.submit(graphs[1], now=0.0))
        assert pred is not None and pred.worker == 0
        assert engine.stats.scale_outs == 1  # the emergency reactivation
        assert tuple(plan.unfired()) == ()


class TestWorkerReplacement:
    def test_replacement_honors_version_pinning(self, model, graphs):
        """A replacement worker installs the version its next batch is
        *pinned* to, not the current one — requests queued across a
        publish + kill still finish on the weights they entered with."""
        local = _jitter(CHGNetModel(CFG, np.random.default_rng(5)), seed=500)
        subset = graphs[:3]
        reference = _engine(local, n_workers=1).predict_many(subset)
        plan = WorkerFaultPlan().kill(worker=0, dispatch=0)
        engine = _engine(
            model=local,
            n_workers=1,
            fault_plan=plan,
            replace_workers=True,
        )
        ids = [engine.submit(g, now=0.0, version=0) for g in subset]
        for p in local.parameters():
            p.data = p.data + 1.0  # the trainer moved on...
        engine.publish_weights()  # ...and published v1
        engine.flush()
        preds = [engine.poll(i) for i in ids]
        assert all(p is not None for p in preds)
        assert all(p.version == 0 for p in preds)
        assert all(_equal(a, b) for a, b in zip(preds, reference))
        assert engine.snapshot()["worker_replacements"] == 1
        assert engine.fleet[0].version == 0  # the pin drove the install

    def test_replaced_worker_keeps_serving(self, model, graphs):
        """With replace_workers a 1-worker engine survives its own death."""
        plan = WorkerFaultPlan().kill(worker=0, dispatch=0)
        engine = _engine(model, n_workers=1, fault_plan=plan, replace_workers=True)
        baseline = _engine(model, n_workers=1).predict_many(graphs)
        served = engine.predict_many(graphs)
        assert all(_equal(a, b) for a, b in zip(served, baseline))
        assert engine.snapshot()["worker_replacements"] == 1


class TestShutdownUnderFaults:
    def test_shutdown_flushes_merged_group_past_dead_worker(
        self, model, graphs, monkeypatch
    ):
        """shutdown(flush=True) with an in-flight cross-tier merged group
        whose first dispatch lands on a dead worker: the merged group
        re-queues whole, nothing is lost, bits are unchanged."""
        by_tier: dict[int, list] = {}
        for g in graphs:
            dims = (g.num_atoms, g.num_edges, g.num_short_edges, g.num_angles)
            by_tier.setdefault(workload_tier(dims), []).append(g)
        tiers = sorted(by_tier)
        assert len(tiers) >= 2  # the stream really is multi-tier
        mixed = by_tier[tiers[0]][:2] + by_tier[tiers[1]][:1]
        baseline = _engine(model, n_workers=1).predict_many(mixed)
        monkeypatch.setattr(engine_module, "MERGE_OVERHEAD_CAP", 10.0)
        plan = WorkerFaultPlan().kill(worker=0, dispatch=0)
        engine = _engine(
            model, n_workers=2, max_batch_structs=8, merge_tiers=True, fault_plan=plan
        )
        ids = [engine.submit(g, now=0.0) for g in mixed]  # all partial
        assert engine.pending == len(mixed)
        engine.shutdown(flush=True)
        assert engine.closed
        preds = [engine.poll(i) for i in ids]  # results pollable after close
        assert all(p is not None for p in preds)
        assert all(_equal(a, b) for a, b in zip(preds, baseline))
        snap = engine.snapshot()
        assert snap["worker_failures"] >= 1
        assert snap["merges"] >= 1  # the group really merged tiers
        with pytest.raises(EngineClosed):
            engine.submit(mixed[0])


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_retries": -1}],
    )
    def test_bad_fault_params_rejected(self, model, kwargs):
        with pytest.raises(ValueError):
            InferenceEngine(model, **kwargs)
