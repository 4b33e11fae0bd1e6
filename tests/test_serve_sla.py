"""Multi-tenant SLA serving: classes, fairness, quotas, autoscaling.

The contract under test (ISSUE 10): weighted-fair queuing with a single
tenant/class is bit-identical to the FIFO engine; multi-tenant schedules
preserve per-request bit-identity with solo eager inference; per-tenant
quotas shed with typed errors and exact accounting; the autoscaler grows
and shrinks the fleet off modeled SLA signals and composes with worker
fault plans (stable indices, zero recaptures).
"""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.serve import (
    AutoscaleConfig,
    Autoscaler,
    ClassPolicy,
    EngineOverloaded,
    EngineStats,
    FairScheduler,
    InferenceEngine,
    TenantPolicy,
    TenantStats,
    percentile,
)
from repro.serve import engine as engine_module
from repro.serve import scheduler as scheduler_module
from repro.serve.faults import WorkerFaultPlan
from serve_harness import (
    Arrival,
    check_conservation,
    check_tenant_sums,
    drive,
    generate_traffic,
    make_graphs,
    make_model,
)


@pytest.fixture(scope="module")
def model():
    return make_model()


@pytest.fixture(scope="module")
def graphs():
    return make_graphs(14, seed=9)


def _eager_baseline(model, graphs):
    engine = InferenceEngine(model, n_workers=1, compile=False, max_batch_structs=1)
    return engine.predict_many(graphs)


def _equal(a, b) -> bool:
    return (
        a.energy_per_atom == b.energy_per_atom
        and a.energy == b.energy
        and np.array_equal(a.forces, b.forces)
        and np.array_equal(a.stress, b.stress)
        and np.array_equal(a.magmom, b.magmom)
    )


class TestPolicies:
    def test_tenant_policy_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy("", weight=1.0)
        with pytest.raises(ValueError):
            TenantPolicy("a", weight=0.0)
        with pytest.raises(ValueError):
            TenantPolicy("a", max_pending=-1)

    def test_class_policy_validation(self):
        with pytest.raises(ValueError):
            ClassPolicy("", max_wait=1.0)
        with pytest.raises(ValueError):
            ClassPolicy("x", max_wait=-1.0)

    def test_tenant_spec_parsing(self):
        assert TenantPolicy.parse("alice") == TenantPolicy("alice")
        assert TenantPolicy.parse("bob:2.5") == TenantPolicy("bob", weight=2.5)
        assert TenantPolicy.parse("c:1:64") == TenantPolicy(
            "c", weight=1.0, max_pending=64
        )
        for bad in ("", "a:b", "a:1:2:3", "a:-1", "a:1:-5"):
            with pytest.raises(ValueError):
                TenantPolicy.parse(bad)

    def test_autoscale_config_validation(self):
        AutoscaleConfig(sla_p95=1.0)
        for bad in (
            dict(sla_p95=0.0),
            dict(sla_p95=1.0, min_workers=0),
            dict(sla_p95=1.0, min_workers=4, max_workers=2),
        ):
            with pytest.raises(ValueError):
                AutoscaleConfig(**bad)


class TestFairScheduler:
    def test_single_tenant_tags_are_fifo(self):
        sched = FairScheduler()
        tags = [sched.tag("t", cost=100) for _ in range(5)]
        assert tags == sorted(tags)
        assert [seq for _, seq in tags] == list(range(5))

    def test_heavy_tenant_tags_race_ahead(self):
        """A backlogged heavy tenant's later tags exceed a light tenant's
        next tag, so the light tenant overtakes the backlog."""
        sched = FairScheduler({"heavy": 1.0, "light": 1.0})
        heavy = [sched.tag("heavy", cost=1000) for _ in range(10)]
        light = sched.tag("light", cost=10)
        assert light < heavy[1]

    def test_weights_scale_service(self):
        """Equal backlogs: the weight-2 tenant's finish tags advance half
        as fast, so it interleaves two requests per competitor request."""
        sched = FairScheduler({"a": 2.0, "b": 1.0})
        tags = [("a", *sched.tag("a", 100)) for _ in range(4)]
        tags += [("b", *sched.tag("b", 100)) for _ in range(4)]
        order = [t[0] for t in sorted(tags, key=lambda t: (t[1], t[2]))]
        assert order.count("a") == order.count("b") == 4
        # first three dispatches are dominated by the heavier tenant
        assert order[:3].count("a") >= 2

    def test_advance_is_monotonic_and_caps_idle_credit(self):
        sched = FairScheduler()
        start, _ = sched.tag("a", 100)
        sched.advance(start)
        sched.advance(start - 50)  # stale advance is ignored
        assert sched.tag("c", 0)[0] == start
        # an idle tenant's first tag starts at virtual time, not at zero
        sched.advance(500.0)
        late, _ = sched.tag("b", 10)
        assert late == 500.0
        # a tenant idle since its finish tag (100) banks none of the gap
        assert sched.tag("a", 10)[0] == 500.0

    def test_rejects_bad_inputs(self):
        sched = FairScheduler()
        with pytest.raises(ValueError):
            sched.register("t", weight=0.0)
        with pytest.raises(ValueError):
            sched.tag("t", cost=-1)


class TestFifoDegenerate:
    def test_fair_single_tenant_bit_identical_to_fifo(self, model, graphs):
        """One declared tenant (weighted-fair order) with one class
        reproduces the FIFO engine exactly: same predictions, same batch
        groupings, same schedule.

        (Latencies are *measured* wall seconds, so they are compared by
        grouping — every request lands in the same batch with the same
        companions — rather than by float equality across two runs.)
        """
        fifo = InferenceEngine(model, n_workers=1, compile=True, max_batch_structs=4)
        fair = InferenceEngine(
            model,
            n_workers=1,
            compile=True,
            max_batch_structs=4,
            tenants=[TenantPolicy("solo")],
        )
        assert fair.fair
        fifo_ids = [fifo.submit(g, now=0.01 * i) for i, g in enumerate(graphs)]
        fair_ids = [
            fair.submit(g, now=0.01 * i, tenant="solo") for i, g in enumerate(graphs)
        ]
        assert fifo.flush(now=1.0) == fair.flush(now=1.0)
        for a, b in zip(fifo_ids, fair_ids):
            pa, pb = fifo.poll(a, now=2.0), fair.poll(b, now=2.0)
            assert _equal(pa, pb)
            assert pa.batch_structs == pb.batch_structs
            assert pa.worker == pb.worker
        assert fifo.stats.batches == fair.stats.batches
        assert fifo.stats.requests == fair.stats.requests

    def test_unlabeled_traffic_defaults(self, model, graphs):
        """Untagged submits land on the default tenant/bulk class with the
        engine-wide flush wait — the pre-tenancy behavior."""
        engine = InferenceEngine(model, n_workers=1, compile=False, max_wait=0.5)
        rid = engine.submit(graphs[0], now=0.0)
        assert engine.poll(rid, now=0.4) is None  # bulk wait not expired
        assert engine.poll(rid, now=0.6) is not None
        snap = engine.snapshot()
        assert set(snap["tenants"]) == {"default"}
        assert snap["tenants"]["default"]["served"] == 1


class TestMultiTenant:
    def test_served_predictions_bit_identical_to_eager(self, model, graphs):
        """Weighted-fair, paced, multi-tenant serving returns bit-identical
        predictions to solo eager inference of the same structures."""
        baseline = {id(g): p for g, p in zip(graphs, _eager_baseline(model, graphs))}
        assert any(p.energy_per_atom != 0 for p in baseline.values())
        engine = InferenceEngine(
            model,
            n_workers=2,
            compile=True,
            max_batch_structs=4,
            tenants=[TenantPolicy("heavy", weight=1.0), TenantPolicy("light", weight=4.0)],
            paced=True,
        )
        traffic = generate_traffic(
            graphs, {"heavy": 4.0, "light": 1.0}, seed=3, n=40, horizon=2.0
        )
        result = drive(engine, traffic)
        assert len(result.predictions) == len(traffic)
        for rid, pred in result.predictions.items():
            assert _equal(pred, baseline[id(result.accepted[rid].graph)])
        check_conservation(engine, result, traffic)
        check_tenant_sums(engine)

    def test_quota_sheds_typed_and_counted(self, model, graphs):
        engine = InferenceEngine(
            model,
            n_workers=1,
            compile=False,
            max_batch_structs=8,
            max_wait=10.0,
            tenants=[TenantPolicy("a", max_pending=2), TenantPolicy("b")],
        )
        engine.submit(graphs[0], now=0.0, tenant="a")
        engine.submit(graphs[0], now=0.0, tenant="a")
        with pytest.raises(EngineOverloaded):
            engine.submit(graphs[0], now=0.0, tenant="a")
        # the quota is per tenant: b is unaffected
        engine.submit(graphs[0], now=0.0, tenant="b")
        assert engine.stats.quota_shed == 1
        assert engine.stats.tenant("a").shed == 1
        assert engine.stats.tenant("b").shed == 0
        # dispatch frees quota
        engine.flush(now=0.0)
        engine.submit(graphs[0], now=0.0, tenant="a")

    def test_closed_world_rejects_unknown_tenant_and_class(self, model, graphs):
        engine = InferenceEngine(
            model, n_workers=1, compile=False, tenants=[TenantPolicy("a")]
        )
        with pytest.raises(ValueError, match="not declared"):
            engine.submit(graphs[0], tenant="mallory")
        with pytest.raises(ValueError, match="request class"):
            engine.submit(graphs[0], tenant="a", request_class="batch")

    def test_closed_world_serves_synchronous_paths(self, model, graphs):
        """Unlabeled synchronous traffic joins the default tenant of a
        closed world instead of being rejected, bit-identical to eager."""
        baseline = _eager_baseline(model, graphs)
        engine = InferenceEngine(
            model,
            n_workers=2,
            compile=True,
            max_batch_structs=4,
            tenants=[TenantPolicy("a", weight=2.0), TenantPolicy("b")],
        )
        many = engine.predict_many(graphs)
        wave = engine.predict_wave(graphs)
        assert all(_equal(p, q) for p, q in zip(many, baseline))
        assert all(_equal(p, q) for p, q in zip(wave, baseline))
        assert engine.stats.tenant("default").served == 2 * len(graphs)
        with pytest.raises(ValueError, match="not declared"):
            engine.submit(graphs[0], tenant="mallory")

    def test_open_world_auto_registers_tenants(self, model, graphs):
        engine = InferenceEngine(model, n_workers=1, compile=False)
        engine.submit(graphs[0], now=0.0, tenant="walk-in")
        engine.flush(now=0.0)
        assert engine.stats.tenant("walk-in").served == 1

    def test_interactive_class_flushes_sooner(self, model, graphs):
        """The interactive class's flush wait is a fifth of the engine's,
        so a lone interactive request is served while a bulk one waits."""
        engine = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=8, max_wait=1.0
        )
        bulk = engine.submit(graphs[0], now=0.0, request_class="bulk")
        inter = engine.submit(graphs[1], now=0.0, request_class="interactive")
        assert engine.poll(inter, now=0.1) is None
        served = engine.poll(inter, now=0.3)  # past 1.0 / 5
        assert served is not None
        assert engine.poll(bulk, now=0.3) is None
        assert engine.poll(bulk, now=1.1) is not None

    def test_explicit_deadline_applies(self, model, graphs):
        engine = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=8, max_wait=10.0
        )
        # still queued (the interactive flush wait is 2s) when 0.5s pass
        rid = engine.submit(
            graphs[0], now=0.0, request_class="interactive", deadline=0.5
        )
        from repro.serve.faults import DeadlineExceeded

        with pytest.raises(DeadlineExceeded):
            engine.poll(rid, now=1.0)
        assert engine.stats.tenant("default").expired == 1
        # a deadline far past the flush wait: polling 10s after submit serves
        rid = engine.submit(
            graphs[0], now=10.0, request_class="interactive", deadline=100.0
        )
        assert engine.poll(rid, now=20.0) is not None


class TestAutoscale:
    def test_scales_out_on_sla_breach(self, model, graphs, monkeypatch):
        monkeypatch.setattr(scheduler_module, "BREACH_SCANS", 2)
        monkeypatch.setattr(scheduler_module, "MIN_SAMPLES", 2)
        engine = InferenceEngine(
            model,
            n_workers=1,
            compile=False,
            max_batch_structs=2,
            max_wait=0.01,
            autoscale=AutoscaleConfig(sla_p95=1e-9, max_workers=3),
        )
        ids = [
            engine.submit(g, now=0.001 * i, request_class="interactive")
            for i, g in enumerate(graphs)
        ]
        engine.flush(now=1.0)
        for i, rid in enumerate(ids):
            engine.poll(rid, now=2.0 + i)  # each poll is one drain scan
        assert engine.fleet_size > 1
        assert engine.stats.scale_outs >= 1
        assert engine.snapshot()["scale_outs"] == engine.stats.scale_outs

    def test_scales_in_when_idle_and_reuses_retired_slots(
        self, model, graphs, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "IDLE_SCANS", 2)
        engine = InferenceEngine(
            model,
            n_workers=2,
            compile=False,
            max_batch_structs=4,
            autoscale=AutoscaleConfig(sla_p95=100.0),
        )
        rid = engine.submit(graphs[0], now=0.0)
        engine.flush(now=0.0)
        assert engine.poll(rid, now=10.0) is not None
        for i in range(4):  # idle scans accumulate on empty polls
            engine.poll(-1, now=20.0 + i)
        assert engine.fleet_size == 1
        assert engine.stats.scale_ins >= 1
        # scale-out reactivates the retired slot instead of growing
        w = engine.add_worker(now=30.0)
        assert w == 1 and engine.n_workers == 2 and engine.fleet_size == 2

    def test_scale_out_captures_nothing_new(self, model, graphs):
        """A replica added on the shared program cache replays existing
        programs: serving the same shapes after scale-out is capture-free."""
        engine = InferenceEngine(model, n_workers=1, compile=True, max_batch_structs=4)
        engine.predict_many(graphs)
        captures = engine.compile_stats()["captures"]
        engine.add_worker()
        engine.predict_many(graphs)
        assert engine.compile_stats()["captures"] == captures
        assert engine.stats.scale_outs == 1

    def test_last_worker_is_never_retired(self, model):
        engine = InferenceEngine(model, n_workers=1, compile=False)
        assert engine.retire_worker() is None
        assert engine.fleet_size == 1

    def test_retiring_a_drained_dead_worker_counts_nothing(self, model, graphs):
        """A worker a discovered kill drained for good is already out of the
        rotation: retiring it removes nothing, so it is no scale-in."""
        plan = WorkerFaultPlan().kill(worker=0, dispatch=0)
        engine = InferenceEngine(
            model, n_workers=3, compile=False, max_batch_structs=1, fault_plan=plan
        )
        assert engine.poll(engine.submit(graphs[0], now=0.0)) is not None
        assert engine.stats.worker_failures == 1 and engine.fleet_size == 2
        assert engine.retire_worker(0) is None
        assert engine.fleet_size == 2
        assert engine.stats.scale_ins == 0

    @pytest.mark.parametrize("worker", [-1, 2, 5])
    def test_retire_rejects_out_of_range_index(self, model, worker):
        engine = InferenceEngine(model, n_workers=2, compile=False)
        with pytest.raises(ValueError, match="out of range"):
            engine.retire_worker(worker)
        assert engine.fleet_size == 2
        assert engine.stats.scale_ins == 0


class TestElasticFaults:
    def test_kill_mid_scale_out_recovers_bit_identical(self, model, graphs):
        """A worker that joins via scale-out and is killed by a fault plan
        is discovered, replaced in place, and the retried batch's outputs
        stay bit-identical — with every planned fault accounted for."""
        batch = [graphs[0]] * 4
        baseline = _eager_baseline(model, [graphs[0]])[0]
        plan = WorkerFaultPlan().kill(worker=1, dispatch=1)
        engine = InferenceEngine(
            model,
            n_workers=1,
            compile=True,
            max_batch_structs=2,
            fault_plan=plan,
            replace_workers=True,
        )
        first = [engine.submit(g, now=0.0) for g in batch[:2]]  # dispatch 0
        engine.add_worker(now=0.0)  # mid-stream scale-out
        second = [engine.submit(g, now=0.0) for g in batch[2:]]  # dispatch 1 -> kill
        engine.flush(now=0.0)
        for rid in first + second:
            pred = engine.poll(rid, now=10.0)
            assert pred is not None
            assert np.array_equal(pred.forces, baseline.forces)
            assert pred.energy == baseline.energy
        assert tuple(plan.unfired()) == ()
        assert engine.stats.worker_failures == 1
        assert engine.stats.worker_replacements == 1
        assert engine.stats.scale_outs == 1
        assert engine.stats.failed == 0

    def test_retired_slot_reactivates_when_rotation_dies(self, model, graphs):
        """If every active worker dies irreplaceably but a healthy retired
        slot exists, the engine performs an emergency scale-out instead of
        terminally shedding the batch."""
        plan = WorkerFaultPlan().kill(worker=0, dispatch=0)
        engine = InferenceEngine(
            model,
            n_workers=2,
            compile=False,
            max_batch_structs=4,
            fault_plan=plan,
            replace_workers=False,
        )
        assert engine.retire_worker() == 1
        rid = engine.submit(graphs[0], now=0.0)
        engine.flush(now=0.0)
        pred = engine.poll(rid, now=10.0)
        assert pred is not None
        assert pred.worker == 1  # served by the reactivated slot
        assert tuple(plan.unfired()) == ()
        assert engine.stats.failed == 0
        assert engine.stats.scale_outs == 1

    def test_retired_workers_leave_the_rotation(self, model, graphs):
        engine = InferenceEngine(model, n_workers=2, compile=False, max_batch_structs=2)
        assert engine.retire_worker() == 1
        served = engine.predict_many(graphs[:6])
        assert all(p.worker == 0 for p in served)


class TestSnapshotDriftGate:
    #: dataclass fields that surface in the snapshot under derived names
    ENGINE_FIELD_KEYS = {
        "latencies": ("latency_p50", "latency_p95"),
        "class_latencies": ("class_latency_p50", "class_latency_p95"),
        "raw_cost": ("padding_overhead",),
        "padded_cost": ("padding_overhead",),
        "cache_hits": ("cache_hits", "hit_rate"),
    }
    TENANT_FIELD_KEYS = {
        "latencies": ("latency_p50", "latency_p95"),
    }

    def test_every_engine_counter_is_reported(self):
        snap = EngineStats().as_dict()
        for f in dataclasses.fields(EngineStats):
            for key in self.ENGINE_FIELD_KEYS.get(f.name, (f.name,)):
                assert key in snap, f"EngineStats.{f.name} missing from as_dict()"

    def test_every_tenant_counter_is_reported(self):
        block = TenantStats().as_dict()
        for f in dataclasses.fields(TenantStats):
            for key in self.TENANT_FIELD_KEYS.get(f.name, (f.name,)):
                assert key in block, f"TenantStats.{f.name} missing from as_dict()"

    def test_snapshot_key_set_frozen(self, model):
        """Reports are built from the dataclass fields; their key sets are
        the published ones (benches and the CLI read them by name)."""
        assert set(EngineStats().as_dict()) == {
            "batches", "cache_hits", "cache_misses", "class_latency_p50",
            "class_latency_p95", "collate_hits", "collate_misses",
            "deadline_misses", "failed", "hedge_wins", "hedges", "hit_rate",
            "latency_p50", "latency_p95", "load_shed", "merged_batches",
            "merges", "padding_overhead", "publishes", "quota_shed", "requests",
            "retries", "scale_ins", "scale_outs", "tenants", "warm_unsettled",
            "wave_structs", "waves", "worker_failures", "worker_replacements",
        }  # fmt: skip
        assert set(TenantStats().as_dict()) == {
            "expired", "failed", "latency_p50", "latency_p95", "padded_cost",
            "padding_overhead", "raw_cost", "served", "shed", "submitted",
        }  # fmt: skip
        snap = InferenceEngine(model, compile=True).snapshot()
        assert set(snap) - set(EngineStats().as_dict()) == {
            "captures", "eager_fallbacks", "guard_invalidations", "replays",
            "unsupported",
        }  # fmt: skip

    def test_snapshot_includes_per_tenant_block(self, model, graphs):
        engine = InferenceEngine(
            model, n_workers=1, compile=False, tenants=[TenantPolicy("a")]
        )
        engine.submit(graphs[0], now=0.0, tenant="a")
        engine.flush(now=0.0)
        snap = engine.snapshot()
        assert snap["tenants"]["a"]["served"] == 1
        assert set(snap["tenants"]["a"]) == set(TenantStats().as_dict())


class TestFairBeatsFifo:
    def test_paced_fair_beats_fifo_on_interactive_p95(self, model, graphs, monkeypatch):
        """A screening tenant's bulk burst at t=0 plus an analyst's
        interactive trickle, two eager workers on both engines: FIFO queues
        the trickle behind the whole backlog, paced weighted-fair dispatch
        lets it overtake.  On a fixed-step ``perf_counter`` every batch is
        priced one tick, so the modeled latencies (and the ratio, 11.65x
        here) repeat exactly; scheduling only reorders, so every served bit
        equals solo eager inference.  A third, one-worker fair engine
        breaches an SLA of half a batch on the same stream, scales out and
        drains back in, with the same bits and accounting."""
        tick = 1e-3  # one batch's modeled service time
        pool = [graphs[i % len(graphs)] for i in range(96)]
        traffic = [Arrival(0.0, "screening", "bulk", g) for g in pool] + [
            Arrival(tick * (i + 1), "analyst", "interactive", g)
            for i, g in enumerate(pool[:8])
        ]
        common = dict(compile=False, max_batch_structs=4, max_wait=tick / 2)
        tenants = [TenantPolicy("screening", 1.0), TenantPolicy("analyst", 4.0)]
        monkeypatch.setattr(scheduler_module, "BREACH_SCANS", 2)
        monkeypatch.setattr(scheduler_module, "MIN_SAMPLES", 4)
        # FIFO baseline: one flush wait for both classes
        with mock.patch.object(
            engine_module,
            "standard_classes",
            lambda max_wait: {
                "interactive": ClassPolicy("interactive"),
                "bulk": ClassPolicy("bulk"),
            },
        ):
            fifo = InferenceEngine(model, n_workers=2, **common)
        fair = InferenceEngine(
            model, n_workers=2, tenants=tenants, paced=True, **common
        )
        elastic = InferenceEngine(
            model,
            n_workers=1,
            tenants=tenants,
            paced=True,
            autoscale=AutoscaleConfig(sla_p95=tick / 2, max_workers=3),
            **common,
        )
        baseline = {id(g): p for g, p in zip(graphs, _eager_baseline(model, graphs))}
        p95 = {}
        for name, engine in (("fifo", fifo), ("fair", fair), ("elastic", elastic)):
            clock = SimpleNamespace(
                perf_counter=lambda ticks=itertools.count(): next(ticks) * tick
            )
            with mock.patch.object(engine_module, "time", clock):
                result = drive(engine, traffic)
            check_conservation(engine, result, traffic)
            check_tenant_sums(engine)
            assert len(result.predictions) == len(traffic)
            for rid, pred in result.predictions.items():
                assert _equal(pred, baseline[id(result.accepted[rid].graph)])
            p95[name] = percentile(
                [
                    result.predictions[rid].latency
                    for rid, arrival in result.accepted.items()
                    if arrival.request_class == "interactive"
                ],
                95,
            )
        assert p95["fifo"] >= 2.0 * p95["fair"]
        assert set(fair.snapshot()["tenants"]) == {"screening", "analyst"}
        assert elastic.stats.scale_outs >= 1 and elastic.stats.scale_ins >= 1


class TestHarnessConservation:
    def test_conservation_with_quotas_and_deadlines(self, model, graphs):
        """Adversarial mix: tight quotas, short deadlines, paced fleet —
        every arrival is exactly served, shed, or expired."""
        engine = InferenceEngine(
            model,
            n_workers=2,
            compile=False,
            max_batch_structs=4,
            max_wait=0.5,
            tenants=[
                TenantPolicy("burst", weight=1.0, max_pending=5),
                TenantPolicy("trickle", weight=2.0),
            ],
            paced=True,
        )
        traffic = generate_traffic(
            graphs,
            {"burst": 5.0, "trickle": 1.0},
            seed=11,
            n=60,
            horizon=1.0,
            deadline=0.75,
        )
        result = drive(engine, traffic)
        check_conservation(engine, result, traffic)
        check_tenant_sums(engine)
        assert len(result.shed) > 0  # quotas actually bit
