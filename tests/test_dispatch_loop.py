"""One dispatch loop: the merged loop replays the two loops it replaced.

``InferenceEngine._dispatch_ready`` replaced the unpaced ``_drain``, the
paced ``_dispatch_next`` and the ``paced`` branches of ``flush`` /
``_flush_ready``, and ``_idle_worker`` became a question to
``_pick_worker``.  :class:`TwoLoopEngine` keeps those five methods verbatim
as the oracle.  A hypothesis sweep replays seeded multi-tenant streams
(``serve_harness.generate_traffic``, with mid-stream polls and publishes)
through both engines over the configuration grid — paced or not, merging
or not, declared tenants or an open world, kill + flake + straggle +
hedging or no faults, batch cap 3 or 8, compiled or eager, deadlines on or
off — on a fixed-step ``perf_counter``, and requires identical dispatch
traces (dispatch index, members, ``now``), per-request outcomes (worker,
batch size, latency, version, energy, typed failure) and snapshots.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.serve import InferenceEngine, TenantPolicy, WorkerFaultPlan  # noqa: E402
from repro.serve import engine as engine_module  # noqa: E402
from repro.serve.faults import DeadlineExceeded, WorkerFailure  # noqa: E402
from repro.serve.scheduler import plan_groups  # noqa: E402
from serve_harness import generate_traffic, make_graphs, make_model  # noqa: E402

MODEL = make_model()
GRAPHS = make_graphs(10, seed=9)
TENANTS = {"heavy": 3.0, "light": 1.0}  # share of the stream per tenant


class TracedEngine(InferenceEngine):
    """Records every dispatched group as ``(dispatch index, member ids, now)``."""

    def __init__(self, *args, **kwargs) -> None:
        self.trace: list[tuple] = []
        super().__init__(*args, **kwargs)

    def _dispatch(self, group, now):
        self.trace.append((self._dispatches, tuple(p.request_id for p in group), now))
        super()._dispatch(group, now)


class TwoLoopEngine(TracedEngine):
    """The engine's dispatch before its two loops merged (the oracle)."""

    def flush(self, now=None, merge=None):
        now = self._advance(now)
        merge = self.merge_tiers if merge is None else merge
        if self.paced:
            for key in list(self._queues):
                self._set_queue(key, self._shed_expired(self._queues[key], now))
            n = 0
            while self._dispatch_next(now, merge, force=True):
                n += 1
            return n
        return self._drain(now, merge)

    def _flush_ready(self, now):
        if self.autoscaler is not None:
            self.autoscaler.scan(self, now)
        if self.paced:
            for key in list(self._queues):
                self._set_queue(key, self._shed_expired(self._queues[key], now))
            while self._idle_worker(now) and self._dispatch_next(
                now, self.merge_tiers, force=False
            ):
                pass
            return
        self._drain(
            now,
            self.merge_tiers,
            lambda queue: any(now - p.submitted >= p.wait for p in queue),
        )

    def _drain(self, now, merge, tail=None):
        versions = {}
        for key in sorted(self._queues):
            queue = self._set_queue(key, self._shed_expired(self._queues[key], now))
            if queue:
                versions.setdefault(key[0], {})[key[1]] = queue
        n = 0
        for version, tiers in versions.items():
            for group in plan_groups(
                tiers, self.max_batch_structs, self._fits if merge else None, tail=tail
            ):
                self._dispatch(self._take(version, group), now)
                n += 1
        return n

    def _dispatch_next(self, now, merge, force):
        best_key = None
        best_rank = None
        for key, queue in self._queues.items():
            if not (
                force
                or len(queue) >= self.max_batch_structs
                or any(now - p.submitted >= p.wait for p in queue)
            ):
                continue
            rank = (queue[0].tag, queue[0].seq)
            if best_rank is None or rank < best_rank:
                best_key, best_rank = key, rank
        if best_key is None:
            return False
        version, tier = best_key
        queue = self._queues[best_key]
        if merge and len(queue) < self.max_batch_structs:
            tiers = {k[1]: q for k, q in self._queues.items() if k[0] == version}
            fits = self._fits
        else:
            tiers, fits = {tier: queue}, None
        group = next(plan_groups(tiers, self.max_batch_structs, fits, order=(tier,)))
        self._dispatch(self._take(version, group), now)
        return True

    def _idle_worker(self, now):
        for w in range(self.n_workers):
            if self._retired[w]:
                continue
            until = self._drained_until[w]
            if until is not None and until > now:
                continue
            if self._worker_free[w] <= now:
                return True
        return False


def _collect(engine, request_id, now, outcomes) -> None:
    try:
        pred = engine.poll(request_id, now=now)
    except (DeadlineExceeded, WorkerFailure) as exc:
        outcomes[request_id] = type(exc).__name__
        return
    if pred is not None:
        outcomes[request_id] = (
            pred.worker, pred.batch_structs, pred.latency, pred.version, pred.energy,
        )  # fmt: skip


def _serve(cls, config, traffic):
    """Replay ``traffic`` on a fresh ``cls`` engine; everything it decided."""
    paced, merge, tenanted, faults, cap, compiled = config
    plan = WorkerFaultPlan()
    if faults:
        plan.kill(worker=1, dispatch=3).flake(worker=0, dispatch=1, count=2)
        plan.straggle(worker=2, seconds=0.05, start=2)
    engine = cls(
        MODEL,
        n_workers=3,
        compile=compiled,
        max_batch_structs=cap,
        max_wait=0.2,
        max_programs=64,
        merge_tiers=merge,
        fault_plan=plan,
        hedge=faults,
        tenants=[TenantPolicy("heavy", 1.0), TenantPolicy("light", 3.0)]
        if tenanted
        else None,
        paced=paced,
    )
    ticks = itertools.count()
    clock = SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3)
    outcomes: dict = {}
    with mock.patch.object(engine_module, "time", clock):
        ids = []
        for i, arrival in enumerate(traffic):
            if i % 9 == 8:
                engine.publish_weights()
            ids.append(
                engine.submit(
                    arrival.graph,
                    now=arrival.time,
                    tenant=arrival.tenant,
                    request_class=arrival.request_class,
                    deadline=arrival.deadline,
                )
            )
            if i % 4 == 3:
                _collect(engine, ids[i - 3], arrival.time, outcomes)
        engine.flush(now=traffic[-1].time)
        for request_id in ids:
            _collect(engine, request_id, 1e6, outcomes)
        try:
            wave = [p.energy for p in engine.predict_wave(GRAPHS[:5])]
        except WorkerFailure as exc:
            wave = str(exc)
    return engine.trace, outcomes, wave, engine.snapshot()


@given(
    config=st.tuples(
        st.booleans(),  # paced
        st.booleans(),  # merge_tiers
        st.booleans(),  # declared tenants
        st.booleans(),  # kill + flake + straggle + hedge
        st.sampled_from([3, 8]),  # max_batch_structs
        st.booleans(),  # compiled
    ),
    seed=st.integers(min_value=0, max_value=3),
    deadline=st.sampled_from([None, 0.3]),
    horizon=st.sampled_from([0.05, 0.5, 2.0]),
)
@settings(max_examples=48, deadline=None, derandomize=True)
def test_one_loop_replays_both_loops(config, seed, deadline, horizon):
    traffic = generate_traffic(
        GRAPHS, TENANTS, seed=seed, n=30, horizon=horizon, deadline=deadline
    )
    expected = _serve(TwoLoopEngine, config, traffic)
    got = _serve(TracedEngine, config, traffic)
    assert got[0] == expected[0], "dispatch traces differ"
    assert got[1] == expected[1], "per-request outcomes differ"
    assert got[2] == expected[2], "synchronous wave differs"
    assert got[3] == expected[3], "snapshots differ"
    assert len(expected[0]) > 0
