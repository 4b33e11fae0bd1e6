"""A stateful fuzzer over the serving engine's public API and its fleet.

:class:`FleetMachine` is a hypothesis ``RuleBasedStateMachine``: each run
draws ``replace_workers`` and ``hedge`` once, then interleaves ``submit``,
``poll``, ``flush``, clock advances, ``publish_weights``, ``add_worker``,
``retire_worker`` (``None``, a live, a retired or a dead index) and kills
or flakes scheduled on a future dispatch index of the engine's
:class:`~repro.serve.faults.WorkerFaultPlan`.  The engine is eager, so a
run stays fast.  Checked after every step:

* served + shed + expired + failed + pending = submitted;
* a terminal error is raised exactly once;
* every served energy equals solo eager inference of its graph on its
  pinned weights;
* each counted scale-in shrinks ``fleet_size`` by one and each scale-out
  grows it by one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.serve import EngineOverloaded, InferenceEngine, WorkerFaultPlan  # noqa: E402
from repro.serve.faults import DeadlineExceeded, WorkerFailure  # noqa: E402
from serve_harness import check_tenant_sums, make_graphs, make_model  # noqa: E402

MODEL = make_model()
GRAPHS = make_graphs(5, seed=4)


def _jittered(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        name: arr + rng.normal(scale=0.05, size=arr.shape)
        for name, arr in MODEL.state_dict().items()
    }


#: Weight states a publish draws from; version 0 is the model's own (index 0).
STATES = [MODEL.state_dict(), _jittered(31), _jittered(32)]


@lru_cache(maxsize=None)
def _solo_energy(state: int, graph: int) -> float:
    """Solo eager energy of ``GRAPHS[graph]`` on ``STATES[state]``."""
    engine = InferenceEngine(MODEL, n_workers=1, compile=False, max_batch_structs=1)
    engine.publish_weights(STATES[state])
    return engine.predict_many([GRAPHS[graph]])[0].energy


def _workers(engine: InferenceEngine, kind: str) -> list[int]:
    """Indices of ``kind``: ``live`` (in the rotation), ``retired`` or
    ``dead`` (a discovered kill drained it for good)."""
    return [
        w
        for w, worker in enumerate(engine.fleet)
        if {
            "live": worker.active,
            "retired": worker.retired,
            "dead": worker.drained_until == float("inf"),
        }[kind]
    ]


class FleetMachine(RuleBasedStateMachine):
    @initialize(replace=st.booleans(), hedge=st.booleans())
    def setup(self, replace, hedge):
        self.plan = WorkerFaultPlan()
        self.engine = InferenceEngine(
            MODEL,
            n_workers=4,
            compile=False,
            max_batch_structs=2,
            max_wait=0.2,
            max_pending=8,
            fault_plan=self.plan,
            hedge=hedge,
            replace_workers=replace,
        )
        self.now = 0.0
        self.submitted = 0
        self.graph_of: dict[int, int] = {}  # request id -> graph index
        self.state_of = {0: 0}  # version -> STATES index
        self.outstanding: set[int] = set()
        self.raised: set[int] = set()

    def _collect(self, request_id: int, now: float | None) -> None:
        try:
            pred = self.engine.poll(request_id, now=now)
        except (DeadlineExceeded, WorkerFailure):
            assert request_id not in self.raised, f"{request_id} raised twice"
            self.raised.add(request_id)
            self.outstanding.discard(request_id)
            assert self.engine.poll(request_id, now=now) is None
            return
        if pred is None:
            return
        self.outstanding.discard(request_id)
        expected = _solo_energy(self.state_of[pred.version], self.graph_of[request_id])
        assert pred.energy == expected, f"request {request_id} served wrong bits"

    @rule(
        graphs=st.lists(st.integers(0, len(GRAPHS) - 1), min_size=1, max_size=4),
        deadline=st.sampled_from([None, 0.1, 1.0]),
        request_class=st.sampled_from(["bulk", "interactive"]),
    )
    def submit(self, graphs, deadline, request_class):
        for graph in graphs:
            self.submitted += 1
            try:
                request_id = self.engine.submit(
                    GRAPHS[graph],
                    now=self.now,
                    deadline=deadline,
                    request_class=request_class,
                )
            except EngineOverloaded:
                continue
            self.graph_of[request_id] = graph
            self.outstanding.add(request_id)

    @rule(data=st.data())
    def poll(self, data):
        ids = sorted(self.outstanding)
        request_id = data.draw(st.sampled_from(ids)) if ids else -1
        self._collect(request_id, self.now)

    @rule()
    def flush(self):
        self.engine.flush(now=self.now)

    @rule(dt=st.sampled_from([0.05, 0.3, 2.0]))
    def advance(self, dt):
        self.now += dt

    @rule(state=st.integers(0, len(STATES) - 1))
    def publish(self, state):
        self.state_of[self.engine.publish_weights(STATES[state])] = state

    @rule()
    def add_worker(self):
        size, outs = self.engine.fleet_size, self.engine.stats.scale_outs
        self.engine.add_worker(now=self.now)
        assert self.engine.fleet_size == size + 1
        assert self.engine.stats.scale_outs == outs + 1

    @rule(kind=st.sampled_from([None, "live", "retired", "dead"]), data=st.data())
    def retire_worker(self, kind, data):
        worker = None
        if kind is not None:
            candidates = _workers(self.engine, kind)
            if not candidates:
                return
            worker = data.draw(st.sampled_from(candidates))
        size, ins = self.engine.fleet_size, self.engine.stats.scale_ins
        retired = self.engine.retire_worker(worker)
        shrunk = 0 if retired is None else 1
        assert self.engine.fleet_size == size - shrunk, "scale-in removed nothing"
        assert self.engine.stats.scale_ins == ins + shrunk

    @rule(worker=st.integers(0, 7), ahead=st.integers(0, 1))
    def kill(self, worker, ahead):
        target = worker % self.engine.n_workers
        self.plan.kill(worker=target, dispatch=self.engine._dispatches + ahead)

    @rule(worker=st.integers(0, 7), ahead=st.integers(0, 1), count=st.integers(1, 2))
    def flake(self, worker, ahead, count):
        target = worker % self.engine.n_workers
        self.plan.flake(
            worker=target, dispatch=self.engine._dispatches + ahead, count=count
        )

    @invariant()
    def conservation(self):
        stats = self.engine.stats
        served = sum(block.served for block in stats.tenants.values())
        assert (
            served
            + stats.load_shed
            + stats.quota_shed
            + stats.deadline_misses
            + stats.failed
            + self.engine.pending
        ) == self.submitted

    def teardown(self):
        if not hasattr(self, "engine"):
            return
        self.engine.flush(now=self.now)
        for request_id in sorted(self.outstanding):
            self._collect(request_id, 1e6)
        assert not self.outstanding, f"requests never resolved: {self.outstanding}"
        assert self.engine.pending == 0
        check_tenant_sums(self.engine)


FleetMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None, derandomize=True
)
TestFleetMachine = FleetMachine.TestCase
