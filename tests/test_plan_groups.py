"""The one grouping planner: properties, the frozen old plan, live == simulated.

The contract under test (ISSUE 16, docs/serving.md "Grouping"):
:func:`repro.serve.scheduler.plan_groups` is the only grouping code of the
engine.  The hypothesis half checks it as a pure function — a partition,
capped, FIFO per tier, deterministic, input untouched — and against a frozen
copy of the ``_plan_groups`` it replaced.  The engine half checks that the
plan ``warm_start`` simulates is the grouping a live flush performs, that a
warmed stream captures once per group shape and then never, and that the
synchronous paths plan over the whole set (one wave, one replay).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.graph.batching import TierShapes, workload_cost, workload_tier  # noqa: E402
from repro.model import OptLevel  # noqa: E402
from repro.serve import InferenceEngine  # noqa: E402
from repro.serve.scheduler import plan_groups  # noqa: E402
from serve_harness import TINY_CFG, make_graphs, make_model  # noqa: E402


# ------------------------------------------------------------ frozen oracle
def _old_plan_groups(dims_list, cap, merge, overhead, overhead_cap):
    """``InferenceEngine._plan_groups`` as it stood before the planner
    (PR 13 HEAD), with the engine state it read passed in.  Kept verbatim as
    the oracle: do not "fix" it."""
    queues: dict[int, list] = {}
    for dims in dims_list:
        queues.setdefault(workload_tier(dims), []).append(dims)
    groups: list[list] = []
    for tier in sorted(queues):
        queue = queues[tier]
        while len(queue) >= cap:
            groups.append(queue[:cap])
            del queue[:cap]
        if not queue:
            continue
        group = list(queue)
        queue.clear()
        if merge:
            candidates = sorted(
                (k for k in queues if k != tier and queues[k]),
                key=lambda k: (abs(k - tier), k),
            )
            for k in candidates:
                other = queues[k]
                while other and len(group) < cap:
                    if overhead(group + [other[0]]) > overhead_cap:
                        break
                    group.append(other.pop(0))
                if len(group) >= cap:
                    break
        groups.append(group)
    return groups


DIMS = st.tuples(
    st.integers(1, 40), st.integers(1, 400), st.integers(1, 200), st.integers(0, 900)
)
STREAM = st.lists(DIMS, min_size=0, max_size=40)
CAP = st.integers(1, 8)
PRICE_CAP = st.sampled_from([0.0, 0.5, math.inf])


def _queues(stream):
    """``{tier: [(dims, stream index), ...]}`` — items are unique."""
    queues: dict[int, list] = {}
    for i, dims in enumerate(stream):
        queues.setdefault(workload_tier(dims), []).append((dims, i))
    return queues


def padding_overhead(dims_list):
    """Relative ghost workload of the batch ``dims_list`` collates into, as
    an empty tier table pads it (each group priced at its own buckets)."""
    summed = tuple(map(sum, zip(*dims_list)))
    padded = TierShapes().target(len(dims_list), False, summed)
    return workload_cost(*padded) / max(sum(workload_cost(*d) for d in dims_list), 1) - 1.0


def _fits(price_cap):
    return lambda members: padding_overhead([d for d, _ in members]) <= price_cap


@pytest.mark.slow
class TestPlannerProperties:
    @given(stream=STREAM, cap=CAP, price_cap=st.one_of(st.none(), PRICE_CAP))
    @settings(max_examples=300, deadline=None)
    def test_partition_capped_fifo_deterministic(self, stream, cap, price_cap):
        queues = _queues(stream)
        frozen = {tier: list(q) for tier, q in queues.items()}
        fits = None if price_cap is None else _fits(price_cap)
        plan = list(plan_groups(queues, cap, fits))
        assert queues == frozen  # the input is never mutated
        assert plan == list(plan_groups(queues, cap, fits))  # deterministic
        taken: dict[int, list] = {tier: [] for tier in queues}
        for group in plan:
            assert 1 <= len(group) <= cap
            home = group[0][0]
            assert all(item in frozen[tier] for tier, item in group)
            # home members lead the group, absorbed tiers follow
            tiers = [tier for tier, _ in group]
            assert tiers[: tiers.count(home)] == [home] * tiers.count(home)
            for tier, item in group:
                taken[tier].append(item)
        # every request in exactly one group, FIFO within its tier
        assert taken == frozen

    @given(stream=STREAM, cap=CAP)
    @settings(max_examples=200, deadline=None)
    def test_absorption_off_is_the_old_per_tier_plan(self, stream, cap):
        plan = plan_groups(_queues(stream), cap)
        got = [[dims for _, (dims, _i) in group] for group in plan]
        assert got == _old_plan_groups(stream, cap, False, padding_overhead, 0.0)

    @given(stream=STREAM, cap=CAP, price_cap=PRICE_CAP)
    @settings(max_examples=300, deadline=None)
    def test_absorption_on_is_the_old_merging_plan(self, stream, cap, price_cap):
        plan = plan_groups(_queues(stream), cap, _fits(price_cap))
        got = [[dims for _, (dims, _i) in group] for group in plan]
        assert got == _old_plan_groups(stream, cap, True, padding_overhead, price_cap)

    @given(stream=STREAM, cap=CAP, price_cap=PRICE_CAP)
    @settings(max_examples=100, deadline=None)
    def test_order_and_tail_restrict_the_plan(self, stream, cap, price_cap):
        """``order=(tier,)`` is the paced path's "next group of this tier";
        ``tail`` holds partial groups back without touching full ones."""
        queues = _queues(stream)
        for tier, queue in queues.items():
            first = next(plan_groups(queues, cap, _fits(price_cap), order=(tier,)))
            home = [item for t, item in first if t == tier]
            assert home == queue[: len(home)] and len(home) == min(cap, len(queue))
        held = list(plan_groups(queues, cap, _fits(price_cap), tail=lambda rest: False))
        assert all(len(group) == cap for group in held)
        assert len(held) == sum(len(q) // cap for q in queues.values())


def test_absorbs_nearest_tier_first_ties_to_the_lower():
    """The live paths see lower tiers that still hold items (a tail not yet
    due, or ``order`` starting mid-way); the whole-set oracle never does."""
    queues = {1: ["a1", "a2"], 2: ["b"], 3: ["c"], 5: ["e"]}

    def always(members):
        return True

    def no_a2(members):
        return "a2" not in members

    assert next(plan_groups(queues, 3, always, order=(2,))) == [
        (2, "b"), (1, "a1"), (1, "a2")
    ]
    assert next(plan_groups(queues, 4, always, order=(3,))) == [
        (3, "c"), (2, "b"), (1, "a1"), (1, "a2")
    ]
    assert next(plan_groups(queues, 4, no_a2, order=(2,))) == [
        (2, "b"), (1, "a1"), (3, "c"), (5, "e")
    ]
    held = plan_groups(queues, 3, always, tail=lambda rest: rest != ["a1", "a2"])
    assert list(held) == [[(2, "b"), (1, "a1"), (1, "a2")], [(3, "c"), (5, "e")]]


# ------------------------------------------------------------------ engine
@pytest.fixture(scope="module")
def model():
    return make_model(cfg=TINY_CFG.with_level(OptLevel.DECOMPOSE_FS))


@pytest.fixture(scope="module")
def pool():
    """40 distinct structures over several tiers, with partial tails."""
    return make_graphs(40, seed=9, max_atoms=12)


def _dims(g):
    return (g.num_atoms, g.num_edges, g.num_short_edges, g.num_angles)


def _planned(engine, stream, merge):
    """The planner's groups for ``stream``, as lists of stream indices."""
    queues: dict[int, list[int]] = {}
    for i, g in enumerate(stream):
        queues.setdefault(workload_tier(_dims(g)), []).append(i)

    def fits(members):
        return engine._affordable([_dims(stream[i]) for i in members])

    plan = plan_groups(queues, engine.max_batch_structs, fits if merge else None)
    return [[i for _tier, i in group] for group in plan]


def _record_dispatches(engine, monkeypatch):
    """Every group the engine dispatches from now on, as request-id lists."""
    dispatch = engine._dispatch
    groups: list[list[int]] = []

    def recording(group, now):
        groups.append([p.request_id for p in group])
        dispatch(group, now)

    monkeypatch.setattr(engine, "_dispatch", recording)
    return groups


def _equal(a, b) -> bool:
    return (
        a.energy_per_atom == b.energy_per_atom
        and np.array_equal(a.forces, b.forces)
        and np.array_equal(a.stress, b.stress)
        and np.array_equal(a.magmom, b.magmom)
    )


class TestLivePlanIsTheSimulatedPlan:
    @pytest.mark.parametrize("merge_tiers", [False, True])
    def test_flush_groups_as_warm_start_planned(self, model, pool, merge_tiers, monkeypatch):
        """warm_start simulates with the planner; a flush of the same stream
        runs the planner: the same members in every group, one capture per
        distinct group shape on the first pass, zero on the second."""
        cap = 4
        seen: dict[int, int] = {}
        stream = []  # fewer than ``cap`` per tier: nothing leaves before the flush
        for g in pool:
            tier = workload_tier(_dims(g))
            seen[tier] = seen.get(tier, 0) + 1
            if seen[tier] < cap:
                stream.append(g)
        assert len(seen) > 4 and len(stream) > 3 * cap
        engine = InferenceEngine(
            model,
            n_workers=1,
            compile=True,
            max_batch_structs=cap,
            max_wait=100.0,
            merge_tiers=merge_tiers,
            max_programs=128,
        )
        assert engine.warm_start(stream) > 0
        planned = _planned(engine, stream, merge_tiers)
        live = _record_dispatches(engine, monkeypatch)

        def serve():
            del live[:]
            ids = [engine.submit(g, now=0.0) for g in stream]
            assert not live  # every queue is still partial
            engine.flush(now=0.0)
            assert all(engine.poll(i) is not None for i in ids)
            return [[request_id - ids[0] for request_id in group] for group in live]

        assert serve() == planned
        snap = engine.snapshot()
        assert snap["captures"] == len(engine.cache.programs) <= len(planned)
        assert snap["warm_unsettled"] == 0
        tier_of = [workload_tier(_dims(g)) for g in stream]
        merges = sum(tier_of[i] != tier_of[g[0]] for g in planned for i in g)
        assert snap["merges"] == merges and (merges > 0) == merge_tiers
        assert serve() == planned
        assert engine.snapshot()["captures"] == snap["captures"]  # then zero

    def test_synchronous_set_is_planned_whole(self, model, pool, monkeypatch):
        """predict_many absorbs across tiers on an engine whose live queue
        does not merge, counts it, and stays bit-identical to solo eager."""
        engine = InferenceEngine(
            model, n_workers=2, compile=True, max_batch_structs=4, max_programs=128
        )
        assert not engine.merge_tiers
        live = _record_dispatches(engine, monkeypatch)
        served = engine.predict_many(pool)
        planned = _planned(engine, pool, merge=True)  # against the settled shapes
        assert live == planned
        assert any(len(g) == 4 for g in planned) and len(planned) < len(
            _planned(engine, pool, merge=False)
        )
        snap = engine.snapshot()
        assert snap["merges"] > 0 and snap["merged_batches"] > 0
        del live[:]
        again = engine.predict_many(pool)
        assert [[i - len(pool) for i in g] for g in live] == planned
        assert engine.snapshot()["captures"] == snap["captures"]
        solo = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=1
        ).predict_many(pool)
        assert all(_equal(a, b) for a, b in zip(served, solo))
        assert all(_equal(a, b) for a, b in zip(again, solo))

    def test_one_wave_is_one_replay(self, model):
        """A wave of n <= max_batch_structs trajectories of mixed tiers goes
        out as one batch: one capture the first time, one replay after."""
        wave = make_graphs(6, seed=4, max_atoms=6)
        assert len({workload_tier(_dims(g)) for g in wave}) > 1
        engine = InferenceEngine(
            model, n_workers=2, compile=True, max_batch_structs=8, max_programs=64
        )
        for n in (1, 2):
            served = engine.predict_wave(wave)
            assert all(p.batch_structs == len(wave) for p in served)
            snap = engine.snapshot()
            assert snap["batches"] == n and snap["waves"] == n
            assert snap["captures"] == 1 and snap["replays"] == n - 1
