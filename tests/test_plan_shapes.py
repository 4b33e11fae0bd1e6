"""``plan_shapes``: exact padded shapes for batches known up front.

The contract (docs/architecture.md, "Padding: tiers for streams, plans for
fixed blocks"): every member is padded to a shape ``pad_batch`` accepts,
there are at most ``max_shapes`` of them, the cut is the cheapest contiguous
one in ``workload_cost`` order, and on the shards a block sampler really
produces it never pads more than the per-block geometric tiers it replaced.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data import BucketBatchSampler, imbalance_study  # noqa: E402
from repro.graph.batching import (  # noqa: E402
    MAX_PROGRAMS,
    GraphBatch,
    _feasible_fixpoint,
    canonical_targets,
    pad_batch,
    plan_shapes,
    workload_cost,
    workload_tier,
)
from test_samplers_loader import longtail_dims  # noqa: E402

pytestmark = pytest.mark.slow


@st.composite
def dims(draw):
    """One batch's raw (atoms, edges, short, angles), degenerate ones included."""
    atoms = draw(st.integers(1, 40))
    edges = draw(st.integers(0, 400))
    short = draw(st.integers(0, min(edges, 60)))
    angles = draw(st.integers(0, 300)) if short >= 2 else 0
    return (atoms, edges, short, angles)


MEMBERS = st.lists(dims(), min_size=1, max_size=20)
BUDGETS = st.integers(1, MAX_PROGRAMS)


def _blank_batch(counts) -> GraphBatch:
    """A one-structure batch with the given counts (``pad_batch`` reads sizes only)."""
    n, e, ns, na = counts
    ints = lambda size: np.zeros(size, dtype=np.int64)  # noqa: E731
    ends = lambda total: np.array([0, total], dtype=np.int64)  # noqa: E731
    return GraphBatch(
        num_structs=1,
        species=ints(n),
        frac=np.zeros((n, 3)),
        atom_sample=ints(n),
        lattices=np.eye(3)[None],
        edge_src=ints(e),
        edge_dst=ints(e),
        edge_image=np.zeros((e, 3), dtype=np.int64),
        edge_sample=ints(e),
        short_idx=ints(ns),
        angle_e1=ints(na),
        angle_e2=ints(na),
        angle_center=ints(na),
        angle_sample=ints(na),
        atom_offsets=ends(n),
        edge_offsets=ends(e),
        short_offsets=ends(ns),
        angle_offsets=ends(na),
    )


def _planned_cost(members, max_shapes) -> int:
    assignment, shapes = plan_shapes(members, max_shapes)
    return sum(workload_cost(*shapes[i]) for i in assignment)


class TestPlanShapes:
    @given(members=MEMBERS, max_shapes=BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_every_member_is_padded_to_its_shape(self, members, max_shapes):
        assignment, shapes = plan_shapes(members, max_shapes)
        assert len(assignment) == len(members)
        assert 1 <= len(shapes) <= max_shapes
        assert sorted(set(assignment)) == list(range(len(shapes)))  # none unused
        assert len(set(shapes)) == len(shapes)
        for member, i in zip(members, assignment):
            padded = pad_batch(_blank_batch(member), *shapes[i])
            assert padded is not None, (member, shapes[i])
            assert (
                padded.num_atoms,
                padded.num_edges,
                padded.num_short_edges,
                padded.num_angles,
            ) == shapes[i]

    @given(members=MEMBERS, max_shapes=BUDGETS, seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_and_input_untouched(self, members, max_shapes, seed):
        before = list(members)
        first = plan_shapes(members, max_shapes)
        assert members == before
        assert plan_shapes(members, max_shapes) == first
        # a member's shape does not depend on where it stood in the input
        order = np.random.default_rng(seed).permutation(len(members))
        shuffled, shapes = plan_shapes([members[i] for i in order], max_shapes)
        assert shapes == first[1]
        assert [shuffled[list(order).index(i)] for i in range(len(members))] == first[0]

    @given(members=MEMBERS)
    @settings(max_examples=100, deadline=None)
    def test_cost_never_rises_with_the_budget(self, members):
        costs = [_planned_cost(members, k) for k in range(1, MAX_PROGRAMS + 1)]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        # with a shape of its own, a member pays for its ghost rows only
        alone = sum(workload_cost(*_feasible_fixpoint([m], m)) for m in members)
        assert _planned_cost(members, len(members)) == alone

    @given(members=st.lists(dims(), min_size=1, max_size=7), max_shapes=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_no_contiguous_cut_is_cheaper(self, members, max_shapes):
        distinct = sorted(set(members), key=lambda m: (workload_cost(*m), m))
        count = {m: members.count(m) for m in distinct}
        d = len(distinct)
        best = None
        for k in range(1, min(max_shapes, d) + 1):
            for cuts in itertools.combinations(range(1, d), k - 1):
                bounds = [0, *cuts, d]
                cost = 0
                for lo, hi in zip(bounds, bounds[1:]):
                    group = distinct[lo:hi]
                    raw = tuple(max(c) for c in zip(*group))
                    shape = _feasible_fixpoint(group, raw)
                    cost += workload_cost(*shape) * sum(count[m] for m in group)
                best = cost if best is None else min(best, cost)
        assert _planned_cost(members, max_shapes) == best

    def test_rejects_empty_input_and_budget(self):
        with pytest.raises(ValueError):
            plan_shapes([], 4)
        with pytest.raises(ValueError):
            plan_shapes([(1, 0, 0, 0)], 0)


def _sampler(n, world, per_rank, seed):
    gbs = world * per_rank
    table = longtail_dims(max(n, gbs), seed=seed)
    features = table[:, 0] + table[:, 1] + table[:, 3]
    return BucketBatchSampler(features, gbs, world, seed=seed, dims=table), table


def _parent_tiers(sampler, table):
    """The rule this planner replaced: one geometric tier per block (the
    heaviest rank's), a tier's shape the bucketed fixpoint of its shards."""
    groups: dict[tuple[int, int], list[tuple]] = {}
    for shards in sampler.epoch_partitions(0):
        raws = [tuple(int(c) for c in table[s].sum(axis=0)) for s in shards]
        tier = max(workload_tier(raw) for raw in raws)
        for shard, raw in zip(shards, raws):
            groups.setdefault((len(shard), tier), []).append(raw)
    return groups


class TestSamplerPlans:
    @given(
        n=st.integers(4, 96),
        world=st.sampled_from([1, 2, 4]),
        per_rank=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**16),
    )
    # An observation about long-tailed corpora, not a theorem (the old rule's
    # groups are not contiguous in shard cost): the same examples every run.
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_never_pads_more_than_per_block_tiers(self, n, world, per_rank, seed):
        sampler, table = _sampler(n, world, per_rank, seed)
        groups = _parent_tiers(sampler, table)
        parent = sum(
            len(members) * workload_cost(*canonical_targets(members))
            for members in groups.values()
        )
        # shape for shape: as many exact shapes per class as there were tiers
        matched = 0
        for length in {key[0] for key in groups}:
            tiers = [members for key, members in groups.items() if key[0] == length]
            matched += _planned_cost([m for ms in tiers for m in ms], len(tiers))
        assert matched <= parent
        # and as built, whenever the tiers fitted the program cache at all
        if len(groups) <= MAX_PROGRAMS:
            planned = sum(
                workload_cost(*sampler.padding_targets(s))
                for shards in sampler.epoch_partitions(0)
                for s in shards
            )
            assert planned <= parent

    @given(
        n=st.integers(4, 96),
        world=st.sampled_from([1, 2, 4]),
        per_rank=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_shard_length_class_has_a_shape_within_budget(
        self, n, world, per_rank, seed
    ):
        sampler, _ = _sampler(n, world, per_rank, seed)
        lengths = {len(s) for shards in sampler.epoch_partitions(0) for s in shards}
        assert {length for length, _ in sampler.tier_targets} == lengths
        assert len(sampler.tier_targets) <= MAX_PROGRAMS
        # what a trainer captures first: a shard of the costliest shape
        first = sampler.padding_targets(sampler.largest_planned_shard())
        assert workload_cost(*first) == max(
            workload_cost(*shape) for shape in sampler.tier_targets.values()
        )

    def test_reshard_replans_for_the_new_world(self):
        sampler, table = _sampler(64, 4, 2, seed=11)
        halved = sampler.reshard(2)
        assert {length for length, _ in halved.tier_targets} == {4}
        assert set(halved.tier_targets.values()) != set(sampler.tier_targets.values())
        for shards in halved.epoch_partitions(0):
            for s in shards:
                raw = tuple(int(c) for c in table[s].sum(axis=0))
                target = halved.padding_targets(s)
                assert _feasible_fixpoint([raw], target) == target

    def test_load_balance_is_untouched_by_planning(self):
        """Fig. 9's CoV is a function of the feature numbers only: planning
        pads shards, it never moves a sample between ranks."""
        sampler, table = _sampler(96, 4, 4, seed=5)
        unplanned = BucketBatchSampler(
            sampler.feature_numbers, sampler.global_batch_size, 4, seed=5
        )
        assert np.array_equal(
            imbalance_study(sampler, epochs=2)["cov"],
            imbalance_study(unplanned, epochs=2)["cov"],
        )
