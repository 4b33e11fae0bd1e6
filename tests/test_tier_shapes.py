"""``TierShapes``: the one owner of a streamed batch's padded shape.

The contract (docs/architecture.md, "Padding: tiers for streams, plans for
fixed blocks"): ``target`` is the shape ``pad`` gives a batch, read without
writing; ``pad`` records it as the batch's tier shape; ``seed`` pre-sizes a
tier to where live pads converge; untiered (serial-basis) batches never
touch the table; and the serving engine's booked ``padded_cost`` is the
workload its workers really ran.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.graph.batching import (  # noqa: E402
    GraphBatch,
    PadInfo,
    TierShapes,
    collate,
    feasible_targets_for_counts,
    workload_cost,
    workload_tier,
)
from repro.model import OptLevel  # noqa: E402
from repro.serve import InferenceEngine  # noqa: E402
from repro.serve.fleet import Worker  # noqa: E402
from repro.tensor.compile import InferenceCompiler  # noqa: E402
from serve_harness import TINY_CFG, make_graphs, make_model  # noqa: E402


@st.composite
def dims(draw):
    """One structure's raw (atoms, edges, short, angles), degenerate ones included."""
    atoms = draw(st.integers(1, 12))
    edges = draw(st.integers(0, 120))
    short = draw(st.integers(0, min(edges, 30)))
    angles = draw(st.integers(0, 100)) if short >= 2 else 0
    return (atoms, edges, short, angles)


MEMBERS = st.lists(dims(), min_size=1, max_size=5)
SHAPE = st.tuples(*[st.integers(0, 700)] * 4)
KEY = st.tuples(st.integers(2, 6), st.booleans(), st.integers(5, 25))


def _counts(batch) -> tuple[int, int, int, int]:
    return (batch.num_atoms, batch.num_edges, batch.num_short_edges, batch.num_angles)


def _batch(members, labeled: bool) -> GraphBatch:
    """A batch of ``members`` structures (``pad_batch`` reads sizes only)."""
    s = len(members)
    ends = [np.concatenate([[0], np.cumsum(col)]).astype(np.int64) for col in zip(*members)]
    n, e, ns, na = (int(end[-1]) for end in ends)
    ints = lambda size: np.zeros(size, dtype=np.int64)  # noqa: E731
    batch = GraphBatch(
        num_structs=s,
        species=ints(n),
        frac=np.zeros((n, 3)),
        atom_sample=ints(n),
        lattices=np.tile(np.eye(3), (s, 1, 1)),
        edge_src=ints(e),
        edge_dst=ints(e),
        edge_image=np.zeros((e, 3), dtype=np.int64),
        edge_sample=ints(e),
        short_idx=ints(ns),
        angle_e1=ints(na),
        angle_e2=ints(na),
        angle_center=ints(na),
        angle_sample=ints(na),
        atom_offsets=ends[0],
        edge_offsets=ends[1],
        short_offsets=ends[2],
        angle_offsets=ends[3],
    )
    if labeled:
        batch.energy_per_atom = np.zeros(s)
        batch.forces = np.zeros((n, 3))
        batch.stress = np.zeros((s, 3, 3))
        batch.magmom = np.zeros(n)
    return batch


@pytest.mark.slow
class TestOwner:
    @given(
        members=MEMBERS,
        labeled=st.booleans(),
        own=st.one_of(st.none(), SHAPE),
        others=st.dictionaries(KEY, SHAPE, max_size=3),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_pad_gives_the_target_and_records_it(self, members, labeled, own, others):
        batch = _batch(members, labeled)
        counts = _counts(batch)
        key = (len(members) + 1, labeled, workload_tier(counts))
        tiers = TierShapes()
        tiers._shapes.update(others)
        if own is not None:
            tiers._shapes[key] = own
        prior = dict(tiers._shapes)

        target = tiers.target(len(members), labeled, counts)
        assert tiers._shapes == prior  # pricing writes nothing
        padded = tiers.pad(batch, tiered=True)
        assert _counts(padded) == target
        if target == counts:
            assert padded is batch and tiers._shapes == prior
        else:
            assert padded.pad_info == PadInfo(len(members), *counts)
            assert tiers._shapes == {**prior, key: target}
        assert tiers.pad(padded, tiered=True) is padded  # padded batches pass

        # untiered: bucketed alone, whatever the table holds, and no write
        grown = dict(tiers._shapes)
        alone = tiers.pad(_batch(members, labeled), tiered=False)
        assert _counts(alone) == TierShapes().target(len(members), labeled, counts)
        assert tiers._shapes == grown
        assert tiers.seed([(len(members), labeled, counts)], tiered=False) == 0
        assert tiers._shapes == grown

    @given(groups=st.lists(MEMBERS, min_size=1, max_size=6), labeled=st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_seed_is_where_live_pads_converge(self, groups, labeled):
        batches = [_batch(members, labeled) for members in groups]
        entries = [(b.num_structs, labeled, _counts(b)) for b in batches]
        seeded = TierShapes()
        n_tiers = seeded.seed(entries, tiered=True)
        shapes = dict(seeded._shapes)
        assert n_tiers == len(shapes)
        live = TierShapes()
        for _ in range(len(batches) + 2):
            before = dict(live._shapes)
            for b in batches:
                live.pad(b, tiered=True)
            if live._shapes == before:
                break
        assert live._shapes == before == shapes
        # a seeded tier never grows, and every member pads to its shape
        for b in batches:
            padded = seeded.pad(b, tiered=True)
            key = (b.num_structs + 1, labeled, workload_tier(_counts(b)))
            assert padded is b or _counts(padded) == shapes[key]
        assert seeded._shapes == shapes
        assert seeded.seed(entries, tiered=True) == n_tiers
        assert seeded._shapes == shapes  # seeding twice changes nothing

    @given(counts=dims(), targets=SHAPE, more=SHAPE, stored=SHAPE)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_feasibility_bump_is_idempotent_and_monotone(self, counts, targets, more, stored):
        """The ghost-feasibility bump never lowers a count, is idempotent and
        monotone: a closure.  That is why ``target`` bumps once: bumping a
        batch's buckets, merging the tier's shape and bumping again gives
        the shape that merging and bumping once does; and why a tier shape
        closed under every member's bump (``seed``) is one no member's pad
        grows."""

        def bump(t):
            return feasible_targets_for_counts(counts, t)

        bumped = bump(targets)
        assert all(b >= t for b, t in zip(bumped, targets))
        assert bump(bumped) == bumped
        larger = tuple(map(max, targets, more))
        assert all(a <= b for a, b in zip(bumped, bump(larger)))
        assert bump(tuple(map(max, bumped, stored))) == bump(tuple(map(max, targets, stored)))


@pytest.fixture(scope="module")
def pool():
    """24 small structures over several tiers, with partial tails."""
    return make_graphs(24, seed=9, max_atoms=12)


def test_serial_compiler_pads_but_never_tiers(pool):
    model = make_model(cfg=TINY_CFG.with_level(OptLevel.BASELINE))
    comp = InferenceCompiler(model)
    tiers = TierShapes()
    batch = collate(pool[:3])
    comp.run(tiers.pad(batch, model.config.batched_basis))
    assert tiers._shapes == {}
    (sig,) = comp.cache.programs
    assert sig[2:6] == TierShapes().target(3, False, _counts(batch)) != _counts(batch)


def _ran_costs(monkeypatch) -> list[int]:
    """Workload cost of every batch a worker runs from now on, read off the
    program it replayed or captured (whose signature holds its shape)."""
    costs: list[int] = []
    run = Worker.run

    def recording(self, batch):
        self.compiler.last_program = None
        out = run(self, batch)
        prog = self.compiler.last_program
        assert prog is not None  # no eager fallback
        (sig,) = [sig for sig, p in self.compiler.cache.programs.items() if p is prog]
        costs.append(workload_cost(*sig[2:6]))
        return out

    monkeypatch.setattr(Worker, "run", recording)
    return costs


class TestEngineBooksWhatRan:
    def _engine(self):
        model = make_model(cfg=TINY_CFG.with_level(OptLevel.DECOMPOSE_FS))
        return InferenceEngine(
            model,
            n_workers=2,
            compile=True,
            max_batch_structs=4,
            max_wait=100.0,
            merge_tiers=True,
            max_programs=128,
        )

    def test_merging_stream(self, pool, monkeypatch):
        engine = self._engine()
        costs = _ran_costs(monkeypatch)
        for cycle in range(2):
            ids = [engine.submit(g, now=float(cycle)) for g in pool]
            engine.flush(now=float(cycle))
            assert all(engine.poll(i) is not None for i in ids)
        assert engine.stats.merges > 0  # priced merges, not only home tiers
        assert len(costs) == engine.stats.batches
        assert engine.stats.padded_cost == sum(costs) > engine.stats.raw_cost

    def test_predict_many_set(self, pool, monkeypatch):
        engine = self._engine()
        costs = _ran_costs(monkeypatch)
        engine.predict_many(pool)
        engine.predict_many(pool[::-1])
        assert len(costs) == engine.stats.batches
        assert engine.stats.padded_cost == sum(costs) > engine.stats.raw_cost
