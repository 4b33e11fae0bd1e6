"""Serving under live fine-tuning (ISSUE 5).

The contract under test: published weight versions hot-swap into the worker
fleet with zero program recaptures while requests pinned to an older version
stay bit-identical to solo eager inference on that version's weights;
deadline-flushed partial groups can absorb adjacent tiers at a bounded,
priced padding overhead; and recurring request pools re-serve through the
engine's collate memoization with zero re-concatenation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.mptrj import generate_mptrj
from repro.graph.batching import TierShapes, workload_cost, workload_tier
from repro.graph.crystal_graph import build_graph
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.serve import InferenceEngine
from repro.serve import engine as engine_module
from repro.serve.engine import MAX_VERSIONS
from repro.train import DistributedConfig, ServingTrainer
from repro.train import trainer as trainer_module
from repro.data.dataset import StructureDataset

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
    """Un-zero the zero-initialized readout heads (non-vacuous equality)."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return model


def _fresh_model(seed: int = 2, jitter: int = 200) -> CHGNetModel:
    return _jitter(CHGNetModel(CFG, np.random.default_rng(seed)), seed=jitter)


def _model_with(state: dict) -> CHGNetModel:
    model = CHGNetModel(CFG, np.random.default_rng(77))
    model.load_state_dict(state)
    return model


@pytest.fixture(scope="module")
def graphs():
    entries = generate_mptrj(14, seed=9, max_atoms=10)
    return [build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond) for e in entries]


def _solo_eager(model, items):
    engine = InferenceEngine(model, n_workers=1, compile=False, max_batch_structs=1)
    return engine.predict_many(items)


def _equal(a, b) -> bool:
    return (
        a.energy_per_atom == b.energy_per_atom
        and a.energy == b.energy
        and np.array_equal(a.forces, b.forces)
        and np.array_equal(a.stress, b.stress)
        and np.array_equal(a.magmom, b.magmom)
    )


def _finetune(model: CHGNetModel, scale: float = 1.01) -> None:
    for p in model.parameters():
        p.data *= scale


class TestVersionedPublish:
    def test_pinned_requests_survive_midflight_publish_bit_identically(self, graphs):
        """Requests pinned to v0 are unaffected by a publish that lands while
        they are queued; v1 requests get the new weights — each half matches
        solo eager inference on its pinned version, with zero recaptures."""
        model = _fresh_model()
        state_v0 = model.state_dict()
        engine = InferenceEngine(
            model, n_workers=2, compile=True, max_batch_structs=4, max_wait=100.0
        )
        # Warm run: the same two submit/flush waves the live run will make,
        # all on v0, so every group shape the live run produces is captured.
        for half in (graphs[:6], graphs[6:]):
            ids = [engine.submit(g, now=0.0) for g in half]
            engine.flush(now=0.0)
            for i in ids:
                engine.poll(i)
        captures_warm = engine.snapshot()["captures"]
        v0 = engine.current_version

        ids_v0 = [engine.submit(g, now=0.0) for g in graphs[:6]]  # queued, pinned v0
        assert engine.pending > 0
        _finetune(model)
        state_v1 = model.state_dict()
        v1 = engine.publish_weights()
        assert v1 != v0
        ids_v1 = [engine.submit(g, now=0.0) for g in graphs[6:]]
        engine.flush(now=0.0)

        preds_v0 = [engine.poll(i) for i in ids_v0]
        preds_v1 = [engine.poll(i) for i in ids_v1]
        assert all(p.version == v0 for p in preds_v0)
        assert all(p.version == v1 for p in preds_v1)
        base_v0 = _solo_eager(_model_with(state_v0), graphs[:6])
        base_v1 = _solo_eager(_model_with(state_v1), graphs[6:])
        assert all(_equal(a, b) for a, b in zip(preds_v0, base_v0))
        assert all(_equal(a, b) for a, b in zip(preds_v1, base_v1))
        # the publish itself triggered no recaptures: programs rebound only
        assert engine.snapshot()["captures"] == captures_warm

    def test_versions_interleave_on_one_worker(self, graphs):
        """Alternating version pins on a single worker install/reinstall the
        right arrays for every batch."""
        model = _fresh_model(seed=5, jitter=500)
        state_v0 = model.state_dict()
        engine = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=2, max_wait=100.0
        )
        v0 = engine.current_version
        _finetune(model, 1.05)
        state_v1 = model.state_dict()
        v1 = engine.publish_weights()
        subset = graphs[:4]
        ids = []
        for i, g in enumerate(subset):
            ids.append(engine.submit(g, now=0.0, version=v0 if i % 2 == 0 else v1))
        engine.flush(now=0.0)
        preds = [engine.poll(i) for i in ids]
        base_v0 = _solo_eager(_model_with(state_v0), subset)
        base_v1 = _solo_eager(_model_with(state_v1), subset)
        for i, p in enumerate(preds):
            ref = base_v0[i] if i % 2 == 0 else base_v1[i]
            assert _equal(p, ref)

    def test_source_model_mutation_does_not_leak_into_served_version(self, graphs):
        """Published versions are snapshots: fine-tuning the source model
        without publishing must not change what is served."""
        model = _fresh_model(seed=4, jitter=400)
        state_v0 = model.state_dict()
        engine = InferenceEngine(model, compile=True, max_batch_structs=4)
        subset = graphs[:4]
        engine.predict_many(subset)
        _finetune(model, 1.5)  # trainer keeps going, nothing published
        served = engine.predict_many(subset)
        base = _solo_eager(_model_with(state_v0), subset)
        assert all(_equal(a, b) for a, b in zip(served, base))

    def test_registry_pruning_and_pin_validation(self, graphs):
        model = _fresh_model()
        engine = InferenceEngine(model, compile=False)
        first = engine.current_version
        for _ in range(MAX_VERSIONS + 2):
            engine.publish_weights()
        assert len(engine._versions) <= MAX_VERSIONS
        assert engine.current_version in engine._versions
        with pytest.raises(ValueError):
            engine.submit(graphs[0], version=first)  # evicted version
        with pytest.raises(ValueError):
            engine.publish_weights(version=engine.current_version)  # id reuse
        with pytest.raises(ValueError):
            # negative ids are reserved: -1 is the workers' "nothing
            # installed" sentinel, so serving version -1 would silently
            # skip the weight install
            engine.publish_weights(version=-1)

    def test_pinned_version_survives_pruning(self, graphs):
        """A version with queued requests is never evicted, no matter how
        many publishes land while it waits."""
        model = _fresh_model(seed=6, jitter=600)
        state_v0 = model.state_dict()
        engine = InferenceEngine(
            model, compile=False, max_batch_structs=8, max_wait=100.0
        )
        v0 = engine.current_version
        rid = engine.submit(graphs[0], now=0.0)
        for _ in range(MAX_VERSIONS + 3):
            _finetune(model)
            engine.publish_weights()
        assert v0 in engine._versions
        pred = engine.poll(rid, now=200.0)  # deadline flush on the old pin
        assert pred is not None and pred.version == v0
        assert _equal(pred, _solo_eager(_model_with(state_v0), [graphs[0]])[0])

    def test_explicit_state_dict_validation(self):
        model = _fresh_model()
        engine = InferenceEngine(model, compile=False)
        with pytest.raises(KeyError):
            engine.publish_weights(state={"nope": np.zeros(3)})
        state = model.state_dict()
        name = next(iter(state))
        state[name] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            engine.publish_weights(state=state)


def _one_rank(epochs: int) -> DistributedConfig:
    return DistributedConfig(
        world_size=1, global_batch_size=4, epochs=epochs, scale_lr=False, seed=0
    )


class TestServingTrainer:
    def test_epoch_end_checkpoints_stream_into_engine(self):
        entries = generate_mptrj(10, seed=21, max_atoms=8)
        dataset = StructureDataset(entries)
        model = _fresh_model(seed=8, jitter=800)
        engine = InferenceEngine(model, compile=True, max_batch_structs=4)
        crystals = [e.crystal for e in entries[:4]]
        stale = engine.predict_many(crystals)
        trainer = ServingTrainer(lambda: model, dataset, engine, config=_one_rank(2))
        trainer.train()
        assert len(trainer.published_versions) == 2
        assert engine.current_version == trainer.published_versions[-1]
        served = engine.predict_many(crystals)
        base = _solo_eager(model, crystals)
        assert all(_equal(a, b) for a, b in zip(served, base))
        # training really changed the weights (the stale pass differs)
        assert any(not _equal(a, b) for a, b in zip(stale, served))

    def test_publish_every(self, monkeypatch):
        monkeypatch.setattr(trainer_module, "PUBLISH_EVERY", 2)
        entries = generate_mptrj(8, seed=22, max_atoms=8)
        dataset = StructureDataset(entries)
        model = _fresh_model(seed=9, jitter=900)
        engine = InferenceEngine(model, compile=False)
        trainer = ServingTrainer(lambda: model, dataset, engine, config=_one_rank(3))
        trainer.train()
        assert len(trainer.published_versions) == 1  # only epoch 2 published

    def test_two_ranks_publish_rank_zeros_weights(self):
        """On two ranks the engine serves a model of its own, so each publish
        hands over rank 0's state dict; the served predictions then equal
        solo eager inference on rank 0's replica."""
        entries = generate_mptrj(10, seed=23, max_atoms=8)
        dataset = StructureDataset(entries)
        engine = InferenceEngine(_fresh_model(seed=10, jitter=1000), compile=False)
        trainer = ServingTrainer(
            lambda: _fresh_model(seed=10, jitter=1000),
            dataset,
            engine,
            config=DistributedConfig(
                world_size=2, global_batch_size=4, epochs=2, scale_lr=False, seed=0
            ),
        )
        assert engine.model is not trainer.model
        trainer.train()
        assert trainer.replicas_in_sync()
        assert engine.current_version == trainer.published_versions[-1]
        assert len(trainer.published_versions) == 2
        crystals = [e.crystal for e in entries[:4]]
        served = engine.predict_many(crystals)
        base = _solo_eager(trainer.model, crystals)
        assert all(_equal(a, b) for a, b in zip(served, base))


def _drive_trickle(engine, stream, dt, version=None):
    ids = [
        engine.submit(g, now=i * dt, version=version) for i, g in enumerate(stream)
    ]
    engine.flush(now=len(stream) * dt)
    preds = [engine.poll(i) for i in ids]
    assert engine.pending == 0
    assert all(p is not None for p in preds)
    return preds


class TestMixedTierTrickle:
    """Deadline-driven partial flushes on a diverse trickle (exact tiers)."""

    def test_partial_flushes_bound_waiting_and_stay_bit_identical(self, graphs):
        model = _fresh_model()
        base = _solo_eager(model, graphs)
        engine = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=8, max_wait=0.05
        )
        preds = _drive_trickle(engine, graphs, dt=0.02)
        assert all(_equal(a, b) for a, b in zip(preds, base))
        # a diverse trickle cannot fill 8-deep tier groups within the
        # deadline: partial batches must have been flushed
        assert any(p.batch_structs < engine.max_batch_structs for p in preds)
        # no request waited past its deadline plus the batch service time:
        # the queue-wait component of every latency is deadline-bounded
        # (submission clock is virtual, service time is measured wall time)
        assert engine.stats.batches > 1

    def test_deadline_respected_before_flush(self, graphs):
        model = _fresh_model()
        engine = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=8, max_wait=0.5
        )
        a = engine.submit(graphs[0], now=0.0)
        b = engine.submit(graphs[1], now=0.1)
        assert engine.poll(a, now=0.3) is None
        assert engine.poll(b, now=0.3) is None
        assert engine.pending == 2


class TestAdaptiveTierMerging:
    def test_merging_forms_fewer_fuller_batches_bit_identically(self, graphs):
        model = _fresh_model()
        base = _solo_eager(model, graphs)
        stream = [graphs[i % len(graphs)] for i in range(3 * len(graphs))]
        base_stream = [base[i % len(base)] for i in range(len(stream))]

        exact = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=8, max_wait=0.05
        )
        exact_preds = _drive_trickle(exact, stream, dt=0.02)
        merged = InferenceEngine(
            model,
            n_workers=1,
            compile=True,
            max_batch_structs=8,
            max_wait=0.05,
            merge_tiers=True,
        )
        merged_preds = _drive_trickle(merged, stream, dt=0.02)

        assert all(_equal(a, b) for a, b in zip(exact_preds, base_stream))
        assert all(_equal(a, b) for a, b in zip(merged_preds, base_stream))
        assert merged.stats.merges > 0
        assert merged.stats.merged_batches > 0
        assert merged.stats.batches < exact.stats.batches  # fuller groups
        mean_merged = np.mean([p.batch_structs for p in merged_preds])
        mean_exact = np.mean([p.batch_structs for p in exact_preds])
        assert mean_merged > mean_exact

    def test_overhead_cap_zero_disables_costly_merges(self, graphs, monkeypatch):
        """With a zero cap only free absorptions happen, so the priced
        padding overhead never exceeds the exact-tier engine's."""
        monkeypatch.setattr(engine_module, "MERGE_OVERHEAD_CAP", 0.0)
        model = _fresh_model()
        stream = [graphs[i % len(graphs)] for i in range(2 * len(graphs))]
        exact = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=8, max_wait=0.05
        )
        _drive_trickle(exact, stream, dt=0.02)
        capped = InferenceEngine(
            model,
            n_workers=1,
            compile=True,
            max_batch_structs=8,
            max_wait=0.05,
            merge_tiers=True,
        )
        _drive_trickle(capped, stream, dt=0.02)
        assert capped.stats.padding_overhead <= exact.stats.padding_overhead + 1e-9

    def test_merge_only_within_same_version(self, graphs):
        """A partial group never absorbs requests pinned to another version."""
        model = _fresh_model(seed=7, jitter=700)
        state_v0 = model.state_dict()
        engine = InferenceEngine(
            model,
            n_workers=1,
            compile=True,
            max_batch_structs=8,
            max_wait=0.5,
            merge_tiers=True,
        )
        v0 = engine.current_version
        _finetune(model)
        state_v1 = model.state_dict()
        v1 = engine.publish_weights()
        a = engine.submit(graphs[0], now=0.0, version=v0)
        b = engine.submit(graphs[1], now=0.0, version=v1)
        pred_a = engine.poll(a, now=1.0)
        pred_b = engine.poll(b, now=1.0)
        assert pred_a.version == v0 and pred_b.version == v1
        assert pred_a.batch_structs == 1 and pred_b.batch_structs == 1
        assert _equal(pred_a, _solo_eager(_model_with(state_v0), [graphs[0]])[0])
        assert _equal(pred_b, _solo_eager(_model_with(state_v1), [graphs[1]])[0])

    def test_pricing_helpers(self):
        # one 10-atom-ish member: padding to buckets costs something
        tiers = TierShapes()
        single = (10, 40, 20, 60)
        targets = tiers.target(1, False, single)
        assert all(t >= d for t, d in zip(targets, single))
        assert workload_cost(*targets) / workload_cost(*single) - 1.0 >= 0.0
        # the tier's stored shape merges into the targets
        tiers._shapes[(2, False, workload_tier(single))] = (64, 64, 64, 64)
        seeded = tiers.target(1, False, single)
        assert all(s >= t for s, t in zip(seeded, targets))
        with pytest.raises(ValueError):
            tiers.target(0, False, (0, 0, 0, 0))


class TestCollateMemoization:
    def test_recurring_pool_reuses_batches(self, graphs):
        model = _fresh_model()
        base = _solo_eager(model, graphs)
        engine = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=4, memoize=32
        )
        first = engine.predict_many(graphs)
        assert engine.stats.collate_hits == 0
        misses = engine.stats.collate_misses
        second = engine.predict_many(graphs)
        # identical groups re-served: every group of the warm pass hits
        assert engine.stats.collate_hits == misses > 0
        assert engine.stats.collate_misses == misses
        assert all(_equal(a, b) for a, b in zip(first, base))
        assert all(_equal(a, b) for a, b in zip(second, base))

    def test_lru_bounded(self, graphs):
        model = _fresh_model()
        engine = InferenceEngine(
            model, n_workers=1, compile=False, max_batch_structs=1, memoize=2
        )
        engine.predict_many(graphs[:6])
        assert len(engine._collate_cache) <= 2

    def test_crystal_graph_cache(self):
        model = _fresh_model()
        entries = generate_mptrj(4, seed=15, max_atoms=8)
        crystals = [e.crystal for e in entries]
        engine = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=2, memoize=8
        )
        engine.predict_many(crystals)
        served = engine.predict_many(crystals)  # same objects -> graph reuse
        assert engine.stats.collate_hits > 0
        base = _solo_eager(model, crystals)
        assert all(_equal(a, b) for a, b in zip(served, base))

    def test_rejects_bad_args(self):
        model = _fresh_model()
        with pytest.raises(ValueError):
            InferenceEngine(model, memoize=-1)


class TestMergeAwareWarmStart:
    @pytest.fixture(scope="class")
    def wide_pool(self):
        """60 distinct structures: diverse tiers with partial tails to merge."""
        entries = generate_mptrj(60, seed=9, max_atoms=12)
        return [
            build_graph(e.crystal, CFG.cutoff_atom, CFG.cutoff_bond) for e in entries
        ]

    def test_warm_start_seeds_merged_group_shapes(self, wide_pool):
        """warm_start on a merging engine simulates the drain's merge-aware
        grouping, so the mixed-tier shapes a flush will form are pre-sized:
        fewer live captures, more replays, same bits."""
        model = _fresh_model()

        def serve(warm: bool):
            engine = InferenceEngine(
                model,
                n_workers=1,
                compile=True,
                max_batch_structs=4,
                merge_tiers=True,
                max_programs=128,
            )
            seeded = engine.warm_start(wide_pool) if warm else 0
            ids = [engine.submit(g, now=0.0) for g in wide_pool]
            engine.flush(now=0.0)
            preds = [engine.poll(i) for i in ids]
            snap = engine.snapshot()
            return preds, seeded, snap

        cold_preds, _, cold = serve(warm=False)
        warm_preds, seeded, warm = serve(warm=True)
        assert seeded > 0  # the simulation actually planned merged groups
        # identical grouping either way; seeding converts captures to replays
        assert warm["batches"] == cold["batches"]
        assert warm["merges"] == cold["merges"] > 0
        assert warm["captures"] < cold["captures"]
        assert warm["replays"] > cold["replays"]
        base = _solo_eager(model, wide_pool)
        assert all(_equal(a, b) for a, b in zip(cold_preds, base))
        assert all(_equal(a, b) for a, b in zip(warm_preds, base))

    def test_non_merging_warm_start_foresees_every_group(self, wide_pool):
        """merge_tiers=False: explicit warm_start runs the planner without
        absorption — exactly the per-tier groups a live submit + flush of
        the stream forms — so there is one capture per seeded group shape,
        nothing is learned live and a second pass captures nothing."""
        model = _fresh_model()
        engine = InferenceEngine(
            model, n_workers=1, compile=True, max_batch_structs=4, max_programs=128
        )
        seeded = engine.warm_start(wide_pool)
        assert seeded > 0

        def serve():
            ids = [engine.submit(g, now=0.0) for g in wide_pool]
            engine.flush(now=0.0)
            return [engine.poll(i) for i in ids]

        preds = serve()
        snap = engine.snapshot()
        assert snap["captures"] == seeded  # every group shape was foreseen
        assert snap["merges"] == 0 and snap["warm_unsettled"] == 0
        again = serve()
        assert engine.snapshot()["captures"] == seeded
        assert [p.batch_structs for p in again] == [p.batch_structs for p in preds]
        base = _solo_eager(model, wide_pool)
        assert all(_equal(a, b) for a, b in zip(preds, base))
        assert all(_equal(a, b) for a, b in zip(again, base))
