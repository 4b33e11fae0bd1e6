"""The trainer: single-device learning (one rank), distributed synchronization
and equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import StructureDataset
from repro.model import CHGNetModel, OptLevel
from repro.tensor import Tensor
from repro.train import (
    DistributedConfig,
    DistributedTrainer,
    evaluate,
)


@pytest.fixture(scope="module")
def dataset(tiny_entries):
    return StructureDataset(tiny_entries)


def make_model(small_config, level=OptLevel.DECOMPOSE_FS, seed=5):
    return CHGNetModel(small_config.with_level(level), np.random.default_rng(seed))


def single(model, dataset, **overrides) -> DistributedTrainer:
    """A one-rank trainer over ``model`` itself (the factory runs once)."""
    base = dict(world_size=1, global_batch_size=4, epochs=1, scale_lr=False)
    base.update(overrides)
    return DistributedTrainer(lambda: model, dataset, DistributedConfig(**base))


class TestTrainer:
    """A single-device run is ``DistributedTrainer`` at ``world_size=1``."""

    def test_single_step_changes_weights(self, small_config, dataset):
        model = make_model(small_config)
        trainer = single(model, dataset)
        assert trainer.model is model
        before = {k: v.copy() for k, v in model.state_dict().items()}
        batch = dataset.batch([0, 1, 2, 3])
        trainer.train_step([batch])
        after = model.state_dict()
        changed = sum(not np.allclose(before[k], after[k]) for k in before)
        assert changed > 0

    def test_loss_decreases_on_fixed_batch(self, small_config, dataset):
        model = make_model(small_config)
        trainer = single(model, dataset, learning_rate=1e-3)
        batch = dataset.batch([0, 1, 2, 3])
        first = trainer.train_step([batch]).loss
        for _ in range(12):
            last = trainer.train_step([batch]).loss
        assert last < first

    def test_reference_model_trains_too(self, small_config, dataset):
        """The double-backward path updates weights without error."""
        model = make_model(small_config, level=OptLevel.BASELINE)
        trainer = single(model, dataset, global_batch_size=2)
        stats = trainer.train_step([dataset.batch([0, 1])])
        assert np.isfinite(stats.loss)
        assert np.isfinite([stats.stress_mae, stats.magmom_mae]).all()
        assert all(np.all(np.isfinite(p.data)) for p in model.parameters())

    def test_history_records(self, small_config, dataset):
        model = make_model(small_config)
        trainer = DistributedTrainer(
            lambda: model,
            dataset,
            DistributedConfig(world_size=1, global_batch_size=8, epochs=2, scale_lr=False),
            val_dataset=StructureDataset(dataset.entries[:2]),
        )
        seen = []
        trainer.add_epoch_hook(lambda epoch, record: seen.append((epoch, trainer._epoch)))
        trainer.train()
        history = trainer.history
        assert len(history) == 2
        assert history[0].val is not None
        assert history[1].lr < trainer.config.resolve_lr()  # cosine decayed
        # hooks run after the cursor advanced past their epoch
        assert seen == [(0, 1), (1, 2)]
        steps = len(trainer.loader)
        first = trainer.steps[:steps]
        assert history[0].train_loss == pytest.approx(np.mean([s.loss for s in first]))
        assert history[0].train_stress_mae == pytest.approx(
            np.mean([s.stress_mae for s in first])
        )

    def test_resolve_lr_priority(self):
        def cfg(**kw):
            return DistributedConfig(world_size=1, **kw)

        assert cfg(learning_rate=1e-2).resolve_lr() == 1e-2
        assert cfg(scale_lr=True, global_batch_size=256).resolve_lr() == pytest.approx(
            256 / 128 * 3e-4
        )
        assert cfg(scale_lr=False).resolve_lr() == pytest.approx(3e-4)

    def test_evaluate_returns_finite_metrics(self, small_config, dataset):
        model = make_model(small_config)
        res, parity = evaluate(model, StructureDataset(dataset.entries[:6]), collect_parity=True)
        assert np.isfinite(res.energy_mae)
        assert np.isfinite(res.force_mae)
        assert parity.energy_pred.shape == parity.energy_true.shape
        assert "|" in res.row("model")


class TestDistributed:
    def _factory(self, small_config):
        return lambda: make_model(small_config, seed=5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(world_size=0), "world_size must be >= 1, got 0"),
            (dict(world_size=3, global_batch_size=8), "must be divisible by world_size 3"),
            (dict(n_buckets=0), "n_buckets must be >= 1, got 0"),
            (dict(compile=True, bucket_sampler=False), "cannot run with bucket_sampler=False"),
        ],
    )
    def test_config_rejects_bad_values_on_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DistributedConfig(**kwargs)

    def test_replicas_start_and_stay_in_sync(self, small_config, dataset):
        cfg = DistributedConfig(world_size=2, global_batch_size=4, epochs=1)
        dt = DistributedTrainer(self._factory(small_config), dataset, cfg)
        assert dt.replicas_in_sync()
        shards = next(iter(dt.loader))
        dt.train_step(shards)
        assert dt.replicas_in_sync()

    def test_step_stats_recorded(self, small_config, dataset):
        cfg = DistributedConfig(world_size=2, global_batch_size=4, epochs=1)
        dt = DistributedTrainer(self._factory(small_config), dataset, cfg)
        stats = dt.train_step(next(iter(dt.loader)))
        assert stats.rank_compute_seconds.shape == (2,)
        assert stats.rank_feature_numbers.shape == (2,)
        assert np.isfinite(stats.loss)

    @pytest.mark.parametrize("world_size", [1, 2])
    def test_global_batch_larger_than_dataset_raises(self, small_config, dataset, world_size):
        """A run that would take no step is refused when it is built, naming
        the global batch and the dataset size — one device included, where
        the batch is not clamped to the corpus."""
        small = StructureDataset(dataset.entries[:12])
        with pytest.raises(ValueError, match=r"global batch 16 .* 12 structures"):
            DistributedTrainer(
                lambda: make_model(small_config),
                small,
                DistributedConfig(world_size=world_size, global_batch_size=16),
            )

    def test_wrong_shard_count_raises(self, small_config, dataset):
        cfg = DistributedConfig(world_size=2, global_batch_size=4, epochs=1)
        dt = DistributedTrainer(self._factory(small_config), dataset, cfg)
        shards = next(iter(dt.loader))
        with pytest.raises(ValueError):
            dt.train_step(shards[:1])

    def test_eager_runs_balance_load(self, small_config, dataset):
        from repro.data.samplers import BucketBatchSampler, LoadBalanceSampler

        eager = DistributedTrainer(
            self._factory(small_config),
            dataset,
            DistributedConfig(world_size=2, global_batch_size=4),
        )
        bucketed = DistributedTrainer(
            self._factory(small_config),
            dataset,
            DistributedConfig(world_size=2, global_batch_size=4, bucket_sampler=True),
        )
        assert isinstance(eager.sampler, LoadBalanceSampler)
        assert isinstance(bucketed.sampler, BucketBatchSampler)

    def test_lr_scales_with_global_batch(self, small_config, dataset):
        cfg = DistributedConfig(world_size=2, global_batch_size=8, scale_lr=True)
        dt = DistributedTrainer(self._factory(small_config), dataset, cfg)
        assert dt.optimizers[0].lr == pytest.approx(8 / 128 * 3e-4)

    def test_gradients_equal_mean_of_rank_gradients(self, small_config, dataset):
        """DDP semantics: after allreduce each rank's update uses the mean
        of the per-rank gradients."""
        from repro.train import CompositeLoss

        cfg = DistributedConfig(
            world_size=2, global_batch_size=4, epochs=1, learning_rate=1e-4
        )
        dt = DistributedTrainer(self._factory(small_config), dataset, cfg)
        shards = next(iter(dt.loader))
        # compute expected mean gradient manually with an identical model
        loss_fn = CompositeLoss()
        expected = None
        for batch in shards:
            model = make_model(small_config, seed=5)
            model.zero_grad()
            out = model.forward(batch, training=True)
            loss_fn(out, batch).loss.backward()
            grads = [p.grad.data.copy() if p.grad is not None else np.zeros_like(p.data) for p in model.parameters()]
            expected = grads if expected is None else [a + b for a, b in zip(expected, grads)]
        expected = [g / 2 for g in expected]

        dt.train_step(shards)
        # Adam's first update direction is sign(g)*lr; compare the realized
        # parameter delta against a fresh model stepped with the mean grads.
        ref_model = make_model(small_config, seed=5)
        from repro.train import Adam

        opt = Adam(ref_model.parameters(), lr=cfg.learning_rate)
        for p, g in zip(ref_model.parameters(), expected):
            p.grad = Tensor(g)
        opt.step()
        for p_ref, p_dt in zip(ref_model.parameters(), dt.replicas[0].parameters()):
            assert np.allclose(p_ref.data, p_dt.data, atol=1e-12)
