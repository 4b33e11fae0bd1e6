"""Cross-module integration: the full paper pipeline at miniature scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import StructureDataset, split_dataset
from repro.md import MDSpec, ModelCalculator, run_sequential
from repro.model import CHGNetModel, OptLevel
from repro.train import DistributedConfig, DistributedTrainer, evaluate


@pytest.fixture(scope="module")
def splits(tiny_entries):
    return split_dataset(tiny_entries, seed=0)


def make_model(small_config, level=OptLevel.DECOMPOSE_FS, seed=5):
    return CHGNetModel(small_config.with_level(level), np.random.default_rng(seed))


class TestEndToEnd:
    def test_training_improves_fit(self, small_config, splits):
        model = make_model(small_config)
        before, _ = evaluate(model, splits.test)
        trainer = DistributedTrainer(
            lambda: model,
            splits.train,
            DistributedConfig(
                world_size=1, global_batch_size=8, epochs=6, learning_rate=1e-3
            ),
        )
        trainer.train()
        history = trainer.history
        after, _ = evaluate(model, splits.test)
        assert history[-1].train_loss < 0.9 * history[0].train_loss
        assert after.force_mae < before.force_mae

    def test_checkpoint_roundtrip_preserves_predictions(
        self, small_config, splits, tmp_path
    ):
        model = make_model(small_config)
        batch = splits.test.batch(np.arange(min(2, len(splits.test))))
        out_a = model.forward(batch)
        path = str(tmp_path / "model.npz")
        model.save(path)
        fresh = make_model(small_config, seed=99)
        fresh.load(path)
        out_b = fresh.forward(batch)
        assert np.allclose(out_a.energy_per_atom.data, out_b.energy_per_atom.data)
        assert np.allclose(out_a.forces.data, out_b.forces.data)

    def test_trained_model_drives_md(self, small_config, splits, tiny_entries):
        model = make_model(small_config)
        spec = MDSpec(tiny_entries[0].crystal, 2, timestep_fs=0.5, temperature_k=100.0, seed=2)
        (result,) = run_sequential([spec], ModelCalculator(model), record=True)
        assert result.steps == 2
        assert np.isfinite([frame.energy for frame in result.frames]).all()

    def test_all_levels_train_one_step(self, small_config, splits):
        """Every optimization level runs a full training step end to end."""
        for level in OptLevel:
            model = make_model(small_config, level=level)
            trainer = DistributedTrainer(
                lambda: model,
                splits.train,
                DistributedConfig(world_size=1, global_batch_size=2, scale_lr=False),
            )
            stats = trainer.train_step([splits.train.batch([0, 1])])
            assert np.isfinite(stats.loss), level

    def test_dataset_regeneration_is_stable(self, tiny_entries):
        """The cached corpus equals a fresh regeneration (bit-for-bit)."""
        from repro.data import generate_mptrj

        fresh = generate_mptrj(24, seed=3, max_atoms=8)
        for a, b in zip(tiny_entries, fresh):
            assert np.array_equal(a.crystal.species, b.crystal.species)
            assert np.allclose(a.labels.forces, b.labels.forces)
