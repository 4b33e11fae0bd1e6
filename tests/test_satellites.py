"""PR-2 satellite fixes: parallel graph building, LRU memoization, LR scaling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.model import CHGNetConfig, FastCHGNet
from repro.train import TrainConfig, Trainer
from repro.train.schedule import scaled_learning_rate


@pytest.fixture(scope="module")
def entries():
    return generate_mptrj(12, seed=4, max_atoms=6)


class TestParallelGraphBuilding:
    def test_worker_pool_matches_serial(self, entries):
        serial = StructureDataset(entries)
        parallel = StructureDataset(entries, n_workers=4)
        assert len(serial.graphs) == len(parallel.graphs)
        for gs, gp in zip(serial.graphs, parallel.graphs):
            assert np.array_equal(gs.edge_src, gp.edge_src)
            assert np.array_equal(gs.edge_dst, gp.edge_dst)
            assert np.array_equal(gs.edge_image, gp.edge_image)
            assert np.array_equal(gs.short_idx, gp.short_idx)
            assert np.array_equal(gs.angle_e1, gp.angle_e1)
            assert np.array_equal(gs.angle_e2, gp.angle_e2)
            assert np.array_equal(gs.angle_center, gp.angle_center)
        assert np.array_equal(serial.feature_numbers, parallel.feature_numbers)

    def test_single_worker_is_serial_fallback(self, entries):
        ds = StructureDataset(entries, n_workers=1)
        assert len(ds.graphs) == len(entries)


class TestBoundedMemoization:
    def test_lru_cap_bounds_cache(self, entries):
        ds = StructureDataset(entries, memoize_batches=2)
        b0 = ds.batch([0, 1])
        ds.batch([2, 3])
        assert len(ds._batch_cache) == 2
        ds.batch([4, 5])  # evicts the oldest ([0, 1])
        assert len(ds._batch_cache) == 2
        assert (0, 1) not in ds._batch_cache
        # a re-request rebuilds (a fresh object), then caches again
        assert ds.batch([0, 1]) is not b0
        assert ds.batch([0, 1]) is ds.batch([0, 1])

    def test_lru_recency_order(self, entries):
        ds = StructureDataset(entries, memoize_batches=2)
        a = ds.batch([0, 1])
        ds.batch([2, 3])
        assert ds.batch([0, 1]) is a  # touch: [0,1] becomes most recent
        ds.batch([4, 5])  # evicts [2,3], not [0,1]
        assert (0, 1) in ds._batch_cache and (2, 3) not in ds._batch_cache

    def test_true_keeps_unbounded_cache(self, entries):
        ds = StructureDataset(entries, memoize_batches=True)
        for lo in range(0, 10, 2):
            ds.batch([lo, lo + 1])
        assert len(ds._batch_cache) == 5


class TestEffectiveBatchLRScaling:
    CFG = CHGNetConfig(
        atom_fea_dim=8,
        bond_fea_dim=8,
        angle_fea_dim=8,
        num_radial=5,
        angular_order=2,
        hidden_dim=8,
    )

    def test_lr_scales_with_clamped_batch_size(self, entries):
        ds = StructureDataset(entries)  # 12 structures
        model = FastCHGNet(np.random.default_rng(0), config=self.CFG)
        trainer = Trainer(
            model, ds, config=TrainConfig(batch_size=512, scale_lr=True, epochs=1)
        )
        # batch_size clamps to len(dataset)=12; Eq. 14 must use that.
        assert trainer.optimizer.lr == pytest.approx(scaled_learning_rate(12))
        assert trainer.loader.batch_size == 12

    def test_explicit_lr_unaffected(self, entries):
        ds = StructureDataset(entries)
        model = FastCHGNet(np.random.default_rng(0), config=self.CFG)
        trainer = Trainer(
            model,
            ds,
            config=TrainConfig(batch_size=512, learning_rate=1e-2, epochs=1),
        )
        assert trainer.optimizer.lr == 1e-2

    def test_resolve_lr_backward_compatible(self):
        assert TrainConfig(scale_lr=True, batch_size=256).resolve_lr() == pytest.approx(
            scaled_learning_rate(256)
        )
        assert TrainConfig(scale_lr=True, batch_size=256).resolve_lr(8) == pytest.approx(
            scaled_learning_rate(8)
        )


class TestBlockModeLoader:
    """PR-4 satellite: size-sorted block mode for the single-device loader."""

    def _dataset(self, entries):
        return StructureDataset(entries, memoize_batches=True)

    def test_blocks_cover_every_sample_once(self, entries):
        from repro.data.loader import DataLoader

        ds = self._dataset(entries)
        loader = DataLoader(ds, batch_size=5, blocks=True)
        seen = []
        for (block,) in loader.block_sampler.epoch_partitions(0):
            seen.extend(int(i) for i in block)
        assert sorted(seen) == list(range(len(ds)))

    def test_blocks_padded_to_planned_tier_shapes(self, entries):
        from repro.data.loader import DataLoader

        ds = self._dataset(entries)
        loader = DataLoader(ds, batch_size=4, blocks=True)
        shapes_by_epoch = []
        for _ in range(2):
            shapes = [
                (b.num_structs, b.num_atoms, b.num_edges, b.num_angles)
                for b in loader
            ]
            shapes_by_epoch.append(sorted(shapes))
            assert all(
                b.pad_info is not None
                for b in loader._batches(0)
            )
        # static block composition: the same padded shapes every epoch
        assert shapes_by_epoch[0] == shapes_by_epoch[1]

    def test_len_counts_blocks(self, entries):
        from repro.data.loader import DataLoader

        ds = self._dataset(entries)
        loader = DataLoader(ds, batch_size=5, blocks=True)
        assert len(loader) == loader.block_sampler.num_batches()
        assert len(list(loader)) == len(loader)

    def test_compiled_trainer_first_epoch_replay_only(self, entries):
        ds = self._dataset(entries)
        model = FastCHGNet(np.random.default_rng(0), config=_small_config())
        trainer = Trainer(
            model,
            ds,
            config=TrainConfig(
                epochs=2, batch_size=4, learning_rate=1e-4, compile=True
            ),
        )
        assert trainer.loader.block_sampler is not None
        trainer.train_epoch(0)
        captures_first = trainer.compiler.stats.captures
        n_tiers = len(trainer.loader.block_sampler.tier_targets)
        assert captures_first <= n_tiers
        trainer.train_epoch(1)
        assert trainer.compiler.stats.captures == captures_first
        assert trainer.compiler.stats.replays > 0
        assert trainer.compiler.stats.eager_fallbacks == 0

    def test_compiled_matches_eager_on_block_pipeline(self, entries):
        ds = self._dataset(entries)

        def run(compile_flag):
            model = FastCHGNet(np.random.default_rng(1), config=_small_config())
            trainer = Trainer(
                model,
                ds,
                config=TrainConfig(
                    epochs=2,
                    batch_size=4,
                    learning_rate=1e-4,
                    compile=compile_flag,
                    compile_blocks=True,
                ),
            )
            trainer.train()
            return model.state_dict(), [r.train_loss for r in trainer.history]

        state_c, losses_c = run(True)
        state_e, losses_e = run(False)
        assert losses_c == losses_e
        assert all(np.array_equal(state_c[k], state_e[k]) for k in state_c)


def _small_config() -> CHGNetConfig:
    return CHGNetConfig(
        atom_fea_dim=8,
        bond_fea_dim=8,
        angle_fea_dim=8,
        num_radial=5,
        angular_order=2,
        hidden_dim=8,
    )
