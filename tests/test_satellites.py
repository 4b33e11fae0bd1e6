"""PR-2 satellite fixes: parallel graph building, LRU memoization, LR scaling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import StructureDataset
from repro.data.mptrj import generate_mptrj
from repro.model import CHGNetConfig, FastCHGNet
from repro.train import DistributedConfig, DistributedTrainer
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


class TestMemoizedBatches:
    def test_memoize_keeps_every_batch(self, entries):
        ds = StructureDataset(entries)
        for lo in range(0, 10, 2):
            ds.batch([lo, lo + 1], memoize=True)
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

    def _trainer(self, ds, seed=0, **overrides) -> DistributedTrainer:
        model = FastCHGNet(np.random.default_rng(seed), config=self.CFG)
        base = dict(world_size=1, global_batch_size=4, epochs=1)
        base.update(overrides)
        return DistributedTrainer(lambda: model, ds, DistributedConfig(**base))

    def test_lr_scales_with_the_batch(self, entries):
        trainer = self._trainer(StructureDataset(entries), global_batch_size=12, scale_lr=True)
        assert trainer.optimizers[0].lr == pytest.approx(scaled_learning_rate(12))

    def test_explicit_lr_unaffected(self, entries):
        trainer = self._trainer(
            StructureDataset(entries), global_batch_size=12, learning_rate=1e-2
        )
        assert trainer.optimizers[0].lr == 1e-2

    def test_resolve_lr_backward_compatible(self):
        cfg = DistributedConfig(world_size=1, global_batch_size=256, scale_lr=True)
        assert cfg.resolve_lr() == pytest.approx(scaled_learning_rate(256))


class TestBlockModeLoader:
    """Size-sorted blocks on one device: the bucket sampler at ``world_size=1``."""

    def _dataset(self, entries):
        return StructureDataset(entries)

    def _trainer(self, ds, seed=0, **overrides) -> DistributedTrainer:
        model = FastCHGNet(np.random.default_rng(seed), config=_small_config())
        base = dict(
            world_size=1, global_batch_size=4, epochs=2, learning_rate=1e-4, bucket_sampler=True
        )
        base.update(overrides)
        return DistributedTrainer(lambda: model, ds, DistributedConfig(**base))

    def test_blocks_cover_every_sample_once(self, entries):
        ds = self._dataset(entries)
        sampler = self._trainer(ds, global_batch_size=5).sampler
        seen = []
        for (block,) in sampler.epoch_partitions(0):
            seen.extend(int(i) for i in block)
        assert sorted(seen) == list(range(len(ds)))

    def test_blocks_padded_to_planned_tier_shapes(self, entries):
        ds = self._dataset(entries)
        loader = self._trainer(ds).loader
        shapes_by_epoch = []
        for _ in range(2):
            shards = [b for step in loader for b in step]
            shapes_by_epoch.append(
                sorted((b.num_structs, b.num_atoms, b.num_edges, b.num_angles) for b in shards)
            )
            assert all(b.pad_info is not None for b in shards)
        # static block composition: the same padded shapes every epoch
        assert shapes_by_epoch[0] == shapes_by_epoch[1]

    def test_len_counts_blocks(self, entries):
        ds = self._dataset(entries)
        trainer = self._trainer(ds, global_batch_size=5)
        assert len(trainer.loader) == trainer.sampler.num_batches()
        assert len(list(trainer.loader)) == len(trainer.loader)

    def test_compiled_trainer_first_epoch_replay_only(self, entries):
        ds = self._dataset(entries)
        trainer = self._trainer(ds, compile=True)
        (compiler,) = trainer.compilers
        for shards in trainer.loader.iter_epoch(0):
            trainer.train_step(shards)
        captures_first = compiler.stats.captures
        n_tiers = len(trainer.sampler.tier_targets)
        assert captures_first <= n_tiers
        for shards in trainer.loader.iter_epoch(1):
            trainer.train_step(shards)
        assert compiler.stats.captures == captures_first
        assert compiler.stats.replays > 0
        assert compiler.stats.eager_fallbacks == 0

    def test_compiled_matches_eager_on_block_pipeline(self, entries):
        ds = self._dataset(entries)

        def run(compile_flag):
            trainer = self._trainer(ds, seed=1, compile=compile_flag)
            trainer.train()
            return trainer.model.state_dict(), [r.train_loss for r in trainer.history]

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
