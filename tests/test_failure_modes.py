"""Failure injection: malformed inputs must fail loudly, edge cases safely."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import build_graph, collate
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.structures import Crystal, Lattice, cscl
from repro.tensor import Tensor, grad, matmul, segment_sum, sum as tsum


class TestTensorFailures:
    def test_matmul_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_grad_through_freed_graph_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = tsum(x * x)
        grad(y, [x])  # frees the graph
        with pytest.raises(Exception):
            grad(y, [x])

    def test_segment_sum_negative_ids_raise(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((2, 1))), np.array([-1, 0]), 2)

    def test_nan_propagates_not_crashes(self):
        x = Tensor(np.array([np.nan, 1.0]), requires_grad=True)
        y = tsum(x * 2.0)
        (g,) = grad(y, [x])
        assert np.isnan(y.data)
        assert np.all(np.isfinite(g.data))  # gradient of linear map stays finite


class TestStructureFailures:
    def test_empty_crystal_rejected(self):
        with pytest.raises(ValueError):
            Crystal(Lattice.cubic(3.0), np.array([], dtype=int), np.zeros((0, 3)))

    def test_graph_of_isolated_atom_rejected(self):
        lonely = Crystal(
            Lattice.cubic(50.0),
            np.array([3, 8]),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
        )
        with pytest.raises(ValueError):
            build_graph(lonely)

    def test_generator_rejects_overlapping_snapshots(self):
        """Generated corpora never contain near-overlapping atoms."""
        from repro.data.mptrj import _min_distance_ok, generate_crystals

        for crystal in generate_crystals(10, seed=9, max_atoms=10):
            assert _min_distance_ok(crystal)


class TestModelEdgeCases:
    def test_structure_with_no_angles(self, small_config):
        """A batch whose bond graph is empty must still predict all outputs."""
        sparse = Crystal(
            Lattice.cubic(4.5),
            np.array([55, 55]),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
        )
        graph = build_graph(sparse, 6.0, 1.0)
        assert graph.num_angles == 0
        batch = collate([graph])
        for level in (OptLevel.BASELINE, OptLevel.DECOMPOSE_FS):
            model = CHGNetModel(small_config.with_level(level), np.random.default_rng(0))
            out = model.forward(batch)
            assert np.all(np.isfinite(out.energy_per_atom.data))
            assert np.all(np.isfinite(out.forces.data))
            assert np.all(np.isfinite(out.stress.data))

    def test_mixed_batch_with_and_without_angles(self, small_config):
        sparse = Crystal(
            Lattice.cubic(4.5),
            np.array([55, 55]),
            np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
        )
        batch = collate([build_graph(sparse, 6.0, 1.0), build_graph(cscl(11, 17))])
        model = CHGNetModel(
            small_config.with_level(OptLevel.PARALLEL_BASIS), np.random.default_rng(0)
        )
        out = model.forward(batch)
        assert out.energy_per_atom.shape == (2,)
        assert np.all(np.isfinite(out.forces.data))

    def test_single_atom_cell_with_images(self, small_config):
        """One atom per cell: all neighbors are periodic self-images."""
        single = Crystal(Lattice.cubic(2.8), np.array([26]), np.zeros((1, 3)))
        batch = collate([build_graph(single)])
        model = CHGNetModel(
            small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(0)
        )
        out = model.forward(batch)
        assert np.all(np.isfinite(out.energy_per_atom.data))
        # net force on the only atom of a perfect crystal is ~zero by symmetry
        assert np.allclose(out.forces.data, 0.0, atol=1e-8)

    def test_unknown_species_fails_cleanly(self, small_config):
        """Atomic numbers beyond the embedding table raise IndexError."""
        weird = Crystal(Lattice.cubic(3.0), np.array([94, 94]), np.array([[0, 0, 0], [0.5, 0.5, 0.5]], dtype=float))
        model = CHGNetModel(
            small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(0)
        )
        batch = collate([build_graph(weird)])
        out = model.forward(batch)  # 94 = Pu is within the table
        assert np.all(np.isfinite(out.energy_per_atom.data))


class TestCLI:
    def test_parser_rejects_unknown_command(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["train"])
        assert args.variant == "fast"
        assert args.epochs == 5

    def test_dataset_command_runs(self, capsys):
        from repro.cli import main

        assert main(["dataset", "--structures", "4", "--max-atoms", "6"]) == 0
        out = capsys.readouterr().out
        assert "atoms" in out and "bonds" in out

    def test_md_command_runs(self, capsys):
        from repro.cli import main

        assert main(["md", "--structure", "LiMnO2", "--steps", "1", "--calculator", "oracle"]) == 0
        assert "ms/step" in capsys.readouterr().out


class TestCheckpointFailures:
    """Corrupt training state must be rejected, never half-loaded."""

    def test_module_load_missing_file_raises_valueerror(self, small_config, tmp_path):
        model = CHGNetModel(small_config, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cannot read checkpoint"):
            model.load(str(tmp_path / "missing.npz"))

    def test_module_load_garbage_raises_valueerror(self, small_config, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive at all")
        model = CHGNetModel(small_config, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cannot read checkpoint"):
            model.load(str(path))

    def test_truncated_training_checkpoint_rejected(self, tmp_path, rng):
        from repro.train import CheckpointError, load_checkpoint, save_checkpoint

        path = str(tmp_path / "state.rckpt")
        save_checkpoint(path, {"w": rng.standard_normal(16)}, {"kind": "t"})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bitflipped_training_checkpoint_rejected(self, tmp_path, rng):
        from repro.train import CheckpointError, load_checkpoint, save_checkpoint

        path = str(tmp_path / "state.rckpt")
        save_checkpoint(path, {"w": rng.standard_normal(16)}, {"kind": "t"})
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x40
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)


class TestTrainingFaultSurfaces:
    """Injected comm faults surface as typed errors, not hangs or corruption."""

    def test_collective_timeout_surfaces_beyond_retries(self, small_config, tiny_entries):
        from repro.comm import CollectiveTimeout, FaultPlan
        from repro.data import StructureDataset
        from repro.train import DistributedConfig, DistributedTrainer

        ds = StructureDataset(tiny_entries)
        factory = lambda: CHGNetModel(
            small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(5)
        )
        plan = FaultPlan().timeout(step=0, attempts=9)
        trainer = DistributedTrainer(
            factory,
            ds,
            DistributedConfig(world_size=2, global_batch_size=4, epochs=1),
            fault_plan=plan,
        )
        with pytest.raises(CollectiveTimeout):
            trainer.train()

    def test_rank_failure_surfaces_without_checkpoint(self, small_config, tiny_entries):
        from repro.comm import FaultPlan, RankFailure
        from repro.data import StructureDataset
        from repro.train import DistributedConfig, DistributedTrainer

        ds = StructureDataset(tiny_entries)
        factory = lambda: CHGNetModel(
            small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(5)
        )
        trainer = DistributedTrainer(
            factory,
            ds,
            DistributedConfig(world_size=2, global_batch_size=4, epochs=1),
            fault_plan=FaultPlan().kill(rank=0, step=1),
        )
        with pytest.raises(RankFailure) as err:
            trainer.train()
        assert err.value.rank == 0 and err.value.step == 1


class TestServingFailures:
    """A poisoned or overloaded request fails alone; the engine keeps serving."""

    @pytest.fixture()
    def engine(self, small_config):
        from repro.serve import InferenceEngine

        model = CHGNetModel(small_config, np.random.default_rng(0))
        return InferenceEngine(model, max_batch_structs=4, max_pending=3)

    def test_nan_request_fails_without_wedging_engine(self, engine):
        crystal = cscl(11, 17)
        poisoned = Crystal(
            Lattice(crystal.lattice.matrix.copy()),
            crystal.species,
            crystal.frac_coords.copy(),
        )
        poisoned.frac_coords[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            engine.submit(poisoned)
        # the engine still serves healthy traffic afterwards
        good = engine.submit(crystal)
        engine.flush()
        assert engine.poll(good) is not None

    def test_inf_lattice_rejected(self, engine):
        crystal = cscl(11, 17)
        poisoned = Crystal(
            Lattice(crystal.lattice.matrix * np.inf),
            crystal.species,
            crystal.frac_coords.copy(),
        )
        with pytest.raises(ValueError, match="lattice"):
            engine.submit(poisoned)

    def test_overload_sheds_typed_and_counted(self, engine):
        from repro.serve import EngineOverloaded

        crystal = cscl(11, 17)
        accepted = []
        with pytest.raises(EngineOverloaded):
            for _ in range(10):
                accepted.append(engine.submit(crystal))
        assert len(accepted) == 3  # max_pending
        assert engine.stats.load_shed == 1
        engine.flush()
        assert all(engine.poll(i) is not None for i in accepted)

    def test_submit_after_shutdown_raises_typed(self, engine):
        from repro.serve import EngineClosed

        crystal = cscl(11, 17)
        rid = engine.submit(crystal)
        engine.shutdown()
        assert engine.closed
        with pytest.raises(EngineClosed):
            engine.submit(crystal)
        with pytest.raises(EngineClosed):
            engine.predict_many([crystal])
        # accepted work was flushed by shutdown and stays pollable
        assert engine.poll(rid) is not None

    def test_shutdown_idempotent(self, engine):
        engine.shutdown()
        assert engine.shutdown() == 0
