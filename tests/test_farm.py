"""Trajectory farm: bit-identity, retirement, angles, crash resumption."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.crystal_graph import GraphDiffStats, build_graph
from repro.md import (
    FIREConfig,
    MDSpec,
    ModelCalculator,
    RelaxSpec,
    TrajectoryFarm,
    run_sequential,
)
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.serve import InferenceEngine
from repro.structures import NeighborCache, cscl, rocksalt


@pytest.fixture(scope="module")
def model():
    config = CHGNetConfig(
        atom_fea_dim=8,
        bond_fea_dim=8,
        angle_fea_dim=8,
        num_radial=5,
        angular_order=2,
        hidden_dim=8,
        opt_level=OptLevel.DECOMPOSE_FS,
    )
    m = CHGNetModel(config, np.random.default_rng(1))
    rng = np.random.default_rng(7)
    for p in m.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return m


def _engine(model, **kwargs):
    kwargs.setdefault("n_workers", 1)
    kwargs.setdefault("max_batch_structs", 4)
    kwargs.setdefault("max_programs", 64)
    return InferenceEngine(model, **kwargs)


def _mixed_specs():
    fire = FIREConfig(fmax=1e-4, max_steps=6)
    c1 = cscl(11, 17).perturbed(np.random.default_rng(0), 0.05)
    c2 = rocksalt(3, 8).perturbed(np.random.default_rng(1), 0.05)
    return [
        RelaxSpec(c1, fire),
        MDSpec(c2, 5, temperature_k=250.0, seed=2, rescale_every=2),
        MDSpec(c1, 3, temperature_k=350.0, seed=3),
        RelaxSpec(c2, fire),
    ]


def _frames_equal(a, b):
    assert a.steps == b.steps
    assert a.converged == b.converged
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.positions, fb.positions)
        assert np.array_equal(fa.forces, fb.forces)
        assert fa.energy == fb.energy


class TestBitIdentity:
    @pytest.mark.parametrize("compile", [False, True])
    def test_farm_matches_sequential_every_frame(self, model, compile):
        """Mixed relax/MD farm == per-trajectory eager loop, bit for bit."""
        specs = _mixed_specs()
        engine = _engine(model, compile=compile)
        farm = TrajectoryFarm(engine, skin=0.6, record=True)
        for spec in specs:
            farm.add(spec)
        farmed = farm.run()
        solo = run_sequential(specs, ModelCalculator(model), record=True)
        assert len(farmed.results) == len(solo) == len(specs)
        for f, s in zip(farmed.results, solo):
            _frames_equal(f, s)
        # the throughput levers engaged while staying exact: skin caches
        # answered most queries, angle arrays were mostly reused or diffed
        assert farmed.stats.neighbor_reuses > farmed.stats.neighbor_builds
        diff = farmed.stats.diff
        assert diff.angle_reuses + diff.angle_diffs > diff.angle_rebuilds
        if compile:
            assert engine.snapshot()["replays"] > 0

    def test_skinless_farm_also_exact(self, model):
        specs = _mixed_specs()[:2]
        farm = TrajectoryFarm(_engine(model), skin=0.0, record=True)
        for spec in specs:
            farm.add(spec)
        farmed = farm.run()
        solo = run_sequential(specs, ModelCalculator(model), record=True)
        for f, s in zip(farmed.results, solo):
            _frames_equal(f, s)
        assert farmed.stats.neighbor_reuses == 0


class TestRetirement:
    def test_waves_shrink_without_reordering(self, model):
        """Staggered MD limits retire trajectories; survivors keep order."""
        crystals = [cscl(11, 17), rocksalt(3, 8), cscl(19, 35)]
        farm = TrajectoryFarm(_engine(model), skin=0.6)
        for i, (c, n) in enumerate(zip(crystals, (2, 4, 6))):
            farm.add(MDSpec(c, n, seed=i))
        result = farm.run()
        stats = result.stats
        # initial wave of 3, then live counts per stepping wave
        assert stats.wave_sizes == [3, 3, 3, 2, 2, 1, 1]
        assert stats.waves == 7
        assert stats.structure_steps == 2 + 4 + 6
        assert stats.retired == 3
        # results stay in submission order with each spec's own step count
        assert [r.index for r in result.results] == [0, 1, 2]
        assert [r.steps for r in result.results] == [2, 4, 6]
        assert all(r.converged for r in result.results)

    def test_zero_step_md_retires_at_wave_zero(self, model):
        farm = TrajectoryFarm(_engine(model))
        farm.add(MDSpec(cscl(11, 17), 0))
        farm.add(MDSpec(rocksalt(3, 8), 2, seed=1))
        result = farm.run()
        assert result.stats.wave_sizes == [2, 1, 1]
        assert result.results[0].steps == 0
        assert result.stats.retired == 2

    def test_max_waves_bounds_stepping(self, model):
        farm = TrajectoryFarm(_engine(model))
        farm.add(MDSpec(cscl(11, 17), 50, seed=1))
        result = farm.run(max_waves=3)
        assert result.results[0].steps == 3
        assert not result.results[0].converged

    def test_farm_runs_once(self, model):
        farm = TrajectoryFarm(_engine(model))
        farm.add(MDSpec(cscl(11, 17), 1, seed=1))
        farm.run()
        with pytest.raises(RuntimeError):
            farm.run()
        with pytest.raises(RuntimeError):
            farm.add(MDSpec(cscl(11, 17), 1))

    def test_validation(self, model):
        engine = _engine(model)
        with pytest.raises(ValueError):
            TrajectoryFarm(engine, skin=-0.1)
        with pytest.raises(ValueError):
            TrajectoryFarm(engine).run()  # empty farm
        with pytest.raises(TypeError):
            TrajectoryFarm(engine).add("not a spec")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_steps": -1}, "n_steps must be non-negative, got -1"),
            ({"rescale_every": -1}, "rescale_every must be non-negative, got -1"),
            ({"temperature_k": -5.0}, "temperature must be non-negative, got -5.0"),
        ],
    )
    def test_md_spec_validates_on_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MDSpec(cscl(11, 17), **{"n_steps": 5, **kwargs})

    def test_bad_temperature_fails_before_any_trajectory_is_added(self, monkeypatch):
        """``farm --temperature -5`` exits in one line before the farm sees
        a trajectory, so no wave is ever evaluated."""
        from repro.cli import main

        added = []
        monkeypatch.setattr(TrajectoryFarm, "add", lambda farm, spec: added.append(spec))
        argv = "farm --temperature -5 --md-fraction 1 --structures 4 --max-atoms 6"
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == "farm: temperature must be non-negative, got -5.0"
        assert not added

    def test_engine_wave_stats(self, model):
        engine = _engine(model)
        farm = TrajectoryFarm(engine, skin=0.6)
        farm.add(MDSpec(cscl(11, 17), 2, seed=1))
        farm.add(MDSpec(rocksalt(3, 8), 2, seed=2))
        result = farm.run()
        snap = engine.snapshot()
        assert snap["waves"] == result.stats.waves == 3
        assert snap["wave_structs"] == result.stats.evaluations == 6


class TestCrashResume:
    """Kill-at-wave-k + resume == uninterrupted, on the RCKPT1 format."""

    def test_kill_at_wave_k_resume_bit_identical(self, model, tmp_path):
        specs = _mixed_specs()
        uninterrupted = TrajectoryFarm(_engine(model), skin=0.6, record=True)
        for spec in specs:
            uninterrupted.add(spec)
        want = uninterrupted.run()

        ckpt = str(tmp_path / "farm.rckpt")
        crashed = TrajectoryFarm(_engine(model), skin=0.6, record=True)
        for spec in specs:
            crashed.add(spec)
        crashed.run(max_waves=2, checkpoint_path=ckpt)
        del crashed  # the crash: every in-memory state is gone

        resumed = TrajectoryFarm.resume(ckpt, _engine(model))
        got = resumed.run()
        assert len(got.results) == len(want.results)
        for f, s in zip(got.results, want.results):
            _frames_equal(f, s)
        # restored counters continue, not restart: totals match end to end
        assert got.stats.waves == want.stats.waves
        assert got.stats.structure_steps == want.stats.structure_steps
        assert got.stats.retired == want.stats.retired
        assert got.stats.wave_sizes == want.stats.wave_sizes

    def test_checkpoint_cadence_still_exact(self, model, tmp_path):
        """A sparse cadence loses at most checkpoint_every waves of work
        and the resumed run is still bit-identical."""
        specs = _mixed_specs()[:2]
        reference = TrajectoryFarm(_engine(model), record=True)
        for spec in specs:
            reference.add(spec)
        want = reference.run()
        ckpt = str(tmp_path / "sparse.rckpt")
        crashed = TrajectoryFarm(_engine(model), record=True)
        for spec in specs:
            crashed.add(spec)
        crashed.run(max_waves=3, checkpoint_path=ckpt, checkpoint_every=2)
        got = TrajectoryFarm.resume(ckpt, _engine(model)).run()
        for f, s in zip(got.results, want.results):
            _frames_equal(f, s)

    def test_checkpoint_before_run_rejected(self, model, tmp_path):
        farm = TrajectoryFarm(_engine(model))
        farm.add(MDSpec(cscl(11, 17), 2, seed=1))
        with pytest.raises(RuntimeError):
            farm.checkpoint(str(tmp_path / "early.rckpt"))
        with pytest.raises(ValueError):
            farm.run(checkpoint_path=str(tmp_path / "x.rckpt"), checkpoint_every=0)

    def test_resume_rejects_wrong_kind(self, model, tmp_path):
        from repro.train.checkpoint import CheckpointError, save_checkpoint

        path = str(tmp_path / "trainer.rckpt")
        save_checkpoint(path, {}, {"kind": "trainer-state"})
        with pytest.raises(CheckpointError, match="not a trajectory-farm"):
            TrajectoryFarm.resume(path, _engine(model))

    def test_resume_names_a_setting_this_version_lacks(self, model, tmp_path):
        """A relax spec saved with FIRE's constants as settings (what older
        checkpoints carry) is a CheckpointError naming them, not a bare
        TypeError from the config constructor."""
        from repro.train.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

        path = str(tmp_path / "old.rckpt")
        farm = TrajectoryFarm(_engine(model))
        farm.add(RelaxSpec(cscl(11, 17).perturbed(np.random.default_rng(3), 0.05)))
        farm.run(max_waves=1, checkpoint_path=path)
        arrays, meta = load_checkpoint(path)
        old = {"max_timestep_fs": 2.0, "min_timestep_fs": 0.02, "n_min": 5, "f_inc": 1.1,
               "f_dec": 0.5, "alpha_start": 0.25, "f_alpha": 0.99}
        meta["trajectories"][0]["spec"].update(old)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError) as err:
            TrajectoryFarm.resume(path, _engine(model))
        assert all(key in str(err.value) for key in old)

    def test_resume_rejects_corruption(self, model, tmp_path):
        from repro.train.checkpoint import CheckpointError

        path = tmp_path / "corrupt.rckpt"
        farm = TrajectoryFarm(_engine(model))
        farm.add(MDSpec(cscl(11, 17), 3, seed=1))
        farm.run(max_waves=1, checkpoint_path=str(path))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            TrajectoryFarm.resume(str(path), _engine(model))


class TestIncrementalAngles:
    @given(
        seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=5),
        sigma=st.sampled_from([0.02, 0.08, 0.2]),
    )
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_full_rebuild(self, seeds, sigma):
        """Random walks (short-edge membership flips included) through a
        shared skin cache with angle diffing == fresh full builds."""
        cache = NeighborCache(6.0, 0.6)
        stats = GraphDiffStats()
        prev = None
        crystal = rocksalt(3, 8)
        for seed in seeds:
            crystal = crystal.perturbed(np.random.default_rng(seed), sigma)
            got = build_graph(
                crystal, 6.0, 3.0, nl=cache.query(crystal), prev=prev, diff_stats=stats
            )
            want = build_graph(crystal, 6.0, 3.0)
            for name in (
                "edge_src",
                "edge_dst",
                "edge_image",
                "short_idx",
                "angle_e1",
                "angle_e2",
                "angle_center",
            ):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            prev = got
        assert (
            stats.angle_reuses + stats.angle_diffs + stats.angle_rebuilds == len(seeds)
        )

    def test_diff_path_actually_taken(self):
        """A displacement large enough to flip membership exercises the diff
        branch (not just whole-array reuse), still bit-identical."""
        crystal = rocksalt(3, 8)
        cache = NeighborCache(6.0, 1.2)
        stats = GraphDiffStats()
        prev = build_graph(
            crystal, 6.0, 3.0, nl=cache.query(crystal), prev=None, diff_stats=stats
        )
        moved = crystal.perturbed(np.random.default_rng(4), 0.25)
        got = build_graph(
            moved, 6.0, 3.0, nl=cache.query(moved), prev=prev, diff_stats=stats
        )
        want = build_graph(moved, 6.0, 3.0)
        assert np.array_equal(got.angle_e1, want.angle_e1)
        assert np.array_equal(got.angle_e2, want.angle_e2)
        assert np.array_equal(got.angle_center, want.angle_center)
        assert stats.angle_diffs + stats.angle_reuses >= 1
