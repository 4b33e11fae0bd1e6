"""FIRE relaxation: convergence, trust radius, config validation, batched skin."""

from __future__ import annotations

import numpy as np
import pytest

from repro.md import (
    FIRE,
    FIREConfig,
    ModelCalculator,
    OracleCalculator,
    RelaxSpec,
    Trajectory,
    max_force_norm,
)
from repro.md import relax
from repro.md.calculator import CalcResult
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.structures import cscl, named_structures, rocksalt


@pytest.fixture(scope="module")
def oracle():
    return OracleCalculator()


def _relax(crystal, config: FIREConfig, calculator) -> Trajectory:
    """Drive one recorded relaxation to retirement."""
    trajectory = Trajectory(0, RelaxSpec(crystal, config), record=True)
    trajectory.start(calculator.calculate(crystal))
    while not trajectory.done:
        trajectory.advance(calculator)
    return trajectory


class TestConfigValidation:
    def test_defaults_valid(self):
        FIREConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fmax": 0.0},
            {"fmax": -0.1},
            {"max_steps": -1},
            {"timestep_fs": 0.0},
            {"timestep_fs": 0.01},  # below MIN_TIMESTEP_FS
            {"timestep_fs": 3.0},  # above MAX_TIMESTEP_FS
            {"max_step": 0.0},
            {"max_step": -0.2},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            FIREConfig(**kwargs)

    @pytest.mark.parametrize("timestep_fs", [relax.MIN_TIMESTEP_FS, relax.MAX_TIMESTEP_FS])
    def test_timestep_bounds_are_inclusive(self, timestep_fs):
        assert FIREConfig(timestep_fs=timestep_fs).timestep_fs == timestep_fs

    @pytest.mark.parametrize(
        "holds",
        [
            lambda m: 0.0 < m.MIN_TIMESTEP_FS <= FIREConfig().timestep_fs <= m.MAX_TIMESTEP_FS,
            lambda m: m.N_MIN >= 1,
            lambda m: m.F_INC > 1.0,
            lambda m: 0.0 < m.F_DEC < 1.0,
            lambda m: 0.0 < m.ALPHA_START < 1.0,
            lambda m: 0.0 < m.F_ALPHA < 1.0,
        ],
        ids=["timestep_window", "n_min", "f_inc", "f_dec", "alpha_start", "f_alpha"],
    )
    def test_control_constants_in_range(self, holds):
        """The ranges construction used to enforce on FIRE's control
        settings hold for the module constants that replaced them: the
        timestep grows on ``F_INC``, shrinks on ``F_DEC`` and the mixing
        coefficient decays from ``ALPHA_START`` toward zero."""
        assert holds(relax)

    def test_driver_validates_on_construction(self):
        with pytest.raises(ValueError):
            FIRE(FIREConfig(fmax=-1.0))


class TestConvergence:
    @pytest.mark.parametrize("name", ["LiMnO2", "LiTiPO5"])
    def test_perturbed_prototype_relaxes(self, oracle, name):
        """FIRE drives the max force norm below tolerance and lowers energy."""
        crystal = named_structures()[name].perturbed(np.random.default_rng(3), 0.08)
        start = oracle.calculate(crystal)
        trajectory = _relax(crystal, FIREConfig(fmax=0.15, max_steps=400), oracle)
        result = trajectory.result()
        assert result.converged
        assert trajectory.state.fmax <= 0.15
        assert max_force_norm(start.forces) > 0.15  # actually had work to do
        assert result.energy < start.energy
        assert result.steps == trajectory.state.n_steps > 0
        # frames cover step 0 through the final step
        assert len(result.frames) == result.steps + 1

    def test_already_relaxed_costs_one_evaluation(self, oracle):
        crystal = cscl(11, 17).perturbed(np.random.default_rng(1), 0.05)
        first = _relax(crystal, FIREConfig(fmax=0.2, max_steps=400), oracle).result()
        assert first.converged
        again = _relax(first.crystal, FIREConfig(fmax=0.2, max_steps=400), oracle).result()
        assert again.converged and again.steps == 0
        assert len(again.frames) == 1

    def test_max_steps_bounds_run(self, oracle):
        crystal = rocksalt(3, 8).perturbed(np.random.default_rng(2), 0.1)
        result = _relax(crystal, FIREConfig(fmax=1e-9, max_steps=4), oracle).result()
        assert not result.converged
        assert result.steps == 4


class TestTrustRadius:
    def test_drift_clamped_to_max_step(self):
        """Huge forces: the drift's longest displacement lands on max_step."""
        crystal = cscl(11, 17)
        driver = FIRE(FIREConfig(max_step=0.05))
        forces = np.zeros((crystal.num_atoms, 3))
        forces[0] = (5000.0, 0.0, 0.0)  # would fling atom 0 far past 0.05 A
        state = driver.init_state(crystal, CalcResult(0.0, forces, np.zeros((3, 3))))
        moved, _ = driver.begin_step(state)
        disp = np.linalg.norm(moved.cart_coords - crystal.cart_coords, axis=1)
        assert np.isclose(disp.max(), 0.05)

    def test_small_drift_not_rescaled(self):
        crystal = cscl(11, 17)
        driver = FIRE(FIREConfig(max_step=10.0))
        forces = np.full((crystal.num_atoms, 3), 0.01)
        state = driver.init_state(crystal, CalcResult(0.0, forces, np.zeros((3, 3))))
        moved, v_half = driver.begin_step(state)
        # unclamped drift is exactly dt * v_half
        expect = crystal.cart_coords + state.dt * v_half
        assert np.array_equal(moved.cart_coords, expect)

    def test_uphill_step_resets(self):
        """P <= 0 zeroes velocities, shrinks dt and resets alpha/n_pos."""
        crystal = cscl(11, 17)
        cfg = FIREConfig()
        driver = FIRE(cfg)
        forces = np.full((crystal.num_atoms, 3), 0.5)
        state = driver.init_state(crystal, CalcResult(0.0, forces, np.zeros((3, 3))))
        state.n_pos = 7
        state.alpha = 0.01
        moved, v_half = driver.begin_step(state)
        # fresh forces exactly opposing the half-step velocity: P < 0
        new = driver.finish_step(
            state, moved, v_half, CalcResult(1.0, -v_half, np.zeros((3, 3)))
        )
        assert np.array_equal(new.velocities, np.zeros_like(v_half))
        assert new.dt == pytest.approx(cfg.timestep_fs * relax.F_DEC)
        assert new.alpha == relax.ALPHA_START
        assert new.n_pos == 0


def _tiny_model() -> CHGNetModel:
    config = CHGNetConfig(
        atom_fea_dim=8,
        bond_fea_dim=8,
        angle_fea_dim=8,
        num_radial=5,
        angular_order=2,
        hidden_dim=8,
        opt_level=OptLevel.DECOMPOSE_FS,
    )
    model = CHGNetModel(config, np.random.default_rng(1))
    rng = np.random.default_rng(7)
    for p in model.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return model


class TestCalculatorSkin:
    def test_solo_calculate_reuses_skin_cache(self):
        """calculate with skin > 0 reuses its pair search and angle arrays
        and stays bit-identical to calculate without any skin."""
        model = _tiny_model()
        calc = ModelCalculator(model, skin=0.8)
        fresh = ModelCalculator(model)
        crystal = cscl(11, 17)
        rng = np.random.default_rng(9)
        for _ in range(3):
            got, want = calc.calculate(crystal), fresh.calculate(crystal)
            assert got.energy == want.energy
            assert np.array_equal(got.forces, want.forces)
            assert np.array_equal(got.stress, want.stress)
            assert np.array_equal(got.magmom, want.magmom)
            crystal = crystal.perturbed(rng, 0.01)
        assert calc._cache.num_builds == 1
        assert calc._cache.num_reuses == 2
        assert calc.diff_stats.angle_reuses + calc.diff_stats.angle_diffs > 0
