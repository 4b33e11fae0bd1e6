"""Molecular dynamics: integrator physics, calculators, Table II mechanics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.md import (
    MDSpec,
    ModelCalculator,
    OracleCalculator,
    Trajectory,
    VelocityVerlet,
    instantaneous_temperature,
    kinetic_energy,
    maxwell_boltzmann_velocities,
    run_sequential,
)
from repro.model import CHGNetModel, OptLevel
from repro.runtime import device_profile
from repro.structures import cscl, rocksalt


@pytest.fixture(scope="module")
def crystal():
    return cscl(11, 17).supercell((2, 1, 1))


def _started(spec: MDSpec, calculator) -> Trajectory:
    """A solo trajectory with its initial evaluation installed."""
    trajectory = Trajectory(0, spec, record=False)
    trajectory.start(calculator.calculate(spec.crystal))
    return trajectory


class TestVelocities:
    def test_temperature_matches_request(self, crystal, rng):
        temps = []
        for seed in range(12):
            v = maxwell_boltzmann_velocities(crystal, 300.0, np.random.default_rng(seed))
            temps.append(instantaneous_temperature(crystal, v))
        assert 100.0 < np.mean(temps) < 500.0

    def test_zero_temperature_zero_velocity(self, crystal, rng):
        v = maxwell_boltzmann_velocities(crystal, 0.0, rng)
        assert np.allclose(v, 0.0)

    def test_negative_temperature_raises(self, crystal, rng):
        with pytest.raises(ValueError):
            maxwell_boltzmann_velocities(crystal, -1.0, rng)

    def test_no_center_of_mass_drift(self, crystal, rng):
        from repro.structures.elements import ATOMIC_MASS

        v = maxwell_boltzmann_velocities(crystal, 500.0, rng)
        masses = ATOMIC_MASS[crystal.species]
        assert np.allclose((masses[:, None] * v).sum(axis=0), 0.0, atol=1e-12)

    def test_kinetic_energy_nonnegative(self, crystal, rng):
        v = maxwell_boltzmann_velocities(crystal, 300.0, rng)
        assert kinetic_energy(crystal, v) > 0.0


class TestIntegrator:
    def test_bad_timestep_raises(self):
        with pytest.raises(ValueError):
            VelocityVerlet(0.0)

    def test_oracle_md_conserves_energy(self, crystal):
        """NVE with consistent forces: total energy drift stays small."""
        calc = OracleCalculator()
        md = _started(MDSpec(crystal, 15, timestep_fs=0.5, temperature_k=150.0, seed=1), calc)
        energies = []
        while not md.done:
            md.advance(calc)
            energies.append(
                md.state.potential_energy
                + kinetic_energy(md.state.crystal, md.state.velocities)
            )
        energies = np.array(energies)
        drift = np.abs(energies - energies[0]).max()
        scale = max(np.abs(energies[0]), kinetic_energy(crystal, md.state.velocities), 1e-3)
        assert drift < 0.05 * scale

    def test_atoms_move(self, crystal):
        spec = MDSpec(crystal, 3, timestep_fs=1.0, temperature_k=300.0, seed=1)
        (result,) = run_sequential([spec], OracleCalculator())
        assert result.steps == 3
        assert not np.allclose(crystal.cart_coords, result.crystal.cart_coords)


class TestModelCalculator:
    def test_fast_model_runs_md(self, small_config, crystal):
        model = CHGNetModel(
            small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(3)
        )
        calc = ModelCalculator(model)
        result = calc.calculate(crystal)
        assert result.forces.shape == (crystal.num_atoms, 3)
        assert result.stress.shape == (3, 3)
        assert np.isfinite(result.energy)

    def test_reference_model_runs_md(self, small_config, crystal):
        model = CHGNetModel(
            small_config.with_level(OptLevel.BASELINE), np.random.default_rng(3)
        )
        result = ModelCalculator(model).calculate(crystal)
        assert np.all(np.isfinite(result.forces))

    def test_fast_calculator_launches_fewer_kernels(self, small_config, crystal):
        """Table II's effect: head-based inference launches fewer kernels per
        ``calculate`` than derivative-based.  A launch count repeats exactly;
        the step rate itself is ``bench_table2_md.py``'s."""
        counts = {}
        for level in (OptLevel.DECOMPOSE_FS, OptLevel.BASELINE):
            calc = ModelCalculator(
                CHGNetModel(small_config.with_level(level), np.random.default_rng(3))
            )
            calc.calculate(crystal)  # warm
            with device_profile() as prof:
                calc.calculate(crystal)
            counts[level] = prof.kernels.count
        assert counts[OptLevel.DECOMPOSE_FS] < counts[OptLevel.BASELINE]


class CountingCalculator:
    """Wraps a calculator, counting ``calculate`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def calculate(self, crystal):
        self.calls += 1
        return self.inner.calculate(crystal)


class TestSingleEvaluationSteps:
    def test_run_costs_one_evaluation_per_step(self, crystal):
        """Regression: a step must not re-evaluate just to record energy."""
        calc = CountingCalculator(OracleCalculator())
        md = _started(MDSpec(crystal, 5, seed=1), calc)
        after_init = calc.calls
        assert after_init == 1
        while not md.done:
            md.advance(calc)
        assert calc.calls == after_init + 5

    def test_recorded_energy_matches_state(self, crystal):
        calc = OracleCalculator()
        spec = MDSpec(crystal, 3, timestep_fs=0.5, seed=1)
        (result,) = run_sequential([spec], calc, record=True)
        recomputed = calc.calculate(result.crystal).energy
        assert result.frames[-1].energy == pytest.approx(recomputed, abs=1e-10)
        assert result.energy == result.frames[-1].energy


class TestSkinListMD:
    def test_negative_skin_raises(self, small_config):
        model = CHGNetModel(small_config, np.random.default_rng(3))
        with pytest.raises(ValueError):
            ModelCalculator(model, skin=-0.5)

    def test_skin_reuse_matches_rebuild_every_step(self, small_config, crystal):
        """Forces along a skin-reused trajectory equal step-by-step rebuild
        (well inside 1e-9) even after a rebuild trigger fires.

        The model's output heads are zero-initialized, so the weights are
        jittered (and the start structure symmetry-broken) to make the
        forces nonzero — otherwise the comparison would be vacuous.
        """
        model = CHGNetModel(
            small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(3)
        )
        wrng = np.random.default_rng(9)
        for p in model.parameters():
            p.data += wrng.normal(scale=0.05, size=p.data.shape)
        start = crystal.perturbed(np.random.default_rng(1), 0.05)
        spec = MDSpec(start, 12, timestep_fs=2.0, temperature_k=600.0, seed=4)
        plain_calc = ModelCalculator(model)
        skinned_calc = ModelCalculator(model, skin=0.3)
        plain = _started(spec, plain_calc)
        skinned = _started(spec, skinned_calc)
        saw_force = 0.0
        while not plain.done:
            plain.advance(plain_calc)
            skinned.advance(skinned_calc)
            np.testing.assert_allclose(
                skinned.state.forces, plain.state.forces, rtol=0, atol=1e-9
            )
            assert abs(skinned.state.potential_energy - plain.state.potential_energy) <= 1e-9
            saw_force = max(saw_force, float(np.abs(plain.state.forces).max()))
        assert saw_force > 1e-6, "zero forces throughout: comparison is vacuous"
        cache = skinned_calc._cache
        assert cache.num_reuses > 0, "skin list never reused"
        assert cache.num_builds >= 2, "trajectory too tame: rebuild never triggered"

    def test_skin_calculator_single_point_matches(self, small_config, crystal):
        model = CHGNetModel(
            small_config.with_level(OptLevel.DECOMPOSE_FS), np.random.default_rng(3)
        )
        a = ModelCalculator(model).calculate(crystal)
        b = ModelCalculator(model, skin=1.0).calculate(crystal)
        np.testing.assert_array_equal(a.forces, b.forces)
        assert a.energy == b.energy
