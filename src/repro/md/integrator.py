"""Velocity-Verlet integration with Maxwell-Boltzmann initialization.

Units follow the ASE convention: lengths in angstrom, energies in eV,
masses in amu, time in femtoseconds.  The conversion constant turns
eV/(A*amu) accelerations into A/fs^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.structures.crystal import Crystal
from repro.structures.elements import ATOMIC_MASS

# 1 eV/(A*amu) = 0.00964853 A/fs^2 ; k_B = 8.617333e-5 eV/K
ACCEL_CONV = 0.009648533
KB_EV = 8.617333262e-5


def maxwell_boltzmann_velocities(
    crystal: Crystal, temperature_k: float, rng: np.random.Generator
) -> np.ndarray:
    """Initial velocities (A/fs) at ``temperature_k``, COM motion removed."""
    if temperature_k < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature_k}")
    masses = ATOMIC_MASS[crystal.species]  # (n,)
    # sigma_v = sqrt(kB T / m) in A/fs after unit conversion
    sigma = np.sqrt(KB_EV * temperature_k / masses * ACCEL_CONV)
    v = rng.normal(size=(crystal.num_atoms, 3)) * sigma[:, None]
    # remove center-of-mass drift
    p = (masses[:, None] * v).sum(axis=0)
    v -= p / masses.sum()
    return v


def kinetic_energy(crystal: Crystal, velocities: np.ndarray) -> float:
    """Kinetic energy in eV."""
    masses = ATOMIC_MASS[crystal.species]
    return float(0.5 * np.sum(masses[:, None] * velocities**2) / ACCEL_CONV)


def instantaneous_temperature(crystal: Crystal, velocities: np.ndarray) -> float:
    """Kinetic temperature in kelvin (3N degrees of freedom)."""
    dof = 3 * crystal.num_atoms
    return 2.0 * kinetic_energy(crystal, velocities) / (dof * KB_EV)


@dataclass
class VerletState:
    """Positions (via crystal), velocities, forces and the potential energy
    of the evaluation that produced those forces — carried between steps so
    observers never need a second model evaluation."""

    crystal: Crystal
    velocities: np.ndarray  # (n, 3) A/fs
    forces: np.ndarray  # (n, 3) eV/A
    potential_energy: float  # eV — required so no construction site forgets it


class VelocityVerlet:
    """The standard two-half-kick integrator."""

    def __init__(self, timestep_fs: float) -> None:
        if timestep_fs <= 0:
            raise ValueError(f"timestep must be positive, got {timestep_fs}")
        self.dt = timestep_fs

    def begin_step(self, state: VerletState) -> tuple[Crystal, np.ndarray]:
        """First half-kick and drift: the positions the model must evaluate.

        Returns the advanced crystal and the half-step velocities; feed the
        model's result to :meth:`finish_step`.  Splitting the step in two
        phases lets a trajectory farm gather many trajectories' advanced
        crystals into one batched evaluation between the phases.
        """
        crystal = state.crystal
        masses = ATOMIC_MASS[crystal.species][:, None]
        accel = state.forces / masses * ACCEL_CONV
        v_half = state.velocities + 0.5 * self.dt * accel
        new_cart = crystal.cart_coords + self.dt * v_half
        new_crystal = Crystal(
            crystal.lattice,
            crystal.species,
            crystal.lattice.cart_to_frac(new_cart),
            name=crystal.name,
        )
        return new_crystal, v_half

    def finish_step(self, crystal: Crystal, v_half: np.ndarray, result) -> VerletState:
        """Second half-kick from the fresh forces; returns the new state."""
        masses = ATOMIC_MASS[crystal.species][:, None]
        accel_new = result.forces / masses * ACCEL_CONV
        v_new = v_half + 0.5 * self.dt * accel_new
        return VerletState(
            crystal=crystal,
            velocities=v_new,
            forces=result.forces,
            potential_energy=result.energy,
        )


def rescale_to_temperature(
    crystal: Crystal, velocities: np.ndarray, temperature_k: float
) -> np.ndarray:
    """Deterministic velocity-rescale thermostat step (the simplest NVT).

    Scales the velocities so the instantaneous kinetic temperature equals
    ``temperature_k``; a no-op when the system carries no kinetic energy.
    """
    if temperature_k < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature_k}")
    t_inst = instantaneous_temperature(crystal, velocities)
    if t_inst <= 0.0:
        return velocities
    return velocities * np.sqrt(temperature_k / t_inst)
