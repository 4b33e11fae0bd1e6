"""Molecular dynamics: calculators, the velocity-Verlet integrator, FIRE
relaxation and the trajectory driver.

One MD run or relaxation is a :class:`Trajectory` stepped by a calculator
(:func:`run_sequential` drives a list of them one at a time);
:class:`TrajectoryFarm` advances many in lockstep waves through the serving
engine."""

from repro.md.calculator import CalcResult, Calculator, ModelCalculator, OracleCalculator
from repro.md.farm import (
    FarmResult,
    FarmStats,
    MDSpec,
    RelaxSpec,
    Trajectory,
    TrajectoryFarm,
    TrajectoryResult,
    TrajFrame,
    run_sequential,
)
from repro.md.integrator import (
    ACCEL_CONV,
    KB_EV,
    VelocityVerlet,
    VerletState,
    instantaneous_temperature,
    kinetic_energy,
    maxwell_boltzmann_velocities,
    rescale_to_temperature,
)
from repro.md.relax import FIRE, FIREConfig, FIREState, max_force_norm

__all__ = [
    "CalcResult",
    "Calculator",
    "ModelCalculator",
    "OracleCalculator",
    "ACCEL_CONV",
    "KB_EV",
    "VelocityVerlet",
    "VerletState",
    "instantaneous_temperature",
    "kinetic_energy",
    "maxwell_boltzmann_velocities",
    "rescale_to_temperature",
    "FIRE",
    "FIREConfig",
    "FIREState",
    "max_force_norm",
    "FarmResult",
    "FarmStats",
    "MDSpec",
    "RelaxSpec",
    "Trajectory",
    "TrajectoryFarm",
    "TrajectoryResult",
    "TrajFrame",
    "run_sequential",
]
