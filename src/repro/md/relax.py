"""FIRE geometry relaxation on the velocity-Verlet machinery.

FIRE (Fast Inertial Relaxation Engine, Bitzek et al., PRL 97 170201)
treats relaxation as damped dynamics: velocity-Verlet steps with the
velocity continuously mixed toward the force direction, the timestep
grown while the trajectory keeps moving downhill (power ``P = F . v``
positive) and reset — with the velocity zeroed — the moment it overshoots
uphill.  Two safeguards make it robust far from the minimum: a per-step
**trust radius** (``max_step``) uniformly rescales any drift whose largest
per-atom displacement would exceed it, and the adaptive timestep is
clamped to ``[min_timestep_fs, max_timestep_fs]``.

Convergence is per-structure on the **max per-atom force norm**
(``max |F_i| <= fmax``), the standard relaxation criterion.  Only atomic
positions relax; the cell is held fixed.

The step is split into :meth:`FIRE.begin_step` (half-kick + clamped
drift — produces the crystal the model must evaluate) and
:meth:`FIRE.finish_step` (second half-kick + the FIRE velocity/timestep
update), so a trajectory farm can batch many relaxations' model
evaluations between the phases.  A single relaxation is one
:class:`~repro.md.farm.Trajectory` driven by a plain calculator
(:meth:`~repro.md.farm.Trajectory.advance`) through the same two phases,
which is what makes farmed relaxations bit-identical to solo ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.integrator import ACCEL_CONV
from repro.structures.crystal import Crystal
from repro.structures.elements import ATOMIC_MASS


def max_force_norm(forces: np.ndarray) -> float:
    """Largest per-atom force magnitude (eV/A) — the convergence measure."""
    if forces.shape[0] == 0:
        return 0.0
    return float(np.sqrt((forces * forces).sum(axis=1).max()))


@dataclass(frozen=True)
class FIREConfig:
    """Knobs of the FIRE driver (defaults follow Bitzek et al.).

    ``fmax`` is the convergence tolerance on the max per-atom force norm
    (eV/A); ``max_steps`` bounds the number of force evaluations beyond the
    initial one; ``max_step`` is the trust radius (A) on the largest
    per-atom displacement of one drift.  The remaining fields are the FIRE
    control parameters: initial/extremal timesteps, the ``n_min`` stability
    window, timestep growth/shrink factors ``f_inc``/``f_dec``, and the
    mixing schedule ``alpha_start``/``f_alpha``.  An out-of-range value
    raises ``ValueError`` at construction.
    """

    fmax: float = 0.05
    max_steps: int = 500
    timestep_fs: float = 0.5
    max_timestep_fs: float = 2.0
    min_timestep_fs: float = 0.02
    max_step: float = 0.2
    n_min: int = 5
    f_inc: float = 1.1
    f_dec: float = 0.5
    alpha_start: float = 0.25
    f_alpha: float = 0.99

    def __post_init__(self) -> None:
        if self.fmax <= 0:
            raise ValueError(f"fmax must be positive, got {self.fmax}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")
        if not 0 < self.timestep_fs <= self.max_timestep_fs:
            raise ValueError(
                f"timestep_fs must lie in (0, {self.max_timestep_fs}], "
                f"got {self.timestep_fs}"
            )
        if not 0 < self.min_timestep_fs <= self.timestep_fs:
            raise ValueError(
                f"min_timestep_fs must lie in (0, {self.timestep_fs}], "
                f"got {self.min_timestep_fs}"
            )
        if self.max_step <= 0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        if self.n_min < 1:
            raise ValueError(f"n_min must be >= 1, got {self.n_min}")
        if self.f_inc <= 1.0:
            raise ValueError(f"f_inc must exceed 1, got {self.f_inc}")
        if not 0 < self.f_dec < 1.0:
            raise ValueError(f"f_dec must lie in (0, 1), got {self.f_dec}")
        if not 0 < self.alpha_start < 1.0:
            raise ValueError(f"alpha_start must lie in (0, 1), got {self.alpha_start}")
        if not 0 < self.f_alpha <= 1.0:
            raise ValueError(f"f_alpha must lie in (0, 1], got {self.f_alpha}")


@dataclass
class FIREState:
    """Verlet state plus the FIRE control variables carried between steps."""

    crystal: Crystal
    velocities: np.ndarray  # (n, 3) A/fs
    forces: np.ndarray  # (n, 3) eV/A
    potential_energy: float  # eV
    dt: float  # current adaptive timestep (fs)
    alpha: float  # current mixing coefficient
    n_pos: int = 0  # consecutive downhill steps
    n_steps: int = 0  # force evaluations beyond the initial one

    @property
    def fmax(self) -> float:
        """Max per-atom force norm of the current forces (eV/A)."""
        return max_force_norm(self.forces)


class FIRE:
    """The FIRE relaxation driver (see the module docstring)."""

    def __init__(self, config: FIREConfig | None = None) -> None:
        self.config = config or FIREConfig()

    def init_state(self, crystal: Crystal, result) -> FIREState:
        """Initial state from the first force evaluation (velocities zero)."""
        return FIREState(
            crystal=crystal,
            velocities=np.zeros((crystal.num_atoms, 3)),
            forces=result.forces,
            potential_energy=result.energy,
            dt=self.config.timestep_fs,
            alpha=self.config.alpha_start,
        )

    def converged(self, state: FIREState) -> bool:
        """Whether the state's max per-atom force norm is within ``fmax``."""
        return state.fmax <= self.config.fmax

    def begin_step(self, state: FIREState) -> tuple[Crystal, np.ndarray]:
        """Half-kick and trust-radius-clamped drift.

        Returns the advanced crystal (to be evaluated by the model) and the
        half-step velocities for :meth:`finish_step`.  When the largest
        per-atom displacement of the drift exceeds ``max_step``, the whole
        displacement field is rescaled to put it exactly on the trust
        radius (directions preserved).
        """
        cfg = self.config
        crystal = state.crystal
        masses = ATOMIC_MASS[crystal.species][:, None]
        accel = state.forces / masses * ACCEL_CONV
        v_half = state.velocities + 0.5 * state.dt * accel
        disp = state.dt * v_half
        longest = float(np.sqrt((disp * disp).sum(axis=1).max()))
        if longest > cfg.max_step:
            disp = disp * (cfg.max_step / longest)
        new_cart = crystal.cart_coords + disp
        new_crystal = Crystal(
            crystal.lattice,
            crystal.species,
            crystal.lattice.cart_to_frac(new_cart),
            name=crystal.name,
        )
        return new_crystal, v_half

    def finish_step(
        self, state: FIREState, crystal: Crystal, v_half: np.ndarray, result
    ) -> FIREState:
        """Second half-kick, then the FIRE velocity mixing and dt adaptation.

        While the power ``P = F . v`` stays positive the velocity is mixed
        toward the force direction and (after ``n_min`` stable steps) the
        timestep grows and the mixing decays; the first uphill step zeroes
        the velocity, shrinks the timestep and resets the mixing.
        """
        cfg = self.config
        masses = ATOMIC_MASS[crystal.species][:, None]
        accel_new = result.forces / masses * ACCEL_CONV
        v_new = v_half + 0.5 * state.dt * accel_new
        power = float(np.sum(result.forces * v_new))
        dt, alpha, n_pos = state.dt, state.alpha, state.n_pos
        if power > 0.0:
            n_pos += 1
            if n_pos > cfg.n_min:
                dt = min(dt * cfg.f_inc, cfg.max_timestep_fs)
                alpha *= cfg.f_alpha
            f_norm = float(np.sqrt((result.forces * result.forces).sum()))
            if f_norm > 0.0:
                v_norm = float(np.sqrt((v_new * v_new).sum()))
                v_new = (1.0 - alpha) * v_new + alpha * (v_norm / f_norm) * result.forces
        else:
            v_new = np.zeros_like(v_new)
            dt = max(dt * cfg.f_dec, cfg.min_timestep_fs)
            alpha = cfg.alpha_start
            n_pos = 0
        return FIREState(
            crystal=crystal,
            velocities=v_new,
            forces=result.forces,
            potential_energy=result.energy,
            dt=dt,
            alpha=alpha,
            n_pos=n_pos,
            n_steps=state.n_steps + 1,
        )
