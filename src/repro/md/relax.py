"""FIRE geometry relaxation on the velocity-Verlet machinery.

FIRE (Fast Inertial Relaxation Engine, Bitzek et al., PRL 97 170201)
treats relaxation as damped dynamics: velocity-Verlet steps with the
velocity continuously mixed toward the force direction, the timestep
grown while the trajectory keeps moving downhill (power ``P = F . v``
positive) and reset — with the velocity zeroed — the moment it overshoots
uphill.  Two safeguards make it robust far from the minimum: a per-step
**trust radius** (``max_step``) uniformly rescales any drift whose largest
per-atom displacement would exceed it, and the adaptive timestep is
clamped to ``[MIN_TIMESTEP_FS, MAX_TIMESTEP_FS]``.

FIRE's control constants are Bitzek et al.'s published values, module
constants rather than settings: the timestep bounds
:data:`MIN_TIMESTEP_FS` / :data:`MAX_TIMESTEP_FS` (0.02 / 2.0 fs), the
stability window :data:`N_MIN` (5 downhill steps before the timestep
grows), the timestep growth and shrink factors :data:`F_INC` / :data:`F_DEC`
(1.1 / 0.5), and the velocity-mixing schedule :data:`ALPHA_START` /
:data:`F_ALPHA` (0.25, decayed by 0.99).

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

MAX_TIMESTEP_FS = 2.0
MIN_TIMESTEP_FS = 0.02
N_MIN = 5
F_INC = 1.1
F_DEC = 0.5
ALPHA_START = 0.25
F_ALPHA = 0.99


def max_force_norm(forces: np.ndarray) -> float:
    """Largest per-atom force magnitude (eV/A) — the convergence measure."""
    if forces.shape[0] == 0:
        return 0.0
    return float(np.sqrt((forces * forces).sum(axis=1).max()))


@dataclass(frozen=True)
class FIREConfig:
    """Settings of one FIRE relaxation.

    ``fmax`` is the convergence tolerance on the max per-atom force norm
    (eV/A); ``max_steps`` bounds the number of force evaluations beyond the
    initial one; ``timestep_fs`` is the initial timestep, within
    ``[MIN_TIMESTEP_FS, MAX_TIMESTEP_FS]``; ``max_step`` is the trust radius
    (A) on the largest per-atom displacement of one drift.  FIRE's control
    constants (``N_MIN``, ``F_INC``, ``F_DEC``, ``ALPHA_START``,
    ``F_ALPHA``) are module constants (see the module docstring).  An
    out-of-range value raises ``ValueError`` at construction.
    """

    fmax: float = 0.05
    max_steps: int = 500
    timestep_fs: float = 0.5
    max_step: float = 0.2

    def __post_init__(self) -> None:
        if self.fmax <= 0:
            raise ValueError(f"fmax must be positive, got {self.fmax}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")
        if not MIN_TIMESTEP_FS <= self.timestep_fs <= MAX_TIMESTEP_FS:
            raise ValueError(
                f"timestep_fs must lie in [{MIN_TIMESTEP_FS}, {MAX_TIMESTEP_FS}], "
                f"got {self.timestep_fs}"
            )
        if self.max_step <= 0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")


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
            alpha=ALPHA_START,
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
        toward the force direction and (after ``N_MIN`` stable steps) the
        timestep grows and the mixing decays; the first uphill step zeroes
        the velocity, shrinks the timestep and resets the mixing.
        """
        masses = ATOMIC_MASS[crystal.species][:, None]
        accel_new = result.forces / masses * ACCEL_CONV
        v_new = v_half + 0.5 * state.dt * accel_new
        power = float(np.sum(result.forces * v_new))
        dt, alpha, n_pos = state.dt, state.alpha, state.n_pos
        if power > 0.0:
            n_pos += 1
            if n_pos > N_MIN:
                dt = min(dt * F_INC, MAX_TIMESTEP_FS)
                alpha *= F_ALPHA
            f_norm = float(np.sqrt((result.forces * result.forces).sum()))
            if f_norm > 0.0:
                v_norm = float(np.sqrt((v_new * v_new).sum()))
                v_new = (1.0 - alpha) * v_new + alpha * (v_norm / f_norm) * result.forces
        else:
            v_new = np.zeros_like(v_new)
            dt = max(dt * F_DEC, MIN_TIMESTEP_FS)
            alpha = ALPHA_START
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
