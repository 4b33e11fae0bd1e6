"""Massively-parallel trajectory farm over the serving engine.

The workloads real users run against a universal potential are iterative —
geometry relaxation and MD — and embarrassingly parallel across structures:
a screening pass relaxes thousands of candidates, an ensemble run advances
hundreds of replicas.  :class:`TrajectoryFarm` holds N independent
trajectories (FIRE relaxations and NVE/NVT MD runs, freely mixed) and
advances them in **lockstep waves**: each wave gathers every live
trajectory's half-kicked, drifted crystal, builds its graph through a
per-trajectory Verlet skin cache with incremental angle updates
(:func:`repro.graph.crystal_graph.build_graph` ``prev``), routes the whole
set through one :meth:`InferenceEngine.predict_wave` round-trip — where
tier batching and compiled-program replay amortize the model cost — then
finishes every integrator step and **retires** converged/finished
trajectories so later waves shrink.  Survivor order is preserved.

Bit-identity: the farm drives the exact same two-phase step code
(:meth:`FIRE.begin_step`/:meth:`finish_step`,
:meth:`VelocityVerlet.begin_step`/:meth:`finish_step`) as the sequential
baseline :func:`run_sequential`, skin-cached neighbor lists and
angle diffs are exact, and served predictions are bit-identical to solo
eager inference (the engine's row-stable kernel contract) — so farmed
trajectories match solo ones to the bit at every step.

Crash resumability: a farm can :meth:`~TrajectoryFarm.checkpoint` itself at
any wave boundary onto the trainers' ``RCKPT1`` atomic-CRC format
(:mod:`repro.train.checkpoint`), persisting every trajectory's positions,
velocities, forces, energy and FIRE control state bit-losslessly (arrays in
the npz payload; scalar floats through JSON, whose shortest-repr encoding
round-trips float64 exactly).  :meth:`~TrajectoryFarm.resume` rebuilds the
farm and continues; because every step is a pure function of the carried
state (MD seeds are consumed entirely at wave 0, the thermostat is
deterministic, and fresh skin caches are exact by contract), a
kill-at-wave-k + resume finishes **bit-identical** to the uninterrupted
run.  Only cache/diff telemetry restarts on resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.graph.crystal_graph import CrystalGraph, GraphDiffStats, build_graph
from repro.md.calculator import CalcResult, Calculator
from repro.md.integrator import (
    VelocityVerlet,
    VerletState,
    maxwell_boltzmann_velocities,
    rescale_to_temperature,
)
from repro.md.relax import FIRE, FIREConfig, FIREState, max_force_norm
from repro.serve.tenants import counters
from repro.structures.crystal import Crystal
from repro.structures.lattice import Lattice
from repro.structures.neighbors import NeighborCache
from repro.train.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


@dataclass(frozen=True)
class RelaxSpec:
    """One FIRE relaxation job for a farm."""

    crystal: Crystal
    config: FIREConfig = field(default_factory=FIREConfig)


@dataclass(frozen=True)
class MDSpec:
    """One MD job for a farm.

    NVE by default; ``rescale_every > 0`` applies the deterministic
    velocity-rescale thermostat to ``temperature_k`` every that many steps
    (the simplest NVT).  Initial velocities are Maxwell-Boltzmann from
    ``seed``, so a spec fully determines its trajectory.  A negative
    ``n_steps``, ``temperature_k`` or ``rescale_every`` raises
    ``ValueError`` at construction.
    """

    crystal: Crystal
    n_steps: int
    timestep_fs: float = 1.0
    temperature_k: float = 300.0
    seed: int = 0
    rescale_every: int = 0

    def __post_init__(self) -> None:
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.temperature_k < 0:
            raise ValueError(f"temperature must be non-negative, got {self.temperature_k}")
        if self.rescale_every < 0:
            raise ValueError(
                f"rescale_every must be non-negative, got {self.rescale_every}"
            )


@dataclass
class TrajFrame:
    """Per-step snapshot kept when recording (positions/forces/energy)."""

    positions: np.ndarray  # (n, 3) cartesian, A
    forces: np.ndarray  # (n, 3) eV/A
    energy: float  # eV


@dataclass
class TrajectoryResult:
    """Outcome of one trajectory, in submission order."""

    index: int
    spec: RelaxSpec | MDSpec  # the job that ran
    kind: str  # "relax" | "md"
    crystal: Crystal  # final structure
    steps: int  # integrator steps taken (evaluations beyond the initial one)
    converged: bool  # relax: fmax reached; md: ran to n_steps
    fmax: float  # final max per-atom force norm (eV/A)
    energy: float  # final potential energy (eV)
    frames: list[TrajFrame] = field(default_factory=list)


@dataclass
class FarmStats:
    """Counters of one farm run (see :meth:`TrajectoryFarm.run`)."""

    waves: int = 0  # engine round-trips, the initial evaluation included
    structure_steps: int = 0  # integrator steps finished across all trajectories
    evaluations: int = 0  # model evaluations, initial wave included
    retired: int = 0  # trajectories retired (all of them, at completion)
    wave_sizes: list[int] = field(default_factory=list)  # live count per wave
    neighbor_builds: int = 0  # pair searches run across all skin caches
    neighbor_reuses: int = 0  # queries answered from a cached search
    diff: GraphDiffStats = field(default_factory=GraphDiffStats)

    def as_dict(self) -> dict:
        """Flat dict of every counter field, the wave sizes and the angle
        diff counters (for the CLI summary)."""
        return {**counters(self), "wave_sizes": list(self.wave_sizes), **counters(self.diff)}


@dataclass
class FarmResult:
    """All trajectories' outcomes (submission order) plus run counters."""

    results: list[TrajectoryResult]
    stats: FarmStats


class Trajectory:
    """One trajectory — a FIRE relaxation or an MD run — stepped in two phases.

    :meth:`start` installs the evaluation of ``spec.crystal``; each step is
    :meth:`begin` (the crystal the model must evaluate) then :meth:`finish`
    (integrate that evaluation), or both at once through one calculator
    with :meth:`advance`.  ``done`` turns true when the trajectory retires
    (relaxation converged or step budget spent); ``state`` is the current
    :class:`VerletState` (:class:`FIREState` for a relaxation) and
    ``frames`` the per-step snapshots when ``record`` is set.  A farm
    drives many of these in lockstep; driving one alone is a single MD run
    or relaxation.
    """

    def __init__(self, index: int, spec: RelaxSpec | MDSpec, record: bool) -> None:
        self.index = index
        self.spec = spec
        self.record = record
        self.frames: list[TrajFrame] = []
        self.steps = 0
        self.done = False
        self._staged: tuple[Crystal, np.ndarray] | None = None
        if isinstance(spec, RelaxSpec):
            self.kind = "relax"
            self.driver = FIRE(spec.config)
            self.limit = spec.config.max_steps
        elif isinstance(spec, MDSpec):
            self.kind = "md"
            self.driver = VelocityVerlet(spec.timestep_fs)
            self.limit = spec.n_steps
        else:
            raise TypeError(f"unknown trajectory spec {type(spec).__name__}")
        self.state: VerletState | None = None

    def start(self, result: CalcResult) -> None:
        """Install the initial evaluation; may retire immediately."""
        crystal = self.spec.crystal
        if self.kind == "relax":
            self.state = self.driver.init_state(crystal, result)
            if self.driver.converged(self.state) or self.limit == 0:
                self.done = True
        else:
            velocities = maxwell_boltzmann_velocities(
                crystal, self.spec.temperature_k, np.random.default_rng(self.spec.seed)
            )
            self.state = VerletState(crystal, velocities, result.forces, result.energy)
            if self.limit == 0:
                self.done = True
        if self.record:
            self._snap(result)

    def begin(self) -> Crystal:
        """Phase one of the step: the crystal the model must evaluate."""
        crystal, v_half = self.driver.begin_step(self.state)
        self._staged = (crystal, v_half)
        return crystal

    def finish(self, result: CalcResult) -> None:
        """Phase two: integrate the fresh forces, thermostat, retire checks."""
        crystal, v_half = self._staged
        self._staged = None
        self.steps += 1
        if self.kind == "relax":
            self.state = self.driver.finish_step(self.state, crystal, v_half, result)
            if self.driver.converged(self.state) or self.steps >= self.limit:
                self.done = True
        else:
            self.state = self.driver.finish_step(crystal, v_half, result)
            spec = self.spec
            if spec.rescale_every and self.steps % spec.rescale_every == 0:
                self.state.velocities = rescale_to_temperature(
                    crystal, self.state.velocities, spec.temperature_k
                )
            if self.steps >= self.limit:
                self.done = True
        if self.record:
            self._snap(result)

    def advance(self, calculator: Calculator) -> None:
        """One full step, its evaluation made by ``calculator``."""
        self.finish(calculator.calculate(self.begin()))

    def _snap(self, result: CalcResult) -> None:
        self.frames.append(
            TrajFrame(self.state.crystal.cart_coords, result.forces, result.energy)
        )

    def result(self) -> TrajectoryResult:
        """Final outcome (call after retirement)."""
        converged = (
            self.driver.converged(self.state) if self.kind == "relax" else self.done
        )
        return TrajectoryResult(
            index=self.index,
            spec=self.spec,
            kind=self.kind,
            crystal=self.state.crystal,
            steps=self.steps,
            converged=converged,
            fmax=max_force_norm(self.state.forces),
            energy=self.state.potential_energy,
            frames=self.frames,
        )


class TrajectoryFarm:
    """Advance many independent trajectories in lockstep engine waves.

    ``engine`` supplies the model (and its cutoffs); ``skin`` sizes the
    per-trajectory Verlet caches (0 rebuilds every step); ``record=True``
    keeps per-step :class:`TrajFrame` snapshots on every trajectory (the
    bit-identity instrument — cheap, the arrays are the step's own).

    Shrinking waves visit many distinct group sizes, each its own program
    signature; the engine's default ``max_programs`` leaves room for them,
    so late small waves still replay.
    """

    def __init__(
        self, engine, skin: float = 1.0, record: bool = False
    ) -> None:
        if skin < 0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        self.engine = engine
        self.skin = skin
        self.record = record
        self.stats = FarmStats()
        self._trajectories: list[Trajectory] = []
        self._caches: list[NeighborCache] = []
        self._prev: list[CrystalGraph | None] = []
        self._started = False
        self._resumed = False

    def add(self, spec: RelaxSpec | MDSpec) -> int:
        """Register one trajectory; returns its index (= result position)."""
        if self._started:
            raise RuntimeError("farm already run; build a new one")
        index = len(self._trajectories)
        self._trajectories.append(Trajectory(index, spec, self.record))
        self._caches.append(
            NeighborCache(self.engine.config.cutoff_atom, self.skin)
        )
        self._prev.append(None)
        return index

    def __len__(self) -> int:
        return len(self._trajectories)

    def _graph(self, trajectory: Trajectory, crystal: Crystal) -> CrystalGraph:
        cache = self._caches[trajectory.index]
        graph = build_graph(
            crystal,
            nl=cache.query(crystal),
            prev=self._prev[trajectory.index],
            diff_stats=self.stats.diff,
        )
        self._prev[trajectory.index] = graph
        return graph

    def _wave(self, live: list[Trajectory], crystals: list[Crystal]) -> list[CalcResult]:
        graphs = [self._graph(t, c) for t, c in zip(live, crystals)]
        predictions = self.engine.predict_wave(graphs)
        self.stats.waves += 1
        self.stats.wave_sizes.append(len(live))
        self.stats.evaluations += len(live)
        return [
            CalcResult(energy=p.energy, forces=p.forces, stress=p.stress, magmom=p.magmom)
            for p in predictions
        ]

    def run(
        self,
        max_waves: int | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
    ) -> FarmResult:
        """Drive every trajectory to completion; results in submission order.

        Wave 0 evaluates all starting crystals (skipped on a farm built by
        :meth:`resume` — that evaluation is already folded into the
        restored states); each following wave steps every live trajectory
        once and retires the finished ones (list order preserved among
        survivors).  ``max_waves`` bounds the number of *stepping* waves
        (``None`` = run to completion).

        With ``checkpoint_path`` the farm checkpoints itself after the
        initial wave, after every ``checkpoint_every`` stepping waves, and
        at completion — so a crash loses at most ``checkpoint_every``
        waves of work, and the resumed run finishes bit-identical to an
        uninterrupted one.
        """
        if self._started:
            raise RuntimeError("farm already run; build a new one")
        if not self._trajectories:
            raise ValueError("farm has no trajectories")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self._started = True
        trajectories = self._trajectories
        if not self._resumed:
            for trajectory, result in zip(
                trajectories,
                self._wave(trajectories, [t.spec.crystal for t in trajectories]),
            ):
                trajectory.start(result)
            self.stats.retired += sum(t.done for t in trajectories)
            if checkpoint_path is not None:
                self.checkpoint(checkpoint_path)
        live = [t for t in trajectories if not t.done]
        waves = 0
        while live and (max_waves is None or waves < max_waves):
            crystals = [t.begin() for t in live]
            for trajectory, result in zip(live, self._wave(live, crystals)):
                trajectory.finish(result)
            waves += 1
            self.stats.structure_steps += len(live)
            survivors = [t for t in live if not t.done]
            self.stats.retired += len(live) - len(survivors)
            live = survivors
            if checkpoint_path is not None and waves % checkpoint_every == 0:
                self.checkpoint(checkpoint_path)
        if checkpoint_path is not None and waves % checkpoint_every != 0:
            self.checkpoint(checkpoint_path)
        for cache in self._caches:
            self.stats.neighbor_builds += cache.num_builds
            self.stats.neighbor_reuses += cache.num_reuses
        return FarmResult(
            results=[t.result() for t in trajectories], stats=self.stats
        )

    # ------------------------------------------------------- crash resumption
    def checkpoint(self, path: str) -> None:
        """Atomically persist the farm's full state at a wave boundary.

        Writes the trainers' ``RCKPT1`` atomic-CRC format
        (:func:`repro.train.checkpoint.save_checkpoint`): per-trajectory
        positions/velocities/forces as lossless npz arrays, scalar state
        (energies, FIRE timestep/mixing, step counters) through JSON whose
        shortest-repr float encoding round-trips float64 bit-exactly.
        Recorded frames are persisted too, so a resumed recording farm
        reproduces the uninterrupted frame history.  Raises
        ``RuntimeError`` before the initial wave (nothing consistent to
        save yet) or while a step is half-staged.
        """
        trajectories = self._trajectories
        if not self._started or any(t.state is None for t in trajectories):
            raise RuntimeError("nothing to checkpoint before the initial wave")
        if any(t._staged is not None for t in trajectories):
            raise RuntimeError("cannot checkpoint mid-step; wave boundaries only")
        arrays: dict[str, np.ndarray] = {}
        traj_meta = []
        for t in trajectories:
            state = t.state
            prefix = f"t{t.index}_"
            arrays[prefix + "lattice"] = state.crystal.lattice.matrix
            arrays[prefix + "species"] = state.crystal.species
            arrays[prefix + "frac"] = state.crystal.frac_coords
            arrays[prefix + "velocities"] = state.velocities
            arrays[prefix + "forces"] = state.forces
            if isinstance(t.spec, RelaxSpec):
                spec_meta = {
                    f.name: getattr(t.spec.config, f.name)
                    for f in fields(t.spec.config)
                }
            else:
                spec_meta = {
                    f.name: getattr(t.spec, f.name)
                    for f in fields(t.spec)
                    if f.name != "crystal"
                }
            entry = {
                "kind": t.kind,
                "steps": t.steps,
                "done": t.done,
                "name": state.crystal.name,
                "energy": state.potential_energy,
                "spec": spec_meta,
            }
            if t.kind == "relax":
                entry["fire"] = {
                    "dt": state.dt,
                    "alpha": state.alpha,
                    "n_pos": state.n_pos,
                    "n_steps": state.n_steps,
                }
            if t.frames:
                arrays[prefix + "frame_positions"] = np.stack(
                    [f.positions for f in t.frames]
                )
                arrays[prefix + "frame_forces"] = np.stack([f.forces for f in t.frames])
                arrays[prefix + "frame_energies"] = np.asarray(
                    [f.energy for f in t.frames], dtype=np.float64
                )
            traj_meta.append(entry)
        meta = {
            "kind": "trajectory-farm",
            "skin": self.skin,
            "record": self.record,
            "stats": {
                "waves": self.stats.waves,
                "structure_steps": self.stats.structure_steps,
                "evaluations": self.stats.evaluations,
                "retired": self.stats.retired,
                "wave_sizes": list(self.stats.wave_sizes),
            },
            "trajectories": traj_meta,
        }
        save_checkpoint(path, arrays, meta)

    @classmethod
    def resume(cls, path: str, engine) -> "TrajectoryFarm":
        """Rebuild a farm from :meth:`checkpoint`; call :meth:`run` to continue.

        The restored farm carries every trajectory's exact state (and, when
        recording, its frame history), so continuing it finishes
        bit-identical to the uninterrupted run.  Skin caches and ``prev``
        graphs are rebuilt fresh — they are exact by contract, so only the
        cache/diff telemetry restarts.  Raises
        :class:`~repro.train.checkpoint.CheckpointError` on a corrupted
        file, one that is not a farm checkpoint, or a trajectory setting
        this version does not have (a FIRE constant saved as a setting by
        an older version, say).
        """
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "trajectory-farm":
            raise CheckpointError(
                f"{path!r} is not a trajectory-farm checkpoint "
                f"(kind={meta.get('kind')!r})"
            )
        farm = cls(engine, skin=meta["skin"], record=meta["record"])
        for i, entry in enumerate(meta["trajectories"]):
            prefix = f"t{i}_"
            crystal = Crystal(
                Lattice(arrays[prefix + "lattice"]),
                arrays[prefix + "species"],
                arrays[prefix + "frac"],
                name=entry["name"],
            )
            spec_cls = FIREConfig if entry["kind"] == "relax" else MDSpec
            unknown = sorted(set(entry["spec"]) - {f.name for f in fields(spec_cls)})
            if unknown:
                raise CheckpointError(
                    f"{path!r}: trajectory {i} ({entry['kind']}) carries unknown "
                    f"setting(s) {', '.join(unknown)}"
                )
            if entry["kind"] == "relax":
                spec = RelaxSpec(crystal, FIREConfig(**entry["spec"]))
            else:
                spec = MDSpec(crystal, **entry["spec"])
            farm.add(spec)
            t = farm._trajectories[i]
            velocities = arrays[prefix + "velocities"]
            forces = arrays[prefix + "forces"]
            if entry["kind"] == "relax":
                fire = entry["fire"]
                t.state = FIREState(
                    crystal=crystal,
                    velocities=velocities,
                    forces=forces,
                    potential_energy=entry["energy"],
                    dt=fire["dt"],
                    alpha=fire["alpha"],
                    n_pos=fire["n_pos"],
                    n_steps=fire["n_steps"],
                )
            else:
                t.state = VerletState(crystal, velocities, forces, entry["energy"])
            t.steps = entry["steps"]
            t.done = entry["done"]
            if prefix + "frame_positions" in arrays:
                t.frames = [
                    TrajFrame(p, f, float(e))
                    for p, f, e in zip(
                        arrays[prefix + "frame_positions"],
                        arrays[prefix + "frame_forces"],
                        arrays[prefix + "frame_energies"],
                    )
                ]
        saved = meta["stats"]
        farm.stats.waves = saved["waves"]
        farm.stats.structure_steps = saved["structure_steps"]
        farm.stats.evaluations = saved["evaluations"]
        farm.stats.retired = saved["retired"]
        farm.stats.wave_sizes = list(saved["wave_sizes"])
        farm._resumed = True
        return farm


def run_sequential(
    specs: list[RelaxSpec | MDSpec], calculator: Calculator, record: bool = False
) -> list[TrajectoryResult]:
    """The per-trajectory eager baseline (and the farm's bit-identity oracle).

    Each spec is driven to completion one at a time, one
    ``calculator.calculate`` per step — no batching, no skin cache, no
    engine: exactly the seed's step-by-step behavior.  Same two-phase step
    code as the farm, so outputs are comparable frame by frame.
    """
    results = []
    for index, spec in enumerate(specs):
        trajectory = Trajectory(index, spec, record)
        trajectory.start(calculator.calculate(spec.crystal))
        while not trajectory.done:
            trajectory.advance(calculator)
        results.append(trajectory.result())
    return results
