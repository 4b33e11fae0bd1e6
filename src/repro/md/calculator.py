"""Calculators: energy/forces/stress providers for molecular dynamics.

``ModelCalculator`` wraps a trained CHGNet/FastCHGNet; as in the paper's
Table II the structure is processed *step by step* (graph rebuilt every MD
step, batch of one).  The reference model must run its gradient machinery
even at inference (forces are energy derivatives), while the head-based
FastCHGNet runs entirely under ``no_grad`` — the source of its 2.6-3x MD
speedup.

``ModelCalculator`` optionally keeps a Verlet skin list
(:class:`~repro.structures.NeighborCache`): with ``skin > 0`` the neighbor
search runs at ``cutoff_atom + skin`` once and is reused across MD steps
until an atom has moved more than ``skin / 2``, so consecutive single-point
calls only refresh distances/vectors and the derived angle arrays.  Results
are identical to rebuilding from scratch every call.

``OracleCalculator`` exposes the label-generating potential for validation
runs (energy conservation against ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.oracle import OraclePotential
from repro.graph.batching import collate
from repro.graph.crystal_graph import CrystalGraph, GraphDiffStats, build_graph
from repro.model.chgnet import CHGNetModel
from repro.structures.crystal import Crystal
from repro.structures.neighbors import NeighborCache
from repro.tensor import no_grad


@dataclass
class CalcResult:
    """One single-point calculation."""

    energy: float  # total energy
    forces: np.ndarray  # (n, 3)
    stress: np.ndarray  # (3, 3)
    magmom: np.ndarray | None = None  # (n,)


class Calculator:
    """Interface: single-point properties of a crystal."""

    def calculate(self, crystal: Crystal) -> CalcResult:
        raise NotImplementedError


class ModelCalculator(Calculator):
    """Single-point calculator backed by a CHGNet-family model.

    ``skin`` (angstroms) enables Verlet skin-list reuse of the neighbor
    search across calls; ``0`` rebuilds the full graph every call (the
    seed's step-by-step behavior).

    ``compile=True`` evaluates through a compiled tape
    (:class:`repro.tensor.compile.InferenceCompiler`): single-point batches
    are padded to shape buckets, so consecutive MD steps — whose graph sizes
    drift by a few short-edge membership flips — mostly replay one cached
    program instead of re-taping the model per step.  Replays are
    bit-identical to eager on the same padded batch; padding itself may
    reorder float reductions (rounding-level differences vs ``compile=False``).
    """

    def __init__(
        self, model: CHGNetModel, skin: float = 0.0, compile: bool = False
    ) -> None:
        if skin < 0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        self.model = model
        self.skin = skin
        self._cache = (
            NeighborCache(model.config.cutoff_atom, skin) if skin > 0 else None
        )
        self._prev_graph: CrystalGraph | None = None
        self._many_caches: list[NeighborCache] = []
        self._many_prev: list[CrystalGraph | None] = []
        self.diff_stats = GraphDiffStats()
        self._compiler = None
        self._engine = None
        if compile:
            from repro.tensor.compile import InferenceCompiler

            self._compiler = InferenceCompiler(model)

    def calculate_many(
        self,
        crystals: list[Crystal],
        batch_structs: int = 8,
        n_workers: int = 1,
        memoize: int = 0,
    ) -> list[CalcResult]:
        """Batched single-point evaluation of many structures.

        Trajectory frames, relaxation candidates or screening pools are
        served through a lazily-created :class:`repro.serve.InferenceEngine`
        (kept across calls, so its program cache stays warm): structures are
        micro-batched per workload tier and — when the calculator was built
        with ``compile=True`` — evaluated by cached-program replay.
        ``memoize=N`` passes through to the engine's collate memoization:
        repeated calls over the *same* crystal objects (relaxation loops,
        committee evaluation) then reuse both their built graphs and their
        collated micro-batches, binding and replaying with zero
        re-concatenation (crystals must not be mutated between calls).

        A calculator built with ``skin > 0`` keeps one
        :class:`~repro.structures.NeighborCache` (and previous graph, for
        incremental angle updates) **per list position**, so repeated calls
        over trajectory frames — crystal ``i`` of one call succeeding
        crystal ``i`` of the previous — reuse each slot's pair search the
        same way :meth:`calculate` does, and the engine receives pre-built
        graphs.  Cached queries are exact, so results are bit-identical to
        calling :meth:`calculate` per structure with or without a skin
        list.
        """
        from repro.serve import InferenceEngine

        engine = self._engine
        if (
            engine is None
            or engine.max_batch_structs != batch_structs
            or engine.n_workers != n_workers
            or engine.memoize != memoize
        ):
            engine = InferenceEngine(
                self.model,
                n_workers=n_workers,
                compile=self._compiler is not None,
                max_batch_structs=batch_structs,
                memoize=memoize,
            )
            self._engine = engine
        else:
            # The model may have been fine-tuned between calls; publish its
            # current weights so no batch is served on a stale version.
            engine.publish_weights()
        items: list[Crystal] | list[CrystalGraph] = crystals
        if self.skin > 0:
            while len(self._many_caches) < len(crystals):
                self._many_caches.append(
                    NeighborCache(self.model.config.cutoff_atom, self.skin)
                )
                self._many_prev.append(None)
            graphs = []
            for i, crystal in enumerate(crystals):
                graph = self._build(crystal, self._many_caches[i], self._many_prev[i])
                self._many_prev[i] = graph
                graphs.append(graph)
            items = graphs
        return [
            CalcResult(
                energy=p.energy, forces=p.forces, stress=p.stress, magmom=p.magmom
            )
            for p in engine.predict_many(items)
        ]

    def _build(
        self, crystal: Crystal, cache: NeighborCache, prev: CrystalGraph | None
    ) -> CrystalGraph:
        """Graph through a skin cache, angle arrays diffed against ``prev``."""
        return build_graph(
            crystal,
            self.model.config.cutoff_atom,
            self.model.config.cutoff_bond,
            nl=cache.query(crystal),
            prev=prev,
            diff_stats=self.diff_stats,
        )

    def calculate(self, crystal: Crystal) -> CalcResult:
        if self._cache is not None:
            graph = self._build(crystal, self._cache, self._prev_graph)
            self._prev_graph = graph
        else:
            graph = build_graph(
                crystal,
                self.model.config.cutoff_atom,
                self.model.config.cutoff_bond,
            )
        batch = collate([graph])
        if self._compiler is not None:
            out = self._compiler.run(batch)
            energy = float(out["energy"][0]) * crystal.num_atoms
            return CalcResult(
                energy=energy,
                forces=out["forces"].copy(),
                stress=out["stress"][0].copy(),
                magmom=out["magmom"].copy(),
            )
        if self.model.config.use_heads:
            with no_grad():
                out = self.model.forward(batch, training=False)
        else:
            out = self.model.forward(batch, training=False)
        energy = float(out.energy_per_atom.data[0]) * crystal.num_atoms
        return CalcResult(
            energy=energy,
            forces=out.forces.data.copy(),
            stress=out.stress.data[0].copy(),
            magmom=out.magmom.data.copy(),
        )


class OracleCalculator(Calculator):
    """Ground-truth calculator (the label-generating potential)."""

    def __init__(self, oracle: OraclePotential | None = None) -> None:
        self.oracle = oracle or OraclePotential()

    def calculate(self, crystal: Crystal) -> CalcResult:
        labels = self.oracle.label(crystal)
        return CalcResult(
            energy=labels.energy_per_atom * crystal.num_atoms,
            forces=labels.forces,
            stress=labels.stress,
            magmom=labels.magmom,
        )
