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
from repro.graph.batching import TierShapes, collate
from repro.graph.crystal_graph import CrystalGraph, GraphDiffStats, build_graph
from repro.model.chgnet import CHGNetModel
from repro.structures.crystal import Crystal
from repro.structures.neighbors import NeighborCache
from repro.tensor.compile import InferenceCompiler, eager_predict


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
    (:class:`repro.tensor.compile.InferenceCompiler`).  The calculator keeps
    its own :class:`~repro.graph.batching.TierShapes` and pads every
    single-point batch to its tier's shape before the run, so consecutive MD
    steps — whose graph sizes drift by a few short-edge membership flips —
    mostly replay one cached program instead of re-taping the model per
    step.  Replays are bit-identical to eager on the same padded batch;
    padding itself may reorder float reductions (rounding-level differences
    vs ``compile=False``).
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
        self.diff_stats = GraphDiffStats()
        self._compiler = InferenceCompiler(model) if compile else None
        self._tiers = TierShapes() if compile else None

    def calculate(self, crystal: Crystal) -> CalcResult:
        if self._cache is not None:
            # skin-cached pair search, angle arrays diffed against the last graph
            graph = build_graph(
                crystal,
                nl=self._cache.query(crystal),
                prev=self._prev_graph,
                diff_stats=self.diff_stats,
            )
            self._prev_graph = graph
        else:
            graph = build_graph(crystal)
        batch = collate([graph])
        if self._compiler is not None:
            out = self._compiler.run(self._tiers.pad(batch, self.model.config.batched_basis))
        else:
            out = eager_predict(self.model, batch)
        return CalcResult(
            energy=float(out["energy"][0]) * crystal.num_atoms,
            forces=out["forces"].copy(),
            stress=out["stress"][0].copy(),
            magmom=out["magmom"].copy(),
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
