"""Synthetic MPtrj: long-tail crystal dataset with oracle labels.

Stands in for the Materials Project Trajectory dataset (1.58 M structures,
89 elements).  Matches the statistics the paper's experiments depend on:

* prototype diversity (rocksalt, perovskite, spinel-like grids, layered
  oxides, ...), elements drawn from the 89 MPtrj species,
* a **long-tail size distribution** of atoms/bonds/angles (Fig. 5) via
  log-normal supercell sizes,
* relaxation-trajectory frames: each base structure contributes several
  perturbed/strained snapshots, as MPtrj contains static + relaxation
  frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.oracle import OraclePotential
from repro.graph.batching import Labels
from repro.structures.crystal import Crystal
from repro.structures.elements import COVALENT_RADIUS, MPTRJ_ELEMENTS
from repro.structures.prototypes import (
    cscl,
    fcc,
    fluorite,
    layered_limo2,
    packed_grid,
    perovskite,
    rocksalt,
    wurtzite,
    zincblende,
)

#: Most snapshots one base structure contributes (its trajectory length).
FRAMES_PER_STRUCTURE = 3

# Cations: metals & metalloids; anions: the usual compound formers.
_ANIONS = (7, 8, 9, 16, 17, 34, 35, 53)
_CATIONS = tuple(z for z in MPTRJ_ELEMENTS if z not in _ANIONS and z != 1)


@dataclass
class LabeledStructure:
    """One dataset entry: a crystal snapshot plus its oracle labels."""

    crystal: Crystal
    labels: Labels


def _min_distance_ok(crystal: Crystal, factor: float = 0.55) -> bool:
    """Reject snapshots with atoms closer than ``factor`` x radii sum."""
    from repro.structures.neighbors import neighbor_list

    nl = neighbor_list(crystal, 4.0)
    if nl.num_pairs == 0:
        return True
    r0 = COVALENT_RADIUS[crystal.species[nl.src]] + COVALENT_RADIUS[crystal.species[nl.dst]]
    return bool(np.all(nl.dist > factor * r0))


def _random_base(rng: np.random.Generator) -> Crystal:
    """Draw one prototype structure with random chemistry."""
    cation = int(rng.choice(_CATIONS))
    cation2 = int(rng.choice(_CATIONS))
    anion = int(rng.choice(_ANIONS))
    kind = rng.choice(
        ["rocksalt", "cscl", "perovskite", "fluorite", "zincblende", "wurtzite", "layered", "fcc", "grid"],
        p=[0.16, 0.12, 0.14, 0.10, 0.12, 0.10, 0.12, 0.06, 0.08],
    )
    if kind == "rocksalt":
        return rocksalt(cation, anion)
    if kind == "cscl":
        return cscl(cation, anion)
    if kind == "perovskite":
        return perovskite(cation, cation2, anion)
    if kind == "fluorite":
        return fluorite(cation, anion)
    if kind == "zincblende":
        return zincblende(cation, anion)
    if kind == "wurtzite":
        return wurtzite(cation, anion)
    if kind == "layered":
        return layered_limo2(cation)
    if kind == "fcc":
        return fcc(cation)
    # random multi-species grid (ternary/quaternary compositions)
    n = int(rng.integers(6, 14))
    species = np.concatenate(
        [
            rng.choice([cation, cation2], size=max(1, n // 3)),
            np.full(n - max(1, n // 3), anion),
        ]
    )
    return packed_grid(species, rng)


def _longtail_supercell(base: Crystal, rng: np.random.Generator, max_atoms: int) -> Crystal:
    """Replicate the base cell so atom counts follow a long-tail law."""
    target = float(np.exp(rng.normal(np.log(10.0), 0.75)))
    target = min(max(target, base.num_atoms), max_atoms)
    factor = max(1, int(round((target / base.num_atoms) ** (1.0 / 3.0))))
    reps = [factor, factor, factor]
    # Grow one random axis while there is room — makes the tail heavier.
    while base.num_atoms * np.prod(reps) * 2 <= target * 1.5:
        reps[int(rng.integers(3))] += 1
    if base.num_atoms * int(np.prod(reps)) > max_atoms:
        return base
    return base.supercell((reps[0], reps[1], reps[2]))


def generate_crystals(n_structures: int, seed: int = 0, max_atoms: int = 48) -> list[Crystal]:
    """Generate ``n_structures`` crystal snapshots (no labels).

    Deterministic in ``seed``.  Snapshots come in short "trajectories":
    a base crystal plus up to :data:`FRAMES_PER_STRUCTURE` perturbed/strained
    frames of increasing amplitude, mimicking relaxation trajectories.
    """
    if n_structures <= 0:
        raise ValueError(f"n_structures must be positive, got {n_structures}")
    rng = np.random.default_rng(seed)
    crystals: list[Crystal] = []
    attempts = 0
    while len(crystals) < n_structures:
        attempts += 1
        if attempts > 50 * n_structures:
            raise RuntimeError("structure generation rejected too many candidates")
        base = _random_base(rng)
        if base.num_atoms > max_atoms:
            continue
        base = _longtail_supercell(base, rng, max_atoms)
        n_frames = int(rng.integers(1, FRAMES_PER_STRUCTURE + 1))
        for frame in range(n_frames):
            if len(crystals) >= n_structures:
                break
            sigma = float(rng.uniform(0.02, 0.12)) * (1.0 + 0.5 * frame)
            snap = base.perturbed(rng, sigma)
            strain = rng.uniform(-0.02, 0.02, size=(3, 3))
            snap = snap.strained(0.5 * (strain + strain.T))
            snap.name = f"{base.name}@f{frame}"
            if not _min_distance_ok(snap):
                continue
            crystals.append(snap)
    return crystals


def generate_mptrj(
    n_structures: int, seed: int = 0, max_atoms: int = 48
) -> list[LabeledStructure]:
    """Generate ``n_structures`` oracle-labeled snapshots (see
    :func:`generate_crystals` for the sampling scheme)."""
    oracle = OraclePotential()
    return [
        LabeledStructure(c, oracle.label(c))
        for c in generate_crystals(n_structures, seed, max_atoms)
    ]


def dataset_statistics(entries: list[LabeledStructure]) -> dict[str, np.ndarray]:
    """Atom/bond/angle count per structure (the Fig. 5 distributions)."""
    from repro.graph.crystal_graph import build_graph

    atoms, bonds, angles = [], [], []
    for entry in entries:
        g = build_graph(entry.crystal)
        atoms.append(g.num_atoms)
        bonds.append(g.num_edges)
        angles.append(g.num_angles)
    return {
        "atoms": np.array(atoms),
        "bonds": np.array(bonds),
        "angles": np.array(angles),
    }
