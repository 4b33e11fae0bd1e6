"""Reference (pre-overhaul) graph-batch assembly, kept as an oracle.

This is the seed's collate: per-graph offset-added copies joined with
repeated ``np.concatenate``.  It is retained verbatim so the preallocating
single-pass :func:`repro.graph.batching.collate` has an independent
implementation to be checked against (equivalence tests).  Not used on any
hot path.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batching import GraphBatch, Labels
from repro.graph.crystal_graph import CrystalGraph


def collate_concat(
    graphs: list[CrystalGraph], labels: list[Labels] | None = None
) -> GraphBatch:
    """Concatenate graphs (and labels) into one batch (seed implementation)."""
    s = len(graphs)
    n_atoms = np.array([g.num_atoms for g in graphs])
    n_edges = np.array([g.num_edges for g in graphs])
    n_short = np.array([g.num_short_edges for g in graphs])
    n_angles = np.array([g.num_angles for g in graphs])
    atom_off = np.concatenate([[0], np.cumsum(n_atoms)])
    edge_off = np.concatenate([[0], np.cumsum(n_edges)])
    short_off = np.concatenate([[0], np.cumsum(n_short)])
    angle_off = np.concatenate([[0], np.cumsum(n_angles)])
    batch = GraphBatch(
        num_structs=s,
        species=np.concatenate([g.crystal.species for g in graphs]).astype(np.int64),
        frac=np.concatenate([g.crystal.frac_coords for g in graphs]),
        atom_sample=np.repeat(np.arange(s), n_atoms).astype(np.int64),
        lattices=np.stack([g.crystal.lattice.matrix for g in graphs]),
        edge_src=np.concatenate(
            [g.edge_src + atom_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        edge_dst=np.concatenate(
            [g.edge_dst + atom_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        edge_image=np.concatenate([g.edge_image for g in graphs]).astype(np.int64),
        edge_sample=np.repeat(np.arange(s), n_edges).astype(np.int64),
        short_idx=np.concatenate(
            [g.short_idx + edge_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_e1=np.concatenate(
            [g.angle_e1 + short_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_e2=np.concatenate(
            [g.angle_e2 + short_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_center=np.concatenate(
            [g.angle_center + atom_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_sample=np.repeat(np.arange(s), n_angles).astype(np.int64),
        atom_offsets=atom_off.astype(np.int64),
        edge_offsets=edge_off.astype(np.int64),
        short_offsets=short_off.astype(np.int64),
        angle_offsets=angle_off.astype(np.int64),
    )
    if labels is not None:
        batch.energy_per_atom = np.array([lab.energy_per_atom for lab in labels])
        batch.forces = np.concatenate([lab.forces for lab in labels])
        batch.stress = np.stack([lab.stress for lab in labels])
        batch.magmom = np.concatenate([lab.magmom for lab in labels])
    return batch
