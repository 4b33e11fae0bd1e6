"""Output heads: energy, magmom, and FastCHGNet's Force/Stress readouts.

The Force head (Eq. 7) predicts a scalar magnitude per directed bond and
sums ``n_ij * x_hat_ij`` over neighbors — rotation equivariant because bond
features are invariant and unit bond vectors rotate with the structure
(Eq. 8).  The Stress head (Eq. 9) modulates a lattice-orientation dyad with
summed atomic features.  Both eliminate the energy-derivative computation
and with it the entire second-order backward pass.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batching import GraphBatch, register_aux
from repro.model.config import CHGNetConfig
from repro.tensor import Tensor, div, mul, reshape, segment_sum
from repro.tensor.module import MLP, Module, Parameter


class EnergyHead(Module):
    """Per-site energy projection; returns site energies and per-atom means."""

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.atom_fea_dim
        self.mlp = MLP([dim, dim, 1], rng, fused=config.fused, zero_init_final=True)

    def forward(self, v: Tensor, batch: GraphBatch) -> tuple[Tensor, Tensor]:
        site = reshape(self.mlp(v), (batch.num_atoms,))
        per_struct = segment_sum(
            site, batch.atom_sample, batch.num_structs, batch.aux(("segment_plan", "atom_sample"))
        )
        counts = Tensor(batch.aux(("atom_counts",)))
        return site, div(per_struct, counts)


class MagmomHead(Module):
    """Per-site magnetic-moment projection (the charge-informed output)."""

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.atom_fea_dim
        self.mlp = MLP([dim, dim, 1], rng, fused=config.fused)

    def forward(self, v: Tensor, batch: GraphBatch) -> Tensor:
        return reshape(self.mlp(v), (batch.num_atoms,))


class ForceHead(Module):
    """Eq. 7: ``F_i = sum_j MLP(e_ij) * x_hat_ij`` (rotation equivariant)."""

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.bond_fea_dim
        self.mlp = MLP([dim, dim, dim, 1], rng, fused=config.fused, zero_init_final=True)

    def forward(self, e: Tensor, d6: Tensor, vec6: Tensor, batch: GraphBatch) -> Tensor:
        unit = div(vec6, reshape(d6, (batch.num_edges, 1)))
        n_ij = self.mlp(e)  # (nb, 1) force magnitudes
        return segment_sum(
            mul(n_ij, unit), batch.edge_src, batch.num_atoms, batch.aux(("segment_plan", "edge_src"))
        )


class StressHead(Module):
    """Eq. 9: summed atomic features modulate a lattice-orientation dyad.

    The dyad ``sum_ij L_i/|L_i| (x) L_j/|L_j|`` is a constant of the input
    geometry; only the per-atom MLP and the global scale are learned.  As in
    the paper the atomic contributions are *summed* (not averaged), which is
    one reason the head's stress accuracy trails the derivative-based path
    (Table I).
    """

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.atom_fea_dim
        self.mlp = MLP([dim, dim, dim, 9], rng, fused=config.fused, zero_init_final=True)
        self.scale = Parameter(np.array([0.01]))

    @staticmethod
    def lattice_dyad(lattices: np.ndarray) -> np.ndarray:
        """``sum_ij L_hat_i (x) L_hat_j`` per sample, flattened to (s, 9)."""
        unit = lattices / np.linalg.norm(lattices, axis=2, keepdims=True)
        t = unit.sum(axis=1)  # (s, 3): sum of unit lattice vectors
        dyad = t[:, :, None] * t[:, None, :]
        return dyad.reshape(-1, 9)

    def forward(self, v: Tensor, batch: GraphBatch) -> Tensor:
        contrib = self.mlp(v)  # (n, 9)
        summed = segment_sum(
            contrib, batch.atom_sample, batch.num_structs, batch.aux(("segment_plan", "atom_sample"))
        )
        dyad = Tensor(batch.aux(("lattice_dyad",)))
        sigma = mul(mul(summed, self.scale), dyad)
        return reshape(sigma, (batch.num_structs, 3, 3))


register_aux("lattice_dyad", lambda batch: StressHead.lattice_dyad(batch.lattices))
