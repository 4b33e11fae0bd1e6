"""Interaction-block modules: AtomConv, BondConv, AngleUpdate (Eqs. 4-6).

The reference wiring (Eq. 10) threads *updated* features into the next
sub-module; FastCHGNet's dependency elimination (Eq. 11) feeds all three
sub-modules the stale ``t``-level features, which makes the BondConv and
AngleUpdate inputs identical — enabling their GatedMLPs to be packed into a
single GEMM at the FUSED level.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batching import GraphBatch
from repro.model.config import CHGNetConfig
from repro.model.geometry import gather_field
from repro.model.layers import GatedMLP, packed_gated_forward
from repro.tensor import Tensor, add, concat, mul, segment_sum
from repro.tensor.module import Linear, Module


class AtomConv(Module):
    """Eq. 4: weighted message passing over atom-graph edges."""

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.atom_fea_dim
        self.gmlp = GatedMLP(3 * dim, dim, rng, fused=config.fused)
        self.proj = Linear(dim, dim, rng, fused=config.fused)

    def forward(self, v: Tensor, e: Tensor, ea: Tensor, batch: GraphBatch) -> Tensor:
        fv = concat(
            [gather_field(v, batch, "edge_src"), gather_field(v, batch, "edge_dst"), e], axis=1
        )
        msg = mul(self.gmlp(fv), ea)
        agg = segment_sum(
            msg, batch.edge_src, batch.num_atoms, batch.aux(("segment_plan", "edge_src"))
        )
        return add(v, self.proj(agg))


def bond_angle_input(
    v: Tensor, e_short: Tensor, a: Tensor, batch: GraphBatch
) -> Tensor:
    """The shared BondConv/AngleUpdate feature ``[v_i, e_ij, e_ik, a_ijk]``."""
    return concat(
        [
            gather_field(v, batch, "angle_center"),
            gather_field(e_short, batch, "angle_e1"),
            gather_field(e_short, batch, "angle_e2"),
            a,
        ],
        axis=1,
    )


class BondConv(Module):
    """Eq. 5: bond update from three-body (angle) messages."""

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.bond_fea_dim
        self.gmlp = GatedMLP(4 * dim, dim, rng, fused=config.fused)
        self.proj = Linear(dim, dim, rng, fused=config.fused)

    def apply_messages(
        self, phi: Tensor, e_short: Tensor, ebw: Tensor, batch: GraphBatch
    ) -> Tensor:
        """Weight, aggregate and project precomputed GatedMLP output ``phi``."""
        weight = mul(
            gather_field(ebw, batch, "angle_e1"), gather_field(ebw, batch, "angle_e2")
        )
        msg = mul(phi, weight)
        agg = segment_sum(
            msg, batch.angle_e1, batch.num_short_edges, batch.aux(("segment_plan", "angle_e1"))
        )
        return self.proj(agg)  # residual added by the caller

    def forward(
        self, v: Tensor, e_short: Tensor, ebw: Tensor, a: Tensor, batch: GraphBatch
    ) -> Tensor:
        fe = bond_angle_input(v, e_short, a, batch)
        delta = self.apply_messages(self.gmlp(fe), e_short, ebw, batch)
        return add(e_short, delta)


class AngleUpdate(Module):
    """Eq. 6: residual angle-feature update."""

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.angle_fea_dim
        self.gmlp = GatedMLP(4 * dim, dim, rng, fused=config.fused)

    def forward(self, v: Tensor, e_short: Tensor, a: Tensor, batch: GraphBatch) -> Tensor:
        fa = bond_angle_input(v, e_short, a, batch)
        return add(a, self.gmlp(fa))


class InteractionBlock(Module):
    """One CHGNet interaction block (Eq. 3).

    ``with_bond``/``with_angle`` implement the tail of Fig. 2(a): the third
    block omits the angle update, the fourth is atom-conv only.
    """

    def __init__(
        self,
        config: CHGNetConfig,
        rng: np.random.Generator,
        with_bond: bool = True,
        with_angle: bool = True,
    ) -> None:
        super().__init__()
        if with_angle and not with_bond:
            raise ValueError("an angle update without a bond conv is not a CHGNet block")
        self.config = config
        self.with_bond = with_bond
        self.with_angle = with_angle
        self.atom_conv = AtomConv(config, rng)
        if with_bond:
            self.bond_conv = BondConv(config, rng)
        if with_angle:
            self.angle_update = AngleUpdate(config, rng)

    def forward(
        self,
        v: Tensor,
        e: Tensor,
        e_short_stale: Tensor,
        a: Tensor,
        ea: Tensor,
        ebw: Tensor,
        batch: GraphBatch,
    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Update ``(v, e, e_short, a)``.

        ``e`` carries features for all atom-graph edges; ``e_short_stale`` is
        its short-edge subset (kept alongside to avoid a re-gather per
        sub-module).  Returns the updated quadruple.
        """
        cfg = self.config
        v_new = self.atom_conv(v, e, ea, batch)
        if not self.with_bond:
            return v_new, e, e_short_stale, a

        # Eq. 10 (reference) vs Eq. 11 (dependency elimination).
        v_for_bond = v if cfg.dependency_elimination else v_new

        if cfg.dependency_elimination and self.with_angle and cfg.fused:
            # Shared input -> single packed GEMM for both GatedMLPs.
            shared = bond_angle_input(v_for_bond, e_short_stale, a, batch)
            phi_bond, phi_angle = packed_gated_forward(
                shared, [self.bond_conv.gmlp, self.angle_update.gmlp]
            )
            delta = self.bond_conv.apply_messages(phi_bond, e_short_stale, ebw, batch)
            e_short_new = add(e_short_stale, delta)
            a_new = add(a, phi_angle)
        else:
            e_short_new = self.bond_conv(v_for_bond, e_short_stale, ebw, a, batch)
            if self.with_angle:
                if cfg.dependency_elimination:
                    a_new = self.angle_update(v_for_bond, e_short_stale, a, batch)
                else:
                    a_new = self.angle_update(v_new, e_short_new, a, batch)
            else:
                a_new = a
        delta_short = e_short_new - e_short_stale
        scattered = segment_sum(
            delta_short, batch.short_idx, batch.num_edges, batch.aux(("segment_plan", "short_idx"))
        )
        e_new = add(e, scattered)
        return v_new, e_new, e_short_new, a_new
