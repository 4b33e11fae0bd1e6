"""CHGNet and FastCHGNet models.

A single :class:`CHGNetModel` implements every optimization level of the
Fig. 8 ladder via :class:`~repro.model.config.OptLevel`; :class:`CHGNet`
(reference) and :class:`FastCHGNet` are thin constructors.  Parameter
layout is identical across system-optimization levels (packing happens at
run time), so weights can be shared between levels for equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.batching import GraphBatch
from repro.model.basis import FourierExpansion, RadialBessel, make_bases
from repro.model.blocks import InteractionBlock
from repro.model.config import CHGNetConfig, OptLevel
from repro.model.geometry import Geometry, compute_geometry, gather_field
from repro.model.heads import EnergyHead, ForceHead, MagmomHead, StressHead
from repro.model.layers import packed_linear_forward
from repro.tensor import Tensor, div, gather_rows, grad, neg, reshape, sum as tsum
from repro.tensor.module import Linear, Module, ModuleList, Parameter


@dataclass
class ModelOutput:
    """The four predicted properties of a batch.

    ``energy_per_atom`` is per structure (s,); ``forces`` per atom (n, 3);
    ``stress`` per structure (s, 3, 3); ``magmom`` per atom (n,).
    """

    energy_per_atom: Tensor
    forces: Tensor
    stress: Tensor
    magmom: Tensor


class CHGNetModel(Module):
    """Charge-informed GNN interatomic potential (Section II-B).

    Architecture (Fig. 2a): embeddings -> two full interaction blocks -> one
    block without angle update -> one atom-conv-only block -> output layer.
    Magmoms are read out after the third block; energy after the fourth.
    Forces/stress come either from energy derivatives (reference) or from
    the Force/Stress heads (``config.use_heads``).
    """

    def __init__(self, config: CHGNetConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        dim = config.atom_fea_dim

        rbf_atom, rbf_bond, fourier = make_bases(config)
        self.rbf_atom: RadialBessel = rbf_atom
        self.rbf_bond: RadialBessel = rbf_bond
        self.fourier: FourierExpansion = fourier

        self.atom_embedding = Parameter(
            rng.normal(scale=1.0 / np.sqrt(dim), size=(config.num_elements, dim))
        )
        self.bond_e0 = Linear(config.num_radial, dim, rng, fused=config.fused)
        self.bond_ea = Linear(config.num_radial, dim, rng, fused=config.fused)
        self.bond_ebw = Linear(config.num_radial, dim, rng, fused=config.fused)
        self.angle_embed = Linear(config.num_angular, dim, rng, fused=config.fused)

        self.blocks = ModuleList(
            [
                InteractionBlock(config, rng, with_bond=True, with_angle=True),
                InteractionBlock(config, rng, with_bond=True, with_angle=True),
                InteractionBlock(config, rng, with_bond=True, with_angle=False),
                InteractionBlock(config, rng, with_bond=False, with_angle=False),
            ]
        )
        self.energy_head = EnergyHead(config, rng)
        self.magmom_head = MagmomHead(config, rng)
        if config.use_heads:
            self.force_head = ForceHead(config, rng)
            self.stress_head = StressHead(config, rng)

    # ------------------------------------------------------------------ core
    def _embeddings(
        self, geo: Geometry, batch: GraphBatch
    ) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
        """Initial features: ``v0, e0, ea, ebw, a0`` (Eq. 2)."""
        rbf_a = self.rbf_atom(geo.d6)
        rbf_b = self.rbf_bond(geo.d3)
        aft = self.fourier(geo.theta)
        if self.config.fused:
            # e0 and ea share the sRBF input -> packed GEMM (Fig. 3a).
            e0, ea = packed_linear_forward(rbf_a, [self.bond_e0, self.bond_ea])
        else:
            e0 = self.bond_e0(rbf_a)
            ea = self.bond_ea(rbf_a)
        ebw = self.bond_ebw(rbf_b)
        a0 = self.angle_embed(aft)
        v0 = gather_rows(self.atom_embedding, batch.species)
        return v0, e0, ea, ebw, a0

    def forward(self, batch: GraphBatch, training: bool = False) -> ModelOutput:
        """Predict energy/forces/stress/magmom for a batch.

        ``training=True`` keeps the force/stress derivative graph
        differentiable (``create_graph``) on the reference path so the loss
        can backpropagate through it — the second-order pass the paper's
        decompose_fs optimization removes.
        """
        cfg = self.config
        geo = compute_geometry(batch, cfg, differentiable=not cfg.use_heads)
        v, e, ea, ebw, a = self._embeddings(geo, batch)
        e0, a0 = e, a  # noqa: F841 - kept for clarity of Eq. 2 naming

        e_short = gather_field(e, batch, "short_idx")
        v_magmom = None
        for i, block in enumerate(self.blocks):
            v, e, e_short, a = block(v, e, e_short, a, ea, ebw, batch)
            if i == 2:
                v_magmom = v  # after the third interaction block
        assert v_magmom is not None

        site_energy, energy_per_atom = self.energy_head(v, batch)
        magmom = self.magmom_head(v_magmom, batch)

        if cfg.use_heads:
            forces = self.force_head(e, geo.d6, geo.vec6, batch)
            stress = self.stress_head(v, batch)
        else:
            total_energy = tsum(site_energy)
            gd, gs = grad(
                total_energy,
                [geo.disp, geo.strain],
                create_graph=training,
                retain_graph=True,
            )
            forces = neg(gd)
            vols = Tensor(batch.aux(("volumes_col",)))
            stress = div(gs, vols)

        return ModelOutput(
            energy_per_atom=energy_per_atom,
            forces=forces,
            stress=stress,
            magmom=magmom,
        )


class CHGNet(CHGNetModel):
    """Reference CHGNet (v0.3.0-like): BASELINE optimization level."""

    def __init__(self, rng: np.random.Generator, config: CHGNetConfig | None = None) -> None:
        config = (config or CHGNetConfig()).with_level(OptLevel.BASELINE)
        super().__init__(config, rng)


class FastCHGNet(CHGNetModel):
    """FastCHGNet.

    ``use_heads=True`` (default) is the paper's "F/S head" variant;
    ``use_heads=False`` is "w/o head" (all system optimizations, derivative
    forces/stress).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        config: CHGNetConfig | None = None,
        use_heads: bool = True,
    ) -> None:
        level = OptLevel.DECOMPOSE_FS if use_heads else OptLevel.FUSED
        config = (config or CHGNetConfig()).with_level(level)
        super().__init__(config, rng)
