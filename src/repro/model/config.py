"""Model configuration and the Fig. 8 optimization ladder."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.graph.crystal_graph import CUTOFF_ATOM, CUTOFF_BOND
from repro.structures.elements import MAX_Z

#: Smoothing coefficient p of the radial envelope (Eq. 12).
ENVELOPE_P = 8.0
#: Embedding rows, indexed directly by atomic number Z.
NUM_ELEMENTS = MAX_Z + 1


class OptLevel(IntEnum):
    """Cumulative optimization levels of the paper's Fig. 8 ablation.

    Each level includes everything below it:

    * ``BASELINE`` — reference CHGNet: serial per-sample basis computation
      (Algorithm 1), unfused GatedMLP/LayerNorm compositions, naive
      polynomial envelope (Eq. 12), forces and stress from energy
      derivatives (double backward during training).
    * ``PARALLEL_BASIS`` — Algorithm 2: batched basis computation with
      concatenated coordinates and a block-diagonal neighbor-image matrix.
    * ``FUSED`` — kernel fusion + redundancy bypass: packed GEMMs (weight
      concatenation), shared/batched LayerNorm and sigmoid, fused sRBF and
      Fourier kernels, factored envelope (Eq. 13), and interaction-block
      dependency elimination (Eq. 11) enabling Bond/Angle GatedMLP packing.
    * ``DECOMPOSE_FS`` — Force/Stress readout heads replace the derivative
      computation entirely (no second-order pass, no derivative graph).
    """

    BASELINE = 0
    PARALLEL_BASIS = 1
    FUSED = 2
    DECOMPOSE_FS = 3


@dataclass(frozen=True)
class CHGNetConfig:
    """Hyperparameters of CHGNet/FastCHGNet (paper Section IV defaults).

    The cutoffs are not fields: every graph is built at the graph layer's
    :data:`~repro.graph.crystal_graph.CUTOFF_ATOM` /
    :data:`~repro.graph.crystal_graph.CUTOFF_BOND`, and the read-only
    :attr:`cutoff_atom` / :attr:`cutoff_bond` return them, so a model's basis
    and the graphs it trains or serves on cannot disagree.
    """

    atom_fea_dim: int = 64
    bond_fea_dim: int = 64
    angle_fea_dim: int = 64
    num_radial: int = 31  # "radial and angular basis number is set to 31"
    angular_order: int = 15  # 2*15 + 1 = 31 Fourier features
    hidden_dim: int = 64
    opt_level: OptLevel = OptLevel.DECOMPOSE_FS

    @property
    def cutoff_atom(self) -> float:
        """Atom-graph cutoff (angstrom)."""
        return CUTOFF_ATOM

    @property
    def cutoff_bond(self) -> float:
        """Bond-graph cutoff (angstrom)."""
        return CUTOFF_BOND

    # ------------------------------------------------------- derived switches
    @property
    def batched_basis(self) -> bool:
        """Algorithm 2 instead of Algorithm 1."""
        return self.opt_level >= OptLevel.PARALLEL_BASIS

    @property
    def fused(self) -> bool:
        """Kernel fusion + redundancy bypass + GEMM packing."""
        return self.opt_level >= OptLevel.FUSED

    @property
    def dependency_elimination(self) -> bool:
        """Eq. 11: Bond Conv and Angle Update read stale (t-level) features."""
        return self.opt_level >= OptLevel.FUSED

    @property
    def use_heads(self) -> bool:
        """Force/Stress readout heads instead of energy derivatives."""
        return self.opt_level >= OptLevel.DECOMPOSE_FS

    @property
    def num_angular(self) -> int:
        """Number of Fourier features (2*order + 1)."""
        return 2 * self.angular_order + 1

    def with_level(self, level: OptLevel) -> "CHGNetConfig":
        """Copy of this config at a different optimization level."""
        from dataclasses import replace

        return replace(self, opt_level=level)
