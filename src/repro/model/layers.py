"""GatedMLP and the packed (weight-concatenated) forward paths.

The GatedMLP (Eq. after Eq. 6 in the paper) is
``phi(x) = SiLU(LN(Fc_core(x))) * sigmoid(LN(Fc_gate(x)))``.

FastCHGNet's computation-graph reconstruction packs GEMMs that share an
input into one larger GEMM by weight concatenation (Fig. 3a), batches the
per-branch LayerNorms into one kernel, evaluates a single shared sigmoid and
recovers SiLU as ``x * sigmoid(x)`` from the core pre-activation (Fig. 3b).
Parameters are stored *unpacked* in both modes so state dicts are identical
across optimization levels; packing happens at run time via one concat
kernel — numerically equivalent to the reference path.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, concat, mul, reshape, sigmoid, slice_, stack
from repro.tensor.module import LayerNorm, Linear, Module
from repro.tensor.functional import silu_reference
from repro.tensor.ops_fused import fused_gate, fused_layernorm
from repro.tensor.ops_linalg import linear as linear_op


class GatedMLP(Module):
    """Two-branch gated block with per-branch LayerNorm."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, fused: bool) -> None:
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.fused = fused
        self.core = Linear(in_dim, out_dim, rng, fused=fused)
        self.gate = Linear(in_dim, out_dim, rng, fused=fused)
        self.core_ln = LayerNorm(out_dim, fused=fused)
        self.gate_ln = LayerNorm(out_dim, fused=fused)

    def forward(self, x: Tensor) -> Tensor:
        if self.fused:
            (out,) = packed_gated_forward(x, [self])
            return out
        core = silu_reference(self.core_ln(self.core(x)))
        gate = sigmoid(self.gate_ln(self.gate(x)))
        return mul(core, gate)


def packed_gated_forward(x: Tensor, gmlps: list["GatedMLP"]) -> list[Tensor]:
    """Evaluate several GatedMLPs sharing input ``x`` through packed kernels.

    One GEMM for all ``2 * len(gmlps)`` branches, one batched LayerNorm, one
    gate kernel (one shared sigmoid, SiLU recovered as ``z_core *
    sigmoid(z_core)`` per Fig. 3(b)); both primitives differentiate to second
    order with one kernel per order (docs/architecture.md, "Fused gated
    MLP").  All heads must agree on ``in_dim`` and ``out_dim``.
    """
    if not gmlps:
        raise ValueError("packed_gated_forward requires at least one GatedMLP")
    out_dim = gmlps[0].out_dim
    for g in gmlps:
        if g.in_dim != gmlps[0].in_dim or g.out_dim != out_dim:
            raise ValueError("packed GatedMLPs must share in/out dimensions")

    weights: list[Tensor] = []
    biases: list[Tensor] = []
    gammas: list[Tensor] = []
    betas: list[Tensor] = []
    for g in gmlps:
        weights.extend([g.core.weight, g.gate.weight])
        biases.extend([g.core.bias, g.gate.bias])
        gammas.extend([g.core_ln.gamma, g.gate_ln.gamma])
        betas.extend([g.core_ln.beta, g.gate_ln.beta])

    n_branch = 2 * len(gmlps)
    w = concat(weights, axis=1)  # (in, n_branch*out)
    b = concat(biases, axis=0)
    z = linear_op(x, w, b)
    z = reshape(z, (-1, n_branch, out_dim))
    gamma = stack(gammas, axis=0)  # (n_branch, out)
    beta = stack(betas, axis=0)
    z = fused_layernorm(z, gamma, beta, gmlps[0].core_ln.eps)
    phi = fused_gate(z)  # (heads, n, out): silu(z_core) * sigmoid(z_gate)
    if len(gmlps) == 1:
        return [reshape(phi, (-1, out_dim))]  # a slice's VJP would zero-fill and copy
    return [slice_(phi, h) for h in range(len(gmlps))]


def packed_linear_forward(x: Tensor, linears: list[Linear]) -> list[Tensor]:
    """Evaluate several Linears sharing input ``x`` as one packed GEMM.

    Used for the three bond-feature projections (e0, ea, eb share the sRBF
    input, Eq. 2) — Fig. 3(a)'s fusion.
    """
    if not linears:
        raise ValueError("packed_linear_forward requires at least one Linear")
    w = concat([lin.weight for lin in linears], axis=1)
    b = concat([lin.bias for lin in linears], axis=0)
    z = linear_op(x, w, b)
    outs = []
    offset = 0
    for lin in linears:
        outs.append(slice_(z, (slice(None), slice(offset, offset + lin.out_features))))
        offset += lin.out_features
    return outs
