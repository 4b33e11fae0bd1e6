"""Composed (non-primitive) tensor functions.

These build on the primitives and therefore launch several kernels each —
exactly how the reference CHGNet computes them.  The fused one-kernel
variants live in :mod:`repro.tensor.ops_fused`.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.engine import Tensor
from repro.tensor.ops_math import (
    absolute,
    add,
    astensor,
    div,
    mean,
    mul,
    sigmoid,
    sqrt,
    sub,
    sum as tsum,
    where_le,
)


def silu_reference(x: Tensor) -> Tensor:
    """SiLU composed as ``x * sigmoid(x)`` (two kernels, reference path)."""
    return mul(x, sigmoid(x))


def layernorm_reference(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization composed from base primitives (~9 kernels).

    This is the unfused form the reference CHGNet launches twice per
    GatedMLP; compare :func:`repro.tensor.ops_fused.fused_layernorm`.
    """
    mu = mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = mean(mul(xc, xc), axis=-1, keepdims=True)
    xhat = div(xc, sqrt(add(var, eps)))
    return add(mul(gamma, xhat), beta)


def huber_loss(
    pred: Tensor,
    target: Tensor,
    delta: float = 0.1,
    mask: Tensor | None = None,
    count: Tensor | None = None,
) -> Tensor:
    """Mean Huber loss (the paper's training criterion).

    Quadratic within ``delta`` of the target, linear outside:
    ``0.5*d^2`` if ``|d| <= delta`` else ``delta*(|d| - 0.5*delta)``.

    The branch selection runs through :func:`~repro.tensor.ops_math.where_le`
    so the loss is fully expressed in primitives — a requirement for the
    compiled-tape replay (:mod:`repro.tensor.compile`), which re-executes the
    recorded op list on fresh batch data.

    ``mask``/``count`` implement the masked mean used for padded batches:
    elementwise weights (broadcast against ``pred``) and the scalar number of
    *real* elements the sum is divided by.  Both default to the plain mean.
    """
    target = astensor(target)
    d = sub(pred, target)
    ad = absolute(d)
    quad = mul(mul(d, d), 0.5)
    lin = mul(sub(ad, 0.5 * delta), delta)
    sel = where_le(ad, quad, lin, delta)
    if mask is None:
        return mean(sel)
    if count is None:
        raise ValueError("masked huber_loss requires the real-element count")
    return div(tsum(mul(sel, mask)), count)


def mae(pred: Tensor, target: Tensor) -> float:
    """Mean absolute error as a Python float (metric, not differentiable)."""
    return float(np.mean(np.abs(pred.data - np.asarray(target))))
