"""Fused kernels introduced by FastCHGNet's computation-graph reconstruction.

Each function here executes as a *single* simulated kernel where the
reference implementation composes many small ones (Section III-C of the
paper).  Their VJPs are written in terms of base primitives, so first- and
second-order differentiation through fused code paths remains exact —
required by the "w/o head" FastCHGNet variant, which keeps derivative-based
forces while using every fusion.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.engine import Tensor, apply_op
from repro.tensor.ops_math import (
    add,
    broadcast_to,
    cos,
    div,
    mean,
    mul,
    neg,
    power,
    reshape,
    sin,
    sqrt,
    sub,
    sum as tsum,
)


def _envelope_coeffs(p: float) -> tuple[float, float, float]:
    """DimeNet polynomial-envelope coefficients for smoothing exponent ``p``.

    Note: Eq. 12 of the paper prints the last coefficient as ``p(p+2)/2``,
    which does not satisfy ``u(1) = 0``; the correct DimeNet form uses
    ``p(p+1)/2`` and is what both CHGNet and this reproduction implement.
    """
    a = (p + 1.0) * (p + 2.0) / 2.0
    b = p * (p + 2.0)
    c = p * (p + 1.0) / 2.0
    return a, b, c


def _envelope_np(xi: np.ndarray, p: float) -> np.ndarray:
    a, b, c = _envelope_coeffs(p)
    # Factored Horner form (Eq. 13): one pow instead of three.
    return 1.0 - xi**p * (a - xi * (b - c * xi))


def _envelope_dnp(xi: np.ndarray, p: float) -> np.ndarray:
    a, b, c = _envelope_coeffs(p)
    return -(xi ** (p - 1.0)) * (a * p - xi * (b * (p + 1.0) - c * (p + 2.0) * xi))


def fused_envelope(xi: Tensor, p: float) -> Tensor:
    """Polynomial cutoff envelope ``u(xi)`` in one kernel (Eq. 13)."""
    return apply_op(
        "fused_envelope",
        lambda x, p: _envelope_np(x, p),
        _fused_envelope_vjp,
        (xi,),
        {"p": float(p)},
    )


def _fused_envelope_vjp(g, out, inputs, needs, p):
    (xi,) = inputs
    if not needs[0]:
        return (None,)
    a, b, c = _envelope_coeffs(p)
    inner = sub(a * p, mul(xi, sub(b * (p + 1.0), mul(xi, c * (p + 2.0)))))
    du = neg(mul(power(xi, p - 1.0), inner))
    return (mul(g, du),)


def fused_srbf(r: Tensor, freqs: Tensor, rcut: float, p: float) -> Tensor:
    """Smooth Radial Bessel basis in a single kernel.

    ``out[e, n] = sqrt(2/rcut) * sin(freqs[n] * r[e]) / r[e] * u(r[e]/rcut)``

    ``freqs`` are the trainable Bessel frequencies (init ``n*pi/rcut``).  The
    reference path composes ~13 kernels per call (per *sample* under
    Algorithm 1); this is FastCHGNet's "Fused-sRBF" module.
    """

    def fwd(r, freqs, rcut, p):
        u = _envelope_np(r / rcut, p)
        s = np.sin(np.outer(r, freqs))
        c = np.sqrt(2.0 / rcut)
        return (c * u / r)[:, None] * s

    return apply_op(
        "fused_srbf", fwd, _fused_srbf_vjp, (r, freqs), {"rcut": float(rcut), "p": float(p)}
    )


def _fused_srbf_vjp(g, out, inputs, needs, rcut, p):
    r, freqs = inputs
    c = float(np.sqrt(2.0 / rcut))
    nb, nk = g.shape
    rc = reshape(r, (nb, 1))
    fr = reshape(freqs, (1, nk))
    prod = mul(rc, fr)
    u = fused_envelope(div(r, rcut), p)
    ucol = reshape(u, (nb, 1))
    gr = gf = None
    if needs[0]:
        # d/dr [c*sin(fr)/r*u] = c*u*(f*cos(fr)/r - sin(fr)/r^2) + c*sin(fr)/r * u'/rcut
        du = _fused_envelope_vjp(Tensor(np.ones(r.shape)), None, (div(r, rcut),), (True,), p)[0]
        du = mul(du, 1.0 / rcut)
        sin_t = sin(prod)
        cos_t = cos(prod)
        term1 = mul(ucol, sub(div(mul(fr, cos_t), rc), div(sin_t, mul(rc, rc))))
        term2 = mul(div(sin_t, rc), reshape(du, (nb, 1)))
        gr = tsum(mul(g, mul(add(term1, term2), c)), axis=1)
    if needs[1]:
        # d/df_n = c * u * cos(f_n r); sum over edges.
        gf = tsum(mul(g, mul(mul(ucol, cos(prod)), c)), axis=0)
    return (gr, gf)


def fused_fourier(theta: Tensor, order: int) -> Tensor:
    """Fourier angular basis in a single kernel (FastCHGNet "Fused-Fourier").

    ``out = [1/sqrt(2*pi), cos(n*theta)/sqrt(pi), sin(n*theta)/sqrt(pi)]`` for
    ``n = 1..order`` — ``2*order + 1`` features (31 for ``order=15``).
    """

    def fwd(theta, order):
        na = theta.shape[0]
        out = np.empty((na, 2 * order + 1), dtype=theta.dtype)
        out[:, 0] = 1.0 / np.sqrt(2.0 * np.pi)
        n = np.arange(1, order + 1, dtype=theta.dtype)
        nt = np.outer(theta, n)
        out[:, 1 : order + 1] = np.cos(nt) / np.sqrt(np.pi)
        out[:, order + 1 :] = np.sin(nt) / np.sqrt(np.pi)
        return out

    return apply_op("fused_fourier", fwd, _fused_fourier_vjp, (theta,), {"order": int(order)})


def _fused_fourier_vjp(g, out, inputs, needs, order):
    from repro.tensor.ops_shape import slice_

    (theta,) = inputs
    if not needs[0]:
        return (None,)
    na = theta.shape[0]
    n = Tensor(np.arange(1, order + 1, dtype=np.float64).reshape(1, order))
    nt = mul(reshape(theta, (na, 1)), n)
    g_cos = slice_(g, (slice(None), slice(1, order + 1)))
    g_sin = slice_(g, (slice(None), slice(order + 1, 2 * order + 1)))
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    dcos = neg(mul(mul(sin(nt), n), inv_sqrt_pi))
    dsin = mul(mul(cos(nt), n), inv_sqrt_pi)
    gt = add(tsum(mul(g_cos, dcos), axis=1), tsum(mul(g_sin, dsin), axis=1))
    return (gt,)


def _layernorm_np(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Layernorm over the last axis; forward and (with ``out``) compiled kernel.

    Mean and variance are contractions of the short last axis: one einsum
    inner loop per row over contiguous data, so a row's moments — like the
    elementwise passes after them — cannot depend on the rows batched
    around it, and no ``(x - mu)**2`` temporary is materialized
    (docs/architecture.md, "Row-stable kernels").
    """
    x = np.ascontiguousarray(x)
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(x, gamma, beta))
    mom = np.einsum("...d->...", x)[..., None]
    mom /= x.shape[-1]
    xc = np.subtract(x, mom, out=out)
    mom = np.einsum("...d,...d->...", xc, xc)[..., None]
    mom /= x.shape[-1]
    mom += eps
    np.sqrt(mom, out=mom)
    np.divide(xc, mom, out=out)
    np.multiply(gamma, out, out=out)
    return np.add(out, beta, out=out)


def fused_layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis in one kernel.

    The reference GatedMLP runs two separate ~9-kernel LN compositions per
    gate; FastCHGNet batches both branches through this fused kernel.
    """
    return apply_op(
        "fused_layernorm", _layernorm_np, _fused_layernorm_vjp, (x, gamma, beta), {"eps": float(eps)}
    )


def _fused_layernorm_vjp(g, out, inputs, needs, eps):
    from repro.tensor.ops_math import _unbroadcast

    x, gamma, beta = inputs
    # Recompute the normalized activations differentiably.
    mu = mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = mean(mul(xc, xc), axis=-1, keepdims=True)
    inv = div(1.0, sqrt(add(var, eps)))
    xhat = mul(xc, inv)
    gx = ggamma = gbeta = None
    if needs[0]:
        gxh = mul(g, gamma)
        m1 = mean(gxh, axis=-1, keepdims=True)
        m2 = mean(mul(gxh, xhat), axis=-1, keepdims=True)
        gx = mul(inv, sub(sub(gxh, m1), mul(xhat, m2)))
    if needs[1]:
        ggamma = _unbroadcast(mul(g, xhat), gamma.shape)
    if needs[2]:
        gbeta = _unbroadcast(g, beta.shape)
    return (gx, ggamma, gbeta)


def fused_scale_shift(x: Tensor, scale: float, shift: float) -> Tensor:
    """``x * scale + shift`` in one kernel (used by output normalization)."""

    def fwd(x, scale, shift):
        return x * scale + shift

    return apply_op(
        "fused_scale_shift",
        fwd,
        _fused_scale_shift_vjp,
        (x,),
        {"scale": float(scale), "shift": float(shift)},
    )


def _fused_scale_shift_vjp(g, out, inputs, needs, scale, shift):
    if not needs[0]:
        return (None,)
    return (mul(g, scale),)
