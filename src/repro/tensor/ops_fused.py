"""Fused kernels introduced by FastCHGNet's computation-graph reconstruction.

Each function here executes as a *single* simulated kernel where the
reference implementation composes many small ones (Section III-C of the
paper).  The basis kernels' VJPs are written in terms of base primitives;
the two gated-MLP primitives, ``fused_layernorm`` and ``fused_gate``, carry
one hand-derived, row-blocked kernel per derivative order — forward, VJP,
VJP of the VJP (docs/architecture.md, "Fused gated MLP").  Either way
first- and second-order differentiation through fused code paths remains
exact — required by the "w/o head" FastCHGNet variant, which keeps
derivative-based forces while using every fusion.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.tensor.engine import Tensor, apply_op, is_grad_enabled
from repro.tensor.ops_shape import slice_
from repro.tensor.ops_math import (
    _sigmoid_np,
    _unbroadcast,
    add,
    cos,
    div,
    mul,
    neg,
    power,
    reshape,
    sin,
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


#: Elements per block-sized array of the gated-MLP kernels below: they walk
#: their rows ``_BLOCK_ELEMS // (B * D)`` at a time.  256 KiB of float64 per
#: array — 512 rows of the widest packed activation the model produces,
#: ``(B=4, D=16)`` — and the derivative kernels keep four (gate VJP) to
#: eight (layernorm VJP-of-VJP) such arrays live, 1-2 MiB: every pass over
#: a block after the first works out of the core's L2 wherever the operands
#: sit in the arena slab.  Measured on the ``(1792, 4, 16)`` tier, operands
#: spread over a 64 MB slab: 256 to 1024 rows within run-to-run noise of
#: each other, 64 rows 1.5x slower (per-call overhead), unblocked 1.1-1.2x
#: slower (docs/architecture.md, "Fused gated MLP").
_BLOCK_ELEMS = 32768


class ThirdOrderUnsupported(NotImplementedError):
    """A fused gated-MLP primitive was differentiated a third time.

    ``fused_layernorm`` and ``fused_gate`` carry hand-derived kernels for the
    forward, its VJP and the VJP of that VJP — what energy, forces and the
    force loss need.  Nothing in this package differentiates further.
    """


def _third_order(name: str):
    def vjp(g, out, inputs, needs, **kwargs):
        raise ThirdOrderUnsupported(
            f"{name} is differentiable to second order only; compose the "
            "reference primitives (layernorm_reference, silu_reference) instead"
        )

    return vjp


def _flat_parts(flat: np.ndarray | None, shapes: Sequence[tuple[int, ...]], dtype) -> list[np.ndarray]:
    """``[flat, *parts]``: a kernel's flat output buffer and its segments.

    An op has one output array, so a kernel with several results (or values
    saved for its derivative kernels) writes them back to back.
    """
    if flat is None:
        flat = np.empty(sum(math.prod(shape) for shape in shapes), dtype=dtype)
    parts, lo = [flat], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        parts.append(flat[lo:hi].reshape(shape))
        lo = hi
    return parts


def _kernel(name: str, fn, inputs: Sequence[Tensor], **kwargs) -> Tensor:
    """Launch ``fn`` on the inputs' arrays, off the graph; :func:`_part` puts
    its results on it."""
    return apply_op(name, fn, None, [t.detach() for t in inputs], kwargs)


def _part_np(flat: np.ndarray, *routed: np.ndarray, shape, offset) -> np.ndarray:
    return flat.reshape(-1)[offset : offset + math.prod(shape)].reshape(shape)


def _part(flat: Tensor, shape: tuple[int, ...], offset: int, vjp, routed: Sequence[Tensor]) -> Tensor:
    """One segment of a kernel's flat output as a graph node.

    The kernel ran on detached inputs; this view (eagerly and on replay) is
    what autograd sees.  ``vjp(g, out, (flat, *routed), needs, shape,
    offset)`` returns ``None`` for ``flat`` and one cotangent per ``routed``
    tensor — the tensors the segment is a function of — so a cotangent goes
    straight to them and is never zero-padded back into the flat layout.
    """
    return apply_op("part", _part_np, vjp, (flat, *routed), {"shape": tuple(shape), "offset": offset})


def _parts(flat: Tensor, shapes: Sequence[tuple[int, ...]], vjp, routed: Sequence[Tensor]) -> list[Tensor]:
    """Every segment of ``flat``, each a :func:`_part` with the same ``vjp``."""
    parts, lo = [], 0
    for shape in shapes:
        parts.append(_part(flat, shape, lo, vjp, routed))
        lo += math.prod(shape)
    return parts


def _tracked(*tensors: Tensor) -> bool:
    """Whether a derivative kernel can follow: the forward then saves for it."""
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


def _block_rows(row_elems: int) -> int:
    """Rows of ``row_elems`` elements in one block."""
    return max(1, _BLOCK_ELEMS // max(1, row_elems))


def _blocks(n: int, row_elems: int) -> Iterator[slice]:
    step = _block_rows(row_elems)
    for lo in range(0, n, step):
        yield slice(lo, lo + step)


def _scratch(shape: tuple[int, ...], row_elems: int, dtype, count: int, axis: int = 0) -> list[np.ndarray]:
    """``count`` work arrays of ``shape`` cut down to one row block on ``axis``."""
    shape = shape[:axis] + (min(shape[axis], _block_rows(row_elems)),) + shape[axis + 1 :]
    return [np.empty(shape, dtype=dtype) for _ in range(count)]


# ---------------------------------------------------------------- layernorm
def _param_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape the affine parameters broadcast to: everything but the row axis."""
    return shape[1:] if len(shape) > 1 else shape


def _as_rows(x: np.ndarray) -> np.ndarray:
    """``x`` as contiguous ``(rows, B, D)``."""
    tail = _param_shape(x.shape)
    return np.ascontiguousarray(x).reshape(-1, math.prod(tail[:-1]), tail[-1])


def _as_params(p: np.ndarray, like: tuple[int, ...]) -> np.ndarray:
    """Affine parameter ``p`` broadcast to the ``(B, D)`` of :func:`_as_rows`."""
    tail = _param_shape(like)
    if p.shape != tail:
        p = np.broadcast_to(p, tail)
    return p.reshape(-1, tail[-1])


def _row_mean(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Mean over ``D`` of ``a`` (or of ``a * b``) as ``(rows, B, 1)``.

    A contraction of the short last axis: one einsum inner loop per row over
    contiguous data, so a row's moment cannot depend on the rows batched
    around it and no product temporary is materialized
    (docs/architecture.md, "Row-stable kernels").
    """
    if b is None:
        mom = np.einsum("nbd->nb", a)[..., None]
    else:
        mom = np.einsum("nbd,nbd->nb", a, b)[..., None]
    mom /= a.shape[-1]
    return mom


def _layernorm_np(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    save: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Layernorm over the last axis; forward and (with ``out``) compiled kernel.

    Mean and variance are contractions of the short last axis: one einsum
    inner loop per row over contiguous data, so a row's moments — like the
    elementwise passes after them — cannot depend on the rows batched
    around it, and no ``(x - mu)**2`` temporary is materialized
    (docs/architecture.md, "Row-stable kernels").  ``y = gamma * xhat +
    beta`` in ``x``'s shape; with ``save`` the output is flat ``[y | xhat |
    rstd]`` — the normalized rows and ``1/sqrt(var + eps)``, which is all
    the derivative kernels read of ``x``.
    """
    x = np.ascontiguousarray(x)
    dtype = np.result_type(x, gamma, beta)
    if save:
        out, y, xhat, rstd = _flat_parts(out, (x.shape, x.shape, x.shape[:-1] + (1,)), dtype)
    else:
        y = xhat = out = np.empty(x.shape, dtype=dtype) if out is None else out
    mom = np.einsum("...d->...", x)[..., None]
    mom /= x.shape[-1]
    np.subtract(x, mom, out=xhat)
    mom = np.einsum("...d,...d->...", xhat, xhat)[..., None]
    mom /= x.shape[-1]
    mom += eps
    np.sqrt(mom, out=mom)
    np.divide(xhat, mom, out=xhat)
    np.multiply(gamma, xhat, out=y)
    np.add(y, beta, out=y)
    if save:
        np.reciprocal(mom, out=rstd)
    return out


def _layernorm_vjp_np(
    g: np.ndarray, xhat: np.ndarray, rstd: np.ndarray, gamma: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """VJP kernel of layernorm with respect to ``x``.

    ``gx = rstd * (gh - mean(gh) - xhat * mean(gh * xhat))``, ``gh = g * gamma``.
    """
    xhat3, g3 = _as_rows(xhat), _as_rows(g)
    rstd3, gamma = rstd.reshape(xhat3.shape[:2] + (1,)), _as_params(gamma, xhat.shape)
    if out is None:
        out = np.empty(xhat.shape, dtype=xhat3.dtype)
    out3 = out.reshape(xhat3.shape)
    n, b, d = xhat3.shape
    (s_gh,) = _scratch(xhat3.shape, b * d, xhat3.dtype, 1)
    for rows in _blocks(n, b * d):
        xh, o = xhat3[rows], out3[rows]
        gh = s_gh[: len(o)]
        np.multiply(g3[rows], gamma, out=gh)
        np.multiply(xh, _row_mean(gh, xh), out=o)
        np.subtract(gh, o, out=o)
        o -= _row_mean(gh)
        o *= rstd3[rows]
    return out


def _layernorm_vjp_gamma_np(g: np.ndarray, xhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """VJP kernel of layernorm with respect to ``gamma``: ``sum_rows(g * xhat)``.

    In the broadcast ``(B, D)`` shape (the caller reduces it to
    ``gamma.shape``), accumulated block by block in row order.
    """
    xhat3, g3 = _as_rows(xhat), _as_rows(g)
    if out is None:
        out = np.empty(_param_shape(xhat.shape), dtype=xhat3.dtype)
    ggamma = out.reshape(xhat3.shape[1:])
    ggamma.fill(0.0)
    for rows in _blocks(len(xhat3), ggamma.size):
        ggamma += np.einsum("nbd,nbd->bd", g3[rows], xhat3[rows])
    return out


def _layernorm_vjp2_np(
    a: np.ndarray,
    g: np.ndarray,
    xhat: np.ndarray,
    rstd: np.ndarray,
    gamma: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """VJP kernel of :func:`_layernorm_vjp_np`: flat ``[cg | cx | cgamma]``.

    ``a`` is the cotangent of ``gx``.  With ``P(v) = v - mean(v) - xhat *
    mean(v * xhat)``, ``gh = g * gamma`` and the row scalars ``abar =
    mean(a)``, ``gbar = mean(gh)``, ``alpha = mean(a * xhat)``, ``bt =
    mean(gh * xhat)``, ``c = mean(a * gh)`` (the textbook layernorm double
    backward, docs/architecture.md, "Fused gated MLP")::

        p      = rstd * P(a)
        cg     = gamma * p
        cgamma = sum_rows(g * p)
        cx     = -rstd**2 * (bt * (a - abar) + alpha * (gh - gbar)
                             + xhat * (c - abar * gbar - 3 * alpha * bt))
    """
    xhat3, g3, a3 = _as_rows(xhat), _as_rows(g), _as_rows(a)
    rstd3, gamma = rstd.reshape(xhat3.shape[:2] + (1,)), _as_params(gamma, xhat.shape)
    out, cg, cx, cgamma = _flat_parts(out, (xhat3.shape, xhat3.shape, gamma.shape), xhat3.dtype)
    cgamma.fill(0.0)
    n, b, d = xhat3.shape
    s_gh, s_t = _scratch(xhat3.shape, b * d, xhat3.dtype, 2)
    for rows in _blocks(n, b * d):
        ab, gb, xh, rs, og, ox = a3[rows], g3[rows], xhat3[rows], rstd3[rows], cg[rows], cx[rows]
        gh, t = s_gh[: len(gb)], s_t[: len(gb)]
        np.multiply(gb, gamma, out=gh)
        abar, gbar = _row_mean(ab), _row_mean(gh)
        alpha, bt, c = _row_mean(ab, xh), _row_mean(gh, xh), _row_mean(ab, gh)
        # og = p = rstd * (a - abar - xhat * alpha)
        np.multiply(xh, alpha, out=t)
        np.subtract(ab, t, out=og)
        og -= abar
        og *= rs
        cgamma += np.einsum("nbd,nbd->bd", gb, og)
        og *= gamma
        # ox = -rstd**2 * (bt * a + alpha * gh + k * xhat - (bt * abar + alpha * gbar))
        c -= abar * gbar
        abar *= bt
        gbar *= alpha
        abar += gbar
        gh *= alpha
        alpha *= bt
        alpha *= 3.0
        c -= alpha
        np.multiply(ab, bt, out=ox)
        ox += gh
        np.multiply(xh, c, out=t)
        ox += t
        ox -= abar
        np.multiply(rs, rs, out=c)
        np.negative(c, out=c)
        ox *= c
    return out


def fused_layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis in one kernel.

    The reference GatedMLP runs two separate ~9-kernel LN compositions per
    gate; FastCHGNet batches both branches through this fused kernel.
    ``gamma``/``beta`` broadcast against ``x.shape[1:]``.  Differentiable to
    second order with one row-blocked kernel per order and cotangent group,
    on ``xhat`` and ``rstd`` saved by the forward (docs/architecture.md,
    "Fused gated MLP"); a third differentiation raises
    :class:`ThirdOrderUnsupported`.
    """
    save = _tracked(x, gamma, beta)
    out = _kernel("fused_layernorm", _layernorm_np, (x, gamma, beta), eps=float(eps), save=save)
    return _part(out, x.shape, 0, _fused_layernorm_vjp, (x, gamma, beta)) if save else out


def _layernorm_saved(flat: Tensor, x: Tensor) -> list[Tensor]:
    # (xhat, rstd) as functions of x that refuse to be differentiated: what is
    # computed from them with the graph on raises at a third backward.
    refuse = _third_order("fused_layernorm")
    return [
        _part(flat, x.shape, x.size, refuse, (x,)),
        _part(flat, x.shape[:-1] + (1,), 2 * x.size, refuse, (x,)),
    ]


def _fused_layernorm_vjp(g, out, inputs, needs, shape, offset):
    flat, x, gamma, beta = inputs
    xhat, rstd = _layernorm_saved(flat, x)
    gx = ggamma = None
    if needs[1]:
        gx = _layernorm_vjp_x(g, x, gamma, xhat, rstd)
    if needs[2]:
        arr = _kernel("fused_layernorm_vjp_gamma", _layernorm_vjp_gamma_np, (g, xhat))
        ggamma = _part(arr, _param_shape(x.shape), 0, _fused_layernorm_vjp_gamma_vjp, (g, x, xhat, rstd))
        ggamma = _unbroadcast(ggamma, gamma.shape)
    return (None, gx, ggamma, _unbroadcast(g, beta.shape) if needs[3] else None)


def _layernorm_vjp_x(g: Tensor, x: Tensor, gamma: Tensor, xhat: Tensor, rstd: Tensor) -> Tensor:
    arr = _kernel("fused_layernorm_vjp", _layernorm_vjp_np, (g, xhat, rstd, gamma))
    return _part(arr, x.shape, 0, _fused_layernorm_vjp2, (g, x, gamma, xhat, rstd))


def _fused_layernorm_vjp2(a, out, inputs, needs, shape, offset):
    _, g, x, gamma, xhat, rstd = inputs
    flat = _kernel("fused_layernorm_vjp2", _layernorm_vjp2_np, (a, g, xhat, rstd, gamma))
    cg, cx, cgamma = _parts(
        flat,
        (x.shape, x.shape, _param_shape(x.shape)),
        _third_order("fused_layernorm"),
        (a, g, x, gamma),
    )
    return (None, cg, cx, _unbroadcast(cgamma, gamma.shape), None, None)


def _fused_layernorm_vjp_gamma_vjp(h, out, inputs, needs, shape, offset):
    # ggamma = sum_rows(g * xhat): linear in g, and in x the layernorm VJP
    # with unit gamma applied to g * h.
    _, g, x, xhat, rstd = inputs
    ones = Tensor(np.ones(_param_shape(x.shape)))
    return (None, mul(xhat, h), _layernorm_vjp_x(mul(g, h), x, ones, xhat, rstd), None, None)


# --------------------------------------------------------------------- gate
def _split_heads(zb: np.ndarray) -> np.ndarray:
    """A packed ``(rows, 2 * heads, D)`` block viewed ``(2, heads, rows, D)``.

    Index 0 holds the core columns, 1 the gate columns, each head-major.
    """
    m, b, d = zb.shape
    return zb.reshape(m, b // 2, 2, d).transpose(2, 1, 0, 3)


def _gate_np(z: np.ndarray, save: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Gate forward and compiled kernel: ``phi[h] = silu(z[:, 2h]) * sigmoid(z[:, 2h+1])``.

    Head-major ``(heads, N, D)``, so every head is one contiguous array for
    its consumer: ``s = sig(c)`` and ``t = sig(q)`` from one sigmoid over the
    packed block, ``v = c * s`` (SiLU recovered from the shared sigmoid,
    Fig. 3b), ``phi = v * t``.  With ``save`` the output is flat ``[phi | v
    | s | t]``: the derivative kernels read those, never ``z``.
    """
    n, b, d = z.shape
    heads = (b // 2, n, d)
    if save:
        out, phi, saved = _flat_parts(out, (heads, (3, *heads)), z.dtype)
    else:
        phi = out = np.empty(heads, dtype=z.dtype) if out is None else out
    (s_sig,) = _scratch(z.shape, b * d, z.dtype, 1)
    for rows in _blocks(n, b * d):
        zb = z[rows]
        sig = _split_heads(_sigmoid_np(zb, out=s_sig[: len(zb)]))
        o = phi[:, rows]
        v = saved[0, :, rows] if save else o
        np.multiply(_split_heads(zb)[0], sig[0], out=v)
        np.multiply(v, sig[1], out=o)
        if save:
            np.copyto(saved[1:, :, rows], sig)
    return out


def _gate_vjp_np(g: np.ndarray, saved: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """VJP kernel of the gate: ``gz`` in ``z``'s packed ``(N, 2 * heads, D)`` layout.

    With ``u = v' = s + v * (1 - s)``: ``gz[:, 2h] = g * t * u``, ``gz[:,
    2h+1] = g * v * t * (1 - t)``.
    """
    _, heads, n, d = saved.shape
    if out is None:
        out = np.empty((n, 2 * heads, d), dtype=saved.dtype)
    row = 2 * heads * d
    (s_w,) = _scratch((heads, n, d), row, saved.dtype, 1, axis=1)
    for rows in _blocks(n, row):
        v, s, t = saved[:, :, rows]
        gb = g[:, rows]
        oc, oq = _split_heads(out[rows])
        w = s_w[:, : v.shape[1]]
        np.subtract(1.0, t, out=w)
        w *= t
        w *= v
        np.multiply(w, gb, out=oq)
        np.subtract(1.0, s, out=w)
        w *= v
        w += s
        w *= t
        np.multiply(w, gb, out=oc)
    return out


def _gate_vjp2_np(
    h: np.ndarray, g: np.ndarray, saved: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """VJP kernel of :func:`_gate_vjp_np`: flat ``[cg | cz]``.

    ``h`` is the cotangent of ``gz`` (``hc``/``hq`` its core/gate columns).
    With ``f = v * t`` the forward value per element, ``s' = s * (1 - s)``,
    ``u' = 2 s' + v * (1 - s) * (1 - 2 s)``, ``t' = t * (1 - t)``, ``t'' = t'
    * (1 - 2 t)``, the closed-form second derivatives are ``f_c = u t``,
    ``f_q = v t'``, ``f_cc = u' t``, ``f_cq = u t'``, ``f_qq = v t''`` and::

        cg          = hc * f_c + hq * f_q
        cz[:, 2h]   = g * (hc * f_cc + hq * f_cq)
        cz[:, 2h+1] = g * (hc * f_cq + hq * f_qq)
    """
    _, heads, n, d = saved.shape
    out, cg, cz = _flat_parts(out, ((heads, n, d), (n, 2 * heads, d)), saved.dtype)
    row = 2 * heads * d
    (s_h,) = _scratch((2, heads, n, d), row, saved.dtype, 1, axis=2)
    s_u, s_w, s_k, s_x, s_y = _scratch((heads, n, d), row, saved.dtype, 5, axis=1)
    for rows in _blocks(n, row):
        v, s, t = saved[:, :, rows]
        m = v.shape[1]
        hc, hq = hh = s_h[:, :, :m]
        np.copyto(hh, _split_heads(h[rows]))
        gb, og = g[:, rows], cg[:, rows]
        oc, oq = _split_heads(cz[rows])
        u, w, k, x, y = s_u[:, :m], s_w[:, :m], s_k[:, :m], s_x[:, :m], s_y[:, :m]
        np.subtract(1.0, s, out=w)
        np.multiply(v, w, out=x)  # v * (1 - s)
        np.add(x, s, out=u)
        np.multiply(s, -2.0, out=k)
        k += 1.0
        k *= x
        w *= s  # s'
        w *= 2.0
        k += w  # u'
        np.subtract(1.0, t, out=w)
        w *= t  # t'
        # og = hc * f_c + hq * f_q, with y = f_q
        np.multiply(u, t, out=x)
        np.multiply(hc, x, out=og)
        np.multiply(v, w, out=y)
        np.multiply(hq, y, out=x)
        og += x
        # oc = g * (hc * f_cc + hq * f_cq), leaving u = f_cq
        k *= t
        k *= hc
        u *= w
        np.multiply(hq, u, out=x)
        k += x
        np.multiply(k, gb, out=oc)
        # oq = g * (hc * f_cq + hq * f_qq), f_qq = f_q * (1 - 2 t)
        u *= hc
        np.multiply(t, -2.0, out=x)
        x += 1.0
        x *= y
        x *= hq
        u += x
        np.multiply(u, gb, out=oq)
    return out


def fused_gate(z: Tensor) -> Tensor:
    """Gate tail of the packed GatedMLPs in one kernel.

    ``z`` is the packed, normalized pre-activation ``(N, 2 * heads, D)`` with
    core and gate branches interleaved; returns head-major ``(heads, N, D)``
    with ``out[h] = silu(z[:, 2h]) * sigmoid(z[:, 2h+1])``.  Differentiable
    to second order with one row-blocked kernel per order, on the SiLU and
    the two sigmoids saved by the forward (docs/architecture.md, "Fused
    gated MLP"); a third differentiation raises :class:`ThirdOrderUnsupported`.
    """
    if z.ndim != 3 or z.shape[1] % 2:
        raise ValueError(f"fused_gate needs a packed (N, 2*heads, D) input, got {z.shape}")
    n, b, d = z.shape
    save = _tracked(z)
    out = _kernel("fused_gate", _gate_np, (z,), save=save)
    return _part(out, (b // 2, n, d), 0, _fused_gate_vjp, (z,)) if save else out


def _fused_gate_vjp(g, out, inputs, needs, shape, offset):
    flat, z = inputs
    saved = _part(flat, (3, *shape), math.prod(shape), _third_order("fused_gate"), (z,))
    gz = _kernel("fused_gate_vjp", _gate_vjp_np, (g, saved))
    return (None, _part(gz, z.shape, 0, _fused_gate_vjp2, (g, z, saved)))


def _fused_gate_vjp2(h, out, inputs, needs, shape, offset):
    _, g, z, saved = inputs
    flat = _kernel("fused_gate_vjp2", _gate_vjp2_np, (h, g, saved))
    cg, cz = _parts(flat, (g.shape, z.shape), _third_order("fused_gate"), (h, g, z))
    return (None, cg, cz, None)


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
