"""Elementwise and reduction primitives.

Every function here is one simulated kernel.  VJPs are composed from other
primitives on :class:`~repro.tensor.engine.Tensor`, which makes the backward
pass itself differentiable — the property the reference CHGNet training path
(forces/stress by energy differentiation inside the loss) depends on.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.tensor.engine import DEFAULT_DTYPE, Tensor, apply_op

ArrayLike = Any


def astensor(x: ArrayLike) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=DEFAULT_DTYPE))


def _normalize_axis(axis: int | Sequence[int] | None, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


# --------------------------------------------------------------------- shape
# reshape / broadcast_to live here because _unbroadcast (used by virtually
# every elementwise vjp) needs them.


def _reshape_np(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.reshape(x, shape)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View ``a`` with a new shape."""
    return apply_op("reshape", _reshape_np, _reshape_vjp, (a,), {"shape": tuple(shape)})


def _reshape_vjp(g, out, inputs, needs, shape):
    (a,) = inputs
    return (reshape(g, a.shape) if needs[0] else None,)


def _broadcast_to_np(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(x, shape)  # read-only view, zero copy


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Broadcast ``a`` to ``shape`` (materialized, one kernel)."""
    return apply_op(
        "broadcast_to", _broadcast_to_np, _broadcast_vjp, (a,), {"shape": tuple(shape)}
    )


def _broadcast_vjp(g, out, inputs, needs, shape):
    (a,) = inputs
    return (_unbroadcast(g, a.shape) if needs[0] else None,)


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce ``g`` back to ``shape`` by summing broadcast dimensions."""
    if g.shape == shape:
        return g
    ndiff = g.ndim - len(shape)
    if ndiff > 0:
        g = sum(g, axis=tuple(range(ndiff)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = sum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# ---------------------------------------------------------------- reductions
#: Longest single reduced axis :func:`_sum_np` unrolls into plain adds.
_UNROLL_MAX = 7
#: NumPy inner loops one unrolled add must replace before unrolling pays: a
#: ufunc call costs ~1 us, one of NumPy's short inner loops ~10 ns.
_UNROLL_MIN_LOOPS = 128


def _sum_np(
    x: np.ndarray,
    axis: int | Sequence[int] | None = None,
    keepdims: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``np.add.reduce`` bit for bit; forward and compiled kernel.

    NumPy sums a float axis shorter than 8 left to right whichever loop
    order its iterator picks — from the identity ``+0.0`` in its strided
    loop, and in its pairwise sum (sequential below 8 elements) from
    ``-0.0``, that sum then added to ``+0.0`` — and both equal ``((0.0 +
    x0) + x1) + ...``, signed zeros included.  So a reduction over one such
    axis of length ``L`` can run as ``L`` adds over strided slices, one
    pass each over the other axes, where NumPy runs one short inner loop
    per row (a length-3 axis: one per vector).  It does when NumPy would
    run at least :data:`_UNROLL_MIN_LOOPS` inner loops per add; small
    outputs and a reduced axis with long rows after it keep
    ``np.add.reduce``.  From 8 elements the pairwise sum blocks by eight
    and its association follows the loop order, which follows the output's
    layout too — so a float sum always reduces into a C-ordered ``out``
    (the arena's, or a fresh one) and eager and replay agree.  Other dtypes
    go to ``np.add.reduce`` unchanged.
    """
    if x.dtype.char not in "fd" or not x.dtype.isnative:
        return np.asarray(np.add.reduce(x, axis=axis, keepdims=keepdims, out=out))
    if out is None:
        axes = _normalize_axis(axis, x.ndim)
        shape = [1 if i in axes else n for i, n in enumerate(x.shape) if keepdims or i not in axes]
        out = np.empty(shape, dtype=x.dtype)
    # Cheap rejections first: most sums in a program are small or reduce a
    # long axis (loops >= _UNROLL_MIN_LOOPS * n needs out.size >= that too).
    ax = axis[0] if type(axis) is tuple and len(axis) == 1 else axis
    if (
        type(ax) is int
        and out.size >= _UNROLL_MIN_LOOPS
        and 1 <= x.shape[ax] <= _UNROLL_MAX
        and out.dtype == x.dtype
    ):
        n = x.shape[ax]
        ax %= x.ndim
        inner = math.prod(x.shape[ax + 1 :])
        loops = out.size if inner == 1 else out.size // inner * n
        if loops >= _UNROLL_MIN_LOOPS * n:
            index: list[Any] = [slice(None)] * x.ndim
            for k in range(n):
                index[ax] = slice(k, k + 1) if keepdims else k
                np.add(out if k else 0.0, x[tuple(index)], out=out)
            return out
    return np.add.reduce(x, axis=axis, keepdims=keepdims, out=out)


def sum(a: Tensor, axis: int | Sequence[int] | None = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis`` (all axes when ``None``)."""
    return apply_op(
        "sum",
        _sum_np,
        _sum_vjp,
        (a,),
        {"axis": axis if axis is None or isinstance(axis, int) else tuple(axis), "keepdims": keepdims},
    )


def _sum_vjp(g, out, inputs, needs, axis, keepdims):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    if not keepdims:
        kshape = list(a.shape)
        for ax in _normalize_axis(axis, a.ndim):
            kshape[ax] = 1
        g = reshape(g, tuple(kshape))
    return (broadcast_to(g, a.shape),)


def mean(a: Tensor, axis: int | Sequence[int] | None = None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean (composition: ``sum`` then scale)."""
    axes = _normalize_axis(axis, a.ndim)
    n = 1
    for ax in axes:
        n *= a.shape[ax]
    return mul(sum(a, axis=axis, keepdims=keepdims), 1.0 / max(n, 1))


# --------------------------------------------------------------- elementwise
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = astensor(a), astensor(b)
    return apply_op("add", np.add, _add_vjp, (a, b))


def _add_vjp(g, out, inputs, needs):
    a, b = inputs
    return (
        _unbroadcast(g, a.shape) if needs[0] else None,
        _unbroadcast(g, b.shape) if needs[1] else None,
    )


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = astensor(a), astensor(b)
    return apply_op("sub", np.subtract, _sub_vjp, (a, b))


def _sub_vjp(g, out, inputs, needs):
    a, b = inputs
    return (
        _unbroadcast(g, a.shape) if needs[0] else None,
        _unbroadcast(neg(g), b.shape) if needs[1] else None,
    )


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = astensor(a), astensor(b)
    return apply_op("mul", np.multiply, _mul_vjp, (a, b))


def _mul_vjp(g, out, inputs, needs):
    a, b = inputs
    ga = _unbroadcast(mul(g, b), a.shape) if needs[0] else None
    gb = _unbroadcast(mul(g, a), b.shape) if needs[1] else None
    return (ga, gb)


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = astensor(a), astensor(b)
    return apply_op("div", np.divide, _div_vjp, (a, b))


def _div_vjp(g, out, inputs, needs):
    a, b = inputs
    ga = _unbroadcast(div(g, b), a.shape) if needs[0] else None
    gb = _unbroadcast(neg(div(mul(g, out), b)), b.shape) if needs[1] else None
    return (ga, gb)


def neg(a: Tensor) -> Tensor:
    return apply_op("neg", np.negative, _neg_vjp, (astensor(a),))


def _neg_vjp(g, out, inputs, needs):
    return (neg(g) if needs[0] else None,)


def _power_np(x: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    return np.power(x, p, out=out)


def power(a: Tensor, p: float) -> Tensor:
    """Raise to a constant scalar power."""
    return apply_op("power", _power_np, _power_vjp, (astensor(a),), {"p": float(p)})


def _power_vjp(g, out, inputs, needs, p):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    if p == 1.0:
        return (g,)
    if p == 2.0:
        return (mul(g, mul(a, 2.0)),)
    return (mul(g, mul(power(a, p - 1.0), p)),)


def exp(a: Tensor) -> Tensor:
    return apply_op("exp", np.exp, _exp_vjp, (astensor(a),))


def _exp_vjp(g, out, inputs, needs):
    return (mul(g, out) if needs[0] else None,)


def log(a: Tensor) -> Tensor:
    return apply_op("log", np.log, _log_vjp, (astensor(a),))


def _log_vjp(g, out, inputs, needs):
    (a,) = inputs
    return (div(g, a) if needs[0] else None,)


def sqrt(a: Tensor) -> Tensor:
    return apply_op("sqrt", np.sqrt, _sqrt_vjp, (astensor(a),))


def _sqrt_vjp(g, out, inputs, needs):
    return (div(mul(g, 0.5), out) if needs[0] else None,)


def sin(a: Tensor) -> Tensor:
    return apply_op("sin", np.sin, _sin_vjp, (astensor(a),))


def _sin_vjp(g, out, inputs, needs):
    (a,) = inputs
    return (mul(g, cos(a)) if needs[0] else None,)


def cos(a: Tensor) -> Tensor:
    return apply_op("cos", np.cos, _cos_vjp, (astensor(a),))


def _cos_vjp(g, out, inputs, needs):
    (a,) = inputs
    return (neg(mul(g, sin(a))) if needs[0] else None,)


def arccos(a: Tensor) -> Tensor:
    """Inverse cosine; callers should clip inputs away from +/-1."""
    return apply_op("arccos", np.arccos, _arccos_vjp, (astensor(a),))


def _arccos_vjp(g, out, inputs, needs):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    return (neg(div(g, sqrt(sub(1.0, mul(a, a))))),)


def tanh(a: Tensor) -> Tensor:
    return apply_op("tanh", np.tanh, _tanh_vjp, (astensor(a),))


def _tanh_vjp(g, out, inputs, needs):
    if not needs[0]:
        return (None,)
    return (mul(g, sub(1.0, mul(out, out))),)


def _sigmoid_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in four in-place passes; forward and compiled kernel.

    Stable at both ends without a split by sign: ``exp(-x)`` overflowing to
    ``inf`` for very negative ``x`` yields exactly ``0`` (hence the
    errstate), underflowing to ``0`` yields exactly ``1``.  Measured 2.4x
    faster on a ``(768, 2, 8)`` activation than the library ``expit`` ufunc
    it replaces, whose import alone cost ~0.25 s of every start-up; NumPy
    is now the only runtime dependency.
    """
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    return apply_op("sigmoid", _sigmoid_np, _sigmoid_vjp, (astensor(a),))


def _sigmoid_vjp(g, out, inputs, needs):
    if not needs[0]:
        return (None,)
    return (mul(g, mul(out, sub(1.0, out))),)


def _silu_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is x:  # fused-chain carry: x must outlive the in-place sigmoid
        x = x.copy()
    out = _sigmoid_np(x, out)
    return np.multiply(out, x, out=out)


def silu(a: Tensor) -> Tensor:
    """Fused SiLU: ``x * sigmoid(x)`` in one kernel.

    The reference GatedMLP composes ``sigmoid`` + ``mul``; FastCHGNet's packed
    GatedMLP reuses the shared sigmoid and this fused form (Fig. 3b).
    """
    return apply_op("silu", _silu_np, _silu_vjp, (astensor(a),))


def _silu_vjp(g, out, inputs, needs):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    s = sigmoid(a)
    # d/dx x*s(x) = s + x*s*(1-s) = s*(1 + x*(1-s))
    return (mul(g, mul(s, add(1.0, mul(a, sub(1.0, s))))),)


def absolute(a: Tensor) -> Tensor:
    return apply_op("abs", np.abs, _abs_vjp, (astensor(a),))


def _abs_vjp(g, out, inputs, needs):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    return (mul(g, sign(a)),)


# ----------------------------------------------------------- mask primitives
# Piecewise VJPs (abs, clip, maximum, where_le, ...) select branches with a
# data-dependent mask.  The masks are *primitives* — not constants computed
# on the side — so a captured tape (repro.tensor.compile) recomputes them
# from the live operands on replay.  Their own gradient is zero almost
# everywhere, hence the ``None`` VJPs.


def sign(a: Tensor) -> Tensor:
    """Elementwise sign; gradient is zero (a.e.)."""
    return apply_op("sign", np.sign, _zero_vjp1, (astensor(a),))


def _zero_vjp1(g, out, inputs, needs, **kwargs):
    return (None,)


def _zero_vjp2(g, out, inputs, needs, **kwargs):
    return (None, None)


def _ge_mask_np(x: np.ndarray, y, out: np.ndarray | None = None) -> np.ndarray:
    """``x >= y`` as 0/1 in ``x``'s dtype, written by the comparison itself."""
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, np.shape(y)), dtype=x.dtype)
    return np.greater_equal(x, y, out=out)


def _le_mask_np(x: np.ndarray, y, out: np.ndarray | None = None) -> np.ndarray:
    """``x <= y`` as 0/1 in ``x``'s dtype (``y`` an array or a threshold)."""
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, np.shape(y)), dtype=x.dtype)
    return np.less_equal(x, y, out=out)


def ge_mask(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Float mask ``(a >= b)`` with broadcasting; zero gradient."""
    a, b = astensor(a), astensor(b)
    return apply_op("ge_mask", _ge_mask_np, _zero_vjp2, (a, b))


def le_mask(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Float mask ``(a <= b)`` with broadcasting; zero gradient."""
    a, b = astensor(a), astensor(b)
    return apply_op("le_mask", _le_mask_np, _zero_vjp2, (a, b))


def _interval_mask_np(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return ((x >= lo) & (x <= hi)).astype(x.dtype)


def interval_mask(a: Tensor, lo: float, hi: float) -> Tensor:
    """Float mask ``lo <= a <= hi`` (the clip pass-through region)."""
    return apply_op(
        "interval_mask",
        _interval_mask_np,
        _zero_vjp1,
        (astensor(a),),
        {"lo": float(lo), "hi": float(hi)},
    )


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = astensor(a), astensor(b)
    return apply_op("maximum", np.maximum, _maximum_vjp, (a, b))


def _maximum_vjp(g, out, inputs, needs):
    a, b = inputs
    mask = ge_mask(a, b)
    ga = _unbroadcast(mul(g, mask), a.shape) if needs[0] else None
    gb = _unbroadcast(mul(g, sub(1.0, mask)), b.shape) if needs[1] else None
    return (ga, gb)


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = astensor(a), astensor(b)
    return apply_op("minimum", np.minimum, _minimum_vjp, (a, b))


def _minimum_vjp(g, out, inputs, needs):
    a, b = inputs
    mask = le_mask(a, b)
    ga = _unbroadcast(mul(g, mask), a.shape) if needs[0] else None
    gb = _unbroadcast(mul(g, sub(1.0, mask)), b.shape) if needs[1] else None
    return (ga, gb)


def _clip_np(x: np.ndarray, lo: float, hi: float, out: np.ndarray | None = None) -> np.ndarray:
    return np.clip(x, lo, hi, out=out)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is zero outside the interval."""
    return apply_op(
        "clip", _clip_np, _clip_vjp, (astensor(a),), {"lo": float(lo), "hi": float(hi)}
    )


def _clip_vjp(g, out, inputs, needs, lo, hi):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    return (mul(g, interval_mask(a, lo, hi)),)


def _where_le_np(a: np.ndarray, x: np.ndarray, y: np.ndarray, threshold: float) -> np.ndarray:
    return np.where(a <= threshold, x, y)


def where_le(a: Tensor, x: ArrayLike, y: ArrayLike, threshold: float) -> Tensor:
    """Select ``x`` where ``a <= threshold`` else ``y``.

    The branch condition is part of the op (not a precomputed constant), so
    the selection is recomputed from the live ``a`` on a compiled-tape
    replay.  Gradient w.r.t. ``a`` is zero (a.e.), as for :func:`where`.
    """
    a, x, y = astensor(a), astensor(x), astensor(y)
    return apply_op(
        "where_le", _where_le_np, _where_le_vjp, (a, x, y), {"threshold": float(threshold)}
    )


def _where_le_vjp(g, out, inputs, needs, threshold):
    a, x, y = inputs
    gx = gy = None
    if needs[1] or needs[2]:
        mask = apply_op("le_mask_c", _le_mask_np, _zero_vjp1, (a,), {"y": threshold})
        if needs[1]:
            gx = _unbroadcast(mul(g, mask), x.shape)
        if needs[2]:
            gy = _unbroadcast(mul(g, sub(1.0, mask)), y.shape)
    return (None, gx, gy)


def _where_np(x: np.ndarray, y: np.ndarray, cond: np.ndarray) -> np.ndarray:
    return np.where(cond, x, y)


def where(cond: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select from ``a`` where ``cond`` else ``b``; ``cond`` is constant."""
    a, b = astensor(a), astensor(b)
    cond = np.asarray(cond, dtype=bool)
    return apply_op("where", _where_np, _where_vjp, (a, b), {"cond": cond})


def _where_vjp(g, out, inputs, needs, cond):
    a, b = inputs
    fmask = cond.astype(g.dtype)
    ga = _unbroadcast(mul(g, Tensor(fmask)), a.shape) if needs[0] else None
    gb = _unbroadcast(mul(g, Tensor(1.0 - fmask)), b.shape) if needs[1] else None
    return (ga, gb)


# ------------------------------------------------------- operator overloading
def _radd(self, other):
    return add(other, self)


def _rsub(self, other):
    return sub(other, self)


def _rmul(self, other):
    return mul(other, self)


def _rdiv(self, other):
    return div(other, self)


Tensor.__add__ = add
Tensor.__radd__ = _radd
Tensor.__sub__ = sub
Tensor.__rsub__ = _rsub
Tensor.__mul__ = mul
Tensor.__rmul__ = _rmul
Tensor.__truediv__ = div
Tensor.__rtruediv__ = _rdiv
Tensor.__neg__ = neg
Tensor.__pow__ = power
Tensor.sum = sum
Tensor.mean = mean
Tensor.reshape = reshape
