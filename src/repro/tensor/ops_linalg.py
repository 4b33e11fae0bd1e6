"""Linear-algebra primitives: matmul and fused linear.

``linear`` is the packed GEMM+bias kernel used after FastCHGNet's computation
graph reconstruction (Fig. 3a); the reference path composes ``matmul`` +
``add``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.engine import Tensor, apply_op
from repro.tensor.ops_math import _unbroadcast, astensor, sum as tsum


# Column quantum of the row-stable product: output widths are zero-padded up
# to a multiple of this before they reach BLAS.  Why 16, and what the
# primitive below guarantees, is written down once in docs/architecture.md
# ("Row-stable kernels"); tests/test_row_stable.py re-derives it.
_ROW_STABLE_MAX_N = 16


def matmul_rowstable(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2-D ``a @ b`` into ``out``; a row's bits never depend on the row count.

    One gemm on contiguous operands, the right-hand side zero-padded to a
    multiple of ``_ROW_STABLE_MAX_N`` columns and a single row evaluated as
    two.  A transposed left operand (``swap_last(x) @ g``, every weight
    gradient) goes to BLAS as the view it is when the product needs neither
    fix-up: gemm takes the transpose as a flag and gives each row the bits
    it gives the copy.  The contraction behind ``matmul`` and ``linear``,
    eager and compiled alike (docs/architecture.md, "Row-stable kernels").
    """
    m, n = out.shape
    pad = -n % _ROW_STABLE_MAX_N
    if pad or m == 1 or not a.flags.f_contiguous:
        a = np.ascontiguousarray(a)
    if pad:
        w = np.zeros((b.shape[0], n + pad), dtype=b.dtype)
        w[:, :n] = b
    else:
        w = np.ascontiguousarray(b)
    if m == 1:
        a = np.concatenate([a, a])
    if pad or m == 1:
        np.copyto(out, np.matmul(a, w)[:m, :n])
        return out
    return np.matmul(a, w, out=out)


def _matmul_np(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``: 2-D products row-stable, batched ones straight to NumPy.

    Forward of ``matmul`` and, with ``out``, its compiled kernel.
    """
    if a.ndim == 2 and b.ndim == 2:
        if out is None:
            out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
        return matmul_rowstable(a, b, out)
    return np.matmul(a, b, out=out)


def _linear_np(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``x @ w + b`` (bias added in place); forward and compiled kernel of ``linear``."""
    out = _matmul_np(x, w, out)
    return np.add(out, b, out=out)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with NumPy batching semantics (operands >= 2-D)."""
    a, b = astensor(a), astensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with at least 2 dimensions")
    return apply_op("matmul", _matmul_np, _matmul_vjp, (a, b))


def _matmul_vjp(g, out, inputs, needs):
    from repro.tensor.ops_shape import swap_last

    a, b = inputs
    ga = gb = None
    if needs[0]:
        ga = _unbroadcast(matmul(g, swap_last(b)), a.shape)
    if needs[1]:
        gb = _unbroadcast(matmul(swap_last(a), g), b.shape)
    return (ga, gb)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused affine kernel ``x @ w + b`` (one launch).

    ``w`` has shape ``(in_features, out_features)``; ``x`` may carry leading
    batch dimensions.
    """
    if b is None:
        return matmul(x, w)

    return apply_op("linear", _linear_np, _linear_vjp, (x, w, b))


def _linear_vjp(g, out, inputs, needs):
    from repro.tensor.ops_math import reshape
    from repro.tensor.ops_shape import swap_last

    x, w, b = inputs
    gx = gw = gb = None
    if needs[0]:
        gx = _unbroadcast(matmul(g, swap_last(w)), x.shape)
    if needs[1] or needs[2]:
        gf = reshape(g, (-1, g.shape[-1]))
        if needs[1]:
            xf = reshape(x, (-1, x.shape[-1]))
            gw = matmul(swap_last(xf), gf)
        if needs[2]:
            gb = tsum(gf, axis=0)
    return (gx, gw, gb)


Tensor.__matmul__ = matmul
