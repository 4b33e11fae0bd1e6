"""Linear-algebra primitives: matmul, fused linear, block-diagonal assembly.

``linear`` is the packed GEMM+bias kernel used after FastCHGNet's computation
graph reconstruction (Fig. 3a); the reference path composes ``matmul`` +
``add``.  ``block_diag`` implements line 11 of Algorithm 2 (assembling the
per-sample neighbor-image matrices into one batched operand).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.engine import Tensor, apply_op
from repro.tensor.ops_math import _unbroadcast, astensor, sum as tsum
from repro.tensor.ops_shape import builtin_slice


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


def dot_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot product of two ``(n, d)`` tensors -> ``(n,)``.

    Composition (mul + sum); used for bond-angle cosines.
    """
    from repro.tensor.ops_math import mul

    return tsum(mul(a, b), axis=-1)


def block_diag(mats: Sequence[Tensor]) -> Tensor:
    """Assemble matrices into a block-diagonal matrix (Algorithm 2, line 11).

    Inputs of shapes ``(n_i, m_i)`` produce ``(sum n_i, sum m_i)``; the paper
    uses this to batch the per-sample ``I @ L`` products, noting the zero
    padding slightly increases memory — reproduced here since the zeros are
    materialized.
    """
    mats = [astensor(m) for m in mats]
    if not mats:
        raise ValueError("block_diag requires at least one matrix")

    def fwd(*xs):
        rows = int(np.sum([x.shape[0] for x in xs]))
        cols = int(np.sum([x.shape[1] for x in xs]))
        out = np.zeros((rows, cols), dtype=xs[0].dtype)
        r = c = 0
        for x in xs:
            out[r : r + x.shape[0], c : c + x.shape[1]] = x
            r += x.shape[0]
            c += x.shape[1]
        return out

    return apply_op("block_diag", fwd, _block_diag_vjp, tuple(mats))


def _block_diag_vjp(g, out, inputs, needs):
    from repro.tensor.ops_shape import slice_

    grads = []
    r = c = 0
    for t, need in zip(inputs, needs):
        n, m = t.shape
        if need:
            grads.append(slice_(g, (builtin_slice(r, r + n), builtin_slice(c, c + m))))
        else:
            grads.append(None)
        r += n
        c += m
    return tuple(grads)


Tensor.__matmul__ = matmul
