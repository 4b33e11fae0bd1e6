"""Structural primitives: transpose, concatenation, indexing, segments.

``gather_rows`` / ``segment_sum`` are the two message-passing kernels of the
GNN: reading per-edge copies of node features and aggregating edge messages
back onto nodes (Eq. 4-6 of the paper).  They are exact VJPs of each other,
so arbitrarily deep derivative nesting works.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.tensor.engine import Tensor, apply_op
from repro.tensor.ops_math import astensor


def _transpose_np(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return np.transpose(x, axes)  # view; BLAS consumers handle strides


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute dimensions (reversed when ``axes`` is ``None``)."""
    if axes is None:
        axes = tuple(range(a.ndim - 1, -1, -1))
    return apply_op("transpose", _transpose_np, _transpose_vjp, (a,), {"axes": tuple(axes)})


def _transpose_vjp(g, out, inputs, needs, axes):
    if not needs[0]:
        return (None,)
    inverse = tuple(np.argsort(axes))
    return (transpose(g, inverse),)


def swap_last(a: Tensor) -> Tensor:
    """Transpose the trailing two dimensions (matmul backward helper)."""
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    return transpose(a, axes)


def _concat_np(*xs: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    return np.concatenate(xs, axis=axis, out=out)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; one kernel regardless of operand count."""
    tensors = [astensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    return apply_op("concat", _concat_np, _concat_vjp, tuple(tensors), {"axis": axis})


def _concat_vjp(g, out, inputs, needs, axis):
    grads = []
    offset = 0
    for t, need in zip(inputs, needs):
        width = t.shape[axis]
        if need:
            index = [builtin_slice(None)] * g.ndim
            index[axis] = builtin_slice(offset, offset + width)
            grads.append(slice_(g, tuple(index)))
        else:
            grads.append(None)
        offset += width
    return tuple(grads)


builtin_slice = slice  # keep the builtin reachable under a distinct name


def _stack_np(*xs: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    return np.stack(xs, axis=axis, out=out)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new dimension; one kernel."""
    tensors = [astensor(t) for t in tensors]
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    return apply_op("stack", _stack_np, _stack_vjp, tuple(tensors), {"axis": axis})


def _stack_vjp(g, out, inputs, needs, axis):
    grads = []
    for i, need in enumerate(needs):
        if need:
            index = [builtin_slice(None)] * g.ndim
            index[axis] = i
            grads.append(slice_(g, tuple(index)))
        else:
            grads.append(None)
    return tuple(grads)


def _slice_np(x: np.ndarray, index) -> np.ndarray:
    return x[index]  # view for basic indexing


def slice_(a: Tensor, index) -> Tensor:
    """Basic indexing ``a[index]`` (ints and slices only)."""
    return apply_op("slice", _slice_np, _slice_vjp, (a,), {"index": index})


def _slice_vjp(g, out, inputs, needs, index):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    return (scatter_slice(g, a.shape, index),)


def _scatter_slice_np(
    x: np.ndarray, shape: tuple[int, ...], index, out: np.ndarray | None = None
) -> np.ndarray:
    if out is None:
        out = np.zeros(shape, dtype=x.dtype)
    else:
        out.fill(0)
    out[index] = x
    return out


def scatter_slice(g: Tensor, shape: tuple[int, ...], index) -> Tensor:
    """Place ``g`` into a zero tensor of ``shape`` at ``index``."""
    return apply_op(
        "scatter_slice",
        _scatter_slice_np,
        _scatter_slice_vjp,
        (g,),
        {"shape": tuple(shape), "index": index},
    )


def _scatter_slice_vjp(g, out, inputs, needs, shape, index):
    if not needs[0]:
        return (None,)
    return (slice_(g, index),)


def split(a: Tensor, sections: int, axis: int = 0) -> list[Tensor]:
    """Split into equal sections (composition of ``sections`` slice kernels)."""
    width = a.shape[axis]
    if width % sections != 0:
        raise ValueError(f"cannot split axis of size {width} into {sections} equal parts")
    step = width // sections
    outs = []
    for i in range(sections):
        index = [builtin_slice(None)] * a.ndim
        index[axis] = builtin_slice(i * step, (i + 1) * step)
        outs.append(slice_(a, tuple(index)))
    return outs


def _row_index(idx: np.ndarray, rows: int, op: str) -> np.ndarray:
    """``idx`` as int64, every entry checked to lie in ``[0, rows)``: the
    lookups clip instead of buffering, so a bad index must not reach them."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"{op} index out of range for {rows} rows")
    return idx


def _gather_np(
    x: np.ndarray, idx: np.ndarray, plan=None, out: np.ndarray | None = None
) -> np.ndarray:
    """Forward and compiled kernel of :func:`gather_rows` (``idx`` checked
    before it gets here)."""
    return np.take(x, idx, axis=0, out=out, mode="clip")


def gather_rows(a: Tensor, idx: np.ndarray, plan: np.ndarray | None = None) -> Tensor:
    """Row lookup ``a[idx]`` with an integer index array (axis 0).

    ``plan`` (optional) is ``batch.aux(("segment_plan", field))`` for the
    batch field ``idx`` is: the lookup ignores it, the VJP's
    :func:`segment_sum` reduces by it instead of re-sorting ``idx``.
    An index outside ``[0, len(a))`` raises :class:`IndexError`.
    """
    idx = _row_index(idx, a.shape[0], "gather_rows")
    return apply_op("gather", _gather_np, _gather_vjp, (a,), {"idx": idx, "plan": plan})


def _gather_vjp(g, out, inputs, needs, idx, plan):
    (a,) = inputs
    if not needs[0]:
        return (None,)
    return (segment_sum(g, idx, a.shape[0], plan),)


def _gather_add_np(
    base: np.ndarray, a: np.ndarray, idx: np.ndarray, plan=None, out: np.ndarray | None = None
) -> np.ndarray:
    """Forward and compiled kernel of :func:`gather_add` (``idx`` checked
    before it gets here)."""
    out = np.take(a, idx, axis=0, out=out, mode="clip")
    return np.add(out, base, out=out)


def gather_add(base: Tensor, a: Tensor, idx: np.ndarray, plan: np.ndarray | None = None) -> Tensor:
    """``base + a[idx]`` in one kernel: a row lookup summed onto ``base``.

    The lookup lands in the output, so a sum of several lookups keeps two
    ``base``-sized arrays live, not one per lookup.  ``plan`` is
    :func:`gather_rows`'.
    """
    idx = _row_index(idx, a.shape[0], "gather_add")
    return apply_op("gather_add", _gather_add_np, _gather_add_vjp, (base, a), {"idx": idx, "plan": plan})


def _gather_add_vjp(g, out, inputs, needs, idx, plan):
    _, a = inputs
    return (g if needs[0] else None, segment_sum(g, idx, a.shape[0], plan) if needs[1] else None)


class SegmentPlan(NamedTuple):
    """Everything about a segment-id array that a reduction by it needs."""

    order: np.ndarray | None  # stable sort of the ids; None: already sorted
    starts: np.ndarray  # first sorted position of each non-empty segment
    rows: np.ndarray  # id (= output row) of each non-empty segment


def segment_plan(idx: np.ndarray) -> SegmentPlan:
    """Sort ``idx`` once; every reduction by it is then take + reduceat.

    A batch caches one plan per index field (``GraphBatch.aux(("segment_plan",
    field))``), so the segment sums of a step that share an index array sort
    it once, not once each.
    """
    if idx.size == 0:
        return SegmentPlan(None, idx, idx)
    if np.all(idx[1:] >= idx[:-1]):
        order, sidx = None, idx
    else:
        order = np.argsort(idx, kind="stable")
        sidx = idx[order]
    starts = np.flatnonzero(np.r_[True, sidx[1:] != sidx[:-1]])
    return SegmentPlan(order, starts, sidx[starts])


def sorted_segment_reduce(x: np.ndarray, plan: SegmentPlan, out: np.ndarray) -> np.ndarray:
    """Sum rows of ``x`` into ``out`` following ``plan``; empty segments are 0.

    take + add.reduceat run in C and are far faster than np.add.at for the
    (n_edges, 64) feature blocks of a batch.  The plan's ids are in range
    (checked where the index array enters), so when every segment is
    non-empty ``rows`` is ``arange(len(out))`` and the sums land in ``out``
    directly, with the bits of the scatter.
    """
    order, starts, rows = plan
    if rows.size < out.shape[0]:
        out.fill(0)
    if starts.size:
        # mode="clip": a stable sort's order is in range, and "raise" buffers
        sx = x if order is None else np.take(x, order, axis=0, mode="clip")
        if rows.size == out.shape[0]:
            np.add.reduceat(sx, starts, axis=0, out=out)
        else:
            out[rows] = np.add.reduceat(sx, starts, axis=0)
    return out


def _segment_sum_np(
    x: np.ndarray,
    idx: np.ndarray,
    num_segments: int,
    plan: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Forward and (with ``out``) compiled kernel of ``segment_sum``.

    ``plan`` is the batch's cached 0-d object array holding the
    :class:`SegmentPlan` of ``idx``; without one the plan is built here.
    """
    if out is None:
        out = np.empty((num_segments,) + x.shape[1:], dtype=x.dtype)
    return sorted_segment_reduce(x, segment_plan(idx) if plan is None else plan[()], out)


def segment_sum(
    x: Tensor, idx: np.ndarray, num_segments: int, plan: np.ndarray | None = None
) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``idx``.

    The GNN aggregation kernel: ``out[s] = sum_{i: idx[i]==s} x[i]``.
    ``plan`` (optional) is ``batch.aux(("segment_plan", field))`` for the
    batch field ``idx`` is; it saves re-sorting ``idx`` on every call.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num_segments):
        raise ValueError("segment ids out of range")
    return apply_op(
        "segment_sum",
        _segment_sum_np,
        _segment_sum_vjp,
        (x,),
        {"idx": idx, "num_segments": int(num_segments), "plan": plan},
    )


def _segment_sum_vjp(g, out, inputs, needs, idx, num_segments, plan):
    if not needs[0]:
        return (None,)
    return (gather_rows(g, idx, plan),)


def _getitem(self: Tensor, index):
    """``Tensor.__getitem__``: fancy row indexing dispatches to gather."""
    if isinstance(index, np.ndarray):
        if index.dtype == bool:
            index = np.flatnonzero(index)
        return gather_rows(self, index)
    if isinstance(index, Tensor):
        return gather_rows(self, index.data.astype(np.int64))
    return slice_(self, index)


Tensor.__getitem__ = _getitem
Tensor.transpose = transpose
Tensor.T = property(lambda self: transpose(self))
