"""Forward-value tests for every tensor primitive against NumPy."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import (
    Tensor,
    absolute,
    add,
    arccos,
    broadcast_to,
    clip,
    concat,
    cos,
    div,
    exp,
    gather_rows,
    linear,
    log,
    matmul,
    maximum,
    mean,
    minimum,
    mul,
    neg,
    power,
    reshape,
    scatter_slice,
    segment_sum,
    sigmoid,
    silu,
    sin,
    slice_,
    split,
    sqrt,
    stack,
    sub,
    sum as tsum,
    tanh,
    transpose,
    where,
)
from repro.tensor import ops_math
from repro.tensor.ops_math import _sum_np


@pytest.fixture
def a():
    return Tensor(np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.5]]))


@pytest.fixture
def b():
    return Tensor(np.array([[2.0, 0.5, -1.0], [1.0, -3.0, 2.0]]))


class TestElementwise:
    def test_add(self, a, b):
        assert np.array_equal(add(a, b).data, a.data + b.data)

    def test_add_scalar(self, a):
        assert np.array_equal(add(a, 2.5).data, a.data + 2.5)

    def test_add_broadcast(self, a):
        row = Tensor(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(add(a, row).data, a.data + row.data)

    def test_sub(self, a, b):
        assert np.array_equal(sub(a, b).data, a.data - b.data)

    def test_mul(self, a, b):
        assert np.array_equal(mul(a, b).data, a.data * b.data)

    def test_div(self, a, b):
        assert np.allclose(div(a, b).data, a.data / b.data)

    def test_neg(self, a):
        assert np.array_equal(neg(a).data, -a.data)

    def test_power(self, a):
        assert np.allclose(power(absolute(a), 2.5).data, np.abs(a.data) ** 2.5)

    def test_exp_log_roundtrip(self, a):
        assert np.allclose(log(exp(a)).data, a.data)

    def test_sqrt(self):
        x = Tensor(np.array([4.0, 9.0, 2.25]))
        assert np.allclose(sqrt(x).data, [2.0, 3.0, 1.5])

    def test_trig(self, a):
        assert np.allclose(sin(a).data, np.sin(a.data))
        assert np.allclose(cos(a).data, np.cos(a.data))

    def test_arccos(self):
        x = Tensor(np.array([-0.5, 0.0, 0.9]))
        assert np.allclose(arccos(x).data, np.arccos(x.data))

    def test_tanh(self, a):
        assert np.allclose(tanh(a).data, np.tanh(a.data))

    def test_sigmoid_matches_definition(self, a):
        assert np.allclose(sigmoid(a).data, 1.0 / (1.0 + np.exp(-a.data)))

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor(np.array([-800.0, 800.0]))
        out = sigmoid(x).data
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.0, 1.0])

    def test_silu_equals_x_times_sigmoid(self, a):
        assert np.allclose(silu(a).data, a.data / (1.0 + np.exp(-a.data)))

    def test_abs(self, a):
        assert np.array_equal(absolute(a).data, np.abs(a.data))

    def test_maximum_minimum(self, a, b):
        assert np.array_equal(maximum(a, b).data, np.maximum(a.data, b.data))
        assert np.array_equal(minimum(a, b).data, np.minimum(a.data, b.data))

    def test_clip(self, a):
        assert np.array_equal(clip(a, -1.0, 2.0).data, np.clip(a.data, -1.0, 2.0))

    def test_where(self, a, b):
        cond = a.data > 0
        assert np.array_equal(where(cond, a, b).data, np.where(cond, a.data, b.data))

    def test_operator_overloads(self, a, b):
        assert np.array_equal((a + b).data, a.data + b.data)
        assert np.array_equal((a - b).data, a.data - b.data)
        assert np.array_equal((a * b).data, a.data * b.data)
        assert np.allclose((a / b).data, a.data / b.data)
        assert np.array_equal((-a).data, -a.data)
        assert np.array_equal((2.0 * a).data, 2.0 * a.data)
        assert np.array_equal((1.0 + a).data, 1.0 + a.data)


class TestReductions:
    def test_sum_all(self, a):
        assert np.isclose(tsum(a).item(), a.data.sum())

    def test_sum_axis(self, a):
        assert np.allclose(tsum(a, axis=0).data, a.data.sum(axis=0))
        assert np.allclose(tsum(a, axis=1).data, a.data.sum(axis=1))

    def test_sum_keepdims(self, a):
        out = tsum(a, axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_sum_multi_axis(self):
        x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4))
        assert np.allclose(tsum(x, axis=(0, 2)).data, x.data.sum(axis=(0, 2)))

    def test_mean(self, a):
        assert np.isclose(mean(a).item(), a.data.mean())
        assert np.allclose(mean(a, axis=0).data, a.data.mean(axis=0))


def _special_values(dtype) -> list[float]:
    info = np.finfo(dtype)
    sub = float(info.smallest_subnormal)
    return [0.0, -0.0, np.inf, -np.inf, np.nan, sub, -sub, float(info.smallest_normal) / 4, 1.0, -1.0]


@st.composite
def _reductions(draw):
    """An array, one of its axes and a layout for the short-axis sum."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    width = 32 if dtype is np.float32 else 64
    elements = st.one_of(
        st.sampled_from(_special_values(dtype)),
        st.floats(-(2.0**20), 2.0**20, width=width),
        st.floats(-(2.0**-120), 2.0**-120, width=width),
    )
    x = draw(arrays(dtype, shape, elements=elements))
    layout = draw(st.sampled_from(["C", "F", "reversed"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "reversed":
        x = x[::-1]
    axis = draw(st.integers(-x.ndim, x.ndim - 1))
    return x, draw(st.sampled_from([axis, (axis,)])), draw(st.booleans())


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shape, dtype and bits; NaNs (whose payload may differ) by position."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
class TestShortAxisSum:
    """``sum`` unrolls a short reduced axis and must stay ``np.add.reduce``."""

    @settings(max_examples=300, deadline=None)
    @given(case=_reductions(), use_out=st.booleans(), unroll_all=st.booleans())
    def test_bit_identical_to_add_reduce(self, case, use_out, unroll_all):
        """Into a C-ordered output, as the arena's; an axis short enough to
        unroll gives NumPy's bits whatever the output layout.  ``unroll_all``
        drops the size gate, so every short axis takes the unrolled adds."""
        x, axis, keepdims = case
        free = np.add.reduce(x, axis=axis, keepdims=keepdims)
        want = np.add.reduce(x, axis=axis, keepdims=keepdims, out=np.empty(free.shape, dtype=x.dtype))
        out = np.empty(free.shape, dtype=x.dtype) if use_out else None
        with mock.patch.object(ops_math, "_UNROLL_MIN_LOOPS", 0 if unroll_all else ops_math._UNROLL_MIN_LOOPS):
            got = _sum_np(x, axis=axis, keepdims=keepdims, out=out)
        if use_out:
            assert got is out
        _assert_same_bits(got, want)
        if x.shape[np.atleast_1d(axis)[0]] <= 7:
            _assert_same_bits(got, free)

    @settings(max_examples=100, deadline=None)
    @given(case=_reductions())
    def test_eager_equals_compiled_kernel(self, case):
        x, axis, keepdims = case
        eager = tsum(Tensor(x), axis=axis, keepdims=keepdims).data
        out = np.empty(eager.shape, dtype=eager.dtype)
        assert _sum_np(x, axis=axis, keepdims=keepdims, out=out) is out
        _assert_same_bits(out, eager)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @mock.patch.object(ops_math, "_UNROLL_MIN_LOOPS", 0)
    def test_all_negative_zero_sums_to_positive_zero(self, dtype):
        x = np.full((4, 3, 2), -0.0, dtype=dtype)
        for axis in range(3):
            got = _sum_np(x, axis=axis)
            assert not np.signbit(got).any()
            _assert_same_bits(got, np.add.reduce(x, axis=axis))

    def test_long_axes_and_integers_fall_back(self):
        x = np.arange(2 * 8 * 3, dtype=np.float64).reshape(2, 8, 3)
        _assert_same_bits(_sum_np(x, axis=1), np.add.reduce(x, axis=1))
        flags = np.array([[True, False, True], [True, True, False]])
        assert _sum_np(flags, axis=1).dtype == np.sum(flags, axis=1).dtype
        _assert_same_bits(_sum_np(x, axis=None), np.add.reduce(x, axis=None))


class TestShape:
    def test_reshape(self, a):
        assert reshape(a, (3, 2)).shape == (3, 2)
        assert np.array_equal(reshape(a, (6,)).data, a.data.ravel())

    def test_reshape_minus_one(self, a):
        assert reshape(a, (-1, 2)).shape == (3, 2)

    def test_broadcast_to(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert broadcast_to(x, (3, 2)).shape == (3, 2)

    def test_transpose_default(self, a):
        assert np.array_equal(transpose(a).data, a.data.T)

    def test_transpose_axes(self):
        x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4))
        assert np.array_equal(transpose(x, (2, 0, 1)).data, x.data.transpose(2, 0, 1))

    def test_concat(self, a, b):
        assert np.array_equal(concat([a, b], axis=0).data, np.concatenate([a.data, b.data]))
        assert np.array_equal(
            concat([a, b], axis=1).data, np.concatenate([a.data, b.data], axis=1)
        )

    def test_concat_empty_list_raises(self):
        with pytest.raises(ValueError):
            concat([], axis=0)

    def test_stack(self, a, b):
        assert np.array_equal(stack([a, b], axis=0).data, np.stack([a.data, b.data]))

    def test_slice(self, a):
        assert np.array_equal(slice_(a, (0,)).data, a.data[0])
        assert np.array_equal(a[0:1].data, a.data[0:1])

    def test_split(self, a):
        parts = split(a, 3, axis=1)
        assert len(parts) == 3
        for i, part in enumerate(parts):
            assert np.array_equal(part.data, a.data[:, i : i + 1])

    def test_split_uneven_raises(self, a):
        with pytest.raises(ValueError):
            split(a, 4, axis=1)

    def test_scatter_slice(self):
        g = Tensor(np.array([5.0, 7.0]))
        out = scatter_slice(g, (4,), (slice(1, 3),))
        assert np.array_equal(out.data, [0.0, 5.0, 7.0, 0.0])

    def test_gather_rows(self):
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        idx = np.array([2, 0, 2])
        assert np.array_equal(gather_rows(x, idx).data, x.data[idx])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_gather_rows_rejects_an_index_out_of_range(self, bad):
        """Eager raises where a replay's bind raises: no wrap to the last row."""
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        with pytest.raises(IndexError, match="out of range for 4 rows"):
            gather_rows(x, np.array([0, bad]))

    def test_getitem_fancy(self):
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3))
        assert np.array_equal(x[np.array([1, 3])].data, x.data[[1, 3]])

    def test_getitem_boolean_mask(self):
        x = Tensor(np.arange(4, dtype=float).reshape(4, 1))
        mask = np.array([True, False, True, False])
        assert np.array_equal(x[mask].data, x.data[mask])


class TestSegment:
    def test_segment_sum_basic(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = segment_sum(x, np.array([0, 1, 0, 2]), 3)
        assert np.array_equal(out.data, [[4.0], [2.0], [4.0]])

    def test_segment_sum_1d(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        out = segment_sum(x, np.array([1, 1, 0]), 2)
        assert np.array_equal(out.data, [3.0, 3.0])

    def test_segment_sum_empty_segment(self):
        x = Tensor(np.array([[1.0, 1.0]]))
        out = segment_sum(x, np.array([2]), 4)
        assert np.array_equal(out.data, [[0, 0], [0, 0], [1, 1], [0, 0]])

    def test_segment_sum_empty_input(self):
        x = Tensor(np.zeros((0, 3)))
        out = segment_sum(x, np.zeros(0, dtype=np.int64), 2)
        assert out.shape == (2, 3)
        assert np.all(out.data == 0)

    def test_segment_sum_out_of_range_raises(self):
        x = Tensor(np.ones((2, 1)))
        with pytest.raises(ValueError):
            segment_sum(x, np.array([0, 5]), 3)

    def test_segment_sum_matches_bincount(self, rng):
        x = rng.normal(size=(50, 4))
        ids = rng.integers(0, 7, size=50)
        out = segment_sum(Tensor(x), ids, 7).data
        expected = np.zeros((7, 4))
        np.add.at(expected, ids, x)
        assert np.allclose(out, expected)

    def test_segment_sum_3d_blocks(self, rng):
        x = rng.normal(size=(10, 3, 3))
        ids = rng.integers(0, 4, size=10)
        out = segment_sum(Tensor(x), ids, 4).data
        expected = np.zeros((4, 3, 3))
        np.add.at(expected, ids, x)
        assert np.allclose(out, expected)


class TestLinalg:
    def test_matmul_2d(self, rng):
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
        assert np.allclose(matmul(Tensor(x), Tensor(y)).data, x @ y)

    def test_matmul_batched(self, rng):
        x, y = rng.normal(size=(6, 2, 3)), rng.normal(size=(6, 3, 4))
        assert np.allclose(matmul(Tensor(x), Tensor(y)).data, x @ y)

    def test_matmul_1d_raises(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_linear(self, rng):
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, x @ w + b)

    def test_linear_no_bias(self, rng):
        x, w = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))
        assert np.allclose(linear(Tensor(x), Tensor(w)).data, x @ w)

    def test_matmul_operator(self, rng):
        x, y = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
        assert np.allclose((Tensor(x) @ Tensor(y)).data, x @ y)
