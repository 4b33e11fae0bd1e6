"""First-order gradient checks: every primitive against central differences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    Tensor,
    absolute,
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
    segment_sum,
    sigmoid,
    silu,
    sin,
    slice_,
    sqrt,
    stack,
    sub,
    sum as tsum,
    tanh,
    transpose,
    where,
)
from oracles import check_grad


def _w(shape, seed=42):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestElementwiseGrads:
    def test_add(self, rng):
        w = _w((3, 4))
        check_grad(
            lambda a, b: tsum(mul(a + b, w)),
            [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))],
        )

    def test_add_broadcast(self, rng):
        w = _w((3, 4))
        check_grad(
            lambda a, b: tsum(mul(a + b, w)),
            [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4,)))],
        )

    def test_sub_broadcast_scalar(self, rng):
        w = _w((2, 3))
        check_grad(
            lambda a, b: tsum(mul(sub(a, b), w)),
            [Tensor(rng.normal(size=(2, 3))), Tensor(np.array(0.7))],
        )

    def test_mul(self, rng):
        w = _w((3, 4))
        check_grad(
            lambda a, b: tsum(mul(mul(a, b), w)),
            [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))],
        )

    def test_div(self, rng):
        w = _w((3, 3))
        check_grad(
            lambda a, b: tsum(mul(div(a, b), w)),
            [Tensor(rng.normal(size=(3, 3))), Tensor(rng.uniform(0.5, 2.0, size=(3, 3)))],
        )

    def test_div_broadcast_denominator(self, rng):
        w = _w((3, 3))
        check_grad(
            lambda a, b: tsum(mul(div(a, b), w)),
            [Tensor(rng.normal(size=(3, 3))), Tensor(rng.uniform(0.5, 2.0, size=(3,)))],
        )

    def test_neg(self, rng):
        check_grad(lambda a: tsum(mul(neg(a), _w((4,)))), [Tensor(rng.normal(size=(4,)))])

    def test_power(self, rng):
        check_grad(
            lambda a: tsum(mul(power(a, 3.0), _w((4,)))),
            [Tensor(rng.uniform(0.5, 2.0, size=(4,)))],
        )

    def test_power_p2_fast_path(self, rng):
        check_grad(lambda a: tsum(power(a, 2.0)), [Tensor(rng.normal(size=(4,)))])

    def test_exp(self, rng):
        check_grad(lambda a: tsum(mul(exp(a), _w((4,)))), [Tensor(rng.normal(size=(4,)))])

    def test_log(self, rng):
        check_grad(
            lambda a: tsum(mul(log(a), _w((4,)))), [Tensor(rng.uniform(0.5, 3.0, size=(4,)))]
        )

    def test_sqrt(self, rng):
        check_grad(
            lambda a: tsum(mul(sqrt(a), _w((4,)))), [Tensor(rng.uniform(0.5, 3.0, size=(4,)))]
        )

    def test_sin_cos(self, rng):
        x = Tensor(rng.normal(size=(5,)))
        check_grad(lambda a: tsum(mul(sin(a), _w((5,)))), [x])
        check_grad(lambda a: tsum(mul(cos(a), _w((5,)))), [x])

    def test_arccos(self, rng):
        check_grad(
            lambda a: tsum(mul(arccos(a), _w((4,)))),
            [Tensor(rng.uniform(-0.8, 0.8, size=(4,)))],
        )

    def test_tanh(self, rng):
        check_grad(lambda a: tsum(mul(tanh(a), _w((4,)))), [Tensor(rng.normal(size=(4,)))])

    def test_sigmoid(self, rng):
        check_grad(lambda a: tsum(mul(sigmoid(a), _w((4,)))), [Tensor(rng.normal(size=(4,)))])

    def test_silu(self, rng):
        check_grad(lambda a: tsum(mul(silu(a), _w((4,)))), [Tensor(rng.normal(size=(4,)))])

    def test_abs_away_from_zero(self, rng):
        x = rng.normal(size=(4,))
        x[np.abs(x) < 0.2] = 0.5
        check_grad(lambda a: tsum(mul(absolute(a), _w((4,)))), [Tensor(x)])

    def test_maximum(self, rng):
        a = Tensor(rng.normal(size=(5,)))
        b = Tensor(rng.normal(size=(5,)) + 0.05)
        check_grad(lambda x, y: tsum(mul(maximum(x, y), _w((5,)))), [a, b])

    def test_minimum(self, rng):
        a = Tensor(rng.normal(size=(5,)))
        b = Tensor(rng.normal(size=(5,)) + 0.05)
        check_grad(lambda x, y: tsum(mul(minimum(x, y), _w((5,)))), [a, b])

    def test_clip_interior(self, rng):
        check_grad(
            lambda a: tsum(mul(clip(a, -10.0, 10.0), _w((4,)))),
            [Tensor(rng.normal(size=(4,)))],
        )

    def test_clip_zero_grad_outside(self):
        x = Tensor(np.array([5.0, -5.0]), requires_grad=True)
        out = tsum(clip(x, -1.0, 1.0))
        from repro.tensor import grad

        (g,) = grad(out, [x])
        assert np.array_equal(g.data, [0.0, 0.0])

    def test_where(self, rng):
        cond = rng.normal(size=(4,)) > 0
        check_grad(
            lambda a, b: tsum(mul(where(cond, a, b), _w((4,)))),
            [Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(4,)))],
        )


class TestReductionGrads:
    def test_sum_all(self, rng):
        check_grad(lambda a: tsum(a), [Tensor(rng.normal(size=(3, 4)))])

    def test_sum_axis0(self, rng):
        check_grad(
            lambda a: tsum(mul(tsum(a, axis=0), _w((4,)))),
            [Tensor(rng.normal(size=(3, 4)))],
        )

    def test_sum_keepdims(self, rng):
        check_grad(
            lambda a: tsum(mul(tsum(a, axis=1, keepdims=True), _w((3, 1)))),
            [Tensor(rng.normal(size=(3, 4)))],
        )

    def test_mean(self, rng):
        check_grad(
            lambda a: tsum(mul(mean(a, axis=1), _w((3,)))),
            [Tensor(rng.normal(size=(3, 4)))],
        )

    def test_broadcast_to(self, rng):
        check_grad(
            lambda a: tsum(mul(broadcast_to(a, (3, 4)), _w((3, 4)))),
            [Tensor(rng.normal(size=(4,)))],
        )


class TestShapeGrads:
    def test_reshape(self, rng):
        check_grad(
            lambda a: tsum(mul(reshape(a, (6,)), _w((6,)))),
            [Tensor(rng.normal(size=(2, 3)))],
        )

    def test_transpose(self, rng):
        check_grad(
            lambda a: tsum(mul(transpose(a), _w((3, 2)))),
            [Tensor(rng.normal(size=(2, 3)))],
        )

    def test_concat(self, rng):
        check_grad(
            lambda a, b: tsum(mul(concat([a, b], axis=0), _w((5, 2)))),
            [Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(3, 2)))],
        )

    def test_stack(self, rng):
        check_grad(
            lambda a, b: tsum(mul(stack([a, b], axis=0), _w((2, 3)))),
            [Tensor(rng.normal(size=(3,))), Tensor(rng.normal(size=(3,)))],
        )

    def test_slice(self, rng):
        check_grad(
            lambda a: tsum(mul(slice_(a, (slice(1, 3),)), _w((2, 3)))),
            [Tensor(rng.normal(size=(4, 3)))],
        )

    def test_gather_rows(self, rng):
        idx = np.array([0, 2, 2, 1])
        check_grad(
            lambda a: tsum(mul(gather_rows(a, idx), _w((4, 2)))),
            [Tensor(rng.normal(size=(3, 2)))],
        )

    def test_segment_sum(self, rng):
        ids = np.array([0, 1, 0, 2, 1])
        check_grad(
            lambda a: tsum(mul(segment_sum(a, ids, 3), _w((3, 2)))),
            [Tensor(rng.normal(size=(5, 2)))],
        )

    def test_gather_then_segment_roundtrip_grad(self, rng):
        idx = np.array([1, 0, 1, 2])
        check_grad(
            lambda a: tsum(mul(segment_sum(gather_rows(a, idx), idx, 3), _w((3, 2)))),
            [Tensor(rng.normal(size=(3, 2)))],
        )


class TestLinalgGrads:
    def test_matmul(self, rng):
        check_grad(
            lambda a, b: tsum(mul(matmul(a, b), _w((3, 2)))),
            [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))],
        )

    def test_matmul_batched(self, rng):
        check_grad(
            lambda a, b: tsum(mul(matmul(a, b), _w((2, 3, 2)))),
            [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 4, 2)))],
        )

    def test_matmul_broadcast_batch(self, rng):
        check_grad(
            lambda a, b: tsum(mul(matmul(a, b), _w((2, 3, 2)))),
            [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 2)))],
        )

    def test_linear(self, rng):
        check_grad(
            lambda x, w, b: tsum(mul(linear(x, w, b), _w((5, 2)))),
            [
                Tensor(rng.normal(size=(5, 3))),
                Tensor(rng.normal(size=(3, 2))),
                Tensor(rng.normal(size=(2,))),
            ],
        )

    def test_linear_3d_input(self, rng):
        check_grad(
            lambda x, w, b: tsum(mul(linear(x, w, b), _w((2, 3, 2)))),
            [
                Tensor(rng.normal(size=(2, 3, 4))),
                Tensor(rng.normal(size=(4, 2))),
                Tensor(rng.normal(size=(2,))),
            ],
        )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_mul_chain_grad(n, m, seed):
    """Random mul/add/sin chains have correct gradients at any shape."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(n, m)))
    check_grad(
        lambda a, b: tsum(mul(sin(mul(a, b)) + a, w)),
        [Tensor(rng.normal(size=(n, m))), Tensor(rng.normal(size=(m,)))],
    )


@settings(max_examples=15, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=8),
    segs=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_segment_sum_grad(rows, segs, seed):
    """segment_sum gradients hold for arbitrary id patterns."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, segs, size=rows)
    w = Tensor(rng.normal(size=(segs, 2)))
    check_grad(
        lambda a: tsum(mul(segment_sum(a, ids, segs), w)),
        [Tensor(rng.normal(size=(rows, 2)))],
    )
