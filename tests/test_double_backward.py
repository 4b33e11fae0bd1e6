"""Second-order gradients through every op class the force path touches.

The reference CHGNet loss contains ``huber(-dE/dx, F_dft)``; its weight
gradient therefore differentiates *through* a gradient.  These tests check
grad-of-grad against finite differences for representative op compositions
covering the whole force code path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    arccos,
    clip,
    concat,
    div,
    exp,
    gather_rows,
    matmul,
    mul,
    power,
    segment_sum,
    sigmoid,
    silu,
    sin,
    sqrt,
    sub,
    sum as tsum,
    tanh,
)
from oracles import check_second_grad


def _w(shape, seed=1):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestElementwiseSecondOrder:
    def test_polynomial(self, rng):
        x = Tensor(rng.uniform(0.5, 1.5, size=(4,)))
        check_second_grad(lambda a: tsum(mul(power(a, 3.0), _w((4,)))), [x])

    def test_exp_product(self, rng):
        x = Tensor(rng.normal(size=(3,)))
        y = Tensor(rng.normal(size=(3,)))
        check_second_grad(lambda a, b: tsum(mul(exp(mul(a, b)), _w((3,)))), [x, y], wrt_first=0)

    def test_division(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=(4,)))
        y = Tensor(rng.uniform(0.5, 2.0, size=(4,)))
        check_second_grad(lambda a, b: tsum(mul(div(a, b), _w((4,)))), [x, y], wrt_first=1)

    def test_sqrt_chain(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=(4,)))
        check_second_grad(lambda a: tsum(mul(sqrt(mul(a, a) + 1.0), _w((4,)))), [x])

    def test_trig_chain(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        check_second_grad(lambda a: tsum(mul(sin(mul(a, 2.0)), _w((4,)))), [x])

    def test_sigmoid(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        check_second_grad(lambda a: tsum(mul(sigmoid(a), _w((4,)))), [x])

    def test_silu(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        check_second_grad(lambda a: tsum(mul(silu(a), _w((4,)))), [x])

    def test_tanh(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        check_second_grad(lambda a: tsum(mul(tanh(a), _w((4,)))), [x])

    def test_arccos_interior(self, rng):
        x = Tensor(rng.uniform(-0.6, 0.6, size=(4,)))
        check_second_grad(lambda a: tsum(mul(arccos(a), _w((4,)))), [x])

    def test_clip_interior(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        check_second_grad(lambda a: tsum(mul(silu(clip(a, -5.0, 5.0)), _w((4,)))), [x])


class TestStructuralSecondOrder:
    def test_matmul(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)))
        check_second_grad(
            lambda a, b: tsum(mul(sin(matmul(a, b)), _w((3, 2)))), [x, w], wrt_first=0
        )

    def test_gather_segment(self, rng):
        idx = np.array([0, 2, 1, 2])
        seg = np.array([1, 0, 1, 0])
        x = Tensor(rng.normal(size=(3, 2)))
        check_second_grad(
            lambda a: tsum(
                mul(segment_sum(sin(gather_rows(a, idx)), seg, 2), _w((2, 2)))
            ),
            [x],
        )

    def test_concat_branches(self, rng):
        x = Tensor(rng.normal(size=(3, 2)))
        y = Tensor(rng.normal(size=(3, 2)))
        check_second_grad(
            lambda a, b: tsum(mul(silu(concat([a, b], axis=1)), _w((3, 4)))),
            [x, y],
            wrt_first=0,
        )


class TestForcePathSecondOrder:
    def test_distance_energy_pattern(self, rng):
        """The exact pattern of the reference model: positions -> distances
        -> basis -> energy; loss on dE/dpos."""
        pos = Tensor(rng.normal(size=(4, 3)) * 2.0)
        ref = Tensor(rng.normal(size=(4, 3)) * 2.0 + 5.0)
        w = _w((4,))

        def energy(p: Tensor) -> Tensor:
            diff = sub(p, ref)
            d = sqrt(tsum(mul(diff, diff), axis=-1))
            return tsum(mul(sin(d), w))

        check_second_grad(lambda p: energy(p), [pos])

    def test_weight_gradient_through_force_error(self, rng):
        """d(loss)/dW where loss = sum((dE/dx)^2) and E = sum(silu(x @ W))."""
        from repro.tensor import backward, grad

        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        e = tsum(silu(matmul(x, w)))
        (fx,) = grad(e, [x], create_graph=True)
        loss = tsum(mul(fx, fx))
        backward(loss)
        analytic = w.grad.data.copy()

        eps = 1e-6
        for i, j in [(0, 0), (2, 1)]:
            def loss_at(delta):
                wv = Tensor(w.data.copy())
                wv.data[i, j] += delta
                wv.requires_grad = True
                xv = Tensor(x.data.copy(), requires_grad=True)
                e2 = tsum(silu(matmul(xv, wv)))
                (fx2,) = grad(e2, [xv], create_graph=True)
                return float(tsum(mul(fx2, fx2)).data)

            num = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
            assert np.isclose(analytic[i, j], num, rtol=1e-4, atol=1e-8)
