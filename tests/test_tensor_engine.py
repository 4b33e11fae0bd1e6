"""Engine mechanics: grad modes, backward accumulation, graph lifetime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import device_profile, kernel_stats, memory_stats
from repro.tensor import (
    Tensor,
    backward,
    enable_grad,
    grad,
    is_grad_enabled,
    matmul,
    mul,
    no_grad,
    sin,
    sum as tsum,
)


class TestGradModes:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = mul(x, 2.0)
        assert y.node is None
        assert not y.requires_grad

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_enable_grad_nested(self):
        with no_grad():
            with enable_grad():
                x = Tensor(np.ones(3), requires_grad=True)
                y = mul(x, 2.0)
                assert y.node is not None

    def test_constant_inputs_not_recorded(self):
        y = mul(Tensor(np.ones(3)), Tensor(np.ones(3)))
        assert y.node is None


class TestGrad:
    def test_simple_chain(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = tsum(mul(x, x))
        (g,) = grad(y, [x])
        assert np.allclose(g.data, 2 * x.data)

    def test_grad_of_nonscalar_needs_grad_output(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, 2.0)
        with pytest.raises(RuntimeError):
            grad(y, [x])

    def test_grad_output_supplied(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, x)
        (g,) = grad(y, [x], grad_output=Tensor(np.array([1.0, 2.0, 3.0])))
        assert np.allclose(g.data, 2 * x.data * [1.0, 2.0, 3.0])

    def test_grad_output_shape_mismatch_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, x)
        with pytest.raises(RuntimeError):
            grad(y, [x], grad_output=Tensor(np.ones(4)))

    def test_unused_input_raises_without_allow_unused(self):
        x = Tensor(np.ones(2), requires_grad=True)
        z = Tensor(np.ones(2), requires_grad=True)
        y = tsum(mul(x, x))
        with pytest.raises(RuntimeError):
            grad(y, [x, z])

    def test_unused_input_none_with_allow_unused(self):
        x = Tensor(np.ones(2), requires_grad=True)
        z = Tensor(np.ones(2), requires_grad=True)
        y = tsum(mul(x, x))
        gx, gz = grad(y, [x, z], allow_unused=True)
        assert gz is None and gx is not None

    def test_grad_accumulates_fanout(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = mul(x, x) + mul(x, 2.0)  # x^2 + 2x -> dy/dx = 2x + 2
        (g,) = grad(tsum(y), [x])
        assert np.allclose(g.data, [8.0])

    def test_non_grad_output_raises(self):
        y = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            grad(y, [y])

    def test_retain_graph_allows_second_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = tsum(mul(x, x))
        (g1,) = grad(y, [x], retain_graph=True)
        (g2,) = grad(y, [x])
        assert np.allclose(g1.data, g2.data)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([0.1]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = mul(y, 1.0005)
        (g,) = grad(tsum(y), [x])
        assert np.isfinite(g.data).all()


class TestBackward:
    def test_backward_sets_leaf_grads(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        y = tsum(matmul(x.reshape((1, 2)), w))
        backward(y)
        assert np.allclose(x.grad.data, [3.0, 4.0])
        assert np.allclose(w.grad.data, [[1.0], [2.0]])

    def test_backward_accumulates_across_calls(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        for _ in range(2):
            y = tsum(mul(x, x))
            y.backward()
        assert np.allclose(x.grad.data, [8.0])  # 2 * (2x)

    def test_zero_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        tsum(mul(x, x)).backward()
        x.zero_grad()
        assert x.grad is None

    def test_tensor_backward_method(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        tsum(mul(x, 5.0)).backward()
        assert np.allclose(x.grad.data, [5.0])


class TestDoubleBackward:
    def test_second_derivative_of_cube(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = tsum(mul(mul(x, x), x))  # x^3
        (g1,) = grad(y, [x], create_graph=True)  # 3x^2
        (g2,) = grad(tsum(g1), [x])  # 6x
        assert np.allclose(g2.data, [12.0])

    def test_second_derivative_sin(self):
        x = Tensor(np.array([0.3, -1.2]), requires_grad=True)
        y = tsum(sin(x))
        (g1,) = grad(y, [x], create_graph=True)
        (g2,) = grad(tsum(g1), [x])
        assert np.allclose(g2.data, -np.sin(x.data))

    def test_force_like_loss_structure(self):
        """The reference CHGNet training pattern: loss on an energy gradient."""
        w = Tensor(np.array([[0.5, -0.3], [0.2, 0.8]]), requires_grad=True)
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        e = tsum(sin(matmul(x, w)))
        (fx,) = grad(e, [x], create_graph=True)
        loss = tsum(mul(fx, fx))
        backward(loss)
        assert w.grad is not None
        assert np.all(np.isfinite(w.grad.data))
        # numeric check of dLoss/dW[0,0]
        eps = 1e-6

        def loss_at(w_val: np.ndarray) -> float:
            wv = Tensor(w_val, requires_grad=True)
            xv = Tensor(x.data.copy(), requires_grad=True)
            e2 = tsum(sin(matmul(xv, wv)))
            (fx2,) = grad(e2, [xv], create_graph=True)
            return float(tsum(mul(fx2, fx2)).data)

        wp = w.data.copy()
        wp[0, 0] += eps
        wm = w.data.copy()
        wm[0, 0] -= eps
        num = (loss_at(wp) - loss_at(wm)) / (2 * eps)
        assert np.isclose(w.grad.data[0, 0], num, rtol=1e-5, atol=1e-8)


class TestGraphLifetime:
    def test_memory_freed_after_backward(self):
        with memory_stats() as ms:
            x = Tensor(np.ones(1000), requires_grad=True)
            y = tsum(mul(mul(x, x), 2.0))
            assert ms.current_bytes > 0
            backward(y)
            del y
        assert ms.current_bytes == 0

    def test_memory_freed_when_graph_abandoned(self):
        import gc

        with memory_stats() as ms:
            x = Tensor(np.ones(1000), requires_grad=True)
            y = tsum(mul(x, x))
            assert ms.current_bytes > 0
            del y
            gc.collect()
            assert ms.current_bytes == 0

    def test_kernels_counted_forward_and_backward(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with kernel_stats() as ks:
            y = tsum(mul(x, x))
            backward(y)
        assert ks.count >= 3  # mul + sum forward, plus backward kernels
        assert "mul" in ks.by_name

    def test_device_profile_combines(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with device_profile() as prof:
            backward(tsum(mul(x, x)))
        assert prof.kernels.count > 0
        assert prof.wall_time > 0
        assert prof.memory.total_allocated > 0


class TestTensorBasics:
    def test_int_data_upcast_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_item_scalar(self):
        assert Tensor(np.array(5.0)).item() == 5.0

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = mul(x, 2.0).detach()
        assert y.node is None and not y.requires_grad

    def test_copy_independent(self):
        x = Tensor(np.ones(2))
        y = x.copy()
        y.data[0] = 5.0
        assert x.data[0] == 1.0

    def test_repr(self):
        assert "requires_grad" in repr(Tensor(np.ones(2), requires_grad=True))

    def test_len(self):
        assert len(Tensor(np.ones((4, 2)))) == 4
