"""Module system: registration, state dicts, checkpoints, layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import kernel_stats
from repro.tensor import MLP, LayerNorm, Linear, Module, ModuleList, Parameter, Tensor
from repro.tensor import mul, sum as tsum
from repro.tensor.module import xavier_uniform


class Toy(Module):
    def __init__(self, rng):
        super().__init__()
        self.lin = Linear(3, 2, rng)
        self.scale = Parameter(np.ones(2))

    def forward(self, x):
        return mul(self.lin(x), self.scale)


class TestRegistration:
    def test_parameters_collected(self, rng):
        toy = Toy(rng)
        names = dict(toy.named_parameters())
        assert set(names) == {"scale", "lin.weight", "lin.bias"}

    def test_num_parameters(self, rng):
        toy = Toy(rng)
        assert toy.num_parameters() == 3 * 2 + 2 + 2

    def test_modules_iteration(self, rng):
        toy = Toy(rng)
        mods = list(toy.modules())
        assert toy in mods and toy.lin in mods

    def test_zero_grad(self, rng):
        toy = Toy(rng)
        out = tsum(toy(Tensor(rng.normal(size=(4, 3)))))
        out.backward()
        assert toy.lin.weight.grad is not None
        toy.zero_grad()
        assert all(p.grad is None for p in toy.parameters())


class TestStateDict:
    def test_roundtrip(self, rng):
        a, b = Toy(rng), Toy(np.random.default_rng(1))
        b.load_state_dict(a.state_dict())
        for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_missing_key_raises(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            toy.load_state_dict(state)

    def test_unexpected_key_raises(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["bogus"] = np.ones(1)
        with pytest.raises(KeyError):
            toy.load_state_dict(state)

    def test_shape_mismatch_raises(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["scale"] = np.ones(5)
        with pytest.raises(ValueError):
            toy.load_state_dict(state)

    def test_state_dict_is_copy(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["scale"][0] = 99.0
        assert toy.scale.data[0] == 1.0

    def test_load_writes_into_the_existing_arrays(self, rng):
        a, b = Toy(rng), Toy(np.random.default_rng(1))
        arrays = [p.data for p in b.parameters()]
        state = a.state_dict()
        b.load_state_dict(state)
        assert all(p.data is arr for p, arr in zip(b.parameters(), arrays))
        assert all(np.array_equal(p.data, q.data) for p, q in zip(a.parameters(), b.parameters()))
        # the loaded dict stays the caller's: mutating it does not reach b
        state["scale"][0] = 99.0
        state["lin.weight"][:] = 0.0
        assert b.scale.data[0] == 1.0
        assert np.array_equal(b.lin.weight.data, a.lin.weight.data)

    def test_save_load_npz(self, rng, tmp_path):
        a, b = Toy(rng), Toy(np.random.default_rng(1))
        path = str(tmp_path / "ckpt.npz")
        a.save(path)
        b.load(path)
        assert np.array_equal(a.lin.weight.data, b.lin.weight.data)


class TestLinear:
    def test_shapes(self, rng):
        lin = Linear(5, 3, rng)
        assert lin(Tensor(rng.normal(size=(7, 5)))).shape == (7, 3)

    def test_no_bias(self, rng):
        lin = Linear(5, 3, rng, bias=False)
        assert lin.bias is None
        x = rng.normal(size=(2, 5))
        assert np.allclose(lin(Tensor(x)).data, x @ lin.weight.data)

    def test_fused_equals_reference(self, rng):
        f = Linear(4, 3, rng, fused=True)
        r = Linear(4, 3, np.random.default_rng(1), fused=False)
        r.load_state_dict(f.state_dict())
        x = Tensor(rng.normal(size=(6, 4)))
        assert np.allclose(f(x).data, r(x).data, atol=1e-13)

    def test_fused_fewer_kernels(self, rng):
        f = Linear(4, 3, rng, fused=True)
        r = Linear(4, 3, rng, fused=False)
        x = Tensor(rng.normal(size=(6, 4)))
        with kernel_stats() as kf:
            f(x)
        with kernel_stats() as kr:
            r(x)
        assert kf.count == 1 and kr.count == 2

    def test_xavier_bound(self, rng):
        w = xavier_uniform(rng, 10, 20)
        bound = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(w) <= bound)


class TestLayerNorm:
    def test_fused_equals_reference(self, rng):
        f = LayerNorm(6, fused=True)
        r = LayerNorm(6, fused=False)
        f.gamma.data = rng.normal(size=6)
        f.beta.data = rng.normal(size=6)
        r.load_state_dict(f.state_dict())
        x = Tensor(rng.normal(size=(4, 6)))
        assert np.allclose(f(x).data, r(x).data, atol=1e-12)


class TestContainers:
    def test_module_list(self, rng):
        ml = ModuleList([Linear(2, 2, rng) for _ in range(3)])
        assert len(ml) == 3
        assert len(ml.parameters()) == 6
        assert ml[1] is list(ml)[1]

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestMLP:
    def test_shapes(self, rng):
        mlp = MLP([4, 8, 8, 1], rng)
        assert mlp(Tensor(rng.normal(size=(5, 4)))).shape == (5, 1)

    def test_too_few_dims_raises(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_unknown_activation_raises(self, rng):
        with pytest.raises(ValueError):
            MLP([4, 2], rng, activation="relu6")

    def test_fused_equals_reference(self, rng):
        f = MLP([4, 6, 2], rng, fused=True)
        r = MLP([4, 6, 2], np.random.default_rng(1), fused=False)
        r.load_state_dict(f.state_dict())
        x = Tensor(rng.normal(size=(5, 4)))
        assert np.allclose(f(x).data, r(x).data, atol=1e-12)

    def test_gradient_flows_to_all_layers(self, rng):
        mlp = MLP([3, 4, 1], rng)
        tsum(mlp(Tensor(rng.normal(size=(6, 3))))).backward()
        for p in mlp.parameters():
            assert p.grad is not None
