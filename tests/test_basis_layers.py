"""Basis modules and GatedMLP packing: reference == fused everywhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.basis import FourierExpansion, RadialBessel, make_bases
from repro.model.config import CHGNetConfig, OptLevel
from repro.model.layers import GatedMLP, packed_gated_forward, packed_linear_forward
from repro.runtime import kernel_stats
from repro.tensor import Tensor
from repro.tensor.module import Linear


class TestRadialBessel:
    def test_fused_equals_reference(self, rng):
        ref = RadialBessel(7, 6.0, 8.0, fused=False)
        fus = RadialBessel(7, 6.0, 8.0, fused=True)
        fus.load_state_dict(ref.state_dict())
        r = Tensor(rng.uniform(0.8, 5.8, size=(20,)))
        assert np.allclose(ref(r).data, fus(r).data, atol=1e-12)

    def test_output_shape(self, rng):
        rb = RadialBessel(31, 6.0, 8.0, fused=True)
        assert rb(Tensor(rng.uniform(1, 5, size=(9,)))).shape == (9, 31)

    def test_frequencies_trainable(self):
        rb = RadialBessel(5, 6.0, 8.0, fused=True)
        assert any(p is rb.freqs for p in rb.parameters())
        assert np.allclose(rb.freqs.data, np.arange(1, 6) * np.pi / 6.0)

    def test_vanishes_at_cutoff(self):
        rb = RadialBessel(5, 6.0, 8.0, fused=True)
        out = rb(Tensor(np.array([5.999999])))
        assert np.allclose(out.data, 0.0, atol=1e-8)

    def test_fused_fewer_kernels(self, rng):
        ref = RadialBessel(7, 6.0, 8.0, fused=False)
        fus = RadialBessel(7, 6.0, 8.0, fused=True)
        r = Tensor(rng.uniform(1, 5, size=(9,)))
        with kernel_stats() as kr:
            ref(r)
        with kernel_stats() as kf:
            fus(r)
        assert kf.count == 1
        assert kr.count >= 10

    def test_gradient_flows_to_frequencies(self, rng):
        from repro.tensor import sum as tsum

        rb = RadialBessel(5, 6.0, 8.0, fused=True)
        tsum(rb(Tensor(rng.uniform(1, 5, size=(6,))))).backward()
        assert rb.freqs.grad is not None


class TestFourierExpansion:
    def test_fused_equals_reference(self, rng):
        theta = Tensor(rng.uniform(0.1, 3.0, size=(15,)))
        assert np.allclose(
            FourierExpansion(5, fused=False)(theta).data,
            FourierExpansion(5, fused=True)(theta).data,
            atol=1e-12,
        )

    def test_width_is_2n_plus_1(self, rng):
        theta = Tensor(rng.uniform(0.1, 3.0, size=(4,)))
        assert FourierExpansion(15, fused=True)(theta).shape == (4, 31)

    def test_make_bases_respects_config(self):
        cfg = CHGNetConfig(num_radial=9, angular_order=4, opt_level=OptLevel.FUSED)
        rbf_a, rbf_b, fourier = make_bases(cfg)
        assert rbf_a.rcut == cfg.cutoff_atom
        assert rbf_b.rcut == cfg.cutoff_bond
        assert rbf_a.fused and fourier.fused
        cfg0 = cfg.with_level(OptLevel.BASELINE)
        rbf_a0, _, _ = make_bases(cfg0)
        assert not rbf_a0.fused


class TestGatedMLP:
    def test_fused_equals_reference(self, rng):
        ref = GatedMLP(10, 6, rng, fused=False)
        fus = GatedMLP(10, 6, np.random.default_rng(1), fused=True)
        fus.load_state_dict(ref.state_dict())
        x = Tensor(rng.normal(size=(8, 10)))
        assert np.allclose(ref(x).data, fus(x).data, atol=1e-12)

    def test_state_dict_identical_across_modes(self, rng):
        """Packing at run time keeps the parameter layout identical."""
        ref = GatedMLP(4, 3, rng, fused=False)
        fus = GatedMLP(4, 3, rng, fused=True)
        assert set(ref.state_dict()) == set(fus.state_dict())

    def test_fused_fewer_kernels(self, rng):
        ref = GatedMLP(10, 6, rng, fused=False)
        fus = GatedMLP(10, 6, rng, fused=True)
        x = Tensor(rng.normal(size=(8, 10)))
        with kernel_stats() as kr:
            ref(x)
        with kernel_stats() as kf:
            fus(x)
        assert kf.count < kr.count / 1.5

    def test_gradients_match_reference(self, rng):
        ref = GatedMLP(6, 4, rng, fused=False)
        fus = GatedMLP(6, 4, np.random.default_rng(1), fused=True)
        fus.load_state_dict(ref.state_dict())
        from repro.tensor import sum as tsum

        x = rng.normal(size=(5, 6))
        tsum(ref(Tensor(x))).backward()
        tsum(fus(Tensor(x))).backward()
        for (name, p_ref), (_, p_fus) in zip(ref.named_parameters(), fus.named_parameters()):
            assert np.allclose(p_ref.grad.data, p_fus.grad.data, atol=1e-10), name


class TestPacking:
    def test_packed_multihead_matches_individual(self, rng):
        g1 = GatedMLP(8, 4, rng, fused=False)
        g2 = GatedMLP(8, 4, np.random.default_rng(1), fused=False)
        x = Tensor(rng.normal(size=(6, 8)))
        o1, o2 = packed_gated_forward(x, [g1, g2])
        assert np.allclose(o1.data, g1(x).data, atol=1e-12)
        assert np.allclose(o2.data, g2(x).data, atol=1e-12)

    def test_packed_single_gemm(self, rng):
        gmlps = [GatedMLP(8, 4, np.random.default_rng(i), fused=False) for i in range(3)]
        x = Tensor(rng.normal(size=(6, 8)))
        with kernel_stats() as ks:
            packed_gated_forward(x, gmlps)
        assert ks.by_name.get("linear", 0) == 1
        assert ks.by_name.get("fused_layernorm", 0) == 1
        assert ks.by_name.get("fused_gate", 0) == 1  # the one shared sigmoid lives in it
        assert "sigmoid" not in ks.by_name and "mul" not in ks.by_name

    def test_packed_empty_raises(self, rng):
        with pytest.raises(ValueError):
            packed_gated_forward(Tensor(rng.normal(size=(2, 4))), [])

    def test_packed_dim_mismatch_raises(self, rng):
        g1 = GatedMLP(8, 4, rng, fused=False)
        g2 = GatedMLP(8, 5, rng, fused=False)
        with pytest.raises(ValueError):
            packed_gated_forward(Tensor(rng.normal(size=(2, 8))), [g1, g2])

    def test_packed_linear_matches_individual(self, rng):
        lins = [Linear(7, d, np.random.default_rng(i)) for i, d in enumerate((3, 4, 5))]
        x = Tensor(rng.normal(size=(6, 7)))
        outs = packed_linear_forward(x, lins)
        for lin, out in zip(lins, outs):
            assert np.allclose(out.data, lin(x).data, atol=1e-12)

    def test_packed_linear_single_gemm(self, rng):
        lins = [Linear(7, 3, np.random.default_rng(i)) for i in range(3)]
        x = Tensor(rng.normal(size=(6, 7)))
        with kernel_stats() as ks:
            packed_linear_forward(x, lins)
        assert ks.by_name.get("linear", 0) == 1

    def test_packed_linear_empty_raises(self, rng):
        with pytest.raises(ValueError):
            packed_linear_forward(Tensor(rng.normal(size=(2, 4))), [])
