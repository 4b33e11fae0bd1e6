"""Fused kernels: numerical equivalence to reference compositions + grads.

The correctness contract of FastCHGNet's "kernel fusion + redundancy
bypass": every fused kernel computes exactly what the reference composition
computes, in one launch, with exact first- and second-order gradients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.basis import envelope_reference
from repro.runtime import kernel_stats
from repro.tensor import (
    Tensor,
    ThirdOrderUnsupported,
    fused_envelope,
    fused_fourier,
    fused_gate,
    fused_layernorm,
    fused_rmsnorm,
    fused_scale_shift,
    fused_srbf,
    gather_add,
    gather_rows,
    grad,
    mul,
    ops_fused,
    sigmoid,
    slice_,
    stack,
    sum as tsum,
)
from repro.tensor.functional import layernorm_reference, silu_reference
from repro.tensor.ops_fused import center, fused_pack_gated
from repro.tensor.ops_math import add, div, mean, sqrt
from oracles import check_grad, check_second_grad, pad_to_bucket
from repro.tensor.ops_fused import _block_rows, _envelope_coeffs
from repro.tensor.ops_shape import segment_plan
from test_arena import _poison_before_every_replay


class TestEnvelope:
    def test_matches_reference(self, rng):
        xi = Tensor(rng.uniform(0.05, 0.99, size=(40,)))
        assert np.allclose(fused_envelope(xi, 8.0).data, envelope_reference(xi, 8.0).data)

    def test_u_at_zero_is_one(self):
        assert np.isclose(fused_envelope(Tensor(np.zeros(1)), 8.0).data[0], 1.0)

    def test_u_at_cutoff_is_zero(self):
        """Eq. 12 as printed does NOT vanish at the cutoff; the corrected
        DimeNet coefficients (used here) do."""
        assert np.isclose(fused_envelope(Tensor(np.ones(1)), 8.0).data[0], 0.0, atol=1e-12)

    def test_derivative_at_cutoff_is_zero(self):
        """Smoothness: u'(1) = 0 for the DimeNet envelope."""
        from repro.tensor import grad

        xi = Tensor(np.array([1.0]), requires_grad=True)
        (g,) = grad(tsum(fused_envelope(xi, 8.0)), [xi])
        assert np.isclose(g.data[0], 0.0, atol=1e-10)

    def test_monotone_decreasing(self, rng):
        xi = np.sort(rng.uniform(0.0, 1.0, size=50))
        u = fused_envelope(Tensor(xi), 8.0).data
        assert np.all(np.diff(u) <= 1e-12)

    def test_one_kernel(self):
        xi = Tensor(np.linspace(0.1, 0.9, 10))
        with kernel_stats() as ks:
            fused_envelope(xi, 8.0)
        assert ks.count == 1

    def test_reference_uses_many_kernels(self):
        xi = Tensor(np.linspace(0.1, 0.9, 10))
        with kernel_stats() as ks:
            envelope_reference(xi, 8.0)
        assert ks.count > 5

    def test_gradcheck(self, rng):
        xi = Tensor(rng.uniform(0.1, 0.9, size=(6,)))
        w = Tensor(rng.normal(size=(6,)))
        check_grad(lambda x: tsum(mul(fused_envelope(x, 8.0), w)), [xi])

    def test_coefficients_consistency(self):
        a, b, c = _envelope_coeffs(8.0)
        # u(1) = 1 - a + b - c must be zero
        assert np.isclose(1.0 - a + b - c, 0.0)


class TestFusedSRBF:
    def _inputs(self, rng, n=7, k=5, rcut=6.0):
        r = Tensor(rng.uniform(0.8, rcut * 0.95, size=(n,)))
        freqs = Tensor(np.arange(1, k + 1) * np.pi / rcut)
        return r, freqs

    def test_matches_composition(self, rng):
        from repro.model.basis import RadialBessel

        r, freqs = self._inputs(rng)
        fused = fused_srbf(r, freqs, 6.0, 8.0)
        ref_mod = RadialBessel(5, 6.0, 8.0, fused=False)
        ref_mod.freqs.data = freqs.data.copy()
        assert np.allclose(fused.data, ref_mod(r).data, atol=1e-12)

    def test_single_kernel(self, rng):
        r, freqs = self._inputs(rng)
        with kernel_stats() as ks:
            fused_srbf(r, freqs, 6.0, 8.0)
        assert ks.count == 1

    def test_vanishes_at_cutoff(self):
        r = Tensor(np.array([6.0 - 1e-12]))
        freqs = Tensor(np.arange(1, 4) * np.pi / 6.0)
        assert np.allclose(fused_srbf(r, freqs, 6.0, 8.0).data, 0.0, atol=1e-9)

    def test_gradcheck_first_order(self, rng):
        r, freqs = self._inputs(rng)
        w = Tensor(rng.normal(size=(7, 5)))
        check_grad(lambda rr, ff: tsum(mul(fused_srbf(rr, ff, 6.0, 8.0), w)), [r, freqs])

    def test_gradcheck_second_order(self, rng):
        r, freqs = self._inputs(rng, n=4, k=3)
        w = Tensor(rng.normal(size=(4, 3)))
        check_second_grad(
            lambda rr, ff: tsum(mul(fused_srbf(rr, ff, 6.0, 8.0), w)), [r, freqs], wrt_first=0
        )


class TestFusedFourier:
    def test_matches_composition(self, rng):
        from repro.model.basis import FourierExpansion

        theta = Tensor(rng.uniform(0.1, 3.0, size=(9,)))
        fused = fused_fourier(theta, 4)
        ref = FourierExpansion(4, fused=False)(theta)
        assert np.allclose(fused.data, ref.data, atol=1e-12)

    def test_width(self, rng):
        theta = Tensor(rng.uniform(0.1, 3.0, size=(9,)))
        assert fused_fourier(theta, 15).shape == (9, 31)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 15])
    def test_recurrence_within_1e13_of_definition(self, rng, order):
        """The Chebyshev recurrence against sin/cos of n * theta on [0, pi],
        endpoints included, over more rows than one block."""
        theta = np.concatenate([np.linspace(0.0, np.pi, 4001), rng.uniform(0.0, np.pi, 2000)])
        n = np.arange(1, order + 1)
        want = np.hstack(
            [
                np.full((len(theta), 1), 1.0 / np.sqrt(2.0 * np.pi)),
                np.cos(np.outer(theta, n)) / np.sqrt(np.pi),
                np.sin(np.outer(theta, n)) / np.sqrt(np.pi),
            ]
        )
        got = fused_fourier(Tensor(theta), order).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-13

    def test_rows_do_not_depend_on_the_batch(self, rng):
        """A row's bits depend on its own angle only, so a padded batch
        serves what a solo structure computes."""
        theta = rng.uniform(0.0, np.pi, size=3000)  # several row blocks at order 15
        full = fused_fourier(Tensor(theta), 15).data
        for lo, hi in [(0, 1), (5, 9), (1000, 2999)]:
            assert np.array_equal(fused_fourier(Tensor(theta[lo:hi]), 15).data, full[lo:hi])

    def test_single_kernel(self, rng):
        theta = Tensor(rng.uniform(0.1, 3.0, size=(9,)))
        with kernel_stats() as ks:
            fused_fourier(theta, 4)
        assert ks.count == 1

    def test_gradcheck(self, rng):
        theta = Tensor(rng.uniform(0.2, 2.9, size=(5,)))
        w = Tensor(rng.normal(size=(5, 9)))
        check_grad(lambda t: tsum(mul(fused_fourier(t, 4), w)), [theta])

    def test_second_order(self, rng):
        theta = Tensor(rng.uniform(0.2, 2.9, size=(4,)))
        w = Tensor(rng.normal(size=(4, 7)))
        check_second_grad(lambda t: tsum(mul(fused_fourier(t, 3), w)), [theta])


class TestFusedLayerNorm:
    def test_matches_reference(self, rng):
        x = Tensor(rng.normal(size=(6, 8)))
        gamma = Tensor(rng.normal(size=(8,)))
        beta = Tensor(rng.normal(size=(8,)))
        assert np.allclose(
            fused_layernorm(x, gamma, beta).data,
            layernorm_reference(x, gamma, beta).data,
            atol=1e-12,
        )

    def test_normalizes(self, rng):
        x = Tensor(rng.normal(size=(5, 16)) * 10 + 3)
        out = fused_layernorm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_two_kernels_vs_reference_many(self, rng):
        """Centering, then the scale-only norm."""
        x = Tensor(rng.normal(size=(5, 8)))
        gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
        with kernel_stats() as fused_ks:
            fused_layernorm(x, gamma, beta)
        with kernel_stats() as ref_ks:
            layernorm_reference(x, gamma, beta)
        assert fused_ks.by_name == {"center": 1, "fused_rmsnorm": 1}
        assert ref_ks.count >= 7

    def test_centering_folds_into_the_weights(self, rng):
        """``LN(x W + b) = RMSNorm(x W_c + b_c)`` with ``W_c = W (I - 11^T / D)``:
        the mean a LayerNorm subtracts from a linear output is a linear map
        of the weights, so centering them once leaves the scale."""
        x = Tensor(rng.normal(size=(7, 5)))
        w, b = Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(6,)))
        gamma, beta = Tensor(rng.normal(size=(6,))), Tensor(rng.normal(size=(6,)))
        want = layernorm_reference(add(x @ w, b), gamma, beta).data
        wc = center(w).data
        assert np.allclose(wc, w.data @ (np.eye(6) - np.ones((6, 6)) / 6), atol=1e-15)
        got = fused_rmsnorm(add(x @ center(w), center(b)), gamma, beta).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_packed_parameters_to_second_order(self, rng):
        """``fused_pack_gated``: stacked branches, ``w`` and ``b`` centered,
        and cotangents that carry the centering through both orders."""
        params = [
            [Tensor(rng.normal(size=(5, 4))) for _ in range(2)],
            [Tensor(rng.normal(size=(4,))) for _ in range(2)],
            [Tensor(rng.normal(size=(4,))) for _ in range(2)],
            [Tensor(rng.normal(size=(4,))) for _ in range(2)],
        ]
        w, b, gamma, beta = fused_pack_gated(*params)
        assert w.shape == (5, 2, 4) and b.shape == gamma.shape == beta.shape == (2, 4)
        for k in range(2):
            assert np.allclose(w.data[:, k], center(params[0][k]).data, atol=1e-15)
            assert np.array_equal(gamma.data[k], params[2][k].data)
        flat = [t for group in params for t in group]
        ws = [Tensor(rng.normal(size=t.shape)) for t in (w, b, gamma, beta)]

        def f(*ts):
            packed = fused_pack_gated(ts[0:2], ts[2:4], ts[4:6], ts[6:8])
            return sum(tsum(mul(mul(p, p), c)) for p, c in zip(packed, ws))

        check_grad(f, flat)
        check_second_grad(f, flat)

    def test_center_is_its_own_adjoint(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 6)))
        w = Tensor(rng.normal(size=(4, 3, 6)))
        check_grad(lambda a: tsum(mul(mul(center(a), center(a)), w)), [x])
        check_second_grad(lambda a: tsum(mul(mul(center(a), center(a)), w)), [x])

    def test_multihead_gamma(self, rng):
        """The packed GatedMLP normalizes (n, heads, d) with (heads, d) params."""
        x = Tensor(rng.normal(size=(5, 3, 8)))
        gamma = Tensor(rng.normal(size=(3, 8)))
        beta = Tensor(rng.normal(size=(3, 8)))
        out = fused_layernorm(x, gamma, beta)
        for h in range(3):
            ref = layernorm_reference(
                Tensor(x.data[:, h]), Tensor(gamma.data[h]), Tensor(beta.data[h])
            )
            assert np.allclose(out.data[:, h], ref.data, atol=1e-12)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        gamma = Tensor(rng.normal(size=(6,)))
        beta = Tensor(rng.normal(size=(6,)))
        w = Tensor(rng.normal(size=(4, 6)))
        check_grad(lambda a, g, b: tsum(mul(fused_layernorm(a, g, b), w)), [x, gamma, beta])

    def test_gradcheck_multihead(self, rng):
        x = Tensor(rng.normal(size=(3, 2, 5)))
        gamma = Tensor(rng.normal(size=(2, 5)))
        beta = Tensor(rng.normal(size=(2, 5)))
        w = Tensor(rng.normal(size=(3, 2, 5)))
        check_grad(lambda a, g, b: tsum(mul(fused_layernorm(a, g, b), w)), [x, gamma, beta])

    def test_second_order(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        gamma = Tensor(rng.normal(size=(4,)))
        beta = Tensor(rng.normal(size=(4,)))
        w = Tensor(rng.normal(size=(3, 4)))
        check_second_grad(
            lambda a, g, b: tsum(mul(fused_layernorm(a, g, b), w)), [x, gamma, beta]
        )


def gate_reference(z: Tensor) -> Tensor:
    """The gate tail composed from base primitives, head-major like ``fused_gate``."""
    heads = []
    for h in range(z.shape[1] // 2):
        core = slice_(z, (slice(None), 2 * h))
        gate = slice_(z, (slice(None), 2 * h + 1))
        heads.append(mul(silu_reference(core), sigmoid(gate)))
    return stack(heads, axis=0)


def _around(block: int, i: int) -> int:
    """The i-th of the six row counts on and around a row block."""
    return [0, 1, block - 1, block, block + 1, 3 * block + 7][i]


def rmsnorm_reference(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """The scale-only norm composed from base primitives."""
    return add(mul(gamma, div(x, sqrt(add(mean(mul(x, x), axis=-1, keepdims=True), eps)))), beta)


def _rmsnorm_case(n, b, d, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, b, d)))
    gamma = Tensor(rng.normal(size=(b, d)))
    beta = Tensor(rng.normal(size=(b, d)))
    w = Tensor(rng.normal(size=(n, b, d)))
    return [x, gamma, beta], w


def _gate_case(n, b, d, seed=0):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.normal(size=(n, b, d)))
    # the cotangent of the output depends on a second input, as it does in
    # the model (it comes from the layers above)
    w = Tensor(rng.normal(size=(b // 2, n, d)))
    return [z, w]


def _first_and_second(f, tensors):
    """``(df/dx0, d<w, df/dx0>/d(every input))`` as arrays, graph on."""
    live = [Tensor(t.data.copy(), requires_grad=True) for t in tensors]
    (g0,) = grad(f(*live), [live[0]], create_graph=True)
    w = np.random.default_rng(5).normal(size=g0.shape)
    second = grad(tsum(mul(g0, Tensor(w))), live, allow_unused=True)
    return g0.data, [None if g is None else g.data for g in second]


def _close(got, want, atol) -> bool:
    if got is None or want is None:
        return got is None and want is None  # e.g. nothing depends on beta twice
    return np.allclose(got, want, atol=atol)


SHAPES = [(b, d) for b in (2, 4) for d in (8, 16)]


class TestGatedPrimitivesToSecondOrder:
    """``fused_rmsnorm`` / ``fused_gate``: one kernel per derivative order.

    Finite differences run with the row block shrunk to 2 so that the six
    row counts sit on and around its boundaries; at the real block the
    kernels are compared with the reference composition's autodiff.
    """

    @pytest.mark.parametrize("b,d", SHAPES)
    @pytest.mark.parametrize("i", range(6))
    def test_rmsnorm_finite_differences(self, monkeypatch, i, b, d):
        monkeypatch.setattr(ops_fused, "_BLOCK_ELEMS", 2 * b * d)
        n = _around(_block_rows(b * d), i)
        tensors, w = _rmsnorm_case(n, b, d)
        f = lambda a, g, c: tsum(mul(fused_rmsnorm(a, g, c), w))  # noqa: E731
        check_grad(f, tensors)
        if n:
            check_second_grad(f, tensors)

    @pytest.mark.parametrize("b,d", SHAPES)
    @pytest.mark.parametrize("i", range(6))
    def test_gate_finite_differences(self, monkeypatch, i, b, d):
        monkeypatch.setattr(ops_fused, "_BLOCK_ELEMS", 2 * b * d)
        n = _around(_block_rows(b * d), i)
        tensors = _gate_case(n, b, d)
        f = lambda a, w: tsum(mul(fused_gate(a), mul(w, w)))  # noqa: E731
        check_grad(f, tensors)
        if n:
            check_second_grad(f, tensors)

    @pytest.mark.parametrize("b,d", SHAPES)
    @pytest.mark.parametrize("i", range(6))
    def test_rmsnorm_matches_reference_composition(self, i, b, d):
        n = _around(_block_rows(b * d), i)
        tensors, w = _rmsnorm_case(n, b, d, seed=n)
        fused = lambda a, g, c: tsum(mul(fused_rmsnorm(a, g, c), w))  # noqa: E731
        ref = lambda a, g, c: tsum(mul(rmsnorm_reference(a, g, c), w))  # noqa: E731
        assert np.allclose(
            fused_rmsnorm(*tensors).data, rmsnorm_reference(*tensors).data, atol=1e-12
        )
        if not n:
            return
        got, want = _first_and_second(fused, tensors), _first_and_second(ref, tensors)
        assert np.allclose(got[0], want[0], atol=1e-10)
        assert all(_close(a, e, 1e-9 * n**0.5) for a, e in zip(got[1], want[1]))

    @pytest.mark.parametrize("b,d", SHAPES)
    @pytest.mark.parametrize("i", range(6))
    def test_gate_matches_reference_composition(self, i, b, d):
        n = _around(_block_rows(b * d), i)
        tensors = _gate_case(n, b, d, seed=n)
        fused = lambda a, w: tsum(mul(fused_gate(a), mul(w, w)))  # noqa: E731
        ref = lambda a, w: tsum(mul(gate_reference(a), mul(w, w)))  # noqa: E731
        assert np.array_equal(fused_gate(tensors[0]).data, gate_reference(tensors[0]).data)
        if not n:
            return
        got, want = _first_and_second(fused, tensors), _first_and_second(ref, tensors)
        assert np.allclose(got[0], want[0], atol=1e-12)
        assert all(_close(a, e, 1e-10) for a, e in zip(got[1], want[1]))

    def test_layernorm_is_centering_then_rmsnorm_to_second_order(self):
        """``fused_layernorm`` composes the two; its derivatives are the
        textbook layernorm's."""
        tensors, w = _rmsnorm_case(9, 2, 8)
        fused = lambda a, g, c: tsum(mul(fused_layernorm(a, g, c), w))  # noqa: E731
        ref = lambda a, g, c: tsum(mul(layernorm_reference(a, g, c), w))  # noqa: E731
        got, want = _first_and_second(fused, tensors), _first_and_second(ref, tensors)
        assert np.allclose(got[0], want[0], atol=1e-10)
        assert all(_close(a, e, 1e-9) for a, e in zip(got[1], want[1]))

    def test_gamma_cotangent_is_differentiable(self, rng):
        """The ``gamma`` cotangent has its own kernel; differentiating it
        (first gradient with respect to ``gamma``) composes the others."""
        tensors, w = _rmsnorm_case(5, 2, 6)
        f = lambda a, g, c: tsum(mul(fused_rmsnorm(a, g, c), w))  # noqa: E731
        check_second_grad(f, tensors, wrt_first=1)

    @pytest.mark.parametrize("primitive", ["rmsnorm", "gate"])
    def test_third_order_raises_the_named_error(self, primitive):
        if primitive == "rmsnorm":
            tensors, w = _rmsnorm_case(4, 2, 8)
            f = lambda a, g, c: tsum(mul(fused_rmsnorm(a, g, c), w))  # noqa: E731
        else:
            tensors = _gate_case(4, 2, 8)
            f = lambda a, w: tsum(mul(fused_gate(a), w))  # noqa: E731
        live = [Tensor(t.data.copy(), requires_grad=True) for t in tensors]
        (g1,) = grad(f(*live), [live[0]], create_graph=True)
        (g2,) = grad(tsum(mul(g1, g1)), [live[0]], create_graph=True)
        with pytest.raises(ThirdOrderUnsupported, match="second order only"):
            grad(tsum(mul(g2, g2)), [live[0]])

    def test_forward_saves_only_where_a_derivative_can_follow(self, rng):
        z = rng.normal(size=(6, 4, 8))
        plain = fused_gate(Tensor(z))
        tracked = fused_gate(Tensor(z, requires_grad=True))
        assert plain.node is None and tracked.node is not None
        assert np.array_equal(plain.data, tracked.data)
        x, gamma, beta = (t.data for t in _rmsnorm_case(6, 4, 8)[0])
        plain = fused_rmsnorm(Tensor(x), Tensor(gamma), Tensor(beta))
        tracked = fused_rmsnorm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta))
        assert plain.node is None and tracked.node is not None
        assert np.array_equal(plain.data, tracked.data)

    def test_one_launch_per_kernel(self):
        """Forward, VJP and VJP-of-VJP of either primitive: one launch each
        (the ``gamma`` cotangent is a launch of its own, ``beta``'s a sum)."""
        tensors, w = _rmsnorm_case(9, 4, 8)
        live = [Tensor(t.data.copy(), requires_grad=True) for t in tensors]
        with kernel_stats() as ks:
            y = fused_gate(fused_rmsnorm(*live))
            (g1,) = grad(tsum(mul(y, y)), [live[0]], create_graph=True)
            tsum(mul(g1, g1)).backward()
        want = {
            "fused_rmsnorm": 1,
            "fused_gate": 1,
            "fused_rmsnorm_vjp": 2,  # under the first backward, then the second
            "fused_gate_vjp": 2,
            "fused_rmsnorm_vjp_gamma": 2,
            "fused_rmsnorm_vjp2": 1,
            "fused_gate_vjp2": 1,
        }
        assert {k: ks.by_name.get(k, 0) for k in want} == want


class TestGatedKernelsCompiled:
    """The eager forward of every gated-MLP kernel *is* its compiled kernel."""

    GATED = (
        "center",
        "fused_pack_gated",
        "fused_rmsnorm",
        "fused_rmsnorm_vjp",
        "fused_rmsnorm_vjp_gamma",
        "fused_rmsnorm_vjp2",
        "fused_gate",
        "fused_gate_vjp",
        "fused_gate_vjp2",
    )

    @staticmethod
    def _model(level):
        from serve_harness import TINY_CFG, make_model

        return make_model(cfg=TINY_CFG.with_level(level))

    def test_registered_once_and_shared_with_eager(self, lowered):
        import inspect

        from repro.data.dataset import StructureDataset
        from repro.data.mptrj import generate_mptrj
        from repro.model import OptLevel
        from repro.tensor import compile as tc
        from repro.tensor.compile import StepCompiler
        from repro.train.loss import CompositeLoss

        batch = pad_to_bucket(
            StructureDataset(generate_mptrj(6, seed=3, max_atoms=6)).batch([0, 1, 2, 3])
        )
        comp = StepCompiler(self._model(OptLevel.FUSED), CompositeLoss())
        comp.step(batch)
        (prog,) = comp.cache.programs.values()
        source = inspect.getsource(tc)
        instrs = lowered[prog].replay
        kernels = {name: {ins.fn for ins in instrs if ins.name == name} for name in self.GATED}
        for name, fns in kernels.items():
            assert f'"{name}"' not in source, name  # no table registers it a second time
            (kernel,) = fns  # called with out=: the eager forward itself
            assert getattr(ops_fused, kernel.__name__) is kernel and tc._takes_out(kernel), name
        assert all(ins.name != "fused_layernorm" for ins in instrs)  # a composition, not a kernel
        comp.release()

    def test_fused_training_replay_is_eager_bit_for_bit(self, monkeypatch, lowered):
        from collections import Counter

        from repro.data.dataset import StructureDataset
        from repro.data.mptrj import generate_mptrj
        from repro.model import OptLevel
        from repro.tensor.compile import StepCompiler
        from repro.train.loss import CompositeLoss

        batch = pad_to_bucket(
            StructureDataset(generate_mptrj(6, seed=3, max_atoms=6)).batch([0, 1, 2, 3])
        )
        comp = StepCompiler(self._model(OptLevel.FUSED), CompositeLoss())
        comp.validate = True
        comp.step(batch)
        (prog,) = comp.cache.programs.values()
        instrs = lowered[prog].replay
        counts = Counter(ins.name for ins in instrs)
        assert counts == Counter(prog._kernels)
        assert all(counts[name] for name in self.GATED)
        assert all(ins.buf >= 0 for ins in instrs if ins.name in self.GATED)
        _poison_before_every_replay(monkeypatch, lambda: [comp.cache])
        for _ in range(2):
            comp.step(batch)  # validate: a diverging replay raises
        assert comp.stats.replays == 2 and comp.stats.eager_fallbacks == 0
        comp.validate = False
        with kernel_stats() as ks:
            comp.step(batch)
        assert {name: ks.by_name.get(name, 0) for name in self.GATED} == {
            name: counts[name] for name in self.GATED
        }
        comp.release()

    def test_decompose_fs_inference_replay_is_eager_bit_for_bit(self, monkeypatch, lowered):
        from repro.data.dataset import StructureDataset
        from repro.data.mptrj import generate_mptrj
        from repro.model import OptLevel
        from repro.tensor.compile import InferenceCompiler

        batch = pad_to_bucket(
            StructureDataset(generate_mptrj(6, seed=3, max_atoms=6)).batch([0, 1, 2])
        )
        comp = InferenceCompiler(self._model(OptLevel.DECOMPOSE_FS))
        eager = {k: v.copy() for k, v in comp.run(batch).items()}  # the capturing step is eager
        (prog,) = comp.cache.programs.values()
        instrs = lowered[prog].replay
        assert tuple(ins.name for ins in instrs) == prog._kernels
        forward = [ins for ins in instrs if ins.name in ("fused_rmsnorm", "fused_gate")]
        assert forward and all(ins.buf >= 0 and not ins.kwargs["save"] for ins in forward)
        assert not any(ins.name.endswith(("_vjp", "_vjp2", "_vjp_gamma")) for ins in instrs)
        _poison_before_every_replay(monkeypatch, lambda: [comp.cache])
        for _ in range(2):
            replayed = comp.run(batch)
            assert all(np.array_equal(replayed[k], eager[k]) for k in eager)
        assert comp.stats.replays == 2 and comp.stats.eager_fallbacks == 0
        comp.release()


class TestPartBuffers:
    """Each multi-output kernel launched with ``out=`` a tuple of buffers, one
    per part as a compiled replay hands it when every part has its own arena
    lifetime, writes bit for bit what it writes into one flat.  A 1-D buffer
    stands in for parts the program dropped (its scratch)."""

    N = 3 * _block_rows(4 * 8) - 5  # (N, 4, 8) rows: three row blocks

    @staticmethod
    def _check(kernel, args, pieces, **kwargs):
        flat = kernel(*args, **kwargs)
        bufs = tuple(np.full(shape, np.nan) for shape in pieces)  # poisoned
        assert kernel(*args, **kwargs, out=bufs) is bufs
        assert sum(b.size for b in bufs) == flat.size
        assert np.concatenate([b.reshape(-1) for b in bufs]).tobytes() == flat.tobytes()

    def test_pack_gated(self, rng):
        weights = [rng.normal(size=(5, 8)) for _ in range(4)]
        vectors = [rng.normal(size=(8,)) for _ in range(12)]
        # [w | b gamma (one scratch) | beta]
        self._check(
            ops_fused._pack_gated_np, (*weights, *vectors), [(5, 4, 8), (64,), (4, 8)], branches=4
        )

    def test_rmsnorm(self, rng):
        n = self.N
        x, gamma, beta = rng.normal(size=(n, 4, 8)), rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        # [y | xhat (scratch) | rstd]
        self._check(
            ops_fused._rmsnorm_np,
            (x, gamma, beta, 1e-5),
            [(n, 4, 8), (n * 32,), (n, 4, 1)],
            save=True,
        )

    def test_rmsnorm_vjp2(self, rng):
        n = self.N
        a, g, xhat = (rng.normal(size=(n, 4, 8)) for _ in range(3))
        rstd, gamma = rng.uniform(0.5, 2.0, size=(n, 4, 1)), rng.normal(size=(4, 8))
        # [cg (scratch) | cx | cgamma]
        self._check(
            ops_fused._rmsnorm_vjp2_np, (a, g, xhat, rstd, gamma), [(n * 32,), (n, 4, 8), (4, 8)]
        )

    def test_gate(self, rng):
        n = self.N
        # [phi | v s t (scratch)]
        self._check(
            ops_fused._gate_np, (rng.normal(size=(n, 4, 8)),), [(2, n, 8), (3 * 2 * n * 8,)], save=True
        )

    def test_gate_vjp2(self, rng):
        n = self.N
        h, g = rng.normal(size=(n, 4, 8)), rng.normal(size=(2, n, 8))
        saved = np.stack([rng.normal(size=(2, n, 8)), *rng.uniform(0.05, 0.95, size=(2, 2, n, 8))])
        # [cg | cz (scratch)]
        self._check(ops_fused._gate_vjp2_np, (h, g, saved), [(2, n, 8), (n * 32,)])


class TestGatherPlan:
    def test_vjp_with_and_without_plan_same_bits(self, rng):
        idx = rng.integers(0, 7, size=40)
        box = np.empty((), dtype=object)
        box[()] = segment_plan(idx)
        w = Tensor(rng.normal(size=(40, 5)))

        def grads(plan):
            a = Tensor(rng0.normal(size=(7, 5)), requires_grad=True)
            out = gather_rows(a, idx, plan)
            assert np.array_equal(out.data, a.data[idx])
            (ga,) = grad(tsum(mul(mul(out, out), w)), [a], create_graph=True)
            (gga,) = grad(tsum(mul(ga, ga)), [a])
            return ga.data, gga.data

        rng0 = np.random.default_rng(3)
        without = grads(None)
        rng0 = np.random.default_rng(3)
        with_plan = grads(box)
        assert all(np.array_equal(a, b) for a, b in zip(without, with_plan))

    def test_gather_add_is_base_plus_lookup_to_second_order(self, rng):
        from repro.tensor.ops_shape import _gather_add_np

        idx = rng.integers(0, 7, size=40)
        base, a = Tensor(rng.normal(size=(40, 5))), Tensor(rng.normal(size=(7, 5)))
        assert np.array_equal(gather_add(base, a, idx).data, base.data + a.data[idx])
        w = Tensor(rng.normal(size=(40, 5)))
        f = lambda b_, a_: tsum(mul(mul(gather_add(b_, a_, idx), gather_add(b_, a_, idx)), w))  # noqa: E731
        check_grad(f, [base, a])
        check_second_grad(f, [base, a])
        out = np.full((40, 5), np.nan)
        assert _gather_add_np(base.data, a.data, idx=idx, plan=None, out=out) is out
        assert np.array_equal(out, base.data + a.data[idx])
        for bad in (7, -1):
            with pytest.raises(IndexError):
                gather_add(base, a, np.r_[idx[:-1], bad])

    def test_planned_vjp_never_sorts(self, rng, monkeypatch):
        idx = rng.integers(0, 7, size=40)
        box = np.empty((), dtype=object)
        box[()] = segment_plan(idx)
        a = Tensor(rng.normal(size=(7, 5)), requires_grad=True)

        def boom(*args, **kwargs):
            raise AssertionError("a planned gather VJP sorted its index")

        monkeypatch.setattr(np, "argsort", boom)
        (ga,) = grad(tsum(gather_rows(a, idx, box)), [a])
        assert np.array_equal(ga.data[:, 0], np.bincount(idx, minlength=7))


class TestFusedScaleShift:
    def test_value(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        assert np.allclose(fused_scale_shift(x, 2.0, 1.0).data, x.data * 2 + 1)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        check_grad(lambda a: tsum(fused_scale_shift(a, 3.0, -1.0)), [x])


class TestFusedOutKernels:
    """The fused basis forwards called with ``out=`` (arena replay path).

    Each must write into a caller-provided buffer the exact bits it returns
    when it allocates — compiled replays launch the forward with ``out=``.
    """

    def _out_for(self, eager: np.ndarray) -> np.ndarray:
        return np.full_like(eager, np.nan)  # poisoned: every cell must be written

    def test_fused_srbf_out_bit_identical(self, rng):
        r = rng.uniform(0.5, 5.5, size=(23,))
        freqs = np.arange(1, 8) * np.pi / 6.0
        eager = fused_srbf(Tensor(r), Tensor(freqs), rcut=6.0, p=8.0).data
        out = self._out_for(eager)
        res = ops_fused._srbf_np(r, freqs, rcut=6.0, p=8.0, out=out)
        assert res is out
        assert np.array_equal(out, eager)
        # the bits of the written-out formula, as the allocating forward had it
        a, b, c = _envelope_coeffs(8.0)
        xi = r / 6.0
        u = 1.0 - xi**8.0 * (a - xi * (b - c * xi))
        assert np.array_equal(eager, (np.sqrt(2.0 / 6.0) * u / r)[:, None] * np.sin(np.outer(r, freqs)))

    def test_fused_envelope_out_bit_identical(self, rng):
        xi = rng.uniform(0.02, 0.98, size=(31,))
        eager = fused_envelope(Tensor(xi), 8.0).data
        out = self._out_for(eager)
        res = ops_fused._envelope_np(xi, p=8.0, out=out)
        assert res is out
        assert np.array_equal(out, eager)
        a, b, c = _envelope_coeffs(8.0)
        assert np.array_equal(eager, 1.0 - xi**8.0 * (a - xi * (b - c * xi)))

    def test_fused_envelope_not_chainable(self):
        """The out= body reads xi repeatedly, so it must never consume a
        fused-chain carry buffer (aliasing would corrupt the ladder)."""
        from repro.tensor.compile import _ELEMENTWISE

        assert "fused_envelope" not in _ELEMENTWISE

    def test_fused_envelope_instr_gets_arena_buffer(self, lowered):
        """fused_envelope appears in the backward VJP chains of a training
        step (srbf derivative); its replay must write an arena buffer."""
        from repro.data.dataset import StructureDataset
        from repro.data.mptrj import generate_mptrj
        from repro.model import CHGNetConfig, CHGNetModel, OptLevel
        from repro.tensor.compile import StepCompiler
        from repro.train.loss import CompositeLoss

        cfg = CHGNetConfig(
            atom_fea_dim=8,
            bond_fea_dim=8,
            angle_fea_dim=8,
            num_radial=5,
            angular_order=2,
            hidden_dim=8,
            opt_level=OptLevel.FUSED,
        )
        ds = StructureDataset(generate_mptrj(6, seed=3, max_atoms=6))
        model = CHGNetModel(cfg, np.random.default_rng(1))
        comp = StepCompiler(model, CompositeLoss())
        comp.step(pad_to_bucket(ds.batch([0, 1, 2, 3])))
        (prog,) = comp.cache.programs.values()
        seen = [ins for ins in lowered[prog].replay if ins.name == "fused_envelope"]
        assert seen  # the VJP chain reaches the compiled program
        assert all(ins.buf >= 0 for ins in seen)
        comp.release()

    def test_fused_fourier_out_bit_identical(self, rng):
        theta = rng.uniform(0.0, np.pi, size=(17,))
        eager = fused_fourier(Tensor(theta), order=5).data
        out = self._out_for(eager)
        res = ops_fused._fourier_np(theta, order=5, out=out)
        assert res is out
        assert np.array_equal(out, eager)

    def test_fused_rmsnorm_and_center_out_bit_identical(self, rng):
        x = rng.normal(size=(9, 6))
        gamma = rng.normal(size=(6,))
        beta = rng.normal(size=(6,))
        eager = fused_rmsnorm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        out = self._out_for(eager)
        res = ops_fused._rmsnorm_np(x, gamma, beta, eps=1e-5, out=out)
        assert res is out
        assert np.array_equal(out, eager)
        eager = center(Tensor(x)).data
        out = self._out_for(eager)
        assert ops_fused._center_np(x, out=out) is out
        assert np.array_equal(out, eager)

    def test_fused_basis_instrs_get_arena_buffers(self, lowered):
        """In a captured FUSED-level program the fused basis launches write
        into arena buffers instead of allocating internally."""
        from repro.data.dataset import StructureDataset
        from repro.data.mptrj import generate_mptrj
        from repro.model import CHGNetConfig, CHGNetModel, OptLevel
        from repro.tensor.compile import StepCompiler
        from repro.train.loss import CompositeLoss

        cfg = CHGNetConfig(
            atom_fea_dim=8,
            bond_fea_dim=8,
            angle_fea_dim=8,
            num_radial=5,
            angular_order=2,
            hidden_dim=8,
            opt_level=OptLevel.FUSED,
        )
        ds = StructureDataset(generate_mptrj(6, seed=3, max_atoms=6))
        model = CHGNetModel(cfg, np.random.default_rng(1))
        comp = StepCompiler(model, CompositeLoss())
        comp.step(pad_to_bucket(ds.batch([0, 1, 2, 3])))
        (prog,) = comp.cache.programs.values()
        fused_names = {"fused_srbf", "fused_fourier", "fused_rmsnorm"}
        seen = {
            ins.name: ins for ins in lowered[prog].replay if ins.name in fused_names
        }
        assert fused_names <= set(seen)
        assert all(ins.buf >= 0 for ins in seen.values())
        comp.release()
