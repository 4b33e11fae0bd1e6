"""Row-stability as a property, and the substrate assumption as a loud failure.

The serving contract (batched == solo, replay == eager, bit for bit) rests
on four kernel bodies in ``repro.tensor`` whose per-row results must not
depend on the rows batched around them (docs/architecture.md, "Row-stable
kernels").  This suite checks that over generated shapes instead of
hand-picked ones, for the eager forward and the compiled ``out=`` kernel:

* ``_matmul_np`` / ``matmul_rowstable`` — widths straddling
  ``_ROW_STABLE_MAX_N``, any ``k``, 0/1/2/many rows, transposed and strided
  operands, float32 and float64;
* ``fused_layernorm`` — 2-D and packed 3-D;
* the gated-MLP kernels (``fused_layernorm`` / ``fused_gate``: forward with
  saved values, VJP, VJP of the VJP) — rows straddling the row block;
* ``sigmoid`` / ``silu`` — finite, warning-free and monotone out to |x| = 1e3;
* ``segment_sum`` — with and without a cached plan.

``test_blas_prefix_stability_calibration`` probes the one thing the
primitive *assumes* of its BLAS and names the library when it breaks.
The last class pins the serving-side fix of the same PR: queue keys are
reclaimed when they drain.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data import StructureDataset  # noqa: E402
from repro.graph.batching import workload_tier  # noqa: E402
from repro.model import OptLevel  # noqa: E402
from repro.serve import InferenceEngine, TenantPolicy  # noqa: E402
from repro.tensor import Tensor, fused_layernorm, segment_sum, sigmoid, silu  # noqa: E402
from repro.tensor import ops_fused  # noqa: E402
from repro.tensor.compile import _OUT_IMPLS, InferenceCompiler, StepCompiler  # noqa: E402
from repro.tensor.ops_linalg import (  # noqa: E402
    _ROW_STABLE_MAX_N,
    _linear_np,
    _matmul_np,
    matmul_rowstable,
)
from repro.tensor.ops_shape import segment_plan, sorted_segment_reduce  # noqa: E402
from repro.train.loss import CompositeLoss  # noqa: E402
from serve_harness import make_graphs, make_model  # noqa: E402

pytestmark = pytest.mark.slow

DTYPES = st.sampled_from([np.float32, np.float64])
ROWS = st.sampled_from([0, 1, 2, 3, 17, 64, 257, 1031])
LAYOUTS = st.sampled_from(["contiguous", "transposed", "strided"])


def _laid_out(rng, shape, dtype, layout):
    """A random array of ``shape`` whose memory layout is ``layout``."""
    if layout == "transposed":
        return rng.normal(size=shape[::-1]).astype(dtype).T
    if layout == "strided":
        return rng.normal(size=(shape[0], 2 * shape[1])).astype(dtype)[:, ::2]
    return rng.normal(size=shape).astype(dtype)


def _sub_slices(rng, m):
    """Row ranges to evaluate alone: every single-row edge plus random cuts."""
    if m == 0:
        return [(0, 0)]
    cuts = {(0, 1), (m - 1, m), (0, m)}
    for _ in range(4):
        i = int(rng.integers(0, m))
        cuts.add((i, int(rng.integers(i + 1, m + 1))))
    return sorted(cuts)


class TestMatmul:
    @given(
        m=ROWS,
        k=st.integers(1, 96),
        # unpadded widths half the time: the only ones a transposed left
        # operand reaches BLAS uncopied at
        n=st.one_of(st.integers(1, 64), st.sampled_from([16, 32, 48, 64])),
        dtype=DTYPES,
        a_layout=LAYOUTS,
        b_layout=LAYOUTS,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_do_not_see_their_batch(self, m, k, n, dtype, a_layout, b_layout, seed):
        rng = np.random.default_rng(seed)
        a = _laid_out(rng, (m, k), dtype, a_layout)
        b = _laid_out(rng, (k, n), dtype, b_layout)
        full = _matmul_np(a, b)
        assert full.shape == (m, n) and full.dtype == dtype
        tol = 1e-4 if dtype == np.float32 else 1e-11
        np.testing.assert_allclose(full, np.matmul(a, b), rtol=tol, atol=tol)
        # the same rows whether the left operand is copied or handed over
        assert np.array_equal(_matmul_np(np.ascontiguousarray(a), b), full)
        for i, j in _sub_slices(rng, m):
            assert np.array_equal(_matmul_np(a[i:j], b), full[i:j]), (i, j)
            assert np.array_equal(_matmul_np(np.asfortranarray(a[i:j]), b), full[i:j]), (i, j)

    @given(
        m=ROWS,
        k=st.integers(1, 96),
        n=st.integers(1, 64),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_eager_equals_out_kernel(self, m, k, n, dtype, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k)).astype(dtype)
        w = rng.normal(size=(k, n)).astype(dtype)
        bias = rng.normal(size=n).astype(dtype)
        out = np.full((m, n), np.nan, dtype=dtype)
        assert _OUT_IMPLS["matmul"](out, a, w) is out
        assert np.array_equal(out, _matmul_np(a, w))
        out.fill(np.nan)
        assert _OUT_IMPLS["linear"](out, a, w, bias) is out
        assert np.array_equal(out, _linear_np(a, w, bias))

    def test_empty_inner_dimension_gives_zeros(self):
        out = _matmul_np(np.zeros((3, 0)), np.zeros((0, 5)))
        assert out.shape == (3, 5) and not out.any()

    def test_narrow_product_is_one_blas_call(self, monkeypatch):
        """No per-column Python loop: a narrow product calls gemm once."""
        calls = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or real(*a, **k))
        rng = np.random.default_rng(0)
        matmul_rowstable(rng.normal(size=(40, 12)), rng.normal(size=(12, 5)), np.empty((40, 5)))
        assert len(calls) == 1


    def test_transposed_left_operand_reaches_blas_uncopied(self, monkeypatch):
        """``swap_last(x) @ g`` (every weight gradient): gemm takes the
        transpose as a flag, so the view itself is the operand — unless the
        product needs a fix-up (padded width, single row) that copies anyway."""
        lefts = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, *r, **k: lefts.append(a) or real(a, *r, **k))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1792, 64))
        for n, handed_over in ((64, True), (16, True), (24, False)):
            g = rng.normal(size=(1792, n))
            out = matmul_rowstable(x.T, g, np.empty((64, n)))
            assert (lefts[-1].base is x) == handed_over
            assert np.array_equal(out, _matmul_np(np.ascontiguousarray(x.T), g))
        matmul_rowstable(x[:, :1].T, g, np.empty((1, 24)))
        assert lefts[-1].shape == (2, 1792)  # a single row is still evaluated as two

    def test_only_training_hands_blas_a_transposed_operand(
        self, monkeypatch, small_config, tiny_entries
    ):
        """Weight gradients are the only transposed-left products.  Inference
        has no cotangents, so a ``DECOMPOSE_FS`` replay never takes the
        uncopied path: serving's bits and timings cannot move with it."""
        transposed = []
        real = np.matmul

        def counting(a, *rest, **kwargs):
            transposed.append(a.ndim == 2 and a.flags.f_contiguous and not a.flags.c_contiguous)
            return real(a, *rest, **kwargs)

        model = make_model(cfg=small_config)  # widths of 16: nothing is column-padded
        assert model.config.opt_level == OptLevel.DECOMPOSE_FS
        labeled = StructureDataset(tiny_entries).batch(range(4))
        infer = InferenceCompiler(model)
        train = StepCompiler(model, CompositeLoss())
        infer.run(labeled)
        train.step(labeled)
        monkeypatch.setattr(np, "matmul", counting)
        infer.run(labeled)
        assert infer.stats.replays == 1 and transposed and not any(transposed)
        transposed.clear()
        train.step(labeled)
        assert train.stats.replays == 1 and any(transposed)


def test_blas_prefix_stability_calibration():
    """The substrate assumption behind ``_ROW_STABLE_MAX_N``, probed directly.

    ``matmul_rowstable`` assumes that a gemm on contiguous operands whose
    output width is a multiple of ``_ROW_STABLE_MAX_N`` gives a row the same
    bits whatever the row count (>= 2).  On the OpenBLAS this was derived
    on, other widths do *not* (column-remainder kernels accumulate in a
    row-count-dependent order), which is why every width is padded up.  If
    a BLAS upgrade breaks the assumption, this fails and says which library
    to re-derive the constant for.

    The transposed-left path adds one assumption: a left operand handed over
    as a transposed view (gemm's ``TransA``) gets the bits its contiguous
    copy gets — probed at the row counts above and at the contraction
    lengths of weight gradients (``k`` = rows of a batch), where a row of
    the product is a feature and prefix stability is neither needed nor,
    from ``k`` ~ 400 up on this OpenBLAS, true of either layout.
    """
    rng = np.random.default_rng(2025)
    broken = []
    for dtype in (np.float32, np.float64):
        for n in (_ROW_STABLE_MAX_N, 2 * _ROW_STABLE_MAX_N, 4 * _ROW_STABLE_MAX_N):
            for k in (1, 3, 8, 16, 31, 64, 96):
                a = rng.normal(size=(1200, k)).astype(dtype)
                w = rng.normal(size=(k, n)).astype(dtype)
                full = np.matmul(a, w)
                for m in (2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 255, 257, 512, 1000):
                    for start in (0, 1, 1200 - m):
                        rows = a[start : start + m]
                        for layout in (np.ascontiguousarray, np.asfortranarray):
                            if not np.array_equal(np.matmul(layout(rows), w), full[start : start + m]):
                                broken.append((np.dtype(dtype).name, n, k, m, start, layout.__name__))
            for k, m in ((114, 8), (732, 16), (896, 32), (1792, 64), (4096, 64)):
                a = rng.normal(size=(k, m)).astype(dtype).T
                w = rng.normal(size=(k, n)).astype(dtype)
                if not np.array_equal(np.matmul(a, w), np.matmul(np.ascontiguousarray(a), w)):
                    broken.append((np.dtype(dtype).name, n, k, m, 0, "view != copy"))
    if broken:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        pytest.fail(
            f"BLAS {blas.get('name')} {blas.get('version')} is not prefix-stable at output "
            f"widths that are multiples of {_ROW_STABLE_MAX_N}: {len(broken)} "
            f"(dtype, width, k, rows, start, layout) cases differ, first {broken[:5]}; re-derive "
            "_ROW_STABLE_MAX_N (docs/architecture.md, 'Row-stable kernels')"
        )


class TestLayerNorm:
    @given(
        rows=st.sampled_from([1, 2, 5, 64, 300]),
        branches=st.sampled_from([0, 1, 2, 4]),
        d=st.sampled_from([1, 3, 8, 16, 33]),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_do_not_see_their_batch_and_out_kernel_matches(
        self, rows, branches, d, dtype, seed
    ):
        rng = np.random.default_rng(seed)
        feat = (branches, d) if branches else (d,)
        x = rng.normal(size=(rows, *feat)).astype(dtype)
        gamma = rng.normal(size=feat).astype(dtype)
        beta = rng.normal(size=feat).astype(dtype)
        full = fused_layernorm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        for i, j in _sub_slices(rng, rows):
            alone = fused_layernorm(Tensor(x[i:j]), Tensor(gamma), Tensor(beta)).data
            assert np.array_equal(alone, full[i:j]), (i, j)
        out = np.full_like(full, np.nan)
        assert _OUT_IMPLS["fused_layernorm"](out, x, gamma, beta, eps=1e-5) is out
        assert np.array_equal(out, full)

    def test_matches_the_textbook_formula(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 2, 8))
        gamma, beta = rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        want = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
        got = fused_layernorm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestGatedMLPKernels:
    """Forward, VJP and VJP-of-VJP of the two gated-MLP primitives.

    A row's outputs may depend neither on the rows batched around it nor on
    where the row-block boundaries fall (slicing ``[i:j]`` moves them); only
    the parameter cotangents, sums over rows accumulated block by block, do.
    """

    # in blocks (of ``_block_rows(B * D)`` rows): under one, over one, over two
    BLOCKS = st.sampled_from([0.002, 0.01, 0.6, 1.002, 2.02])

    @given(blocks=BLOCKS, b=st.sampled_from([2, 4]), d=st.sampled_from([3, 8, 16]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_layernorm_rows_do_not_see_their_batch(self, blocks, b, d, seed):
        rng = np.random.default_rng(seed)
        rows = 1 + int(blocks * ops_fused._block_rows(b * d))
        x, g, a = rng.normal(size=(3, rows, b, d))
        gamma, beta = rng.normal(size=(2, b, d))
        size = x.size

        def kernels(lo, hi):
            flat = ops_fused._layernorm_np(x[lo:hi], gamma, beta, 1e-5, save=True)
            n = (hi - lo) * b * d
            y, xhat, rstd = np.split(flat, [n, 2 * n])
            xhat, rstd = xhat.reshape(-1, b, d), rstd.reshape(-1, b, 1)
            gx = ops_fused._layernorm_vjp_np(g[lo:hi], xhat, rstd, gamma)
            cg, cx, _cgamma = np.split(
                ops_fused._layernorm_vjp2_np(a[lo:hi], g[lo:hi], xhat, rstd, gamma), [n, 2 * n]
            )
            return [part.reshape(-1, b, d) for part in (y, xhat, gx, cg, cx)] + [rstd]

        full = kernels(0, rows)
        assert np.array_equal(full[0], ops_fused._layernorm_np(x, gamma, beta, 1e-5))
        assert size == full[0].size
        for i, j in _sub_slices(rng, rows):
            for alone, whole in zip(kernels(i, j), full):
                assert np.array_equal(alone, whole[i:j]), (i, j)

    @given(blocks=BLOCKS, heads=st.sampled_from([1, 2]), d=st.sampled_from([3, 8, 16]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_gate_rows_do_not_see_their_batch(self, blocks, heads, d, seed):
        rng = np.random.default_rng(seed)
        rows = 1 + int(blocks * ops_fused._block_rows(2 * heads * d))
        z, h = rng.normal(size=(2, rows, 2 * heads, d))
        g = rng.normal(size=(heads, rows, d))

        def kernels(lo, hi):
            n = (hi - lo) * heads * d
            phi, saved = np.split(ops_fused._gate_np(z[lo:hi], save=True), [n])
            saved = saved.reshape(3, heads, -1, d)
            gz = ops_fused._gate_vjp_np(g[:, lo:hi], saved)
            cg, cz = np.split(ops_fused._gate_vjp2_np(h[lo:hi], g[:, lo:hi], saved), [n])
            row_major = [gz, cz.reshape(-1, 2 * heads, d)]
            head_major = [phi.reshape(heads, -1, d), cg.reshape(heads, -1, d), *saved]
            return row_major + [part.transpose(1, 0, 2) for part in head_major]

        full = kernels(0, rows)
        assert np.array_equal(full[2].transpose(1, 0, 2), ops_fused._gate_np(z))
        for i, j in _sub_slices(rng, rows):
            for alone, whole in zip(kernels(i, j), full):
                assert np.array_equal(alone, whole[i:j]), (i, j)

    def test_parameter_cotangents_accumulate_block_by_block(self):
        """The one output that does depend on the block: ``sum_rows`` over
        blocks, each block's rows reduced first."""
        rng = np.random.default_rng(2)
        b, d = 2, 8
        block = ops_fused._block_rows(b * d)
        n = 2 * block + 9
        g, xhat = rng.normal(size=(2, n, b, d))
        want = np.zeros((b, d))
        for lo in range(0, n, block):
            rows = slice(lo, lo + block)
            want += np.einsum("nbd,nbd->bd", g[rows], xhat[rows])
        assert np.array_equal(ops_fused._layernorm_vjp_gamma_np(g, xhat), want)
        np.testing.assert_allclose(want, (g * xhat).sum(axis=0), rtol=1e-12, atol=1e-12)


class TestSigmoid:
    def test_finite_warning_free_and_monotone_to_1e3(self):
        x = np.concatenate([np.linspace(-1e3, 1e3, 4001), [-745.2, -709.8, 709.8, 745.2]])
        x.sort()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sigmoid(Tensor(x)).data
            y = silu(Tensor(x)).data
        assert np.all(np.isfinite(s)) and np.all(np.isfinite(y))
        assert s[0] == 0.0 and s[-1] == 1.0 and np.all((s >= 0) & (s <= 1))
        assert np.all(np.diff(s) >= 0)
        mid = np.abs(x) < 30
        np.testing.assert_allclose(s[mid], 1 / (1 + np.exp(-x[mid])), rtol=1e-15)
        np.testing.assert_allclose(y, x * s, rtol=0, atol=0)

    @given(n=st.integers(0, 300), dtype=DTYPES, seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_eager_equals_out_kernel(self, n, dtype, seed):
        x = (np.random.default_rng(seed).normal(size=(n, 3)) * 50).astype(dtype)
        for name, op in (("sigmoid", sigmoid), ("silu", silu)):
            out = np.full_like(x, np.nan)
            assert _OUT_IMPLS[name](out, x) is out
            assert np.array_equal(out, op(Tensor(x)).data)

    def test_silu_survives_being_handed_the_chain_buffer(self):
        """As a non-first member of a fused chain, silu's input *is* its
        output buffer; the kernel must still multiply by the original x."""
        x = np.array([0.5, -1.0, 2.0, -30.0])
        buf = x.copy()
        _OUT_IMPLS["silu"](buf, buf)
        assert np.array_equal(buf, silu(Tensor(x)).data)
        buf = x.copy()
        _OUT_IMPLS["sigmoid"](buf, buf)
        assert np.array_equal(buf, sigmoid(Tensor(x)).data)


def _boxed(plan):
    box = np.empty((), dtype=object)
    box[()] = plan
    return box


class TestSegmentSum:
    @given(
        n=st.integers(0, 200),
        num_segments=st.integers(1, 40),
        width=st.sampled_from([0, 1, 8]),
        order=st.sampled_from(["sorted", "unsorted", "single"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_plan_or_no_plan_same_bits_as_reference(self, n, num_segments, width, order, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, num_segments, size=n)
        if order == "sorted":
            idx.sort()
        elif order == "single":
            idx[:] = num_segments - 1
        x = rng.normal(size=(n, width) if width else (n,))
        reference = np.zeros((num_segments,) + x.shape[1:])
        for s in range(num_segments):  # rows summed in index order, like reduceat
            rows = x[idx == s]
            if len(rows):
                reference[s] = np.add.reduce(rows, axis=0)
        plan = _boxed(segment_plan(idx))
        without = segment_sum(Tensor(x), idx, num_segments).data
        with_plan = segment_sum(Tensor(x), idx, num_segments, plan).data
        np.testing.assert_allclose(without, reference, rtol=1e-12, atol=1e-12)
        assert np.array_equal(without, with_plan)
        out = np.full_like(without, np.nan)
        assert _OUT_IMPLS["segment_sum"](out, x, idx, num_segments, plan) is out
        assert np.array_equal(out, without)
        out.fill(np.nan)
        _OUT_IMPLS["segment_sum"](out, x, idx, num_segments, None)
        assert np.array_equal(out, without)

    def test_a_sorted_index_needs_no_permutation(self):
        assert segment_plan(np.array([0, 0, 2, 5, 5])).order is None
        assert segment_plan(np.array([1, 0])).order is not None
        empty = segment_plan(np.zeros(0, dtype=np.int64))
        assert empty.order is None and empty.starts.size == 0

    def test_reduce_with_a_plan_never_sorts(self, monkeypatch):
        idx = np.array([3, 1, 3, 0, 1])
        x = np.arange(10.0).reshape(5, 2)
        plan = segment_plan(idx)

        def boom(*args, **kwargs):
            raise AssertionError("sorted_segment_reduce re-sorted a planned index")

        monkeypatch.setattr(np, "argsort", boom)
        monkeypatch.setattr(np, "sort", boom)
        out = sorted_segment_reduce(x, plan, np.zeros((4, 2)))
        assert np.array_equal(out, [[6, 7], [10, 12], [0, 0], [4, 6]])

    def test_batch_caches_one_plan_per_field(self, tiny_batch):
        box = tiny_batch.aux(("segment_plan", "edge_src"))
        assert tiny_batch.aux(("segment_plan", "edge_src")) is box
        assert box.shape == () and box.dtype == object
        plan = box[()]
        assert np.array_equal(plan.rows, np.unique(tiny_batch.edge_src))
        assert tiny_batch.find_array(id(box)) == ("aux", ("segment_plan", "edge_src"))


class TestQueueKeysAreReclaimed:
    def test_keys_bounded_by_live_versions_times_tiers(self):
        """publish -> submit -> drain, many rounds: ``_queues`` must not
        keep a key per (version, tier) ever seen."""
        model = make_model()
        graphs = make_graphs(12, seed=5)
        tiers = {
            workload_tier((g.num_atoms, g.num_edges, g.num_short_edges, g.num_angles))
            for g in graphs
        }
        assert len(tiers) > 1  # the stream really spans tiers
        engine = InferenceEngine(model, compile=False, max_batch_structs=4, max_wait=0.01)
        now = 0.0
        peak = 0
        for round_ in range(12):
            engine.publish_weights()
            ids = [engine.submit(g, now=now) for g in graphs]
            peak = max(peak, len(engine._queues))
            now += 1.0
            assert all(engine.poll(i, now=now) is not None for i in ids)
            assert engine._queues == {}, f"round {round_}: drained keys kept"
        assert engine.stats.publishes == 13
        assert 0 < peak <= len(engine.versions) * len(tiers)

    def test_paced_and_merging_engines_reclaim_too(self):
        model = make_model()
        graphs = make_graphs(10, seed=6)
        fair = {"tenants": [TenantPolicy("solo")]}  # weighted-fair order
        for kwargs in ({"paced": True}, {"merge_tiers": True}, fair):
            engine = InferenceEngine(
                model, compile=False, max_batch_structs=3, max_wait=0.01, **kwargs
            )
            for round_ in range(4):
                engine.publish_weights()
                ids = [engine.submit(g, now=float(round_)) for g in graphs]
                engine.flush(now=round_ + 0.5)
                assert engine._queues == {} and engine.pending == 0, kwargs
                assert all(engine.poll(i) is not None for i in ids)

    def test_predict_many_resolves_each_item_once(self, monkeypatch, tiny_crystals):
        import repro.serve.engine as engine_module

        built = []
        real = engine_module.build_graph
        monkeypatch.setattr(
            engine_module, "build_graph", lambda *a, **k: built.append(1) or real(*a, **k)
        )
        engine = InferenceEngine(make_model(), compile=False)
        validated = []
        real_validate = engine._validate_item
        monkeypatch.setattr(
            engine, "_validate_item", lambda item: validated.append(1) or real_validate(item)
        )
        engine.predict_many(tiny_crystals)
        assert len(built) == len(tiny_crystals) and len(validated) == len(tiny_crystals)
        # the public entry still validates outside input
        validated.clear()
        engine.submit(tiny_crystals[0])
        assert len(validated) == 1
