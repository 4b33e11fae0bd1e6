"""Loss, optimizers, schedules, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import SimCommunicator
from repro.data import StructureDataset
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.runtime import kernel_stats
from repro.tensor import Parameter, Tensor, huber_loss, mul, sum as tsum
from repro.train import (
    Adam,
    BASE_LR,
    CompositeLoss,
    CosineAnnealingLR,
    DistributedConfig,
    DistributedTrainer,
    mae,
    r_squared,
    scaled_learning_rate,
)
from repro.train import loss as loss_module
from repro.train.optimizer import Optimizer


class TestHuber:
    def test_quadratic_inside_delta(self):
        pred = Tensor(np.array([0.05]))
        target = Tensor(np.array([0.0]))
        assert np.isclose(huber_loss(pred, target, delta=0.1).item(), 0.5 * 0.05**2)

    def test_linear_outside_delta(self):
        pred = Tensor(np.array([1.0]))
        target = Tensor(np.array([0.0]))
        assert np.isclose(huber_loss(pred, target, delta=0.1).item(), 0.1 * (1.0 - 0.05))

    def test_zero_at_match(self, rng):
        x = rng.normal(size=(5,))
        assert huber_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_differentiable(self, rng):
        from oracles import check_grad

        target = Tensor(rng.normal(size=(6,)))
        pred0 = rng.normal(size=(6,))
        # keep |d| away from the delta kink for clean finite differences
        pred0 = np.where(np.abs(pred0 - target.data) < 0.15, target.data + 0.3, pred0)
        check_grad(lambda p: huber_loss(p, target, delta=0.1), [Tensor(pred0)])


class TestCompositeLoss:
    def _fake(self, rng, n_structs=2, n_atoms=6):
        from repro.graph.batching import GraphBatch
        from repro.model.chgnet import ModelOutput

        output = ModelOutput(
            energy_per_atom=Tensor(rng.normal(size=n_structs), requires_grad=True),
            forces=Tensor(rng.normal(size=(n_atoms, 3))),
            stress=Tensor(rng.normal(size=(n_structs, 3, 3))),
            magmom=Tensor(rng.normal(size=n_atoms)),
        )
        batch = GraphBatch(
            num_structs=n_structs,
            species=np.ones(n_atoms, dtype=np.int64),
            frac=np.zeros((n_atoms, 3)),
            atom_sample=np.repeat(np.arange(n_structs), n_atoms // n_structs),
            lattices=np.stack([np.eye(3)] * n_structs),
            edge_src=np.zeros(0, dtype=np.int64),
            edge_dst=np.zeros(0, dtype=np.int64),
            edge_image=np.zeros((0, 3), dtype=np.int64),
            edge_sample=np.zeros(0, dtype=np.int64),
            short_idx=np.zeros(0, dtype=np.int64),
            angle_e1=np.zeros(0, dtype=np.int64),
            angle_e2=np.zeros(0, dtype=np.int64),
            angle_center=np.zeros(0, dtype=np.int64),
            angle_sample=np.zeros(0, dtype=np.int64),
            atom_offsets=np.array([0, 3, 6]),
            edge_offsets=np.zeros(n_structs + 1, dtype=np.int64),
            short_offsets=np.zeros(n_structs + 1, dtype=np.int64),
            angle_offsets=np.zeros(n_structs + 1, dtype=np.int64),
            energy_per_atom=rng.normal(size=n_structs),
            forces=rng.normal(size=(n_atoms, 3)),
            stress=rng.normal(size=(n_structs, 3, 3)),
            magmom=rng.normal(size=n_atoms),
        )
        return output, batch

    def test_breakdown_fields(self, rng):
        output, batch = self._fake(rng)
        b = CompositeLoss()(output, batch)
        assert b.loss.size == 1
        d = b.as_dict()
        assert set(d) == {"loss", "energy_mae", "force_mae", "stress_mae", "magmom_mae"}
        assert all(np.isfinite(v) for v in d.values())

    def test_weights_scale_loss(self, rng, monkeypatch):
        output, batch = self._fake(rng)
        for name in ("ENERGY_WEIGHT", "FORCE_WEIGHT", "STRESS_WEIGHT", "MAGMOM_WEIGHT"):
            monkeypatch.setattr(loss_module, name, 0.0)
        small = CompositeLoss()
        assert small(output, batch).loss.item() == 0.0

    def test_unlabeled_batch_raises(self, rng):
        output, batch = self._fake(rng)
        batch.energy_per_atom = None
        with pytest.raises(ValueError):
            CompositeLoss()(output, batch)

    def test_paper_prefactors_default(self):
        m = loss_module
        w = (m.ENERGY_WEIGHT, m.FORCE_WEIGHT, m.STRESS_WEIGHT, m.MAGMOM_WEIGHT)
        assert w == (2.0, 1.5, 0.1, 0.1)


class TestAdam:
    def test_minimizes_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        target = np.array([1.0, 2.0])
        for _ in range(300):
            opt.zero_grad()
            loss = tsum(mul(p - Tensor(target), p - Tensor(target)))
            loss.backward()
            opt.step()
        assert np.allclose(p.data, target, atol=1e-2)

    def test_skips_none_grads(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grads -> no movement
        assert np.array_equal(p.data, np.ones(2))

    def test_first_step_magnitude_is_lr(self):
        """Adam's bias-corrected first step is exactly lr * sign(grad)."""
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        p.grad = Tensor(np.array([2.0]))
        opt.step()
        assert np.isclose(p.data[0], 1.0 - 0.01, atol=1e-6)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.0)

    def test_negative_lr_raises(self):
        with pytest.raises(ValueError, match="got -0.1"):
            Adam([Parameter(np.ones(1))], lr=-0.1)

    def test_base_optimizer_has_no_update_rule(self):
        opt = Optimizer([Parameter(np.ones(2))], lr=0.1)
        with pytest.raises(NotImplementedError):
            opt.step()

    def test_zero_grad_clears_every_gradient(self):
        params = [Parameter(np.ones(2)), Parameter(np.ones(3))]
        opt = Adam(params, lr=0.1)
        for p in params:
            p.grad = Tensor(np.ones(p.shape))
        opt.step()
        opt.zero_grad()
        assert all(p.grad is None for p in params)
        before = [p.data.copy() for p in params]
        opt.step()  # nothing to apply
        assert all(np.array_equal(p.data, b) for p, b in zip(params, before))

    def test_adopt_grads_reports_gradless_parameters(self):
        params = [Parameter(np.ones(2)), Parameter(np.ones(3)), Parameter(np.ones(1))]
        opt = Adam(params, lr=0.1)
        params[0].grad = Tensor(np.full(2, 4.0))
        params[2].grad = Tensor(np.full(1, 5.0))
        assert opt.adopt_grads() == (1,)
        assert params[1].grad is None
        assert np.array_equal(opt._grads[0], np.full(2, 4.0))
        assert params[2].grad.data is opt._grads[2]
        assert opt.adopt_grads() == (1,)  # adopted views are left in place
        assert params[2].grad.data is opt._grads[2]

    def test_parameter_belongs_to_the_last_adam_built_over_it(self):
        p = Parameter(np.array([1.0, 2.0]))
        first = Adam([p], lr=0.1)
        second = Adam([p], lr=0.1)
        assert np.shares_memory(p.data, second.flat_params)
        assert not np.shares_memory(p.data, first.flat_params)
        assert np.array_equal(p.data, [1.0, 2.0])
        p.grad = Tensor(np.ones(2))
        second.step()
        assert np.array_equal(second.flat_params, p.data)

#: Mixed parameter shapes: 16-element rows (most of a CHGNet's parameters),
#: a matrix of them, odd sizes, a 0-d scalar and a 3-D block.
SHAPES = [(16,), (3, 16), (5,), (), (16,), (2, 3, 4), (1,)]


def _reference_adam(params, grads, moments, t, lr, betas=(0.9, 0.999), eps=1e-8):
    """Adam as one update per parameter: the loop the flat update reproduces."""
    b1, b2 = betas
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, (m, v) in zip(params, grads, moments):
        if g is None:
            continue
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class TestFlatAdam:
    def test_equals_per_parameter_reference(self):
        """Five steps, bit for bit: fresh gradient arrays (steps 1-3), a
        parameter without a gradient (step 3), gradients wrapping the caller's
        arrays (step 4) and
        gradients written in place into the adopted views (step 5)."""
        rng = np.random.default_rng(7)
        init = [np.asarray(rng.normal(size=s)) for s in SHAPES]
        params = [Parameter(a.copy()) for a in init]
        opt = Adam(params, lr=0.05)
        ref = [a.copy() for a in init]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in init]
        for step in range(1, 6):
            grads = [np.asarray(rng.normal(size=s)) for s in SHAPES]
            if step == 3:
                grads[1] = None
            if step == 4:
                for p, g in zip(params, grads):
                    p.grad = Tensor(g)
            elif step == 5:
                for p, g in zip(params, grads):
                    np.copyto(p.grad.data, g)
            else:
                for p, g in zip(params, grads):
                    p.grad = None if g is None else Tensor(g.copy())
            opt.step()
            _reference_adam(ref, grads, moments, step, 0.05)
            for i, p in enumerate(params):
                assert np.array_equal(p.data, ref[i]), (step, i)
                assert np.array_equal(opt._m[i], moments[i][0]), (step, i)
                assert np.array_equal(opt._v[i], moments[i][1]), (step, i)

    def test_one_aligned_slab_in_reverse_parameter_order(self):
        params = [Parameter(np.full(s, float(i))) for i, s in enumerate(SHAPES)]
        opt = Adam(params, lr=0.1)
        for flat in (opt.flat_params, opt.flat_grads, opt._flat_m, opt._flat_v):
            assert flat.ctypes.data % 64 == 0
            assert flat.size == sum(p.size for p in params)
        starts = [span.start for span in opt.spans]
        assert starts == sorted(starts, reverse=True) and starts[-1] == 0
        for i, p in enumerate(params):
            assert np.array_equal(p.data, np.full(SHAPES[i], float(i)))
            assert np.shares_memory(p.data, opt.flat_params)
            assert np.shares_memory(opt._m[i], opt._flat_m)
            assert np.shares_memory(opt._v[i], opt._flat_v)
        # a parameter's neighbours in the slab are its list neighbours
        assert opt.slices([0, 1]) == [slice(opt.spans[1].start, opt.spans[0].stop)]
        assert len(opt.slices([0, 2])) == 2

    def test_fresh_gradients_are_copied_into_the_slab(self):
        params = [Parameter(np.ones(s)) for s in SHAPES]
        opt = Adam(params, lr=0.1)
        fresh = [np.full(s, 2.0) for s in SHAPES]
        for p, g in zip(params, fresh):
            p.grad = Tensor(g)
        opt.step()
        for p, g in zip(params, fresh):
            assert np.shares_memory(p.grad.data, opt.flat_grads)
            assert not np.shares_memory(p.grad.data, g)
            assert np.array_equal(p.grad.data, g)
        fresh[0][:] = 5.0  # the caller's array stays the caller's
        assert np.all(params[0].grad.data == 2.0)

    def test_one_kernel_per_step_over_the_updated_bytes(self):
        params = [Parameter(np.ones(s)) for s in SHAPES]
        opt = Adam(params, lr=0.1)
        for p in params:
            p.grad = Tensor(np.ones(p.shape))
        params[2].grad = None
        with kernel_stats() as ks:
            opt.step()
        assert ks.by_name == {"adam_step": 1}
        assert ks.bytes_out == sum(p.data.nbytes for p in params) - params[2].data.nbytes

    def test_parameter_listed_twice_rejected(self):
        p = Parameter(np.ones(3))
        with pytest.raises(ValueError, match="twice"):
            Adam([p, p], lr=0.1)


def _factory_with_unused_parameter():
    """A small CHGNet with one parameter the loss never reaches, registered
    in the middle of the parameter list (inside the flush's one bucket)."""
    config = CHGNetConfig(
        atom_fea_dim=8, bond_fea_dim=8, angle_fea_dim=8, num_radial=5,
        angular_order=2, hidden_dim=8,
    ).with_level(OptLevel.DECOMPOSE_FS)
    model = CHGNetModel(config, np.random.default_rng(5))
    modules = list(model.modules())
    modules[len(modules) // 2].never_used = Parameter(np.ones(16))
    return model


class TestFlatFlushWithGradlessParameter:
    @pytest.mark.parametrize("compile_", [False, True])
    def test_buckets_bytes_and_weights_match_per_parameter_flush(self, tiny_entries, compile_):
        """Per-rank gradients reduced one parameter at a time plus the
        per-parameter Adam loop give the trainer's weights bit for bit; the
        gradless parameter is in no bucket, sends no bytes and never moves."""
        dt = DistributedTrainer(
            _factory_with_unused_parameter,
            StructureDataset(tiny_entries),
            DistributedConfig(
                world_size=2, global_batch_size=8, epochs=1, learning_rate=1e-3,
                seed=0, n_buckets=1, compile=compile_,
            ),
        )
        params = dt._params[0]
        names = [name for name, _ in dt.replicas[0].named_parameters()]
        unused = next(i for i, name in enumerate(names) if name.endswith("never_used"))
        frozen = params[unused].data.copy()
        ref = [p.data.copy() for p in params]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in ref]
        comm = SimCommunicator(2)
        seen = []
        flush, reduce = dt._flush_gradients, dt.comm.allreduce_mean_inplace

        def spying_flush():
            seen.append(
                [[None if p.grad is None else p.grad.data.copy() for p in ps] for ps in dt._params]
            )
            flush()

        sent = []

        def counting(per_rank, work=None):
            sent.append(sum(b.nbytes for b in per_rank))
            return reduce(per_rank, work)

        dt._flush_gradients = spying_flush
        dt.comm.allreduce_mean_inplace = counting
        for t, shards in enumerate(dt.loader, 1):
            lr = dt.optimizers[0].lr
            dt.train_step(shards)
            grads = seen[-1]
            for i in range(len(params)):
                if grads[0][i] is not None:
                    comm.allreduce_mean_inplace([grads[r][i] for r in range(2)])
            _reference_adam(ref, grads[0], moments, t, lr)
            for rank in range(2):
                for i, p in enumerate(dt._params[rank]):
                    assert np.array_equal(p.data, ref[i]), (t, rank, i)
        assert not dt._trainable[unused] and grads[0][unused] is None
        trainable = [i for i, ok in enumerate(dt._trainable) if ok]
        assert dt._buckets.buckets == [sorted(trainable, reverse=True)]
        assert unused in range(min(trainable), max(trainable))  # a hole in the bucket
        steps = len(dt.loader)
        assert sum(sent) / steps == 2 * sum(params[i].data.nbytes for i in trainable)
        assert len(sent) == steps * len(dt._flush)
        assert np.array_equal(params[unused].data, frozen)


class TestConfigLearningRate:
    @pytest.mark.parametrize("world_size", [1, 4])
    @pytest.mark.parametrize("lr", [0.0, -1.0])
    def test_non_positive_lr_rejected_on_construction(self, world_size, lr):
        with pytest.raises(ValueError, match=f"learning rate must be positive, got {lr}"):
            DistributedConfig(world_size=world_size, learning_rate=lr)

    @pytest.mark.parametrize("world_size", [1, 4])
    def test_explicit_lr_is_used_as_given(self, world_size):
        config = DistributedConfig(world_size=world_size, learning_rate=2e-4)
        assert config.resolve_lr() == 2e-4


class TestSchedules:
    def test_lr_scaling_rule(self):
        assert np.isclose(scaled_learning_rate(128), BASE_LR)
        assert np.isclose(scaled_learning_rate(2048), 2048 / 128 * BASE_LR)
        assert np.isclose(scaled_learning_rate(64), 0.5 * BASE_LR)

    def test_lr_scaling_invalid_batch(self):
        with pytest.raises(ValueError):
            scaled_learning_rate(0)

    def test_cosine_decays_to_eta_min(self):
        opt = Adam([Parameter(np.ones(1))], lr=1.0)
        sched = CosineAnnealingLR(opt, total_steps=10, eta_min=0.1)
        for _ in range(10):
            sched.step()
        assert np.isclose(opt.lr, 0.1)

    def test_cosine_halfway(self):
        opt = Adam([Parameter(np.ones(1))], lr=1.0)
        sched = CosineAnnealingLR(opt, total_steps=10, eta_min=0.0)
        for _ in range(5):
            sched.step()
        assert np.isclose(opt.lr, 0.5)

    def test_cosine_monotone_decreasing(self):
        opt = Adam([Parameter(np.ones(1))], lr=1.0)
        sched = CosineAnnealingLR(opt, total_steps=20)
        lrs = [sched.step() for _ in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_clamps_after_total(self):
        opt = Adam([Parameter(np.ones(1))], lr=1.0)
        sched = CosineAnnealingLR(opt, total_steps=5)
        for _ in range(8):
            sched.step()
        assert opt.lr >= 0.0


class TestMetrics:
    def test_mae(self):
        assert mae(np.array([1.0, 2.0]), np.array([2.0, 0.0])) == 1.5

    def test_r2_perfect(self, rng):
        x = rng.normal(size=20)
        assert r_squared(x, x) == 1.0

    def test_r2_mean_predictor_zero(self, rng):
        y = rng.normal(size=50)
        assert abs(r_squared(np.full(50, y.mean()), y)) < 1e-9

    def test_r2_constant_target(self):
        assert r_squared(np.ones(5), np.ones(5)) == 1.0
