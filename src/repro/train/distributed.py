"""Data-parallel training over simulated ranks.

Functionally exact data parallelism: one model replica per rank, per-rank
forward/backward on the sampler's shard, gradient averaging through
:class:`~repro.comm.communicator.SimCommunicator`, identical optimizer steps
everywhere.  Replicas provably stay bit-identical (tested), which is the
invariant real DDP maintains.  Wall-clock behavior of a *cluster* is modeled
separately (:mod:`repro.comm.scaling`) from measured per-rank compute plus
the alpha-beta communication model.

``DistributedConfig(compile=True)`` runs the path the paper's 1.5-hour
result rests on, end to end:

* the :class:`~repro.data.samplers.BucketBatchSampler` forms size-sorted
  global blocks with fixed load-balanced shards and plans a few exact
  padded shapes over all of them, at most as many as the program cache
  holds;
* the :class:`~repro.data.loader.ShardedLoader` pads every shard to its
  planned shape (cached on the source batch); the ranks of a step may
  carry different shapes;
* each rank owns a :class:`~repro.tensor.compile.StepCompiler` over one
  shared program cache; the largest planned shape is captured when the
  trainer is built (it sizes the cache's slab), the others as the first
  epoch meets them, and every later step replays (when shards arrive
  unpadded — ``pad_shards=False`` — the compilers tier them themselves,
  warm-started from the sampler's shard statistics);
* the backward's gradients are flushed through **liveness-ordered buckets**
  (:class:`GradientBuckets`): each bucket is mean-allreduced through the
  communicator's in-place collective as soon as its gradients are complete,
  and the same bucket layout (per-bucket bytes + ready times) feeds the
  alpha-beta overlap model (:meth:`DistributedTrainer.modeled_overlap`)
  instead of the uniform spread.

The compiled path is bit-identical to the eager distributed path on the
same padded shards (``pad_shards=True`` forces the eager comparison run
through the identical pipeline), and replicas stay bitwise in sync either
way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.comm.communicator import SimCommunicator
from repro.comm.cost_model import ClusterSpec, OverlapResult, simulate_overlap
from repro.comm.faults import CollectiveTimeout, FaultPlan, FaultyCommunicator
from repro.data.dataset import StructureDataset
from repro.data.loader import ShardedLoader
from repro.data.samplers import BucketBatchSampler, DefaultSampler, LoadBalanceSampler
from repro.graph.batching import GraphBatch
from repro.model.chgnet import CHGNetModel
from repro.train.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.train.loss import CompositeLoss, LossWeights
from repro.train.optimizer import Adam
from repro.train.schedule import CosineAnnealingLR, scaled_learning_rate

#: Format tag of the distributed training-state checkpoint payload.
CHECKPOINT_KIND = "distributed-v1"


@dataclass
class DistributedConfig:
    """Configuration of a simulated multi-GPU run.

    ``compile=True`` switches every rank to compile-once training steps over
    bucket-sampled shards padded to planned shapes (see the module docstring); the
    companion knobs default to "follow ``compile``" so the eager comparison
    pipeline can be forced explicitly:

    * ``bucket_sampler`` — use the size-bucketed sampler (``None``: iff
      compiling; the legacy ``load_balance`` flag picks the sampler
      otherwise);
    * ``pad_shards`` — pad shards to the sampler's planned canonical shapes
      (``None``: iff compiling).  Forcing ``True`` on an eager run yields a
      pipeline bit-identical to the compiled one;
    * ``memoize_shards`` — reuse collated shard batches across epochs
      (``None``: iff compiling; shards are static under the bucket sampler,
      so with the padded-batch cache repeat epochs bind-and-replay);
    * ``n_buckets`` — gradient-flush buckets for the overlapped allreduce;
    * ``validate_replay`` — re-run every replayed step eagerly and assert
      bitwise equality (test harness);
    * ``share_programs`` — hand every rank compiler one
      :class:`~repro.tensor.compile.SharedProgramCache`: a program depends
      on the padded shape only, so each planned shape is captured once and
      every rank that meets it replays it after rebinding its own weights
      (capture cost / ``world_size``).  The ranks of one step need not meet
      the same shape (docs/architecture.md, "Padding: tiers for streams,
      plans for fixed blocks");
    * ``flatten_buckets`` — pack each gradient bucket into one contiguous
      scratch message per rank and run a single in-place mean-allreduce per
      bucket instead of one per parameter (bit-identical averages);
    * ``trace_ring`` — route the packed per-bucket flush messages through
      the explicit ring allreduce and record per-collective transfer
      traces (see :class:`repro.comm.communicator.SimCommunicator`), so
      the modeled per-bucket bytes can be checked against actual traced
      messages;
    * ``max_flush_retries`` / ``flush_backoff`` — bounded retry around
      each flush collective when a fault plan injects
      :class:`~repro.comm.faults.CollectiveTimeout`: up to
      ``max_flush_retries`` retries per collective with exponential
      *virtual* backoff (``flush_backoff * 2**attempt`` seconds,
      accumulated in ``backoff_seconds`` for honest pricing, never slept).
    """

    world_size: int = 4
    global_batch_size: int = 32
    epochs: int = 1
    scale_lr: bool = True  # Eq. 14 on the *global* batch size
    learning_rate: float | None = None
    load_balance: bool = True
    loss_weights: LossWeights = field(default_factory=LossWeights)
    huber_delta: float = 0.1
    seed: int = 0
    compile: bool = False
    n_buckets: int = 8
    bucket_sampler: bool | None = None
    pad_shards: bool | None = None
    memoize_shards: bool | None = None
    validate_replay: bool = False
    share_programs: bool = True
    flatten_buckets: bool = True
    trace_ring: bool = False
    max_flush_retries: int = 2
    flush_backoff: float = 1e-3

    def resolve_lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        if self.scale_lr:
            return scaled_learning_rate(self.global_batch_size)
        from repro.train.schedule import BASE_LR

        return BASE_LR

    def use_bucket_sampler(self) -> bool:
        return self.compile if self.bucket_sampler is None else self.bucket_sampler

    def use_pad_shards(self) -> bool:
        return self.compile if self.pad_shards is None else self.pad_shards

    def resolve_memoize(self) -> bool | None:
        if self.memoize_shards is None:
            return True if self.compile else None
        return self.memoize_shards


@dataclass
class StepStats:
    """Per-step record: loss plus per-rank compute seconds (for the model)."""

    loss: float
    energy_mae: float
    force_mae: float
    rank_compute_seconds: np.ndarray
    rank_feature_numbers: np.ndarray


class GradientBuckets:
    """Liveness-ordered gradient buckets for the overlapped allreduce flush.

    Parameters are walked in **reverse construction order** — the order their
    gradients become complete during the backward pass (outputs first) — and
    greedily packed into at most ``n_buckets`` near-equal-byte groups.
    Parameters that can never receive gradients (the trainer's cached
    trainable mask) are excluded entirely instead of being zero-filled and
    averaged for nothing.

    ``ready_fractions`` approximates when each bucket's gradients are
    complete as the cumulative byte share of the backward pass — the
    per-bucket timings the alpha-beta overlap model consumes in place of a
    uniform spread.
    """

    def __init__(self, params: list, trainable: list[bool], n_buckets: int) -> None:
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        order = [i for i in reversed(range(len(params))) if trainable[i]]
        if not order:
            raise ValueError("no trainable parameters to bucket")
        sizes = {i: int(params[i].data.nbytes) for i in order}
        self.total_bytes = sum(sizes.values())
        n_buckets = min(n_buckets, len(order))
        target = self.total_bytes / n_buckets
        self.buckets: list[list[int]] = []
        current: list[int] = []
        current_bytes = 0
        for i in order:
            current.append(i)
            current_bytes += sizes[i]
            if current_bytes >= target and len(self.buckets) < n_buckets - 1:
                self.buckets.append(current)
                current, current_bytes = [], 0
        if current:
            self.buckets.append(current)
        self.bucket_bytes = [
            float(sum(sizes[i] for i in bucket)) for bucket in self.buckets
        ]
        # Flat-message layout: each bucket's parameters at fixed element
        # offsets inside one contiguous scratch message (the flattened
        # collective packs/unpacks through this plan every step).
        self.layouts: list[list[tuple[int, int, int]]] = []  # (param, off, n)
        self.bucket_elems: list[int] = []
        for bucket in self.buckets:
            off = 0
            layout = []
            for i in bucket:
                n = int(params[i].data.size)
                layout.append((i, off, n))
                off += n
            self.layouts.append(layout)
            self.bucket_elems.append(off)

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    @property
    def ready_fractions(self) -> list[float]:
        """Cumulative backward-progress fraction at which each bucket is ready."""
        acc = 0.0
        out = []
        for b in self.bucket_bytes:
            acc += b
            out.append(acc / self.total_bytes)
        return out


class DistributedTrainer:
    """DDP-style trainer across ``world_size`` simulated ranks."""

    def __init__(
        self,
        model_factory: Callable[[], CHGNetModel],
        train_dataset: StructureDataset,
        config: DistributedConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config or DistributedConfig()
        cfg = self.config
        self.replicas = [model_factory() for _ in range(cfg.world_size)]
        # Synchronize initial weights, as DDP broadcasts from rank 0.
        state = self.replicas[0].state_dict()
        for rep in self.replicas[1:]:
            rep.load_state_dict(state)
        if fault_plan is not None:
            self.comm: SimCommunicator | FaultyCommunicator = FaultyCommunicator(
                cfg.world_size, fault_plan, trace_ring=cfg.trace_ring
            )
        else:
            self.comm = SimCommunicator(cfg.world_size, trace_ring=cfg.trace_ring)
        self.loss_fn = CompositeLoss(cfg.loss_weights, cfg.huber_delta)
        lr = cfg.resolve_lr()
        self._params = [rep.parameters() for rep in self.replicas]
        self.optimizers = [Adam(params, lr=lr) for params in self._params]

        if cfg.use_bucket_sampler():
            self.sampler = BucketBatchSampler(
                train_dataset.feature_numbers,
                cfg.global_batch_size,
                cfg.world_size,
                seed=cfg.seed,
                dims=getattr(train_dataset, "graph_dims", None),
            )
        else:
            sampler_cls = LoadBalanceSampler if cfg.load_balance else DefaultSampler
            self.sampler = sampler_cls(
                train_dataset.feature_numbers,
                cfg.global_batch_size,
                cfg.world_size,
                seed=cfg.seed,
            )
        self.loader = ShardedLoader(
            train_dataset,
            self.sampler,
            memoize=cfg.resolve_memoize(),
            pad=cfg.use_pad_shards(),
        )

        self.compilers = None
        if cfg.compile:
            from repro.tensor.compile import SharedProgramCache, StepCompiler

            # One program cache for all ranks (unless disabled): a program
            # depends on the padded shape only, so one capture per planned
            # shape serves every rank that meets it, after rebinding that
            # rank's own parameters.
            shared = SharedProgramCache() if cfg.share_programs else None
            self.compilers = [
                StepCompiler(
                    rep, self.loss_fn, validate=cfg.validate_replay, cache=shared
                )
                for rep in self.replicas
            ]
            sharers = self.compilers[:1] if cfg.share_programs else self.compilers
            if cfg.use_pad_shards():
                # The loader pads every shard to a shape the sampler planned,
                # so the largest program this run needs is known now:
                # capture it first and the slab is allocated once, at its
                # final size (docs/architecture.md, "Padding: tiers for
                # streams, plans for fixed blocks").  A capture only writes
                # ``.grad``; the other shapes are captured as epoch 1 meets
                # them, where the capturing step is a training step anyway.
                largest = self.loader.largest_planned_batch()
                if largest is not None:
                    for compiler in sharers:
                        compiler.step(largest)
            else:
                # Raw shards are tiered by the compilers themselves; seed
                # their canonical shapes (one shared dict under a shared cache).
                entries = self.sampler.warm_start_entries(has_labels=True)
                for compiler in sharers:
                    compiler.warm_start(entries)

        total_steps = max(1, len(self.loader) * cfg.epochs)
        self.schedulers = [
            CosineAnnealingLR(opt, total_steps, eta_min=0.01 * lr) for opt in self.optimizers
        ]
        self.steps: list[StepStats] = []
        # Progress cursor: global step across the whole run plus the
        # (epoch, step-in-epoch) position the resume path restarts from.
        # All shuffling is derived from (seed, epoch), so this cursor *is*
        # the complete RNG state of the data order.
        self.global_step = 0
        self._epoch = 0
        self._step_in_epoch = 0
        # Straggler-mitigation accounting: collectives retried after an
        # injected timeout, and the virtual backoff seconds they cost.
        self.flush_retries = 0
        self.backoff_seconds = 0.0
        # Built on the first step, once gradients reveal the trainable set.
        self._trainable: list[bool] | None = None
        self._buckets: GradientBuckets | None = None
        self._flush_work: list[np.ndarray | None] = []
        # Flattened-collective scratch: one (world, elems) pack per bucket
        # plus the communicator's reusable work block.
        self._packs: list[np.ndarray] = []
        self._pack_work: list[np.ndarray | None] = []

    def train_step(self, shards: list[GraphBatch]) -> StepStats:
        """One synchronized step: local grads, bucketed allreduce, updates."""
        cfg = self.config
        if len(shards) != cfg.world_size:
            raise ValueError(f"{len(shards)} shards for {cfg.world_size} ranks")
        advance = getattr(self.comm, "advance", None)
        if advance is not None:
            advance(self.global_step)
        compute_times = np.zeros(cfg.world_size)
        losses = np.zeros(cfg.world_size)
        e_maes = np.zeros(cfg.world_size)
        f_maes = np.zeros(cfg.world_size)
        for rank, (model, batch) in enumerate(zip(self.replicas, shards)):
            t0 = time.perf_counter()
            if self.compilers is not None:
                breakdown = self.compilers[rank].step(batch)
            else:
                model.zero_grad()
                out = model.forward(batch, training=True)
                breakdown = self.loss_fn(out, batch)
                breakdown.loss.backward()
            compute_times[rank] = time.perf_counter() - t0
            losses[rank] = float(breakdown.loss.data)
            e_maes[rank] = breakdown.energy_mae
            f_maes[rank] = breakdown.force_mae
        skew_fn = getattr(self.comm, "compute_skew", None)
        if skew_fn is not None:
            # Straggler injection: the slow rank's virtual clock runs behind,
            # so modeled (max-rank) step time prices the straggler honestly.
            for rank in range(cfg.world_size):
                compute_times[rank] += skew_fn(rank)

        self._flush_gradients()
        for opt, sched in zip(self.optimizers, self.schedulers):
            opt.step()
            sched.step()
        self.global_step += 1
        self._step_in_epoch += 1

        stats = StepStats(
            loss=float(losses.mean()),
            energy_mae=float(e_maes.mean()),
            force_mae=float(f_maes.mean()),
            rank_compute_seconds=compute_times,
            rank_feature_numbers=np.array([b.feature_number for b in shards], dtype=float),
        )
        self.steps.append(stats)
        return stats

    # ------------------------------------------------------------ grad flush
    def _allreduce(self, bufs: list[np.ndarray], work: np.ndarray | None) -> np.ndarray:
        """One flush collective with bounded retry on injected timeouts.

        :class:`~repro.comm.faults.CollectiveTimeout` fires *before* any
        buffer is touched, so a retry simply reissues the collective.  Each
        retry accrues exponential virtual backoff (``flush_backoff *
        2**attempt`` seconds) into ``backoff_seconds`` — priced, never
        slept.  The timeout is re-raised once ``max_flush_retries`` is
        exhausted; :class:`~repro.comm.faults.RankFailure` is never retried
        (a dead rank needs the elastic recovery path, not a retry).
        """
        attempts = 0
        while True:
            try:
                return self.comm.allreduce_mean_inplace(bufs, work)
            except CollectiveTimeout:
                if attempts >= self.config.max_flush_retries:
                    raise
                self.flush_retries += 1
                self.backoff_seconds += self.config.flush_backoff * (2.0**attempts)
                attempts += 1

    def _flush_gradients(self) -> None:
        """Bucketed mean-allreduce of the just-written gradients, in place.

        Buckets are flushed in liveness order (the order backward completes
        them); the averaged gradients land directly in every replica's
        ``.grad`` arrays.  Parameters the model never grads are skipped via
        the mask cached on the first step (instead of being zero-filled,
        averaged and re-assigned every step).

        With ``flatten_buckets`` (the default) each bucket is packed into
        one contiguous per-rank scratch message and mean-allreduced in a
        *single* collective — per-array latency collapses to one launch per
        bucket, and the traced message matches the modeled per-bucket bytes.
        The mean is elementwise over the rank axis either way, so flattened
        averages are bit-identical to the per-parameter collectives.
        """
        params0 = self._params[0]
        if self._buckets is None:
            self._trainable = [p.grad is not None for p in params0]
            self._buckets = GradientBuckets(
                params0, self._trainable, self.config.n_buckets
            )
            self._flush_work = [None] * len(params0)
            if self.config.flatten_buckets:
                world = self.config.world_size
                self._packs = [
                    np.empty((world, elems)) for elems in self._buckets.bucket_elems
                ]
                self._pack_work = [None] * self._buckets.n_buckets
        world = range(self.config.world_size)
        if not self.config.flatten_buckets:
            for bucket in self._buckets.buckets:
                for i in bucket:
                    grads = [self._params[r][i].grad.data for r in world]
                    self._flush_work[i] = self._allreduce(grads, self._flush_work[i])
            return
        for b, layout in enumerate(self._buckets.layouts):
            pack = self._packs[b]
            for r in world:
                row = pack[r]
                for i, off, n in layout:
                    np.copyto(row[off : off + n], self._params[r][i].grad.data.ravel())
            self._pack_work[b] = self._allreduce(list(pack), self._pack_work[b])
            for r in world:
                row = pack[r]
                for i, off, n in layout:
                    grad = self._params[r][i].grad.data
                    np.copyto(grad, row[off : off + n].reshape(grad.shape))

    def measured_ready_fractions(self) -> list[float] | None:
        """Measured per-bucket gradient-completion fractions, or ``None``.

        Replays rank 0's most recent compiled program with per-instruction
        timestamps (:meth:`~repro.tensor.compile.CompiledStep.replay_measured`)
        and reads, for each flush bucket, the time at which the launch
        completing its *last* gradient finished — measured readiness in
        replay order instead of the byte-share model.  Fractions are of the
        whole replayed step; ``None`` when not compiling or before the first
        replayed/captured step.
        """
        if self.compilers is None or self._buckets is None:
            return None
        prog = self.compilers[0].last_program
        if prog is None or not prog.grad_writes:
            return None
        times = prog.replay_measured()
        if times.size == 0 or times[-1] <= 0.0:
            return None
        total = float(times[-1])
        slot_of = dict(prog.grad_writes)
        fractions = []
        for bucket in self._buckets.buckets:
            idxs = [
                prog.grad_instr_index(slot_of[i]) for i in bucket if i in slot_of
            ]
            idx = max(idxs, default=-1)
            fractions.append(float(times[idx]) / total if idx >= 0 else 0.0)
        return fractions

    def modeled_overlap(
        self,
        spec: ClusterSpec,
        backward_time: float | None = None,
        measured: bool | None = None,
    ) -> OverlapResult:
        """Alpha-beta overlap of the real bucket layout behind the backward.

        Feeds the liveness-ordered per-bucket payloads and their ready times
        into :func:`repro.comm.cost_model.simulate_overlap`.  Ready times
        come from :meth:`measured_ready_fractions` (instrumented replay of
        the captured program, rescaled into the backward window) when
        compiling — the byte-share-of-backward model is the fallback, or is
        forced with ``measured=False``.  ``backward_time`` defaults to 2/3
        of the mean max-rank compute measured so far.
        """
        if self._buckets is None:
            raise RuntimeError("run at least one training step first")
        if backward_time is None:
            if not self.steps:
                raise RuntimeError("no measured steps to derive backward_time from")
            mean_compute = float(
                np.mean([s.rank_compute_seconds.max() for s in self.steps])
            )
            backward_time = 2.0 / 3.0 * mean_compute
        fractions = None
        if measured is None or measured:
            fractions = self.measured_ready_fractions()
            if fractions is None and measured:
                raise RuntimeError(
                    "measured ready times require a compiled trainer with at "
                    "least one captured step"
                )
        if fractions is None:
            fractions = self._buckets.ready_fractions
        buckets = self._buckets
        return simulate_overlap(
            backward_time=backward_time,
            grad_bytes=buckets.total_bytes,
            world_size=self.config.world_size,
            spec=spec,
            bucket_bytes=buckets.bucket_bytes,
            ready_times=[min(f, 1.0) * backward_time for f in fractions],
        )

    def compile_stats(self) -> dict[str, int] | None:
        """Aggregated per-rank compiler counters (``None`` when eager)."""
        if self.compilers is None:
            return None
        totals: dict[str, int] = {}
        for compiler in self.compilers:
            for key, value in compiler.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ----------------------------------------------------- checkpoint/resume
    def training_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """Everything a bit-identical resume needs, as ``(arrays, meta)``.

        Arrays: rank-0 model weights and Adam first/second moments (all
        replicas and per-rank optimizers are identical by the sync
        invariant).  Meta: Adam scalar state, the LR schedule's position,
        and the progress cursor.  The data order needs no live RNG state —
        every shuffle is a pure function of ``(seed, epoch)``, so the
        cursor alone pins it.
        """
        cfg = self.config
        opt, sched = self.optimizers[0], self.schedulers[0]
        arrays: dict[str, np.ndarray] = {
            f"model/{name}": arr for name, arr in self.replicas[0].state_dict().items()
        }
        for i, (m, v) in enumerate(zip(opt._m, opt._v)):
            arrays[f"adam/m/{i}"] = m.copy()
            arrays[f"adam/v/{i}"] = v.copy()
        meta = {
            "kind": CHECKPOINT_KIND,
            "adam": {"t": opt.t, "lr": opt.lr, "n_params": len(opt.params)},
            "schedule": {
                "step_count": sched.step_count,
                "base_lr": sched.base_lr,
                "total_steps": sched.total_steps,
                "eta_min": sched.eta_min,
            },
            "progress": {
                "epoch": self._epoch,
                "step_in_epoch": self._step_in_epoch,
                "global_step": self.global_step,
            },
            "run": {
                "seed": cfg.seed,
                "global_batch_size": cfg.global_batch_size,
                "world_size": cfg.world_size,
                "epochs": cfg.epochs,
            },
        }
        return arrays, meta

    def save_checkpoint(self, path: str) -> None:
        """Atomically write the current training state to ``path``."""
        arrays, meta = self.training_state()
        save_checkpoint(path, arrays, meta)

    def load_training_state(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        """Restore a :meth:`training_state` payload into this trainer.

        The restored run must share ``seed`` and ``global_batch_size`` with
        the checkpointed one (the data order is derived from them — a
        mismatch breaks the resume contract and raises
        :class:`~repro.train.checkpoint.CheckpointError`); ``world_size``
        *may* differ (elastic shrink/replace), since per-rank sharding of a
        global batch does not change the averaged gradient.
        """
        cfg = self.config
        if meta.get("kind") != CHECKPOINT_KIND:
            raise CheckpointError(
                f"checkpoint kind {meta.get('kind')!r} is not {CHECKPOINT_KIND!r}"
            )
        run = meta["run"]
        for key in ("seed", "global_batch_size"):
            if run[key] != getattr(cfg, key):
                raise CheckpointError(
                    f"checkpoint {key}={run[key]} does not match config "
                    f"{key}={getattr(cfg, key)}; the resumed data order would diverge"
                )
        model_state = {
            name[len("model/") :]: arr
            for name, arr in arrays.items()
            if name.startswith("model/")
        }
        adam, sched_meta, progress = meta["adam"], meta["schedule"], meta["progress"]
        n_params = adam["n_params"]
        if n_params != len(self.optimizers[0].params):
            raise CheckpointError(
                f"checkpoint has {n_params} optimizer slots, model has "
                f"{len(self.optimizers[0].params)}"
            )
        moments = []
        for i in range(n_params):
            try:
                moments.append((arrays[f"adam/m/{i}"], arrays[f"adam/v/{i}"]))
            except KeyError as exc:
                raise CheckpointError(f"checkpoint missing Adam moment {exc}") from exc
        for rep in self.replicas:
            rep.load_state_dict(model_state)
        for opt in self.optimizers:
            opt.t = int(adam["t"])
            opt.lr = float(adam["lr"])
            for i, (m, v) in enumerate(moments):
                if m.shape != opt._m[i].shape:
                    raise CheckpointError(
                        f"Adam moment {i} shape {m.shape} does not match "
                        f"parameter shape {opt._m[i].shape}"
                    )
                np.copyto(opt._m[i], m)
                np.copyto(opt._v[i], v)
        for sched in self.schedulers:
            sched.step_count = int(sched_meta["step_count"])
            sched.base_lr = float(sched_meta["base_lr"])
            # The checkpointed horizon wins over the constructor's (an
            # elastic world change must not bend the LR trajectory).
            sched.total_steps = int(sched_meta["total_steps"])
            sched.eta_min = float(sched_meta["eta_min"])
            sched.optimizer.lr = float(adam["lr"])
        self._epoch = int(progress["epoch"])
        self._step_in_epoch = int(progress["step_in_epoch"])
        self.global_step = int(progress["global_step"])

    @classmethod
    def resume(
        cls,
        path: str,
        model_factory: Callable[[], CHGNetModel],
        train_dataset: StructureDataset,
        config: DistributedConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> "DistributedTrainer":
        """Rebuild a trainer from a checkpoint and continue its run.

        Constructs a fresh trainer for ``config`` (samplers, loaders,
        gradient buckets, and compilers all rebuild for the configured —
        possibly different — world size) and restores the checkpointed
        weights, moments, schedule position, and progress cursor into it.
        Continuing with the *same* world size reproduces the uninterrupted
        run bit-for-bit; a smaller world keeps the same data order and
        schedule but sums per-rank gradients in a different order.
        """
        arrays, meta = load_checkpoint(path)
        trainer = cls(model_factory, train_dataset, config, fault_plan=fault_plan)
        trainer.load_training_state(arrays, meta)
        return trainer

    # ------------------------------------------------------------- train loop
    def train_epoch(self) -> list[StepStats]:
        return [self.train_step(shards) for shards in self.loader]

    def train(
        self, checkpoint_path: str | None = None, checkpoint_every: int = 1
    ) -> list[StepStats]:
        """Run from the current progress cursor to ``config.epochs``.

        On a fresh trainer this is the plain multi-epoch loop; on a resumed
        one it re-enters the interrupted epoch at the checkpointed step
        (same ``(seed, epoch)`` shuffle, completed steps skipped).  With
        ``checkpoint_path`` the state is saved every ``checkpoint_every``
        global steps and once more when training completes.
        """
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        while self._epoch < self.config.epochs:
            epoch, skip = self._epoch, self._step_in_epoch
            for i, shards in enumerate(self.loader.iter_epoch(epoch)):
                if i < skip:
                    continue
                self.train_step(shards)
                if checkpoint_path and self.global_step % checkpoint_every == 0:
                    self.save_checkpoint(checkpoint_path)
            self._epoch += 1
            self._step_in_epoch = 0
        if checkpoint_path:
            self.save_checkpoint(checkpoint_path)
        return self.steps

    def replicas_in_sync(self, atol: float = 0.0) -> bool:
        """Whether all replicas hold identical weights (the DDP invariant)."""
        ref = self.replicas[0].state_dict()
        for rep in self.replicas[1:]:
            other = rep.state_dict()
            for name, arr in ref.items():
                if not np.allclose(arr, other[name], atol=atol, rtol=0.0):
                    return False
        return True

    @property
    def model(self) -> CHGNetModel:
        """Rank-0 replica (all replicas are identical after each step)."""
        return self.replicas[0]
