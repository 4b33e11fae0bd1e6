"""Data-parallel training over simulated ranks — the one trainer.

Functionally exact data parallelism: one model replica per rank, per-rank
forward/backward on the sampler's shard, gradient averaging through
:class:`~repro.comm.communicator.SimCommunicator`, identical optimizer steps
everywhere.  Replicas provably stay bit-identical (tested), which is the
invariant real DDP maintains.  Wall-clock behavior of a *cluster* is modeled
separately (:mod:`repro.comm.scaling`) from measured per-rank compute plus
the alpha-beta communication model.

A single-device run is the degenerate case ``world_size=1``: the model
factory is called once, so the caller's own model object is the one
trained, and the sampler's one shard per step is the whole batch.

``DistributedConfig(compile=True)`` runs the path the paper's 1.5-hour
result rests on, end to end:

* the :class:`~repro.data.samplers.BucketBatchSampler` forms size-sorted
  global blocks with fixed load-balanced shards and plans a few exact
  padded shapes over all of them, at most as many as the program cache
  holds;
* the :class:`~repro.data.loader.ShardedLoader` pads every shard to the
  shape the sampler planned for it (cached on the source batch); the ranks
  of a step may carry different shapes;
* each rank owns a :class:`~repro.tensor.compile.StepCompiler` over one
  shared program cache; rank 0 captures the largest planned shape when the
  trainer is built (it sizes the cache's slab), the others are captured as
  the first epoch meets them, and every later step replays;
* the backward's gradients are flushed through **liveness-ordered buckets**
  (:class:`GradientBuckets`): each rank's :class:`~repro.train.optimizer.Adam`
  keeps its gradients in one flat slab in bucket order, so a bucket is one
  contiguous slice of every rank's slab, mean-allreduced in place through
  the communicator's collective as soon as its gradients are complete, and
  the same bucket layout (per-bucket bytes + ready times) feeds the
  alpha-beta overlap model (:meth:`DistributedTrainer.modeled_overlap`)
  instead of the uniform spread.

The compiled path is bit-identical to the eager distributed path on the
same padded shards (``bucket_sampler=True`` on an eager run yields the
identical pipeline), and replicas stay bitwise in sync either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.comm.communicator import SimCommunicator
from repro.comm.cost_model import ClusterSpec, OverlapResult, simulate_overlap
from repro.comm.faults import CollectiveTimeout, FaultPlan
from repro.data.dataset import StructureDataset
from repro.data.loader import ShardedLoader
from repro.data.samplers import BucketBatchSampler, LoadBalanceSampler
from repro.graph.batching import GraphBatch
from repro.model.chgnet import CHGNetModel
from repro.train.checkpoint import (
    CheckpointError,
    load_checkpoint,
    pack_training_state,
    restore_training_state,
    save_checkpoint,
)
from repro.train.loss import CompositeLoss, LossWeights
from repro.train.metrics import EvalResult, evaluate
from repro.train.optimizer import Adam
from repro.train.schedule import BASE_LR, ETA_MIN_FRAC, CosineAnnealingLR, scaled_learning_rate

#: Format tag of the distributed training-state checkpoint payload.
CHECKPOINT_KIND = "distributed-v1"
#: Retries of one flush collective after an injected timeout before it is
#: re-raised: one transient stall is survived, a rank that keeps timing out
#: is not hidden.
MAX_FLUSH_RETRIES = 2
#: Virtual seconds priced after a flush's first timeout, doubling per retry:
#: the order of one bucket's collective, as the serving engine's retries.
FLUSH_BACKOFF = 1e-3


@dataclass
class DistributedConfig:
    """Configuration of a training run on ``world_size`` simulated ranks
    (1: a single device).

    ``compile=True`` switches every rank to compile-once training steps over
    bucket-sampled shards padded to planned shapes (see the module
    docstring); the companion knobs default to "follow ``compile``" so the
    eager comparison pipeline can be forced explicitly:

    * ``bucket_sampler`` — use the size-bucketed sampler (``None``: iff
      compiling; the load-balancing sampler otherwise).  Its shards are
      padded to the shapes it plans, so ``True`` on an eager run yields a
      pipeline bit-identical to the compiled one;
    * ``memoize_shards`` — reuse collated shard batches across epochs
      (``None``: iff compiling; shards are static under the bucket sampler,
      so with the padded-batch cache repeat epochs bind-and-replay);
    * ``n_buckets`` — gradient-flush buckets for the overlapped allreduce;
    * ``trace_ring`` — route the per-bucket flush messages through
      the explicit ring allreduce and record per-collective transfer
      traces (see :class:`repro.comm.communicator.SimCommunicator`), so
      the modeled per-bucket bytes can be checked against actual traced
      messages.

    All ranks' compilers share one
    :class:`~repro.tensor.compile.SharedProgramCache`: a program depends on
    the padded shape only, so each planned shape is captured once and every
    rank that meets it replays it after rebinding its own weights.  Each
    flush collective that a fault plan times out is retried up to
    ``MAX_FLUSH_RETRIES`` times with *virtual* backoff (``FLUSH_BACKOFF *
    2**attempt`` seconds, accumulated in ``backoff_seconds``, never slept).

    Construction raises ``ValueError`` for a ``world_size`` or ``n_buckets``
    below 1, a non-positive ``learning_rate`` and a global batch the ranks
    cannot split evenly.
    """

    world_size: int = 4
    global_batch_size: int = 32
    epochs: int = 1
    scale_lr: bool = True  # Eq. 14 on the *global* batch size
    learning_rate: float | None = None
    loss_weights: LossWeights = field(default_factory=LossWeights)
    huber_delta: float = 0.1
    seed: int = 0
    compile: bool = False
    n_buckets: int = 8
    bucket_sampler: bool | None = None
    memoize_shards: bool | None = None
    trace_ring: bool = False

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.global_batch_size % self.world_size != 0:
            raise ValueError(
                f"global_batch_size {self.global_batch_size} must be divisible "
                f"by world_size {self.world_size}"
            )
        # GradientBuckets is built at the first step; check the count now.
        if self.n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {self.n_buckets}")

    def resolve_lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        if self.scale_lr:
            return scaled_learning_rate(self.global_batch_size)
        return BASE_LR

    def use_bucket_sampler(self) -> bool:
        return self.compile if self.bucket_sampler is None else self.bucket_sampler

    def resolve_memoize(self) -> bool | None:
        if self.memoize_shards is None:
            return True if self.compile else None
        return self.memoize_shards


@dataclass
class StepStats:
    """Per-step record: rank-mean losses plus per-rank compute seconds (for
    the model)."""

    loss: float
    energy_mae: float
    force_mae: float
    stress_mae: float
    magmom_mae: float
    rank_compute_seconds: np.ndarray
    rank_feature_numbers: np.ndarray


@dataclass
class EpochRecord:
    """Aggregated metrics of one epoch: step means, validation, final LR."""

    epoch: int
    train_loss: float
    train_energy_mae: float
    train_force_mae: float
    train_stress_mae: float
    train_magmom_mae: float
    val: EvalResult | None = None
    lr: float = 0.0


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
    """DDP-style trainer across ``world_size`` simulated ranks.

    ``model_factory`` is called once per rank.  With ``val_dataset`` every
    completed epoch is also evaluated on it (:attr:`history`).
    """

    def __init__(
        self,
        model_factory: Callable[[], CHGNetModel],
        train_dataset: StructureDataset,
        config: DistributedConfig | None = None,
        fault_plan: FaultPlan | None = None,
        *,
        val_dataset: StructureDataset | None = None,
    ) -> None:
        self.config = config or DistributedConfig()
        cfg = self.config
        # Kept so an elastic restart can rebuild this run for another world.
        self.model_factory = model_factory
        self.train_dataset = train_dataset
        self.val_dataset = val_dataset
        self.replicas = [model_factory() for _ in range(cfg.world_size)]
        # Synchronize initial weights, as DDP broadcasts from rank 0.
        state = self.replicas[0].state_dict()
        for rep in self.replicas[1:]:
            rep.load_state_dict(state)
        self.comm = SimCommunicator(cfg.world_size, fault_plan, trace_ring=cfg.trace_ring)
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
            self.sampler = LoadBalanceSampler(
                train_dataset.feature_numbers,
                cfg.global_batch_size,
                cfg.world_size,
                seed=cfg.seed,
            )
        self.loader = ShardedLoader(train_dataset, self.sampler, memoize=cfg.resolve_memoize())
        if len(self.loader) == 0:
            raise ValueError(
                f"global batch {cfg.global_batch_size} yields no step on "
                f"{len(train_dataset)} structures; use a smaller global batch"
            )

        self.compilers = None
        if cfg.compile:
            from repro.tensor.compile import SharedProgramCache, StepCompiler

            # One program cache for all ranks: a program depends on the
            # padded shape only, so one capture per planned shape serves
            # every rank that meets it, after rebinding that rank's own
            # parameters.
            shared = SharedProgramCache()
            self.compilers = [
                StepCompiler(rep, self.loss_fn, cache=shared) for rep in self.replicas
            ]
            # The loader pads every shard to a shape the sampler planned, so
            # the largest program this run needs is known now: capture it
            # first and the slab is allocated once, at its final size
            # (docs/architecture.md, "Padding: tiers for streams, plans for
            # fixed blocks").  A capture only writes ``.grad``; the other
            # shapes are captured as epoch 1 meets them, where the capturing
            # step is a training step anyway.
            largest = self.loader.largest_planned_batch()
            if largest is not None:
                self.compilers[0].step(largest)

        total_steps = max(1, len(self.loader) * cfg.epochs)
        self.schedulers = [
            CosineAnnealingLR(opt, total_steps, eta_min=ETA_MIN_FRAC * lr)
            for opt in self.optimizers
        ]
        self.steps: list[StepStats] = []
        self.history: list[EpochRecord] = []
        self.epoch_hooks: list[Callable[[int, EpochRecord], None]] = []
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
        # Flush plan, built with the buckets: per collective, every rank's
        # slab slice, and the communicator's reusable work block for it.
        self._flush: list[list[np.ndarray]] = []
        self._flush_work: list[np.ndarray | None] = []

    def train_step(self, shards: list[GraphBatch]) -> StepStats:
        """One synchronized step: local grads, bucketed allreduce, updates."""
        cfg = self.config
        if len(shards) != cfg.world_size:
            raise ValueError(f"{len(shards)} shards for {cfg.world_size} ranks")
        self.comm.advance(self.global_step)
        compute_times = np.zeros(cfg.world_size)
        # Rows: loss, energy, force, stress and magmom MAE; one column per rank.
        metrics = np.zeros((5, cfg.world_size))
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
            metrics[:, rank] = (
                float(breakdown.loss.data),
                breakdown.energy_mae,
                breakdown.force_mae,
                breakdown.stress_mae,
                breakdown.magmom_mae,
            )
        # Straggler injection: the slow rank's virtual clock runs behind, so
        # modeled (max-rank) step time prices the straggler honestly.
        for rank in range(cfg.world_size):
            compute_times[rank] += self.comm.compute_skew(rank)

        self._flush_gradients()
        for opt, sched in zip(self.optimizers, self.schedulers):
            opt.step()
            sched.step()
        self.global_step += 1
        self._step_in_epoch += 1

        loss, e_mae, f_mae, s_mae, m_mae = (float(m) for m in metrics.mean(axis=1))
        stats = StepStats(
            loss=loss,
            energy_mae=e_mae,
            force_mae=f_mae,
            stress_mae=s_mae,
            magmom_mae=m_mae,
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
        retry accrues exponential virtual backoff (``FLUSH_BACKOFF *
        2**attempt`` seconds) into ``backoff_seconds`` — priced, never
        slept.  The timeout is re-raised once ``MAX_FLUSH_RETRIES`` is
        exhausted; :class:`~repro.comm.faults.RankFailure` is never retried
        (a dead rank needs the elastic recovery path, not a retry).
        """
        attempts = 0
        while True:
            try:
                return self.comm.allreduce_mean_inplace(bufs, work)
            except CollectiveTimeout:
                if attempts >= MAX_FLUSH_RETRIES:
                    raise
                self.flush_retries += 1
                self.backoff_seconds += FLUSH_BACKOFF * (2.0**attempts)
                attempts += 1

    def _flush_gradients(self) -> None:
        """Bucketed mean-allreduce of the just-written gradients, in place.

        Buckets are flushed in liveness order (the order backward completes
        them).  Every optimizer first adopts gradients that arrived outside
        its slab (:meth:`~repro.train.optimizer.Adam.adopt_grads`); a bucket
        is then one contiguous slice of each rank's gradient slab, handed to
        a *single* collective — one launch per bucket, no packing, and the
        averages land where Adam reads them.  The mean is elementwise over
        the rank axis, so it is bit-identical to one collective per
        parameter.  Parameters the model never grads (the mask cached on the
        first step) are in no bucket; a bucket that spans one flushes each
        contiguous run of its slots as its own collective.
        """
        missing = [opt.adopt_grads() for opt in self.optimizers]
        if self._buckets is None:
            params0 = self._params[0]
            self._trainable = [i not in missing[0] for i in range(len(params0))]
            self._buckets = GradientBuckets(
                params0, self._trainable, self.config.n_buckets
            )
            self._flush = [
                [opt.flat_grads[run] for opt in self.optimizers]
                for bucket in self._buckets.buckets
                for run in self.optimizers[0].slices(bucket)
            ]
            self._flush_work = [None] * len(self._flush)
        for rank, absent in enumerate(missing):
            if any(self._trainable[i] for i in absent):
                raise RuntimeError(
                    f"rank {rank}: a trainable parameter has no gradient this step"
                )
        for k, views in enumerate(self._flush):
            self._flush_work[k] = self._allreduce(views, self._flush_work[k])

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

        Rank 0's weights, Adam moments and schedule position
        (:func:`~repro.train.checkpoint.pack_training_state`; all replicas
        and per-rank optimizers are identical by the sync invariant), plus
        the progress cursor and the run identity.  The data order needs no
        live RNG state — every shuffle is a pure function of ``(seed,
        epoch)``, so the cursor alone pins it.
        """
        cfg = self.config
        progress = {
            "epoch": self._epoch,
            "step_in_epoch": self._step_in_epoch,
            "global_step": self.global_step,
        }
        run = {
            "seed": cfg.seed,
            "global_batch_size": cfg.global_batch_size,
            "world_size": cfg.world_size,
            "epochs": cfg.epochs,
        }
        arrays, state = pack_training_state(
            self.replicas[0], self.optimizers[0], self.schedulers[0]
        )
        return arrays, {"kind": CHECKPOINT_KIND, **state, "progress": progress, "run": run}

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
        global batch does not change the averaged gradient.  The payload
        is validated in full before anything is written, so a rejected one
        leaves this trainer untouched.
        """
        if meta.get("kind") != CHECKPOINT_KIND:
            raise CheckpointError(
                f"checkpoint kind {meta.get('kind')!r} is not {CHECKPOINT_KIND!r}"
            )
        cfg = self.config
        for key in ("seed", "global_batch_size"):
            if meta["run"][key] != getattr(cfg, key):
                raise CheckpointError(
                    f"checkpoint {key}={meta['run'][key]} does not match config "
                    f"{key}={getattr(cfg, key)}; the resumed data order would diverge"
                )
        restore_training_state(
            arrays, meta, self.replicas, self.optimizers, self.schedulers
        )
        progress = meta["progress"]
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
        *,
        val_dataset: StructureDataset | None = None,
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
        trainer = cls(
            model_factory, train_dataset, config, fault_plan, val_dataset=val_dataset
        )
        trainer.load_training_state(arrays, meta)
        return trainer

    # ------------------------------------------------------------- train loop
    def add_epoch_hook(self, hook: Callable[[int, EpochRecord], None]) -> None:
        """Register ``hook(epoch, record)`` to run at the end of every epoch.

        Hooks run after validation and after the epoch cursor advances, in
        registration order — the mechanism behind checkpoint streaming
        (:class:`~repro.train.trainer.ServingTrainer` publishes the fresh
        weights into a serving engine from one of these).
        """
        self.epoch_hooks.append(hook)

    def train(
        self, checkpoint_path: str | None = None, checkpoint_every: int = 1
    ) -> list[StepStats]:
        """Run from the current progress cursor to ``config.epochs``.

        On a fresh trainer this is the plain multi-epoch loop; on a resumed
        one it re-enters the interrupted epoch at the checkpointed step
        (same ``(seed, epoch)`` shuffle, completed steps skipped).  With
        ``checkpoint_path`` the state is saved every ``checkpoint_every``
        global steps and once more when training completes.

        Each epoch that ran a step here appends one :class:`EpochRecord`
        (means of its steps, validation on ``val_dataset``, the LR reached)
        to :attr:`history`; then the cursor advances and the epoch hooks
        run.  An epoch resumed at its very end ran its steps, record and
        hooks in the run that checkpointed it.
        """
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        while self._epoch < self.config.epochs:
            epoch, skip = self._epoch, self._step_in_epoch
            first = len(self.steps)
            for i, shards in enumerate(self.loader.iter_epoch(epoch)):
                if i < skip:
                    continue
                self.train_step(shards)
                if checkpoint_path and self.global_step % checkpoint_every == 0:
                    self.save_checkpoint(checkpoint_path)
            ran = self.steps[first:]
            record = None
            if ran:
                means = np.mean(
                    [
                        [s.loss, s.energy_mae, s.force_mae, s.stress_mae, s.magmom_mae]
                        for s in ran
                    ],
                    axis=0,
                )
                record = EpochRecord(epoch, *means, lr=self.optimizers[0].lr)
                if self.val_dataset is not None:
                    record.val, _ = evaluate(self.model, self.val_dataset)
                self.history.append(record)
            # Advance the cursor before hooks run, so a checkpoint written
            # from a hook records this epoch as completed.
            self._epoch += 1
            self._step_in_epoch = 0
            if record is not None:
                for hook in self.epoch_hooks:
                    hook(epoch, record)
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
