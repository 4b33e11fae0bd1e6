"""Single-device trainer: the paper's training loop at any OptLevel.

:class:`Trainer` runs the loop; :class:`ServingTrainer` extends it with the
train-while-serving hook — at the end of every ``publish_every``-th epoch it
publishes the model's weights into a live
:class:`repro.serve.InferenceEngine` as a new served version, so a fleet
keeps answering requests (in-flight ones pinned to the version they entered
with) while the trainer fine-tunes.  Generic epoch-end hooks
(:meth:`Trainer.add_epoch_hook`) carry the same mechanism for custom
checkpoint sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> model)
    from repro.serve import InferenceEngine

from repro.data.dataset import StructureDataset
from repro.data.loader import DataLoader
from repro.graph.batching import GraphBatch
from repro.model.chgnet import CHGNetModel
from repro.train.checkpoint import (
    load_checkpoint,
    pack_training_state,
    restore_training_state,
    save_checkpoint,
)
from repro.train.loss import CompositeLoss, LossBreakdown, LossWeights
from repro.train.metrics import EvalResult, evaluate
from repro.train.optimizer import Adam
from repro.train.schedule import BASE_LR, ETA_MIN_FRAC, CosineAnnealingLR, scaled_learning_rate

#: Format tag of the single-device training-state checkpoint payload.
CHECKPOINT_KIND = "single-v1"


@dataclass
class TrainConfig:
    """Hyperparameters of one training run (paper Section IV defaults).

    ``compile=True`` turns on the compile-once training step
    (:class:`repro.tensor.compile.StepCompiler`): each batch is padded to a
    planned shape or a shape tier, the first batch of a shape captures the
    full forward/loss/backward tape, and later batches replay it with arena
    buffers and fused kernels — bit-identical to the eager step, with an
    automatic eager fallback when a program's guards fail.

    ``compile_blocks`` selects the loader's size-sorted block mode
    (``None``: iff compiling) — the single-device analogue of the
    distributed bucket sampler: static size-sorted batches padded to the few
    shapes the block sampler plans, the largest captured when the trainer is
    built and the rest in epoch 1, so every later epoch is replay-only.
    The cosine schedule decays to ``ETA_MIN_FRAC`` of the initial LR.
    Construction raises ``ValueError`` for a non-positive ``learning_rate``.
    """

    epochs: int = 30
    batch_size: int = 128
    learning_rate: float | None = None  # None -> BASE_LR (no scaling)
    scale_lr: bool = False  # apply Eq. 14 to the batch size
    loss_weights: LossWeights = field(default_factory=LossWeights)
    huber_delta: float = 0.1
    seed: int = 0
    compile: bool = False
    compile_blocks: bool | None = None

    def __post_init__(self) -> None:
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")

    def use_blocks(self) -> bool:
        return self.compile if self.compile_blocks is None else self.compile_blocks

    def resolve_lr(self, effective_batch_size: int | None = None) -> float:
        """The initial learning rate.

        ``effective_batch_size`` is the batch size actually used after
        clamping to the dataset length; Eq. 14 scales with the batch that
        really reaches the optimizer, not the configured one.
        """
        if self.learning_rate is not None:
            return self.learning_rate
        if self.scale_lr:
            return scaled_learning_rate(effective_batch_size or self.batch_size)
        return BASE_LR


@dataclass
class EpochRecord:
    """Aggregated metrics of one epoch."""

    epoch: int
    train_loss: float
    train_energy_mae: float
    train_force_mae: float
    train_stress_mae: float
    train_magmom_mae: float
    val: EvalResult | None = None
    lr: float = 0.0


class Trainer:
    """Train a CHGNet/FastCHGNet model on a :class:`StructureDataset`."""

    def __init__(
        self,
        model: CHGNetModel,
        train_dataset: StructureDataset,
        val_dataset: StructureDataset | None = None,
        config: TrainConfig | None = None,
    ) -> None:
        self.model = model
        self.train_dataset = train_dataset
        self.val_dataset = val_dataset
        self.config = config or TrainConfig()
        self.loss_fn = CompositeLoss(self.config.loss_weights, self.config.huber_delta)
        effective_batch_size = min(self.config.batch_size, len(train_dataset))
        self.optimizer = Adam(
            model.parameters(), lr=self.config.resolve_lr(effective_batch_size)
        )
        use_blocks = self.config.use_blocks()
        self.loader = DataLoader(
            train_dataset,
            batch_size=effective_batch_size,
            seed=self.config.seed,
            blocks=use_blocks,
            memoize=True if use_blocks else None,
        )
        self.compiler = None
        if self.config.compile:
            from repro.tensor.compile import StepCompiler

            self.compiler = StepCompiler(model, self.loss_fn)
            # Planned blocks: capture the largest now, so the slab is sized
            # once (the distributed trainer's constructor says more).
            largest = self.loader.largest_planned_batch()
            if largest is not None:
                self.compiler.step(largest)
        total_steps = max(1, len(self.loader) * self.config.epochs)
        self.scheduler = CosineAnnealingLR(
            self.optimizer, total_steps, eta_min=ETA_MIN_FRAC * self.optimizer.lr
        )
        self.history: list[EpochRecord] = []
        self.epoch_hooks: list[Callable[[int, EpochRecord], None]] = []
        # Completed-epoch cursor: train() starts here, so a trainer restored
        # from a checkpoint continues instead of starting over.
        self._epoch = 0

    def add_epoch_hook(self, hook: Callable[[int, EpochRecord], None]) -> None:
        """Register ``hook(epoch, record)`` to run at the end of every epoch.

        Hooks run after validation, in registration order — the mechanism
        behind checkpoint streaming (:class:`ServingTrainer` publishes the
        fresh weights into a serving engine from one of these).
        """
        self.epoch_hooks.append(hook)

    def train_step(self, batch: GraphBatch) -> LossBreakdown:
        """One optimization step: forward, composite loss, backward, Adam.

        With ``config.compile`` the forward/loss/backward runs as a captured
        tape replay (gradients land in ``.grad`` exactly as eager backward
        would leave them); the optimizer and schedule always run eagerly.
        """
        if self.compiler is not None:
            breakdown = self.compiler.step(batch)
        else:
            self.model.zero_grad()
            output = self.model.forward(batch, training=True)
            breakdown = self.loss_fn(output, batch)
            breakdown.loss.backward()
        self.optimizer.step()
        self.scheduler.step()
        return breakdown

    def train_epoch(self, epoch: int) -> EpochRecord:
        """Run one full pass over the loader; returns the epoch's mean losses."""
        sums = np.zeros(5)
        n = 0
        for batch in self.loader:
            b = self.train_step(batch)
            sums += [
                float(b.loss.data),
                b.energy_mae,
                b.force_mae,
                b.stress_mae,
                b.magmom_mae,
            ]
            n += 1
        if n == 0:
            raise RuntimeError("training epoch produced no batches (dataset too small?)")
        avg = sums / n
        record = EpochRecord(
            epoch=epoch,
            train_loss=avg[0],
            train_energy_mae=avg[1],
            train_force_mae=avg[2],
            train_stress_mae=avg[3],
            train_magmom_mae=avg[4],
            lr=self.optimizer.lr,
        )
        if self.val_dataset is not None:
            record.val, _ = evaluate(self.model, self.val_dataset)
        self.history.append(record)
        # Advance the cursor before hooks run, so a checkpoint hook records
        # this epoch as completed.
        self._epoch = epoch + 1
        for hook in self.epoch_hooks:
            hook(epoch, record)
        return record

    # ----------------------------------------------------- checkpoint/resume
    def training_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """Epoch-granular training state as ``(arrays, meta)``.

        Model weights plus Adam moments in ``arrays``; Adam scalars, the LR
        schedule's position, and the completed-epoch cursor in ``meta``
        (:func:`~repro.train.checkpoint.pack_training_state`).
        The loader's shuffle is a pure function of ``(seed, epoch)``, so
        the cursor alone pins the resumed data order (mid-epoch cursors are
        the distributed trainer's job — see
        :meth:`repro.train.DistributedTrainer.training_state`).
        """
        return pack_training_state(
            self.model,
            self.optimizer,
            self.scheduler,
            CHECKPOINT_KIND,
            {"epoch": self._epoch},
            {"seed": self.config.seed, "batch_size": self.config.batch_size},
        )

    def save_checkpoint(self, path: str) -> None:
        """Atomically write the current training state to ``path``."""
        arrays, meta = self.training_state()
        save_checkpoint(path, arrays, meta)

    def load_training_state(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        """Restore a :meth:`training_state` payload into this trainer.

        ``seed`` and ``batch_size`` must match the checkpointed run (the
        data order derives from them); mismatches raise
        :class:`~repro.train.checkpoint.CheckpointError`, as does a payload
        that does not fit this model.  The payload is validated in full
        before anything is written, so a rejected one leaves this trainer
        untouched.
        """
        progress = restore_training_state(
            arrays,
            meta,
            CHECKPOINT_KIND,
            {"seed": self.config.seed, "batch_size": self.config.batch_size},
            [self.model],
            [self.optimizer],
            [self.scheduler],
        )
        self._epoch = int(progress["epoch"])
        # Re-anchor the loader so its next auto-advanced epoch matches the
        # cursor (train() passes epochs explicitly anyway).
        self.loader.epoch = self._epoch

    @classmethod
    def resume(
        cls,
        path: str,
        model: CHGNetModel,
        train_dataset: StructureDataset,
        val_dataset: StructureDataset | None = None,
        config: TrainConfig | None = None,
    ) -> "Trainer":
        """Rebuild a trainer from a checkpoint and continue its run."""
        arrays, meta = load_checkpoint(path)
        trainer = cls(model, train_dataset, val_dataset, config)
        trainer.load_training_state(arrays, meta)
        return trainer

    def add_checkpoint_hook(self, path: str, every: int = 1) -> None:
        """Save the training state to ``path`` every ``every`` epochs.

        Epoch-end sugar over :meth:`add_epoch_hook` +
        :meth:`save_checkpoint`; the write is atomic and CRC-stamped, so an
        interrupted run always finds the last completed save intact.
        """
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")

        def _save(epoch: int, record: EpochRecord) -> None:
            if (epoch + 1) % every == 0:
                self.save_checkpoint(path)

        self.add_epoch_hook(_save)

    def train(self, verbose: bool = False) -> list[EpochRecord]:
        """Run from the completed-epoch cursor to ``config.epochs``."""
        for epoch in range(self._epoch, self.config.epochs):
            record = self.train_epoch(epoch)
            if verbose:
                msg = (
                    f"epoch {epoch:3d} loss={record.train_loss:.4f} "
                    f"E={record.train_energy_mae * 1e3:7.1f}meV/atom "
                    f"F={record.train_force_mae * 1e3:7.1f}meV/A lr={record.lr:.2e}"
                )
                if record.val:
                    msg += f" | val E={record.val.energy_mae * 1e3:7.1f}"
                print(msg, flush=True)
        return self.history


class ServingTrainer(Trainer):
    """Trainer that streams checkpoints into a live serving engine.

    The train-while-serving loop of iterative fine-tuning: at the end of
    every ``publish_every``-th epoch the model's weights are published into
    ``engine`` (:meth:`repro.serve.InferenceEngine.publish_weights`) as a
    new served version and become the default for new requests.  Requests
    already queued in the engine stay pinned to the version they were
    submitted under, and the publish triggers zero program recaptures, so
    the fleet never drains while training runs.

    When the engine wraps the *same* model object being trained, the
    publish snapshots it directly; otherwise the state dict is handed over
    explicitly — either way the engine stores a private copy, so the
    optimizer's in-place updates never leak into served versions.
    ``published_versions`` records the version id of every publish.
    """

    def __init__(
        self,
        model,
        train_dataset: StructureDataset,
        engine: "InferenceEngine",
        val_dataset: StructureDataset | None = None,
        config: TrainConfig | None = None,
        publish_every: int = 1,
    ) -> None:
        if publish_every < 1:
            raise ValueError(f"publish_every must be >= 1, got {publish_every}")
        super().__init__(model, train_dataset, val_dataset, config)
        self.engine = engine
        self.publish_every = publish_every
        self.published_versions: list[int] = []
        self.add_epoch_hook(self._publish)

    def _publish(self, epoch: int, record: EpochRecord) -> None:
        if (epoch + 1) % self.publish_every:
            return
        state = None if self.engine.model is self.model else self.model.state_dict()
        self.published_versions.append(self.engine.publish_weights(state=state))
