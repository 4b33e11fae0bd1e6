"""Train while serving: :class:`ServingTrainer`.

A :class:`~repro.train.distributed.DistributedTrainer` that, at the end of
every :data:`PUBLISH_EVERY`-th epoch, publishes the trained weights into a live
:class:`repro.serve.InferenceEngine` as a new served version, so a fleet
keeps answering requests (in-flight ones pinned to the version they entered
with) while the trainer fine-tunes.  The publish is an epoch hook
(:meth:`~repro.train.distributed.DistributedTrainer.add_epoch_hook`), the
same mechanism a custom checkpoint sink uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> model)
    from repro.serve import InferenceEngine

from repro.data.dataset import StructureDataset
from repro.model.chgnet import CHGNetModel
from repro.train.distributed import DistributedConfig, DistributedTrainer, EpochRecord

#: Epochs between publishes: every epoch's weights reach the fleet.
PUBLISH_EVERY = 1


class ServingTrainer(DistributedTrainer):
    """A trainer that streams checkpoints into a live serving engine.

    The train-while-serving loop of iterative fine-tuning: at the end of
    every :data:`PUBLISH_EVERY`-th epoch rank 0's weights are published into
    ``engine`` (:meth:`repro.serve.InferenceEngine.publish_weights`) as a
    new served version and become the default for new requests.  Requests
    already queued in the engine stay pinned to the version they were
    submitted under, and the publish triggers zero program recaptures, so
    the fleet never drains while training runs.

    When the engine wraps the *same* model object rank 0 trains (a
    ``world_size=1`` run whose factory returns the served model), the
    publish snapshots it directly; otherwise the state dict is handed over
    explicitly — either way the engine stores a private copy, so the
    optimizer's in-place updates never leak into served versions.
    ``published_versions`` records the version id of every publish.
    """

    def __init__(
        self,
        model_factory: Callable[[], CHGNetModel],
        train_dataset: StructureDataset,
        engine: "InferenceEngine",
        config: DistributedConfig | None = None,
    ) -> None:
        super().__init__(model_factory, train_dataset, config)
        self.engine = engine
        self.published_versions: list[int] = []
        self.add_epoch_hook(self._publish)

    def _publish(self, epoch: int, record: EpochRecord) -> None:
        if (epoch + 1) % PUBLISH_EVERY:
            return
        state = None if self.engine.model is self.model else self.model.state_dict()
        self.published_versions.append(self.engine.publish_weights(state=state))
