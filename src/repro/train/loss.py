"""Composite Huber training loss (paper Section IV).

The four properties are weighted with the paper's prefactors
(:data:`ENERGY_WEIGHT` 2, :data:`FORCE_WEIGHT` 1.5, :data:`STRESS_WEIGHT` 0.1,
:data:`MAGMOM_WEIGHT` 0.1).  On the reference model the
force/stress terms differentiate *through* energy gradients, which is what
makes the weight update second-order.

Padded (bucketed) batches carry ``pad_info``: their ghost rows are excluded
with exactly-zero weights via masked Huber means, and the reported MAEs are
computed over the real prefix only (:func:`batch_metrics`, shared with the
compiled-step replay so the two paths cannot drift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.batching import GraphBatch
from repro.model.chgnet import ModelOutput
from repro.tensor import Tensor, add, huber_loss, mul

#: Prefactors of the composite loss (paper Section IV).
ENERGY_WEIGHT = 2.0
FORCE_WEIGHT = 1.5
STRESS_WEIGHT = 0.1
MAGMOM_WEIGHT = 0.1


@dataclass
class LossBreakdown:
    """Scalar loss plus per-property MAEs of one batch."""

    loss: Tensor
    energy_mae: float
    force_mae: float
    stress_mae: float
    magmom_mae: float

    def as_dict(self) -> dict[str, float]:
        return {
            "loss": float(self.loss.data),
            "energy_mae": self.energy_mae,
            "force_mae": self.force_mae,
            "stress_mae": self.stress_mae,
            "magmom_mae": self.magmom_mae,
        }


def batch_metrics(
    energy: np.ndarray,
    forces: np.ndarray,
    stress: np.ndarray,
    magmom: np.ndarray,
    batch: GraphBatch,
) -> tuple[float, float, float, float]:
    """Per-property MAEs of predictions vs batch labels (pad-aware).

    On padded batches both predictions and labels are restricted to the real
    prefix, so ghost rows never influence reported metrics.  Used by the
    eager loss and by the compiled-step replay.
    """
    pi = batch.pad_info
    if pi is None:
        le, lf, ls, lm = batch.energy_per_atom, batch.forces, batch.stress, batch.magmom
    else:
        energy = energy[: pi.num_structs]
        forces = forces[: pi.num_atoms]
        stress = stress[: pi.num_structs]
        magmom = magmom[: pi.num_atoms]
        le = batch.aux(("energy_real",))
        lf = batch.aux(("forces_real",))
        ls = batch.aux(("stress_real",))
        lm = batch.aux(("magmom_real",))
    return (
        float(np.mean(np.abs(energy - le))),
        float(np.mean(np.abs(forces - lf))),
        float(np.mean(np.abs(stress - ls))),
        float(np.mean(np.abs(magmom - lm))),
    )


class CompositeLoss:
    """Weighted Huber loss over energy/forces/stress/magmom."""

    def __init__(self, delta: float = 0.1) -> None:
        self.delta = delta

    def __call__(self, output: ModelOutput, batch: GraphBatch) -> LossBreakdown:
        if batch.energy_per_atom is None:
            raise ValueError("batch has no labels; collate with labels for training")
        if batch.pad_info is None:
            le = huber_loss(output.energy_per_atom, Tensor(batch.energy_per_atom), self.delta)
            lf = huber_loss(output.forces, Tensor(batch.forces), self.delta)
            ls = huber_loss(output.stress, Tensor(batch.stress), self.delta)
            lm = huber_loss(output.magmom, Tensor(batch.magmom), self.delta)
        else:
            # Masked means: ghost rows get exactly-zero weight and the sums
            # are divided by the real element counts, so gradients w.r.t.
            # real predictions match the unpadded loss exactly.
            struct_mask = Tensor(batch.aux(("pad_mask", "struct")))
            atom_col = Tensor(batch.aux(("pad_mask", "atom_col")))
            atom_mask = Tensor(batch.aux(("pad_mask", "atom")))
            stress_mask = Tensor(batch.aux(("pad_mask", "stress")))
            le = huber_loss(
                output.energy_per_atom,
                Tensor(batch.energy_per_atom),
                self.delta,
                mask=struct_mask,
                count=Tensor(batch.aux(("pad_count", "energy"))),
            )
            lf = huber_loss(
                output.forces,
                Tensor(batch.forces),
                self.delta,
                mask=atom_col,
                count=Tensor(batch.aux(("pad_count", "forces"))),
            )
            ls = huber_loss(
                output.stress,
                Tensor(batch.stress),
                self.delta,
                mask=stress_mask,
                count=Tensor(batch.aux(("pad_count", "stress"))),
            )
            lm = huber_loss(
                output.magmom,
                Tensor(batch.magmom),
                self.delta,
                mask=atom_mask,
                count=Tensor(batch.aux(("pad_count", "magmom"))),
            )
        loss = add(
            add(mul(le, ENERGY_WEIGHT), mul(lf, FORCE_WEIGHT)),
            add(mul(ls, STRESS_WEIGHT), mul(lm, MAGMOM_WEIGHT)),
        )
        e_mae, f_mae, s_mae, m_mae = batch_metrics(
            output.energy_per_atom.data,
            output.forces.data,
            output.stress.data,
            output.magmom.data,
            batch,
        )
        return LossBreakdown(
            loss=loss,
            energy_mae=e_mae,
            force_mae=f_mae,
            stress_mae=s_mae,
            magmom_mae=m_mae,
        )
