"""Evaluation metrics: per-property MAE (Table I) and R-squared (Fig. 7)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import StructureDataset
from repro.model.chgnet import CHGNetModel
from repro.tensor import no_grad

#: Structures per evaluation batch.
EVAL_BATCH_SIZE = 16


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(target))))


def r_squared(pred: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination R^2 (Fig. 7's fit quality)."""
    pred = np.asarray(pred).ravel()
    target = np.asarray(target).ravel()
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass
class EvalResult:
    """Test-set accuracy in the paper's Table I units."""

    energy_mae: float  # eV/atom
    force_mae: float  # eV/A
    stress_mae: float  # stress units (GPa-like)
    magmom_mae: float  # mu_B
    energy_r2: float = float("nan")
    force_r2: float = float("nan")

    def row(self, label: str) -> str:
        """Markdown row in Table I format (meV/atom, meV/A, GPa, m-mu_B)."""
        return (
            f"| {label} | {self.energy_mae * 1e3:.1f} | {self.force_mae * 1e3:.1f} | "
            f"{self.stress_mae:.4f} | {self.magmom_mae * 1e3:.1f} |"
        )


@dataclass
class ParityData:
    """Prediction-vs-truth scatter data for parity plots (Fig. 7)."""

    energy_pred: np.ndarray
    energy_true: np.ndarray
    force_pred: np.ndarray
    force_true: np.ndarray


def evaluate(
    model: CHGNetModel,
    dataset: StructureDataset,
    collect_parity: bool = False,
) -> tuple[EvalResult, ParityData | None]:
    """Run the model over a dataset and aggregate Table I metrics.

    The reference model's forces require gradient machinery even at eval
    time, so only the head-based model runs under ``no_grad``.
    """
    e_pred, e_true = [], []
    f_pred, f_true = [], []
    s_err, m_err = [], []
    indices = np.arange(len(dataset))
    for lo in range(0, len(indices), EVAL_BATCH_SIZE):
        chunk = indices[lo : lo + EVAL_BATCH_SIZE]
        batch = dataset.batch(chunk)
        if model.config.use_heads:
            with no_grad():
                out = model.forward(batch, training=False)
        else:
            out = model.forward(batch, training=False)
        e_pred.append(out.energy_per_atom.data.copy())
        e_true.append(batch.energy_per_atom)
        f_pred.append(out.forces.data.copy())
        f_true.append(batch.forces)
        s_err.append(np.abs(out.stress.data - batch.stress).ravel())
        m_err.append(np.abs(out.magmom.data - batch.magmom))
        del out
    e_pred_arr = np.concatenate(e_pred)
    e_true_arr = np.concatenate(e_true)
    f_pred_arr = np.concatenate(f_pred)
    f_true_arr = np.concatenate(f_true)
    result = EvalResult(
        energy_mae=mae(e_pred_arr, e_true_arr),
        force_mae=mae(f_pred_arr, f_true_arr),
        stress_mae=float(np.mean(np.concatenate(s_err))),
        magmom_mae=float(np.mean(np.concatenate(m_err))),
        energy_r2=r_squared(e_pred_arr, e_true_arr),
        force_r2=r_squared(f_pred_arr, f_true_arr),
    )
    parity = None
    if collect_parity:
        parity = ParityData(e_pred_arr, e_true_arr, f_pred_arr, f_true_arr)
    return result, parity
