"""Train-once model cache shared by the accuracy benches (Table I, Fig. 7).

Three variants, mirroring Table I's rows:

* ``chgnet`` — reference CHGNet v0.3.0-like (BASELINE level, derivative
  forces/stress, second-order training),
* ``fast_wo_head`` — FastCHGNet "w/o head" (all system optimizations,
  derivative forces/stress),
* ``fast_fs_head`` — FastCHGNet "F/S head" (Force/Stress decomposition).

Each variant is trained once per ``REPRO_SCALE`` and cached (checkpoint +
metrics JSON) under the bench cache directory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench.workloads import _cache_dir, scale, scaled, training_splits
from repro.model import CHGNetConfig, CHGNetModel, OptLevel
from repro.train import DistributedConfig, DistributedTrainer, evaluate

VARIANT_LEVELS: dict[str, OptLevel] = {
    "chgnet": OptLevel.BASELINE,
    "fast_wo_head": OptLevel.FUSED,
    "fast_fs_head": OptLevel.DECOMPOSE_FS,
}

VARIANT_LABELS: dict[str, str] = {
    "chgnet": "CHGNet (reference, v0.3.0-like)",
    "fast_wo_head": "FastCHGNet w/o head",
    "fast_fs_head": "FastCHGNet F/S head",
}


def train_config() -> DistributedConfig:
    """The shared accuracy-bench training configuration (paper-scaled)."""
    return DistributedConfig(
        world_size=1,
        epochs=scaled(8, minimum=2),
        global_batch_size=8,
        # The paper trains 30 epochs x ~11k steps on MPtrj; this substrate
        # has a ~100-step budget, so the LR is raised and the Huber delta
        # widened to keep energy training in the quadratic regime.
        learning_rate=1e-3,
        huber_delta=1.0,
        seed=0,
    )


def _paths(variant: str) -> tuple[Path, Path]:
    stem = f"trained_{variant}_scale{scale():g}"
    cache = _cache_dir()
    return cache / f"{stem}.npz", cache / f"{stem}.json"


def build_model(variant: str, seed: int = 7) -> CHGNetModel:
    """A fresh (untrained) model of the given variant."""
    level = VARIANT_LEVELS[variant]
    return CHGNetModel(CHGNetConfig(opt_level=level), np.random.default_rng(seed))


def train_variant(variant: str, force: bool = False) -> dict:
    """Train (or load) one variant; returns its metrics record."""
    if variant not in VARIANT_LEVELS:
        raise KeyError(f"unknown variant {variant!r}; choose from {sorted(VARIANT_LEVELS)}")
    ckpt, meta = _paths(variant)
    if not force and ckpt.exists() and meta.exists():
        return json.loads(meta.read_text())

    splits = training_splits()
    model = build_model(variant)
    t0 = time.perf_counter()
    trainer = DistributedTrainer(lambda: model, splits.train, train_config())
    trainer.train()
    train_seconds = time.perf_counter() - t0
    result, _ = evaluate(model, splits.test)
    record = {
        "variant": variant,
        "label": VARIANT_LABELS[variant],
        "params": model.num_parameters(),
        "train_seconds": train_seconds,
        "energy_mae": result.energy_mae,
        "force_mae": result.force_mae,
        "stress_mae": result.stress_mae,
        "magmom_mae": result.magmom_mae,
        "energy_r2": result.energy_r2,
        "force_r2": result.force_r2,
        "epochs": trainer.config.epochs,
        "train_size": len(splits.train),
        "test_size": len(splits.test),
    }
    model.save(str(ckpt))
    meta.write_text(json.dumps(record, indent=2))
    return record


def load_trained(variant: str) -> tuple[CHGNetModel, dict]:
    """A trained model instance plus its metrics (training if necessary)."""
    record = train_variant(variant)
    ckpt, _ = _paths(variant)
    model = build_model(variant)
    model.load(str(ckpt))
    return model, record
