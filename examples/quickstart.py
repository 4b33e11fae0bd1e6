"""Quickstart: train FastCHGNet on a small synthetic-MPtrj corpus.

Builds the dataset (prototype crystals + DFT-oracle labels), trains the
Force/Stress-head FastCHGNet for a few epochs, and evaluates the four
properties on the held-out test split — the paper's Table I pipeline in
miniature.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.data import generate_mptrj, split_dataset
from repro.model import FastCHGNet
from repro.train import DistributedConfig, DistributedTrainer, evaluate


def main() -> None:
    print("Generating synthetic MPtrj corpus (oracle-labeled crystals)...")
    entries = generate_mptrj(n_structures=80, seed=1, max_atoms=10)
    splits = split_dataset(entries, seed=0)
    print(
        f"  {len(splits.train)} train / {len(splits.val)} val / {len(splits.test)} test; "
        f"feature numbers {splits.train.feature_numbers.min()}..{splits.train.feature_numbers.max()}"
    )

    model = FastCHGNet(np.random.default_rng(7))
    print(f"FastCHGNet (F/S head): {model.num_parameters():,} parameters")

    # One device is the one-rank case of the data-parallel trainer.
    trainer = DistributedTrainer(
        lambda: model,
        splits.train,
        DistributedConfig(
            world_size=1, global_batch_size=8, epochs=5, learning_rate=3e-4, seed=0
        ),
        val_dataset=splits.val,
    )
    trainer.add_epoch_hook(
        lambda epoch, r: print(
            f"epoch {epoch:3d} loss={r.train_loss:.4f} "
            f"E={r.train_energy_mae * 1e3:7.1f}meV/atom "
            f"F={r.train_force_mae * 1e3:7.1f}meV/A | val E={r.val.energy_mae * 1e3:7.1f}"
        )
    )
    print("Training (Huber loss, prefactors 2/1.5/0.1/0.1, Adam + cosine annealing)...")
    trainer.train()

    result, _ = evaluate(model, splits.test)
    print("\nTest-set accuracy (Table I format):")
    print("| model | E (meV/atom) | F (meV/A) | S | M (m-muB) |")
    print(result.row("FastCHGNet"))
    print(f"energy R^2 = {result.energy_r2:.4f}")

    print("\nSaving checkpoint to fastchgnet_quickstart.npz")
    model.save("fastchgnet_quickstart.npz")


if __name__ == "__main__":
    main()
