"""Serve a bulk inference stream through the dynamic-batching engine.

The serving engine answers the dominant downstream question — "predict
energy/forces/stress for these N candidate structures" — by micro-batching
requests per workload tier and replaying cached compiled programs across
simulated workers.  Every served prediction is bit-identical to evaluating
that structure alone, eagerly.  The final section closes the paper's loop:
a ``ServingTrainer`` fine-tunes while the engine keeps serving, streaming
each epoch's checkpoint in as a new weight version without draining
in-flight requests.

Equivalent CLI::

    python -m repro.cli serve --requests 64 --workers 2 --compile \
        --baseline --merge-tiers --memoize 32

Run with ``PYTHONPATH=src python examples/serve_requests.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import generate_mptrj, split_dataset
from repro.graph.crystal_graph import build_graph
from repro.model import CHGNetConfig, CHGNetModel, FastCHGNet, OptLevel
from repro.serve import InferenceEngine
from repro.train import DistributedConfig, ServingTrainer

# A trained model would come from a checkpoint (model.load("weights.npz")).
model = FastCHGNet(np.random.default_rng(0))

# Screening pool: precompute graphs once (as StructureDataset does), then
# serve a request stream drawn from it.
pool = generate_mptrj(12, seed=0, max_atoms=8)
graphs = [
    build_graph(e.crystal, model.config.cutoff_atom, model.config.cutoff_bond)
    for e in pool
]
stream = [graphs[i % len(graphs)] for i in range(48)]

engine = InferenceEngine(model, n_workers=2, compile=True, max_batch_structs=8)

# --- synchronous bulk prediction (screening / relaxation farm style) -------
# Pass 1 captures one program per tier; pass 2 first-touches the arena
# pages; pass 3 is the steady serving state (pure bind-and-replay).
for label in ("cold (captures)", "warm", "steady"):
    t0 = time.perf_counter()
    preds = engine.predict_many(stream)
    wall = time.perf_counter() - t0
    print(f"{label}: {len(preds)} structures in {wall:.3f}s ({len(preds) / wall:.0f}/s)")

snap = engine.snapshot()
print(
    f"cache: {snap['replays']} replays / {snap['captures']} captures, "
    f"modeled latency p50 {snap['latency_p50'] * 1e3:.1f} ms / "
    f"p95 {snap['latency_p95'] * 1e3:.1f} ms"
)
first = preds[0]
# An untrained model's energy/force readouts are zero-initialized, so the
# magnetic moments are the interesting numbers here.
print(
    f"first result: E = {first.energy:+.4f} eV, "
    f"|magmom|max = {np.abs(first.magmom).max():.4f} muB "
    f"from worker {first.worker} (batch of {first.batch_structs})"
)

# --- async submit/poll with a deadline-bounded flush -----------------------
trickle = InferenceEngine(
    model, n_workers=1, compile=True, max_batch_structs=8, max_wait=0.5
)
rid = trickle.submit(graphs[0], now=0.0)
print("poll before deadline:", trickle.poll(rid, now=0.2))  # None: waiting
result = trickle.poll(rid, now=0.7)  # deadline passed -> partial batch flushed
print(f"poll after deadline: E/atom = {result.energy_per_atom:+.4f} eV")

# --- adaptive tier merging on a diverse trickle ----------------------------
# Exact per-tier queues flush mostly-partial groups on a diverse trickle;
# merge_tiers lets a deadline-flushed group absorb adjacent tiers (bounded
# priced padding overhead) so batches stay full.
merged = InferenceEngine(
    model, n_workers=1, compile=True, max_batch_structs=8, max_wait=0.05,
    merge_tiers=True, memoize=32,
)
ids = [merged.submit(g, now=i * 0.01) for i, g in enumerate(stream)]
merged.flush()
results = [merged.poll(i) for i in ids]
snap = merged.snapshot()
print(
    f"merged trickle: {snap['batches']} batches for {len(results)} requests "
    f"({snap['merges']} cross-tier absorptions, "
    f"padding overhead {snap['padding_overhead'] * 100:.1f}%)"
)

# --- serving under live fine-tuning ----------------------------------------
# A small model/corpus keeps the demo quick; the mechanics are identical at
# full size.  The engine serves from published weight *versions*: requests
# pinned to an old version finish on it bit-identically even when the
# trainer publishes mid-flight, and publishes never recapture programs.
cfg = CHGNetConfig(
    atom_fea_dim=8, bond_fea_dim=8, angle_fea_dim=8, num_radial=5,
    angular_order=2, hidden_dim=8, opt_level=OptLevel.DECOMPOSE_FS,
)
live_model = CHGNetModel(cfg, np.random.default_rng(1))
corpus = generate_mptrj(24, seed=5, max_atoms=8)
splits = split_dataset(corpus, seed=0)
live = InferenceEngine(live_model, n_workers=2, compile=True, max_batch_structs=4)
candidates = [e.crystal for e in corpus[:6]]

pinned = live.submit(candidates[0], now=0.0)  # queued before training starts
trainer = ServingTrainer(
    lambda: live_model,  # one rank, so the served model object is trained
    splits.train,
    live,
    config=DistributedConfig(
        world_size=1, global_batch_size=8, epochs=2, scale_lr=False, seed=0
    ),  # every epoch's checkpoint streams into the fleet
)
trainer.train()
print(
    f"published versions {trainer.published_versions} while serving; "
    f"current = {live.current_version}"
)
old = live.poll(pinned, now=10.0)  # deadline flush: served on its pinned v0
fresh = live.predict_many(candidates)  # served on the newest checkpoint
print(
    f"pinned request served on v{old.version}, fresh batch on "
    f"v{fresh[0].version}; recaptures on publish: 0 "
    f"(captures = {live.snapshot()['captures']} across both versions)"
)
