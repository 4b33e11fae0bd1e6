"""Same-process A/B of the slab Adam + slice flush against the per-parameter
Adam + packed flush they replaced, on the ledger's ``train_ddp`` workload.

Usage (from the repository root)::

    PYTHONPATH=src:benchmarks/perf python docs/perf/pr34_inprocess_ab.py SEED [RUNS] > out.json

One process builds the workload once and then alternates blocks of 16 ops
between the two implementations, so both run on the same heap, the same
warmed program cache and the same box state.  The "old" side is the
per-parameter Adam loop and the pack/unpack flush of the parent commit,
run on the same parameter, gradient and moment arrays (so weights stay
bit-identical between blocks).  The ledger compares two processes, and its
calibration slice moves with process layout by more than this change saves
(docs/perf/pr34_ledger.md); this harness has no such term.

It runs only on the trees up to commit 8e96f18: the old side reads
``Adam``'s ``beta1``, ``beta2``, ``eps`` and ``weight_decay`` attributes,
which the next commit replaced with the module constants of
``repro.train.optimizer`` (and no weight decay).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

# BLAS pinned to one thread, as the ledger's child processes pin it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from repro.runtime.kernels import record_kernel  # noqa: E402
from repro.train import distributed  # noqa: E402
from repro.train.optimizer import Adam  # noqa: E402
from workloads import TrainDDP  # noqa: E402

SIZE = {"structures": 32, "max_atoms": 6, "global_batch": 4, "dim": 16, "warm_cycles": 2}
BLOCKS, OPS_PER_BLOCK = 24, 16


def old_adam_step(self) -> None:
    self.t += 1
    b1, b2 = self.beta1, self.beta2
    bc1 = 1.0 - b1**self.t
    bc2 = 1.0 - b2**self.t
    for i, p in enumerate(self.params):
        if p.grad is None:
            continue
        g = p.grad.data
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        m, v = self._m[i], self._v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        record_kernel("adam_step", p.data.nbytes)


def old_flush(self) -> None:
    if not hasattr(self, "_old_layouts"):
        new_flush(self)  # builds the buckets from the first step's gradients
        self._old_layouts = []
        for bucket in self._buckets.buckets:
            off, layout = 0, []
            for i in bucket:
                n = self._params[0][i].data.size
                layout.append((i, off, n))
                off += n
            self._old_layouts.append(layout)
        world = self.config.world_size
        self._old_packs = [np.empty((world, sum(n for *_, n in lay))) for lay in self._old_layouts]
        self._old_work = [None] * len(self._old_layouts)
        return
    world = range(self.config.world_size)
    for b, layout in enumerate(self._old_layouts):
        pack = self._old_packs[b]
        for r in world:
            row = pack[r]
            for i, off, n in layout:
                np.copyto(row[off : off + n], self._params[r][i].grad.data.ravel())
        self._old_work[b] = self._allreduce(list(pack), self._old_work[b])
        for r in world:
            row = pack[r]
            for i, off, n in layout:
                grad = self._params[r][i].grad.data
                np.copyto(grad, row[off : off + n].reshape(grad.shape))


new_step = Adam.step
new_flush = distributed.DistributedTrainer._flush_gradients


def one_run(seed: int) -> dict:
    workload = TrainDDP(seed, SIZE)
    workload.inputs()
    workload.warmup()
    ops = {"new": [], "old": []}
    i = 0
    for block in range(BLOCKS):
        side = "new" if block % 2 == 0 else "old"
        Adam.step = new_step if side == "new" else old_adam_step
        distributed.DistributedTrainer._flush_gradients = new_flush if side == "new" else old_flush
        for _ in range(OPS_PER_BLOCK):
            t0 = time.perf_counter()
            workload._op(i)
            ops[side].append((time.perf_counter() - t0) * 1e3)
            i += 1
    Adam.step, distributed.DistributedTrainer._flush_gradients = new_step, new_flush
    return {
        side: {
            "op_ms_p50": float(np.median(v)),
            "op_ms_p90": float(np.percentile(v, 90)),
            "ops": len(v),
        }
        for side, v in ops.items()
    }


def main() -> None:
    seed = int(sys.argv[1])
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    results = [one_run(seed) for _ in range(runs)]
    for r in results:
        r["p50_ratio"] = r["new"]["op_ms_p50"] / r["old"]["op_ms_p50"]
        r["p90_ratio"] = r["new"]["op_ms_p90"] / r["old"]["op_ms_p90"]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    print(json.dumps({
        "seed": seed,
        "blocks": BLOCKS,
        "ops_per_block": OPS_PER_BLOCK,
        "provenance": {
            "commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "cpu": models[0] if models else "",
        },
        "runs": results,
    }, indent=1))


if __name__ == "__main__":
    main()
