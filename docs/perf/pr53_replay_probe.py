"""Same-process A/B of where a replay reads its integer constants.

Usage (from the repository root)::

    python docs/perf/pr53_replay_probe.py SEED [BLOCKS] > out.json

Builds ``train_ddp`` at full size (``benchmarks/perf/workloads.py``), binds
its three largest planned programs in turn and, for each, runs the
generated replay function as built (integer keyword values read from the
slot list, ``S[n_slots + j]``, over the namespace the structure's programs
share) and a copy of the same statements reading each integer from a name
of its own in a per-program namespace (the layout a namespace per program
had).  The two run the same kernels on the same slot list, heap and box
state, in ABBA blocks of three replays (``BLOCKS`` blocks per side, default
30), so the ratio of their medians has no calibration term.  BLAS runs on
one thread, as in the ledger's children; every rank runs in this process.
Prints one JSON object: per program the launches and each side's minimum
and median milliseconds, plus the commit and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "perf")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from repro.model import CHGNetModel, OptLevel  # noqa: E402
from repro.train import DistributedConfig, DistributedTrainer, ranks  # noqa: E402


def per_program_namespace(prog) -> types.FunctionType:
    """``prog``'s replay with each integer constant read from its own name."""
    run = prog._run
    n_slots = len(prog._slots) - len(prog._shared.ints)
    namespace = dict(run.__globals__)

    def named(match: re.Match) -> str:
        i = int(match.group(1))
        if i < n_slots:
            return match.group(0)
        namespace[f"c{i - n_slots}"] = prog._slots[i]
        return f"c{i - n_slots}"

    module = compile(re.sub(r"S\[(\d+)\]", named, run.source), "<probe>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, types.CodeType))
    return types.FunctionType(code, namespace, "replay")


def main() -> None:
    seed = int(sys.argv[1])
    blocks = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    ranks.usable_cpus = lambda: 1
    workload = workloads.TrainDDP(seed, workloads.SIZES["full"]["train_ddp"])
    workload.inputs()
    size = workload.size
    config = workloads._config(size["dim"], 7, 3, OptLevel.FUSED)
    trainer = DistributedTrainer(
        lambda: CHGNetModel(config, np.random.default_rng(1)),
        workload.dataset,
        DistributedConfig(
            world_size=2, global_batch_size=size["global_batch"], epochs=10, compile=True,
            memoize_shards=False, seed=seed,
        ),
    )
    comp = trainer.compilers[0]
    largest = sorted(trainer.loader.planned_batches(), key=lambda b: -b.num_angles)[:3]
    programs = []
    for batch in largest:
        comp.step(batch)  # binds the program to this batch
        prog = comp.last_program
        sides = {"slot_list": prog._run, "per_program_namespace": per_program_namespace(prog)}
        times: dict[str, list[float]] = {name: [] for name in sides}
        names = list(sides)
        for block in range(2 * blocks):
            name = names[(block + block // 2) % 2]  # A B B A A B B A ...
            for _ in range(3):
                t0 = time.perf_counter()
                sides[name](prog._slots)
                times[name].append(time.perf_counter() - t0)
        programs.append({
            "launches": prog.n_instrs,
            **{f"{name}_min_ms": 1e3 * min(t) for name, t in times.items()},
            **{f"{name}_median_ms": 1e3 * statistics.median(t) for name, t in times.items()},
        })
    trainer.close()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=REPO
    ).stdout.strip()
    print(json.dumps({
        "seed": seed, "blocks": blocks, "programs": programs, "commit": commit,
        "machine": platform.processor() or platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
    }, indent=2))


if __name__ == "__main__":
    main()
