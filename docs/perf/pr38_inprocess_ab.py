"""Same-process A/B of the generated straight-line replay against the
interpreter loop it replaced, on one ledger workload.

Usage (from the repository root)::

    PYTHONPATH=src:benchmarks/perf python docs/perf/pr38_inprocess_ab.py WORKLOAD SEED [RUNS] > out.json

One process builds the workload once and then alternates blocks of 16 ops
between the two replay paths, so both run on the same heap, the same warmed
program cache, the same slab and the same box state.  The "old" side is the
parent commit's ``CompiledStep._replay_fast`` loop with its per-bind
rebuild of the keyword arguments of every instruction that takes an array
keyword, and with the parent's kernel adapters (one lambda per ufunc arity,
the positional ``sum``).  It runs the programs' own instructions, slots and
arena buffers, so both sides launch the same kernels in the same order into
the same buffers.  Both sides also time every ``CompiledStep.replay`` call.
The ledger compares two processes, and its calibration slice moves with
process layout (docs/perf/pr34_ledger.md); this harness has no such term.
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

from repro.runtime.kernels import profiling_active, record_kernel  # noqa: E402
from repro.tensor import compile as tc  # noqa: E402
from repro.tensor.ops_math import _sum_np  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

BLOCKS, OPS_PER_BLOCK = 24, 16
_CARRY = -1  # the parent's chain-step sentinel for the chain buffer


def _ufunc1(u):
    return lambda out, a: u(a, out=out)


def _ufunc2(u):
    return lambda out, a, b: u(a, b, out=out)


# The parent's kernel table: the same kernels behind its adapters.
OLD_IMPLS = dict(tc._OUT_IMPLS)
for _name, _fn in tc._OUT_KW.items():
    if isinstance(_fn, np.ufunc):
        OLD_IMPLS[_name] = _ufunc1(_fn) if _fn.nin == 1 else _ufunc2(_fn)
OLD_IMPLS["sum"] = lambda out, a, axis=None, keepdims=False: _sum_np(a, axis, keepdims, out)


class OldInstr:
    """The fields of the parent's ``Instr`` that its loop and bind read."""

    __slots__ = ("fn", "in_slots", "out_slot", "kwargs", "kw_ext", "rkwargs", "buf", "out_impl", "chain")

    def __init__(self, ins) -> None:
        self.fn = ins.fn
        self.in_slots = ins.in_slots
        self.out_slot = ins.out_slot
        self.kwargs = ins.kwargs
        self.kw_ext = ins.kw_ext
        self.rkwargs = ins.kwargs
        self.buf = ins.buf
        self.out_impl = OLD_IMPLS.get(ins.name) if ins.chain is None and ins.buf >= 0 else None
        self.chain = None
        if ins.chain is not None:
            self.chain = [(OLD_IMPLS[name], spec, kw) for name, spec, kw in ins.chain]


_OLD: dict = {}  # program -> (old instructions, those with array keywords)


def _old_program(prog):
    view = _OLD.get(prog)
    if view is None:
        instrs = [OldInstr(ins) for ins in prog.instrs]
        view = _OLD[prog] = (instrs, [ins for ins in instrs if ins.kw_ext])
    return view


def old_bind(self, batch, params):
    reason = new_bind(self, batch, params)
    if reason is None:
        slots = self._slots
        for ins in _old_program(self)[1]:
            ins.rkwargs = dict(ins.kwargs)
            for key, slot in ins.kw_ext:
                ins.rkwargs[key] = slots[slot]
    return reason


def old_replay(self) -> None:
    slots = self._slots
    buffers = self.buffers
    for ins in _old_program(self)[0]:
        chain = ins.chain
        if chain is not None:
            buf = buffers[ins.buf]
            for impl, argspec, kw in chain:
                impl(buf, *[buf if a == _CARRY else slots[a] for a in argspec], **kw)
        elif ins.buf >= 0:
            ins.out_impl(buffers[ins.buf], *[slots[s] for s in ins.in_slots], **ins.rkwargs)
        else:
            slots[ins.out_slot] = ins.fn(*[slots[s] for s in ins.in_slots], **ins.rkwargs)
    if profiling_active():
        for ins in self.instrs:
            record_kernel(ins.name, ins.nbytes)


new_bind = tc.CompiledStep.bind
new_replay = tc.CompiledStep.replay
REPLAY_S: list[float] = []


def _timed(replay):
    def run(self) -> None:
        t0 = time.perf_counter()
        replay(self)
        REPLAY_S.append(time.perf_counter() - t0)

    return run


def one_run(name: str, seed: int) -> dict:
    workload = WORKLOADS[name](seed, SIZES["full"][name])
    workload.inputs()
    workload.warmup()
    ops = {"new": [], "old": []}
    replays = {"new": [], "old": []}
    for block in range(BLOCKS):
        side = "new" if block % 2 == 0 else "old"
        tc.CompiledStep.bind = new_bind if side == "new" else old_bind
        tc.CompiledStep.replay = _timed(new_replay if side == "new" else old_replay)
        for _ in range(OPS_PER_BLOCK):
            REPLAY_S.clear()
            t0 = time.perf_counter()
            workload.run_op()
            ops[side].append((time.perf_counter() - t0) * 1e3)
            replays[side].extend(s * 1e3 for s in REPLAY_S)
    tc.CompiledStep.bind, tc.CompiledStep.replay = new_bind, new_replay
    _OLD.clear()
    return {
        side: {
            "op_ms_p50": float(np.median(v)),
            "op_ms_p90": float(np.percentile(v, 90)),
            "ops": len(v),
            "replay_ms_p50": float(np.median(replays[side])),
            "replay_ms_per_op": float(np.sum(replays[side]) / len(v)),
        }
        for side, v in ops.items()
    }


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    results = [one_run(name, seed) for _ in range(runs)]
    for r in results:
        for key in ("op_ms_p50", "op_ms_p90", "replay_ms_p50", "replay_ms_per_op"):
            r[key.replace("_ms", "") + "_ratio"] = r["new"][key] / r["old"][key]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    print(json.dumps({
        "workload": name,
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
