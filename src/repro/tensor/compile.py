"""Compile-once training/inference steps: static tape capture and replay.

The eager engine re-records an identical autograd tape for every batch of a
given shape: each primitive pays the ``apply_op`` wrapper, a ``Tensor`` and
``Node`` allocation, tape accounting, VJP re-derivation and a topological
sort per backward.  FastCHGNet's computation-graph reconstruction
(Section III-C) rests on the observation that the op graph is *static per
batch shape*, so all of that bookkeeping can be paid once and replayed.

Capture
    :class:`TapeTrace` hooks :func:`repro.tensor.engine.apply_op` (via
    ``push_tracer``) and records one full eager step — forward, loss,
    backward, including the double-backward force/stress path — as a flat,
    topologically ordered list of kernel calls (:class:`Instr`).  Every leaf
    array is classified as a *parameter*, a *named batch array* (a
    :class:`~repro.graph.batching.GraphBatch` field or ``aux`` entry) or a
    frozen shape-dependent constant; anything else (e.g. a data-dependent
    ``where`` condition) raises :class:`TraceUnsupported` and the step
    permanently falls back to eager for that signature.

Replay
    :class:`CompiledStep` re-executes the instruction list on rebound batch
    arrays and live parameter values.  Each program runs as one Python
    function generated when it is built: one statement per kernel launch,
    every array read from the slot list, no interpreter loop
    (docs/architecture.md, "Straight-line replay", has the emission rules
    and the code cache).  Elementwise chains whose intermediate
    has a single consumer are fused into one in-place kernel (the compiled
    analogue of :mod:`repro.tensor.ops_fused`); all other out-capable kernels
    write into the **arena** — byte offsets planned from liveness analysis
    into one slab that every program of a :class:`SharedProgramCache`
    shares (docs/architecture.md, "Arena", has the plan, the ownership and
    the validity contract) — so steady-state replays allocate (almost)
    nothing; final parameter gradients are accumulated in place into
    persistent ``.grad`` arrays.  Replayed kernel launches are reported to
    the runtime profiler exactly like eager ones, and the slab is accounted
    as retained tape memory.  Replay executes the
    same NumPy kernels in the same order on the same dtypes as eager, so
    losses, gradients and MD forces are **bit-identical** to the eager tape.

Managers
    :class:`StepCompiler` (training: forward + loss + backward + grad write)
    and :class:`InferenceCompiler` (MD single-point) cache programs per
    batch-shape signature.  Batches are padded (ghost structure, masked
    losses) to one canonical shape per geometric **workload tier**, so a
    shuffled long-tail loader converges to a handful of shared programs
    instead of compiling every step.  Every replay is guarded: a
    shape/dtype rebinding mismatch or a changed model/loss configuration
    evicts the program and falls back to eager.  Programs live in a
    :class:`SharedProgramCache` that several compilers may share (one per
    simulated rank or serving worker): a program captured by one sharer
    replays on every other after **parameter rebinding** against that
    sharer's own weights, cutting capture cost by the number of replicas.
    Because a program's signature contains only batch shapes — never weight
    values — swapping a sharer's parameter arrays wholesale (the serving
    engine's **versioned weight hot-swap**) is also just a rebinding:
    :meth:`CompiledStep.bind` reads ``.data`` fresh on every call (and
    accepts raw snapshot arrays in the parameter list), so publishing a new
    checkpoint triggers zero recaptures.
"""

from __future__ import annotations

import time
import types
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.graph.batching import (
    MAX_PROGRAMS,
    GraphBatch,
    bucket_size,
    bucket_targets,
    canonical_targets,
    feasible_targets,
    pad_batch,
    workload_tier,
)
from repro.runtime.kernels import profiling_active, record_kernel
from repro.runtime.memory import record_tape_alloc, record_tape_free
from repro.tensor.engine import Tensor, no_grad, pop_tracer, push_tracer
from repro.tensor.ops_fused import (
    _center_np,
    _envelope_coeffs,
    _envelope_np,
    _fourier_np,
    _gate_np,
    _gate_vjp2_np,
    _gate_vjp_np,
    _pack_gated_np,
    _rmsnorm_np,
    _rmsnorm_vjp2_np,
    _rmsnorm_vjp_gamma_np,
    _rmsnorm_vjp_np,
)
from repro.tensor.ops_linalg import _linear_np, _matmul_np
from repro.tensor.ops_math import _sigmoid_np, _silu_np, _sum_np
from repro.tensor.ops_shape import _gather_add_np, _segment_sum_np


class TraceUnsupported(RuntimeError):
    """Raised during capture when a step cannot be replayed safely."""


# Ops whose NumPy forward returns a view (or may): their output aliases the
# (first) input buffer, so liveness treats producer and consumer as one group
# and replay re-executes the (cheap) view creation instead of arena-writing.
_ALIAS_OPS = frozenset({"reshape", "transpose", "broadcast_to", "slice", "part"})


# ------------------------------------------------------------- out= kernels
def _scale_shift_out(out, x, scale, shift):
    np.multiply(x, scale, out=out)
    np.add(out, shift, out=out)
    return out


def _scatter_slice_out(out, x, shape, index):
    out.fill(0)
    out[index] = x
    return out


def _fused_srbf_out(out, r, freqs, rcut, p):
    # Same expressions as the eager forward (np.outer == the column-times-row
    # broadcast below for 1-D operands), so the result is bit-identical.
    np.multiply(r.reshape(-1, 1), freqs, out=out)
    np.sin(out, out=out)
    u = _envelope_np(r / rcut, p)
    np.multiply((np.sqrt(2.0 / rcut) * u / r)[:, None], out, out=out)
    return out


def _fused_envelope_out(out, xi, p):
    # Horner ladder of _envelope_np evaluated in place: out carries
    # (a - xi*(b - c*xi)), then 1 - xi**p * out — identical expressions,
    # bit-identical result.
    a, b, c = _envelope_coeffs(p)
    np.multiply(xi, c, out=out)
    np.subtract(b, out, out=out)
    np.multiply(xi, out, out=out)
    np.subtract(a, out, out=out)
    np.multiply(xi**p, out, out=out)
    np.subtract(1.0, out, out=out)
    return out


#: Kernels called as ``fn(*args, out=out, **kwargs)``: the NumPy ufuncs, and
#: the eager forwards that take ``out=`` and *are* the compiled kernel — one
#: body, so replay cannot drift from eager (docs/architecture.md, "Row-stable
#: kernels").
_OUT_KW: dict[str, Callable] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "maximum": np.maximum,
    "minimum": np.minimum,
    "ge_mask": np.greater_equal,
    "le_mask": np.less_equal,
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "arccos": np.arccos,
    "tanh": np.tanh,
    "abs": np.abs,
    "sign": np.sign,
    "sigmoid": _sigmoid_np,
    "silu": _silu_np,
    "matmul": _matmul_np,
    "linear": _linear_np,
    # A program launches hundreds of sums, most of them small: the generated
    # replay calls _sum_np itself, with no adapter frame in between.
    "sum": _sum_np,
    "gather_add": _gather_add_np,
    "segment_sum": _segment_sum_np,
    "fused_fourier": _fourier_np,
    "center": _center_np,
    "fused_pack_gated": _pack_gated_np,
    "fused_rmsnorm": _rmsnorm_np,
    "fused_rmsnorm_vjp": _rmsnorm_vjp_np,
    "fused_rmsnorm_vjp_gamma": _rmsnorm_vjp_gamma_np,
    "fused_rmsnorm_vjp2": _rmsnorm_vjp2_np,
    "fused_gate": _gate_np,
    "fused_gate_vjp": _gate_vjp_np,
    "fused_gate_vjp2": _gate_vjp2_np,
}


def _out_first(fn):
    return lambda out, *args, **kwargs: fn(*args, out=out, **kwargs)


# name -> callable(out_buffer, *input_arrays, **kwargs) writing the result
# into the buffer: the kernel table.  Every impl computes bit-identically to
# the eager forward.
_OUT_IMPLS: dict[str, Callable] = {
    **{name: _out_first(fn) for name, fn in _OUT_KW.items()},
    "power": lambda out, a, p: np.power(a, p, out=out),
    "clip": lambda out, a, lo, hi: np.clip(a, lo, hi, out=out),
    "le_mask_c": lambda out, a, threshold: np.less_equal(a, threshold, out=out),
    "fused_scale_shift": _scale_shift_out,
    "concat": lambda out, *xs, axis=0: np.concatenate(xs, axis=axis, out=out),
    "stack": lambda out, *xs, axis=0: np.stack(xs, axis=axis, out=out),
    # mode="clip" writes straight into out (the default "raise" buffers it);
    # CompiledStep.bind range-checks every bound index array instead.
    "gather": lambda out, x, idx, plan: np.take(x, idx, axis=0, out=out, mode="clip"),
    "scatter_slice": _scatter_slice_out,
    "fused_srbf": _fused_srbf_out,
    # Reads xi several times, so it must never consume a chain carry: kept
    # out of _ELEMENTWISE deliberately (arena-backed standalone launch only).
    "fused_envelope": _fused_envelope_out,
}


def _call(fn: str, args: list[str], kwargs: dict[str, str]) -> str:
    return f"{fn}({', '.join([*args, *(f'{k}={v}' for k, v in kwargs.items())])})"


# Emission rules: the source of one arena launch of kernel ``n`` writing the
# output expression ``o`` from argument and keyword expressions ``a`` / ``kw``
# (docs/architecture.md, "Straight-line replay").  A kernel without a rule
# calls its _OUT_IMPLS entry, bound in every replay namespace as ``o_<n>``.
_RULES: dict[str, Callable[[str, str, list[str], dict[str, str]], str]] = {
    **dict.fromkeys(_OUT_KW, lambda n, o, a, kw: _call(n, a, {**kw, "out": o})),
    "gather": lambda n, o, a, kw: f'{a[0]}.take({kw["idx"]}, axis=0, out={o}, mode="clip")',
}


def _other_rule(n: str, o: str, a: list[str], kw: dict[str, str]) -> str:
    return _call(f"o_{n}", [o, *a], kw)


#: What every generated replay function sees besides its own constants.
_REPLAY_GLOBALS = {
    **_OUT_KW,
    **{f"o_{name}": impl for name, impl in _OUT_IMPLS.items()},
    "pc": time.perf_counter,
}

# Chainable elementwise kernels: same-shape outputs, out= capable, safe to
# compute in place on the chain buffer.
_ELEMENTWISE = frozenset(
    {
        "add",
        "sub",
        "mul",
        "div",
        "neg",
        "exp",
        "log",
        "sqrt",
        "sin",
        "cos",
        "arccos",
        "tanh",
        "abs",
        "sign",
        "maximum",
        "minimum",
        "ge_mask",
        "le_mask",
        "le_mask_c",
        "power",
        "clip",
        "sigmoid",
        "silu",
        "fused_scale_shift",
    }
)

_CARRY = -1  # chain-step argument sentinel: the chain buffer itself

#: Byte alignment of every arena offset (one cache line; also satisfies any
#: dtype's alignment when the slab base is aligned to it).
_ALIGN = 64


def _plan_offsets(
    live: list[tuple[int, int]], sizes: list[int]
) -> tuple[list[int], int]:
    """Byte offsets for buffers live over ``live[i]``: ``(offsets, total)``.

    Greedy by size: buffers are placed largest first, each at the lowest
    offset where it overlaps no already placed buffer whose live range
    intersects its own.  The whole step is known at plan time, so this
    packs tighter than walking a free list in program order (measured
    1.06-1.13x the peak of simultaneously live bytes on the inference
    programs against 1.30-1.44x) and needs no tuning constant.
    """
    n = len(sizes)
    first = np.array([t for t, _ in live], dtype=np.int64)
    last = np.array([t for _, t in live], dtype=np.int64)
    size = np.array(sizes, dtype=np.int64)
    offset = np.zeros(n, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    total = 0
    for i in sorted(range(n), key=lambda i: (-sizes[i], live[i][0])):
        if not sizes[i]:
            continue
        busy = np.flatnonzero(placed & (first <= last[i]) & (last >= first[i]))
        at = 0
        if busy.size:
            busy = busy[np.argsort(offset[busy], kind="stable")]
            lo = offset[busy]
            # end[j]: where the first j+1 busy buffers stop; the candidate
            # before buffer j is end[j-1] (0 before the first).
            end = np.maximum.accumulate(lo + size[busy])
            start = np.concatenate(([0], end[:-1]))
            gaps = np.flatnonzero(start + sizes[i] <= lo)
            at = int(start[gaps[0]] if gaps.size else end[-1])
        offset[i] = at
        placed[i] = True
        total = max(total, at + sizes[i])
    return offset.tolist(), total


def _new_slab(nbytes: int) -> np.ndarray:
    """An ``_ALIGN``-aligned, page-touched byte slab of ``nbytes``."""
    raw = np.empty(nbytes + _ALIGN - 1, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    slab = raw[start : start + nbytes]
    # Touch every page now: np.empty defers physical allocation, which would
    # otherwise surface as a slow first *replay* (page faults inside the hot
    # kernels).
    slab[::4096] = 0
    return slab


def _out_of_range(idx: np.ndarray, rows: int) -> bool:
    """Whether an index of the int64 ``idx`` falls outside ``[0, rows)``.

    One pass: a negative index read as unsigned is at least 2**63.  (Every
    lookup and segment sum converts its index to int64 before it is traced.)
    """
    return idx.size > 0 and int(idx.view(np.uint64).max()) >= rows


class Instr:
    """One replayable kernel call: inputs/output as slot indices."""

    __slots__ = (
        "name",
        "fn",
        "in_slots",
        "out_slot",
        "kwargs",
        "kw_ext",
        "alias",
        "buf",
        "chain",
        "shape",
        "dtype",
        "nbytes",
    )

    def __init__(self, name, fn, in_slots, out_slot, kwargs, kw_ext, out):
        self.name = name
        self.fn = fn
        self.in_slots = in_slots
        self.out_slot = out_slot
        self.kwargs = kwargs  # ndarray-free (static) kwargs
        self.kw_ext = kw_ext  # ((key, ext_slot), ...) read from the slots at replay
        self.alias = name in _ALIAS_OPS
        self.buf = -1  # arena buffer id (-1: plain allocation)
        self.chain = None  # fused chain: [(kernel name, argspec, kwargs), ...]
        self.shape = out.shape
        self.dtype = out.dtype
        self.nbytes = out.nbytes

    @property
    def reads(self) -> tuple[int, ...]:
        """Slots whose data the kernel touches: a view reads only its base
        (a ``part`` lists the tensors its cotangents go to after it)."""
        return self.in_slots[:1] if self.alias else self.in_slots


class _SlotRef(weakref.ref):
    """Weak reference to a traced array carrying its slot.

    ``TapeTrace._slots`` maps ``id(array)`` to one of these; when the array
    dies :func:`_forget_slot` removes the entry, so an id is in the table
    exactly as long as it is unambiguous.  The trace is referenced weakly:
    the table owns its refs, a strong back-reference would be a cycle.
    """

    __slots__ = ("key", "slot", "trace")

    def __new__(cls, arr: np.ndarray, slot: int, trace: "weakref.ref[TapeTrace]"):
        return super().__new__(cls, arr, _forget_slot)

    def __init__(self, arr: np.ndarray, slot: int, trace: "weakref.ref[TapeTrace]") -> None:
        super().__init__(arr, _forget_slot)
        self.key = id(arr)
        self.slot = slot
        self.trace = trace


def _forget_slot(ref: _SlotRef) -> None:
    trace = ref.trace()
    if trace is not None:
        del trace._slots[ref.key]


class TapeTrace:
    """Observer recording every primitive execution of one eager step.

    Arrays are identified by ``id()`` and held *weakly*: the trace pins
    nothing the eager step would drop (docs/architecture.md, "Capture
    memory").
    """

    def __init__(self, batch: GraphBatch, params: list) -> None:
        self.batch = batch
        self.params = params
        self._param_idx = {id(p.data): i for i, p in enumerate(params)}
        self._slots: dict[int, _SlotRef] = {}  # id(live ndarray) -> its slot
        self._weak = weakref.ref(self)
        self.n_slots = 0
        self.externals: list[tuple] = []  # (slot, kind, ref, shape, dtype)
        self.instrs: list[Instr] = []
        self.grad_writes: list[tuple[int, int]] = []  # (param index, slot)

    def _new_slot(self, arr: np.ndarray) -> int:
        slot = self.n_slots
        self.n_slots += 1
        self._slots[id(arr)] = _SlotRef(arr, slot, self._weak)
        return slot

    # ------------------------------------------------------------- resolution
    def _new_external(self, arr: np.ndarray, allow_const: bool, context: str) -> int:
        pid = self._param_idx.get(id(arr))
        if pid is not None:
            kind, ref = "param", pid
        else:
            spec = self.batch.find_array(id(arr))
            if spec is not None:
                kind, ref = "batch", spec
            elif allow_const:
                # Unknown leaves are frozen: safe because every batch-derived
                # array reaches ops through GraphBatch fields/aux (resolved
                # above) — what remains is shape-dependent only (eye/ones/
                # zeros seeds), and shape is fixed per program signature.
                kind, ref = "const", arr
            else:
                raise TraceUnsupported(
                    f"{context}: ndarray argument is neither a parameter nor a "
                    "named batch array; cannot rebind it on replay"
                )
        slot = self._new_slot(arr)
        self.externals.append((slot, kind, ref, arr.shape, arr.dtype))
        return slot

    def _slot_for(self, arr: np.ndarray, allow_const: bool, context: str) -> int:
        ref = self._slots.get(id(arr))
        if ref is None:
            return self._new_external(arr, allow_const, context)
        return ref.slot

    # -------------------------------------------------------- engine callbacks
    def record(
        self,
        name: str,
        fn: Callable,
        arrays: tuple[np.ndarray, ...],
        kwargs: dict[str, Any],
        out: np.ndarray,
    ) -> None:
        in_slots = tuple(self._slot_for(a, True, name) for a in arrays)
        kw_ext = ()
        static_kwargs = kwargs
        for k, v in kwargs.items():
            if isinstance(v, np.ndarray):
                kw_ext += ((k, self._slot_for(v, False, f"{name}(kwarg {k!r})")),)
        if kw_ext:
            static_kwargs = {
                k: v for k, v in kwargs.items() if not isinstance(v, np.ndarray)
            }
        out_slot = self._new_slot(out)
        self.instrs.append(
            Instr(name, fn, in_slots, out_slot, static_kwargs, kw_ext, out)
        )

    def record_leaf_grad(self, leaf: Tensor, grad: Tensor) -> None:
        pid = self._param_idx.get(id(leaf.data))
        if pid is None:
            return  # disp/strain scratch leaves: eager discards them too
        ref = self._slots.get(id(grad.data))
        if ref is None:
            raise TraceUnsupported("final parameter gradient was not produced on the tape")
        self.grad_writes.append((pid, ref.slot))

    def slot_of(self, arr: np.ndarray) -> int:
        ref = self._slots.get(id(arr))
        if ref is None:
            raise TraceUnsupported("requested output array was not produced on the tape")
        return ref.slot


class _traced:
    """Context manager pushing/popping a tracer on the engine."""

    def __init__(self, tracer: TapeTrace) -> None:
        self.tracer = tracer

    def __enter__(self) -> TapeTrace:
        push_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        pop_tracer(self.tracer)


def _replay_source(instrs: list[Instr], timed: bool) -> tuple[str, list]:
    """A program as the source of one straight-line function, plus its constants.

    One statement per instruction — one per step of a fused chain — indexes
    the slot list ``S`` for every array: arena outputs were placed there by
    :meth:`CompiledStep.attach`, bound externals by :meth:`CompiledStep.bind`,
    and plain-allocating instructions store into it.  Keyword values and
    plain kernels are read from the names ``k0``, ``k1``, ... bound to the
    returned constants, so programs of one model that differ only in shapes
    generate the same text.  ``timed`` adds ``T[t] = pc() - t0`` after
    instruction ``t``.
    """
    consts: list = []

    def const(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    lines = ["def replay(S, T):", " t0 = pc()"] if timed else ["def replay(S):"]
    for t, ins in enumerate(instrs):
        o = f"S[{ins.out_slot}]"
        steps = ins.chain or [(ins.name, ins.in_slots, ins.kwargs)]
        for name, argspec, kwargs in steps:
            args = [o if s == _CARRY else f"S[{s}]" for s in argspec]
            kw = {k: const(v) for k, v in kwargs.items()}
            kw.update((k, f"S[{s}]") for k, s in ins.kw_ext)
            if ins.buf < 0:
                lines.append(f" {o} = {_call(const(ins.fn), args, kw)}")
            else:
                lines.append(" " + _RULES.get(name, _other_rule)(name, o, args, kw))
        if timed:
            lines.append(f" T[{t}] = pc() - t0")
    return "\n".join(lines) + "\n", consts


#: Compiled replay code by source text, least recently used first.  Every
#: tier of one model generates the same source, so its programs share one
#: code object and differ only in their constants namespace.
_CODE: OrderedDict[str, types.CodeType] = OrderedDict()
_CODE_CAPACITY = 16


def _replay_function(instrs: list[Instr], timed: bool) -> Callable:
    """The generated replay function of ``instrs`` (see :func:`_replay_source`)."""
    source, consts = _replay_source(instrs, timed)
    code = _CODE.pop(source, None)
    if code is None:
        module = compile(source, "<compiled replay>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, types.CodeType))
    _CODE[source] = code
    if len(_CODE) > _CODE_CAPACITY:
        _CODE.popitem(last=False)
    namespace = dict(_REPLAY_GLOBALS)
    namespace.update((f"k{i}", value) for i, value in enumerate(consts))
    return types.FunctionType(code, namespace, "replay")


class CompiledStep:
    """A captured tape: flat kernel program + arena plan + gradient writes.

    Building a program allocates nothing: it cannot replay until the
    :class:`SharedProgramCache` it is stored in has :meth:`attach`-ed it to
    the cache's slab.
    """

    def __init__(
        self,
        trace: TapeTrace,
        outputs: dict[str, int],
        n_params: int,
    ) -> None:
        self.externals = trace.externals
        self.instrs = trace.instrs
        self.n_slots = trace.n_slots
        self.grad_writes = trace.grad_writes
        self.outputs = outputs
        written = {pid for pid, _ in trace.grad_writes}
        self.nograd_params = [i for i in range(n_params) if i not in written]
        self._slots: list = [None] * self.n_slots
        #: arena plan: ``(byte offset, nbytes, shape, dtype)`` per buffer id
        self._specs: list[tuple[int, int, tuple, np.dtype]] = []
        #: plan-time ``(first, last)`` instruction index each buffer is live
        self._live: list[tuple[int, int]] = []
        #: views of the attached slab, one per spec (see :meth:`attach`)
        self.buffers: list[np.ndarray] = []
        self.arena_bytes = 0
        self.n_instrs_captured = len(self.instrs)
        self._eliminate_dead()
        self._index_bounds = self._plan_index_bounds()
        self._fuse_elementwise_chains()
        self._assign_arena()
        self._static: list[Instr] = []  # slab-dependent slots, program order
        self._removed_alias: dict[int, int] = {}  # prefilled view -> base slot
        self._split_static()
        self.n_instrs = len(self.instrs)
        self._slot_instr = {ins.out_slot: t for t, ins in enumerate(self.instrs)}
        self._run = _replay_function(self.instrs, timed=False)
        self._timed: Callable | None = None  # built by the first replay_measured

    # ----------------------------------------------------------- compilation
    def _slot_uses(self) -> tuple[dict[int, int], dict[int, int]]:
        """(last instr index reading each slot, read count per slot).

        Kwarg-bound arrays count as reads too — today those are always
        externals (never fused or arena-pooled), but liveness must not rely
        on that staying true.
        """
        last: dict[int, int] = {}
        count: dict[int, int] = {}
        for t, ins in enumerate(self.instrs):
            for s in ins.reads:
                last[s] = t
                count[s] = count.get(s, 0) + 1
            for _, s in ins.kw_ext:
                last[s] = t
                count[s] = count.get(s, 0) + 1
        return last, count

    def _pinned_slots(self) -> set[int]:
        pinned = set(self.outputs.values())
        pinned.update(slot for _, slot in self.grad_writes)
        return pinned

    def _eliminate_dead(self) -> None:
        """Drop instructions whose results never reach an output or gradient.

        The eager tape can't avoid this work — e.g. the outer backward pass
        computes loss cotangents for the displacement/strain scratch leaves
        that nobody reads — but the compiled program sees the whole step and
        prunes those chains transitively.  All kept kernels still execute
        bit-identically.
        """
        live = self._pinned_slots()
        kept: list[Instr] = []
        for ins in reversed(self.instrs):
            if ins.out_slot in live:
                kept.append(ins)
                live.update(ins.reads)
                live.update(slot for _, slot in ins.kw_ext)
        kept.reverse()
        self.instrs = kept

    def _plan_index_bounds(self) -> list[tuple[int, int, tuple]]:
        """``(slot, rows, spec)`` for every index array a bind rebinds.

        ``rows`` is the fewest rows any gather reads or any segment sum
        writes through that array: what :meth:`bind` checks it against, once
        per bind, because replayed gathers take their rows unchecked.
        """
        shapes = {slot: shape for slot, _kind, _ref, shape, _dtype in self.externals}
        shapes.update((ins.out_slot, ins.shape) for ins in self.instrs)
        bounds: dict[int, int] = {}
        for ins in self.instrs:
            if ins.name in ("gather", "gather_add"):
                rows = shapes[ins.in_slots[-1]][0]  # the table looked up
            elif ins.name == "segment_sum":
                rows = ins.kwargs["num_segments"]
            else:
                continue
            slot = dict(ins.kw_ext)["idx"]
            bounds[slot] = min(rows, bounds.get(slot, rows))
        specs = {slot: ref for slot, _kind, ref, _shape, _dtype in self.externals}
        return [(slot, rows, specs[slot]) for slot, rows in sorted(bounds.items())]

    def _fuse_elementwise_chains(self) -> None:
        """Collapse single-consumer elementwise chains into one in-place kernel.

        The compiled analogue of the ``ops_fused`` kernels: the chain's
        intermediate results never materialize outside the chain buffer, and
        the whole chain is accounted as one launch.  Only adjacent
        instructions with equal output shape/dtype are merged, so replay
        executes the identical ufunc sequence (bit-identical results).
        """
        last, count = self._slot_uses()
        pinned = self._pinned_slots()
        fused: list[Instr] = []
        for ins in self.instrs:
            prev = fused[-1] if fused else None
            if (
                prev is not None
                and ins.name in _ELEMENTWISE
                and (prev.chain is not None or prev.name in _ELEMENTWISE)
                and prev.out_slot not in pinned
                and count.get(prev.out_slot) == 1
                and ins.in_slots.count(prev.out_slot) == 1
                and prev.shape == ins.shape
                and prev.dtype == ins.dtype
                and not ins.kw_ext
                and not prev.kw_ext
            ):
                if prev.chain is None:
                    first = (prev.name, prev.in_slots, prev.kwargs)
                    prev.name = "fused_chain"
                    prev.fn = None
                    prev.kwargs = {}
                    prev.chain = [first]
                argspec = tuple(
                    _CARRY if s == prev.out_slot else s for s in ins.in_slots
                )
                prev.chain.append((ins.name, argspec, ins.kwargs))
                prev.in_slots = prev.in_slots + tuple(
                    s for s in ins.in_slots if s != prev.out_slot
                )
                prev.out_slot = ins.out_slot
                continue
            fused.append(ins)
        self.instrs = fused

    def _assign_arena(self) -> None:
        """Plan a byte offset for the result of every out=-capable kernel.

        Each result lives from its producing instruction to the last read of
        its alias group — view-producing (alias) ops extend the lifetime of
        their base, pinned slots (program outputs, gradient sources) live to
        the end of the program.  :func:`_plan_offsets` packs those intervals
        into byte offsets, so bytes are reused regardless of shape or dtype.
        Nothing is allocated here: the plan is ``_specs`` + ``arena_bytes``,
        turned into views of a backing slab by :meth:`attach`
        (docs/architecture.md, "Arena").
        """
        last, _ = self._slot_uses()
        pinned = self._pinned_slots()

        # Union alias groups: view output shares its input's lifetime/base.
        base: dict[int, int] = {}

        def find(s: int) -> int:
            while s in base:
                s = base[s]
            return s

        for ins in self.instrs:
            if ins.alias:
                base[ins.out_slot] = find(ins.in_slots[0])
        group_last: dict[int, int] = {}
        group_pinned: set[int] = set()
        for s, t in last.items():
            r = find(s)
            group_last[r] = max(group_last.get(r, -1), t)
        for s in pinned:
            group_pinned.add(find(s))

        planned: list[Instr] = []
        for t, ins in enumerate(self.instrs):
            if ins.alias:
                continue
            if ins.chain is None and ins.name not in _OUT_IMPLS:
                continue
            root = find(ins.out_slot)
            until = len(self.instrs) if root in group_pinned else group_last.get(root, t)
            ins.buf = len(planned)
            planned.append(ins)
            self._live.append((t, until))
        offsets, self.arena_bytes = _plan_offsets(
            self._live, [-(-ins.nbytes // _ALIGN) * _ALIGN for ins in planned]
        )
        self._specs = [
            (off, ins.nbytes, ins.shape, ins.dtype) for off, ins in zip(offsets, planned)
        ]

    def _split_static(self) -> None:
        """Take replay-invariant view instructions out of the replay list.

        Arena-backed outputs always live at the same slab offset, so their
        slot entry only changes when the slab does; views
        (reshape/transpose/...) whose transitive base is an arena buffer or
        a frozen constant are likewise fixed per slab.  Both kinds are
        listed in ``_static`` for :meth:`attach` to materialize; the views
        leave the replay list entirely.
        """
        static: set[int] = set()
        for slot, kind, ref, _shape, _dtype in self.externals:
            if kind == "const":
                self._slots[slot] = ref
                static.add(slot)
        kept: list[Instr] = []
        for ins in self.instrs:
            if ins.buf >= 0:
                static.add(ins.out_slot)
                self._static.append(ins)
                kept.append(ins)
            elif ins.alias and ins.in_slots[0] in static:
                static.add(ins.out_slot)
                self._static.append(ins)
                self._removed_alias[ins.out_slot] = ins.in_slots[0]
            else:
                kept.append(ins)
        self.instrs = kept

    def attach(self, slab: np.ndarray) -> None:
        """Point the program at ``slab``: rebuild ``buffers`` and static slots.

        ``slab`` is an ``_ALIGN``-aligned ``uint8`` array of at least
        ``arena_bytes``.  Bound externals are untouched, so a program may be
        re-attached (to a larger slab) between replays.
        """
        self.buffers = [
            np.ndarray(shape, dtype, buffer=slab, offset=off)
            for off, _nbytes, shape, dtype in self._specs
        ]
        slots = self._slots
        for ins in self._static:
            if ins.buf >= 0:
                slots[ins.out_slot] = self.buffers[ins.buf]
            else:
                slots[ins.out_slot] = ins.fn(slots[ins.in_slots[0]], **ins.kwargs)

    def detach(self) -> None:
        """Drop every view of the slab (undoes :meth:`attach`)."""
        self.buffers = []
        for ins in self._static:
            self._slots[ins.out_slot] = None

    # ------------------------------------------------------------------ bind
    def bind(self, batch: GraphBatch, params: list) -> str | None:
        """Rebind external arrays to a new batch/parameter state.

        ``params`` entries may be :class:`~repro.tensor.engine.Tensor`
        parameters or raw ndarrays (e.g. a serving engine's versioned
        weight snapshots) — values are read fresh on every bind, which is
        what makes weight hot-swaps recapture-free.  Returns ``None`` on
        success or a human-readable guard-failure reason (the caller then
        falls back to eager).
        """
        slots = self._slots
        for slot, kind, ref, shape, dtype in self.externals:
            if kind == "param":
                p = params[ref]
                arr = p.data if isinstance(p, Tensor) else p
            elif kind == "batch":
                try:
                    arr = batch.bound_array(ref)
                except (KeyError, ValueError, IndexError) as exc:
                    return f"batch array {ref!r} unavailable: {exc}"
            else:
                arr = ref
            if arr.shape != shape or arr.dtype != dtype:
                return (
                    f"external {kind}:{ref!r} changed shape/dtype "
                    f"({arr.shape}/{arr.dtype} vs {shape}/{dtype})"
                )
            slots[slot] = arr
        for slot, rows, spec in self._index_bounds:
            if _out_of_range(slots[slot], rows):
                raise IndexError(f"batch index array {spec!r} out of range for {rows} rows")
        return None

    # ---------------------------------------------------------------- replay
    def replay(self) -> None:
        """Execute the program on the currently bound slots.

        While a runtime profile is active every instruction is also reported
        as one kernel launch (name and output bytes), as eager dispatch does.
        """
        self._run(self._slots)
        if profiling_active():
            for ins in self.instrs:
                record_kernel(ins.name, ins.nbytes)

    def grad_instr_index(self, slot: int) -> int:
        """Index of the replay instruction producing ``slot`` (-1: prefilled).

        Slots whose producing view instruction was prefilled away resolve
        through their alias base, so every gradient slot maps to the launch
        that completes it — the hook behind measured bucket ready times.
        """
        while slot in self._removed_alias:
            slot = self._removed_alias[slot]
        return self._slot_instr.get(slot, -1)

    def replay_measured(self) -> np.ndarray:
        """Replay on the bound slots, timestamping every instruction.

        Runs the timed variant of the generated replay function.  Returns
        cumulative seconds after each launch (same kernels, same order, same
        bits as :meth:`replay`); combined with :meth:`grad_instr_index` this
        yields *measured* per-gradient completion times instead of
        byte-share estimates.
        """
        if self._timed is None:
            self._timed = _replay_function(self.instrs, timed=True)
        times = np.zeros(len(self.instrs))
        self._timed(self._slots, times)
        return times

    def apply_grads(self, params: list) -> None:
        """Write final gradients in place into persistent ``.grad`` arrays."""
        slots = self._slots
        for i in self.nograd_params:
            params[i].grad = None
        for pid, slot in self.grad_writes:
            p = params[pid]
            g = slots[slot]
            if p.grad is None:
                p.grad = Tensor(g.copy())
            else:
                np.copyto(p.grad.data, g)

    def output_arrays(self) -> dict[str, np.ndarray]:
        """The marked outputs: views valid until the next replay on the same
        cache (docs/architecture.md, "Arena")."""
        return {name: self._slots[slot] for name, slot in self.outputs.items()}


@dataclass
class CompileStats:
    """Counters describing how a compiler handled its steps so far."""

    captures: int = 0
    replays: int = 0
    eager_fallbacks: int = 0
    unsupported: int = 0
    guard_invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "captures": self.captures,
            "replays": self.replays,
            "eager_fallbacks": self.eager_fallbacks,
            "unsupported": self.unsupported,
            "guard_invalidations": self.guard_invalidations,
        }


def program_signature(batch: GraphBatch, serial: bool, mode: str) -> tuple:
    """Shape signature keying compiled programs.

    Batched-basis levels depend only on the total counts (per-sample
    structure enters through rebindable index arrays); the serial Algorithm 1
    additionally hard-codes per-sample slice bounds, so its signature
    includes the offset tables.
    """
    sig = (
        mode,
        batch.num_structs,
        batch.num_atoms,
        batch.num_edges,
        batch.num_short_edges,
        batch.num_angles,
        batch.energy_per_atom is not None,
        batch.pad_info is not None,
    )
    if serial:
        sig += (
            tuple(batch.atom_offsets.tolist()),
            tuple(batch.edge_offsets.tolist()),
            tuple(batch.short_offsets.tolist()),
            tuple(batch.angle_offsets.tolist()),
        )
    return sig


class SharedProgramCache:
    """Signature-keyed store of compiled programs, shareable across compilers.

    Per-rank/per-worker compilers capture *identical* programs for a given
    signature (equal padded shapes, same model config), differing only in the
    parameter arrays bound at replay time.  Holding the programs here and
    handing every sharer a reference lets one capture serve ``world_size``
    ranks or ``n_workers`` serving workers: each call rebinds the program to
    the caller's own weights (:meth:`CompiledStep.bind` takes the parameter
    list), so capture cost is paid once per signature instead of once per
    replica.  Sharers must wrap models of identical configuration — the
    compilers' guards enforce this by dropping the cache on any mismatch.

    The cache also owns the **arena slab**: one byte buffer, sized to the
    largest cached program's plan, that every program's buffers are views
    of.  Sharers therefore must not replay concurrently and must copy
    results out before the next replay on the cache (docs/architecture.md,
    "Arena").  :meth:`store` grows the slab and re-attaches every program;
    eviction never shrinks it; :meth:`release` drops it.

    A compiler constructed without an explicit cache owns a private instance,
    which reproduces the old per-instance behavior exactly.
    """

    def __init__(self, max_programs: int = MAX_PROGRAMS) -> None:
        if max_programs < 1:
            raise ValueError(f"max_programs must be >= 1, got {max_programs}")
        self.max_programs = max_programs
        self.programs: OrderedDict[tuple, CompiledStep] = OrderedDict()
        self.unsupported: set[tuple] = set()
        # canonical shape per workload tier: (num_structs, has_labels, tier)
        # -> running max (atoms, edges, short, angles); shared so every
        # sharer pads a tier to the same shape (else programs would be
        # per-sharer again); see _CompilerBase._pad / warm_start.
        self.canonical: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0
        # One byte slab backs every cached program (docs/architecture.md,
        # "Arena"): sized to the largest, valid because programs of one
        # cache never replay concurrently and consumers copy results out
        # before the next replay.
        self._slab = _new_slab(0)

    def lookup(self, sig: tuple) -> CompiledStep | None:
        """The cached program for ``sig`` (LRU-touched), counting hit/miss."""
        prog = self.programs.get(sig)
        if prog is None:
            self.misses += 1
            return None
        self.programs.move_to_end(sig)
        self.hits += 1
        return prog

    def store(self, sig: tuple, prog: CompiledStep) -> None:
        """Insert a program under ``sig`` and attach it to the shared slab.

        A program larger than the slab grows it and every cached program is
        re-attached: the programs let go of the old slab *before* the new
        one is allocated, so growth peaks at max(old, new) bytes, not their
        sum (arrays a caller still holds keep the old slab readable).  LRU
        eviction beyond ``max_programs`` drops programs but never shrinks
        the slab.
        """
        self.programs[sig] = prog
        if len(self.programs) > self.max_programs:
            self.programs.popitem(last=False)
        if prog.arena_bytes > self._slab.nbytes:
            record_tape_free(self._slab.nbytes)
            for cached in self.programs.values():
                cached.detach()
            self._slab = None  # freed here, not after the allocation below
            self._slab = _new_slab(prog.arena_bytes)
            record_tape_alloc(self._slab.nbytes)
            for cached in self.programs.values():
                cached.attach(self._slab)
        else:
            prog.attach(self._slab)

    def evict(self, sig: tuple) -> None:
        """Drop the program for ``sig`` (if cached); the slab keeps its size."""
        self.programs.pop(sig, None)

    def release(self) -> None:
        """Drop every cached program, the slab and the tier shapes."""
        self.programs.clear()
        self.canonical.clear()
        record_tape_free(self._slab.nbytes)
        self._slab = _new_slab(0)

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`lookup` calls that found a cached program."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def arena_bytes(self) -> int:
        """Arena bytes retained: the size of the slab the programs share."""
        return self._slab.nbytes


def _prediction_arrays(output) -> dict[str, np.ndarray]:
    """The four predicted property arrays of a model output, by name."""
    return {
        "energy": output.energy_per_atom.data,
        "forces": output.forces.data,
        "stress": output.stress.data,
        "magmom": output.magmom.data,
    }


class _CompilerBase:
    """Program cache + guards shared by the train/inference compilers.

    Subclasses implement the four mode-specific hooks (``_mode``,
    :meth:`_fallback`, :meth:`_capture`, :meth:`_replay`); the shared
    :meth:`_execute` template drives the capture -> guard -> fallback flow
    so the two managers cannot drift apart.

    ``cache`` accepts a :class:`SharedProgramCache` shared with sibling
    compilers (other ranks/workers over the same model configuration); when
    omitted the compiler owns a private cache.
    """

    #: program_signature mode tag; subclasses override.
    _mode = "train"

    def __init__(
        self,
        model,
        bucket: bool,
        max_programs: int,
        cache: SharedProgramCache | None = None,
    ) -> None:
        self.model = model
        self.params = model.parameters()
        self.bucket = bucket
        self.cache = cache if cache is not None else SharedProgramCache(max_programs)
        #: most recently captured or replayed program (bound state intact).
        self.last_program: CompiledStep | None = None
        self.stats = CompileStats()
        self._guard = self._guard_token()

    @property
    def max_programs(self) -> int:
        """LRU capacity of the (possibly shared) program cache."""
        return self.cache.max_programs

    @property
    def _programs(self) -> OrderedDict[tuple, CompiledStep]:
        return self.cache.programs

    @property
    def _unsupported(self) -> set[tuple]:
        return self.cache.unsupported

    @property
    def _canonical(self) -> dict[tuple, tuple]:
        return self.cache.canonical

    def _guard_token(self) -> tuple:
        return (self.model.config, len(self.params))

    def _check_guard(self) -> None:
        token = self._guard_token()
        if token != self._guard:
            # Model (or loss) reconfigured since capture: the recorded op
            # sequence may no longer match — drop everything, recapture.
            self.stats.guard_invalidations += 1
            self.release()
            self._unsupported.clear()
            self._guard = token
            self.params = self.model.parameters()

    def _pad(self, batch: GraphBatch) -> GraphBatch:
        """Pad a batch for program sharing (no-op when ``bucket=False``).

        Independent per-dimension buckets rarely coincide jointly — a
        shuffled long-tail loader would compile a fresh program nearly every
        step.  Batches are therefore grouped into geometric **workload
        tiers** (``graph.batching.TIER_GROWTH`` in the workload proxy);
        each tier keeps one canonical shape, the running elementwise max of
        its members' bucketed counts.  Shapes grow monotonically and
        converge after one pass over the data, after which every batch of a
        tier replays the same program.
        """
        if not self.bucket or batch.pad_info is not None:
            return batch
        dims = (
            batch.num_atoms,
            batch.num_edges,
            batch.num_short_edges,
            batch.num_angles,
        )
        targets = bucket_targets(batch)
        if targets == dims:
            return batch  # already on every boundary; nothing to pad
        if self.model.config.batched_basis:
            # Serial (Algorithm 1) programs hard-code per-sample offsets, so
            # cross-batch sharing is impossible there — tier only here.
            key = (
                batch.num_structs + 1,
                batch.energy_per_atom is not None,
                workload_tier(dims),
            )
            stored = self._canonical.get(key)
            if stored is not None:
                # Merging with the tier's canonical shape can re-introduce
                # padding in a dimension this batch's own targets left alone
                # (e.g. angles), so the ghost-feasibility bumps must be
                # re-applied to the merged targets.
                merged = tuple(max(a, b) for a, b in zip(stored, targets))
                targets = feasible_targets(batch, merged)
            self._canonical[key] = targets
        padded = pad_batch(batch, *targets)
        assert padded is not None
        return padded

    def warm_start(
        self, entries: Iterable[tuple[int, bool, tuple[int, int, int, int]]]
    ) -> int:
        """Pre-size canonical tier shapes from dataset statistics.

        ``entries`` describe the raw batches this compiler will see:
        ``(num_structs, has_labels, (atoms, edges, short, angles))`` each.
        Tier shapes normally grow as bigger batches arrive, recompiling once
        per growth; seeding every tier with the fixpoint canonical shape of
        its members (:func:`repro.graph.batching.canonical_targets`) makes
        the first epoch replay-only after a single capture per tier.
        Returns the number of tiers seeded.

        Only for batches this compiler pads itself.  A loader that pads to
        shapes planned from its fixed blocks needs no tiers at all — its
        trainer captures the largest planned shape directly and the rest
        arrive already padded (docs/architecture.md, "Padding: tiers for
        streams, plans for fixed blocks").
        """
        if not self.bucket or not self.model.config.batched_basis:
            return 0
        groups: dict[tuple, list[tuple[int, int, int, int]]] = {}
        for num_structs, has_labels, dims in entries:
            dims = tuple(int(d) for d in dims)
            if tuple(bucket_size(d) for d in dims) == dims:
                continue  # already on every boundary; never enters the merge
            key = (num_structs + 1, bool(has_labels), workload_tier(dims))
            groups.setdefault(key, []).append(dims)
        for key, members in groups.items():
            stored = self._canonical.get(key)
            seeds = (stored,) if stored is not None else ()
            self._canonical[key] = canonical_targets(members, seeds=seeds)
        return len(groups)

    # ------------------------------------------------------- shared step flow
    def _execute(self, batch: GraphBatch):
        """One step: pad, look up the program, replay — or capture/fall back.

        The template method both managers run.  Mode-specific behavior lives
        in ``_fallback`` (full eager step), ``_capture`` (trace one eager
        step into a program) and ``_replay`` (execute a bound program);
        every guard failure funnels into the eager fallback.
        """
        self._check_guard()
        batch = self._pad(batch)
        sig = program_signature(batch, not self.model.config.batched_basis, self._mode)
        if sig in self.cache.unsupported:
            self.stats.eager_fallbacks += 1
            return self._fallback(batch)
        prog = self.cache.lookup(sig)
        if prog is None:
            try:
                return self._capture(sig, batch)
            except TraceUnsupported:
                self.cache.unsupported.add(sig)
                self.stats.unsupported += 1
                self.stats.eager_fallbacks += 1
                return self._fallback(batch)
        reason = prog.bind(batch, self.params)
        if reason is not None:
            self.cache.evict(sig)
            self.stats.eager_fallbacks += 1
            return self._fallback(batch)
        self.last_program = prog
        return self._replay(prog, batch)

    def _fallback(self, batch: GraphBatch):
        raise NotImplementedError

    def _capture(self, sig: tuple, batch: GraphBatch):
        raise NotImplementedError

    def _replay(self, prog: CompiledStep, batch: GraphBatch):
        raise NotImplementedError

    def _trace(self, sig: tuple, batch: GraphBatch, eager: Callable[[], tuple]):
        """Capture ``eager()`` as the program for ``sig``; returns its result.

        ``eager`` runs one eager step and returns ``(result, outputs)`` with
        ``outputs`` the named arrays to mark as program outputs.  The trace
        holds arrays weakly, so the step's intermediates die when eager
        drops them and the capture peaks where the eager step does
        (docs/architecture.md, "Capture memory"); the program is built
        (planning only, no allocation) after the step has returned.
        """
        trace = TapeTrace(batch, self.params)
        with _traced(trace):
            result, outputs = eager()
        slots = {name: trace.slot_of(arr) for name, arr in outputs.items()}
        prog = CompiledStep(trace, slots, len(self.params))
        self.cache.store(sig, prog)
        self.last_program = prog
        self.stats.captures += 1
        return result

    def release(self) -> None:
        """Drop every cached program (returning arena bytes)."""
        self.cache.release()
        self.last_program = None

    @property
    def arena_bytes(self) -> int:
        """Arena bytes retained by this compiler's cached programs."""
        return self.cache.arena_bytes


class StepCompiler(_CompilerBase):
    """Compile-once manager for full training steps.

    ``step(batch)`` pads the batch to its shape bucket (``bucket=True``),
    then captures a program on first sight of a signature and replays it
    afterwards; gradients land in the parameters' ``.grad`` exactly as an
    eager ``zero_grad + backward`` would leave them (the caller still runs
    the optimizer).  Any guard failure falls back to the eager step.

    ``validate=True`` re-runs every replayed step eagerly and asserts the
    loss and all parameter gradients are bit-identical (test harness).
    """

    def __init__(
        self,
        model,
        loss_fn,
        bucket: bool = True,
        max_programs: int = MAX_PROGRAMS,
        validate: bool = False,
        cache: SharedProgramCache | None = None,
    ) -> None:
        self.loss_fn = loss_fn
        self.validate = validate
        super().__init__(model, bucket, max_programs, cache)

    def _guard_token(self) -> tuple:
        return (
            self.model.config,
            len(self.params),
            self.loss_fn.weights,
            self.loss_fn.delta,
        )

    def _eager(self, batch: GraphBatch):
        self.model.zero_grad()
        output = self.model.forward(batch, training=True)
        breakdown = self.loss_fn(output, batch)
        breakdown.loss.backward()
        return breakdown, output

    def step(self, batch: GraphBatch):
        """One forward/loss/backward; returns the LossBreakdown."""
        return self._execute(batch)

    def _fallback(self, batch: GraphBatch):
        return self._eager(batch)[0]

    def _capture(self, sig: tuple, batch: GraphBatch):
        def eager():
            breakdown, output = self._eager(batch)
            return breakdown, {"loss": breakdown.loss.data, **_prediction_arrays(output)}

        breakdown = self._trace(sig, batch, eager)
        # ``last_program`` promises bound state, and the trainer's
        # instrumented replay (``measured_ready_fractions``) may read it
        # before any rank replays this program.
        self.last_program.bind(batch, self.params)
        return breakdown

    def _replay(self, prog: CompiledStep, batch: GraphBatch):
        from repro.train.loss import LossBreakdown, batch_metrics

        prog.replay()
        prog.apply_grads(self.params)
        outs = prog.output_arrays()
        self.stats.replays += 1
        if self.validate:
            self._validate(prog, batch, outs)
        e_mae, f_mae, s_mae, m_mae = batch_metrics(
            outs["energy"], outs["forces"], outs["stress"], outs["magmom"], batch
        )
        return LossBreakdown(
            loss=Tensor(outs["loss"].copy()),
            energy_mae=e_mae,
            force_mae=f_mae,
            stress_mae=s_mae,
            magmom_mae=m_mae,
        )

    def _validate(self, prog: CompiledStep, batch: GraphBatch, outs: dict) -> None:
        replay_loss = outs["loss"].copy()
        replay_preds = {k: outs[k].copy() for k in ("energy", "forces", "stress", "magmom")}
        replay_grads = [None if p.grad is None else p.grad.data.copy() for p in self.params]
        breakdown, output = self._eager(batch)
        if not np.array_equal(replay_loss, breakdown.loss.data):
            raise RuntimeError("compiled replay loss diverged from eager")
        eager_preds = _prediction_arrays(output)
        for key, arr in replay_preds.items():
            if not np.array_equal(arr, eager_preds[key]):
                raise RuntimeError(f"compiled replay {key} diverged from eager")
        for p, g in zip(self.params, replay_grads):
            eager_g = None if p.grad is None else p.grad.data
            same = (
                g is None and eager_g is None
            ) or (g is not None and eager_g is not None and np.array_equal(g, eager_g))
            if not same:
                raise RuntimeError("compiled replay gradients diverged from eager")


class InferenceCompiler(_CompilerBase):
    """Compile-once manager for single-point (MD) model evaluations.

    ``run(batch)`` returns the four predicted property arrays restricted to
    the real (un-padded) rows; the views are valid until the next replay on
    the same cache.
    """

    _mode = "infer"

    def __init__(
        self,
        model,
        bucket: bool = True,
        max_programs: int = MAX_PROGRAMS,
        cache: SharedProgramCache | None = None,
    ) -> None:
        super().__init__(model, bucket, max_programs, cache)

    def _forward(self, batch: GraphBatch):
        if self.model.config.use_heads:
            with no_grad():
                return self.model.forward(batch, training=False)
        return self.model.forward(batch, training=False)

    def run(self, batch: GraphBatch) -> dict[str, np.ndarray]:
        """One single-point evaluation of ``batch`` (replay when cached).

        Returns ``{"energy", "forces", "stress", "magmom"}`` arrays
        restricted to the real (un-padded) rows.  They are views into the
        cache's slab, valid until the next replay on the same cache — by
        this compiler or any other sharing it (docs/architecture.md,
        "Arena") — so copy what must outlive that.
        """
        return self._execute(batch)

    def _fallback(self, batch: GraphBatch):
        return self._slice_real(_prediction_arrays(self._forward(batch)), batch)

    def _capture(self, sig: tuple, batch: GraphBatch):
        def eager():
            arrays = _prediction_arrays(self._forward(batch))
            return self._slice_real(arrays, batch), arrays

        return self._trace(sig, batch, eager)

    def _replay(self, prog: CompiledStep, batch: GraphBatch):
        prog.replay()
        self.stats.replays += 1
        return self._slice_real(prog.output_arrays(), batch)

    @staticmethod
    def _slice_real(arrs: dict[str, np.ndarray], batch: GraphBatch) -> dict[str, np.ndarray]:
        pi = batch.pad_info
        if pi is None:
            return arrs
        return {
            "energy": arrs["energy"][: pi.num_structs],
            "forces": arrs["forces"][: pi.num_atoms],
            "stress": arrs["stress"][: pi.num_structs],
            "magmom": arrs["magmom"][: pi.num_atoms],
        }
