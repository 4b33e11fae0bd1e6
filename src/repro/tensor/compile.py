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
    arrays and live parameter values.  :func:`run_passes` turns a raw trace
    into the replay list and its arena plan; each program then runs as one
    Python function generated when it is built: one statement per kernel
    launch, every array read from the slot list, no interpreter loop
    (docs/architecture.md, "Straight-line replay", has the emission rules
    and the code cache).  A built program keeps no instruction, and only
    what differs with its shapes: its slot list (which also holds the
    integer constants the source reads), its arena plan as arrays and its
    externals' shapes; that function, its one namespace, the kernel names,
    the buffer records and the gradient writes are built once and shared
    by every program of its structure ("What a built program holds").
    Elementwise chains whose intermediate has a single consumer are fused
    into one in-place kernel (the compiled analogue of
    :mod:`repro.tensor.ops_fused`); all other out-capable kernels
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
    batch-shape signature and replay the batch they are given.  Padding
    batches to shared shapes is the job of whoever streams them: the
    serving engine and the MD calculator pad each batch (ghost structure)
    to its geometric **workload tier**'s shape through their own
    :class:`~repro.graph.batching.TierShapes`, and a trainer's loader pads
    each shard to the shape its sampler planned (docs/architecture.md,
    "Padding: tiers for streams, plans for fixed blocks"), so a shuffled
    long-tail stream converges to a handful of shared programs instead of
    compiling every step.  A trainer knows its shapes before its first step
    and has :meth:`StepCompiler.prepare` cache them all: a few are captured
    eagerly, cheapest first, and the others derived from those captures'
    trace templates (:mod:`repro.tensor.derive`; docs/architecture.md,
    "Derived programs").  Every replay is guarded: a
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

import bisect
import functools
import itertools
import math
import time
import types
import weakref
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.graph.batching import MAX_PROGRAMS, GraphBatch, workload_cost
from repro.runtime.kernels import profiling_active, record_kernel
from repro.runtime.memory import record_tape_alloc, record_tape_free
from repro.tensor.engine import Tensor, no_grad, pop_tracer, push_tracer
from repro.tensor.ops_fused import _FLAT_KERNELS


class TraceUnsupported(RuntimeError):
    """Raised during capture when a step cannot be replayed safely."""


# Ops whose NumPy forward returns a view (or may): their output aliases the
# (first) input buffer, so liveness treats producer and consumer as one group
# and replay re-executes the (cheap) view creation instead of arena-writing.
_ALIAS_OPS = frozenset({"reshape", "transpose", "broadcast_to", "slice", "part"})


def _takes_out(fn: Callable) -> bool:
    """Whether the recorded forward ``fn`` writes into an ``out=`` buffer.

    A NumPy ufunc does, and so does every module-level ``_<op>_np(...,
    out=None)`` forward of :mod:`repro.tensor`: the compiled kernel is that
    very function called with an arena buffer, so replay cannot drift from
    eager (docs/architecture.md, "Row-stable kernels").
    """
    if isinstance(fn, np.ufunc):
        return True
    code = fn.__code__
    return "out" in code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]


def _call(fn: str, args: list[str], kwargs: dict[str, str]) -> str:
    return f"{fn}({', '.join([*args, *(f'{k}={v}' for k, v in kwargs.items())])})"


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

    The placed buffers are kept in offset order, so a new one walks them
    from offset 0, carrying the end of those whose live range meets its
    own, and stops at the first buffer starting past a gap it fits: none
    further on starts lower.
    """
    offsets = [0] * len(sizes)
    placed: list[tuple[int, int, int, int]] = []  # (offset, end, first, last)
    total = 0
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], live[i][0])):
        size = sizes[i]
        if not size:
            continue
        first, last = live[i]
        at, top = 0, size
        for lo, hi, f, l in placed:
            if lo >= top:
                break
            if hi > at and f <= last and l >= first:
                at, top = hi, hi + size
        offsets[i] = at
        bisect.insort(placed, (at, top, first, last))
        total = max(total, top)
    return offsets, total


def _new_slab(nbytes: int) -> np.ndarray:
    """An ``_ALIGN``-aligned, page-touched byte slab of ``nbytes``.

    Every page is made resident here: np.empty defers physical allocation,
    which would otherwise surface as a slow first *replay* (page faults
    inside the hot kernels).
    """
    raw = np.empty(nbytes + _ALIGN - 1, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    slab = raw[start : start + nbytes]
    slab[::4096] = 0
    return slab


@functools.cache
def _libc() -> Callable | None:
    """The C library's ``malloc_trim``, or ``None`` where it has none
    (``malloc_trim`` is glibc's).

    Resolved by the first :meth:`StepCompiler.prepare`, not at import, as
    :func:`repro.train.ranks.blas_threads` finds OpenBLAS.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: no process-wide handle (Windows)
        return None
    trim = getattr(lib, "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heap() -> None:
    """Hand glibc's freed heap back to the system (``malloc_trim(0)``);
    nothing where the C library has no ``malloc_trim``."""
    trim = _libc()
    if trim is not None:
        trim(0)


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

    def __init__(self, name, fn, in_slots, out_slot, kwargs, kw_ext, shape, dtype):
        self.name = name
        self.fn = fn
        self.in_slots = in_slots
        self.out_slot = out_slot
        self.kwargs = kwargs  # ndarray-free (static) kwargs
        self.kw_ext = kw_ext  # ((key, ext_slot), ...) read from the slots at replay
        self.alias = name in _ALIAS_OPS
        self.buf = -1  # arena buffer id (-1: plain allocation, or a view of its base)
        self.chain = None  # fused chain: [(kernel name, fn, argspec, kwargs), ...]
        self.shape = shape
        self.dtype = dtype
        self.nbytes = math.prod(shape) * dtype.itemsize

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
            Instr(name, fn, in_slots, out_slot, static_kwargs, kw_ext, out.shape, out.dtype)
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


def _has_int(value) -> bool:
    """Whether ``value`` carries an ``int`` as a trace's integers do
    (:func:`repro.tensor.derive._split`): itself, in a tuple or in a slice."""
    kind = type(value)
    if kind is int:
        return True
    if kind is tuple:
        return any(_has_int(v) for v in value)
    if kind is slice:
        return _has_int(value.start) or _has_int(value.stop) or _has_int(value.step)
    return False


def _const_key(value):
    """What tells two constants apart: a kernel by identity, a literal by
    type and text (so ``0.0`` is not ``-0.0`` and ``1`` is not ``True``)."""
    return value if callable(value) else (type(value), repr(value))


def _replay_source(instrs: list[Instr], n_slots: int) -> tuple[str, list, list, list[int]]:
    """A program as the source of one straight-line function, its shared
    constants, its integer constants and the statements each instruction
    takes.

    One statement per instruction — one per step of a fused chain — indexes
    the slot list ``S`` for every array: arena outputs were placed there by
    :meth:`CompiledStep.attach`, bound externals by :meth:`CompiledStep.bind`,
    and plain-allocating instructions store into it.  Every kernel is the
    forward the tape recorded (an arena launch calls it with ``out=``; a
    ``gather`` is a clipped ``take`` into its buffer).  A keyword value
    carrying an integer (a count, a shape, an axis) is read from the slot
    list past its ``n_slots`` slots, ``S[n_slots + j]`` holding the
    ``j``-th returned integer constant; kernels and every other keyword
    value are read from the names ``k0``, ``k1``, ..., one per distinct
    constant.  So programs of one model that differ only in shapes
    generate the same text over equal constants.
    """
    consts: list = []
    ints: list = []
    names: dict = {}

    def const(value) -> str:
        if _has_int(value):
            ints.append(value)
            return f"S[{n_slots + len(ints) - 1}]"
        key = _const_key(value)
        if key not in names:
            names[key] = f"k{len(consts)}"
            consts.append(value)
        return names[key]

    lines = ["def replay(S):"]
    counts = []
    for ins in instrs:
        o = f"S[{ins.out_slot}]"
        steps = ins.chain or [(ins.name, ins.fn, ins.in_slots, ins.kwargs)]
        for name, fn, argspec, kwargs in steps:
            args = [o if s == _CARRY else f"S[{s}]" for s in argspec]
            kw = {k: const(v) for k, v in kwargs.items()}
            kw.update((k, f"S[{s}]") for k, s in ins.kw_ext)
            if ins.buf < 0:
                lines.append(f" {o} = {_call(const(fn), args, kw)}")
            elif name == "gather":
                lines.append(f' {args[0]}.take({kw["idx"]}, axis=0, out={o}, mode="clip")')
            else:
                lines.append(f" {_call(const(fn), args, {**kw, 'out': o})}")
        counts.append(len(steps))
    return "\n".join(lines) + "\n", consts, ints, counts


#: Compiled replay code by source text, least recently used first, each as
#: ``(source, code)``.  Every tier of one model generates the same source,
#: so its programs share one code object and one source string.
_CODE: OrderedDict[str, tuple[str, types.CodeType]] = OrderedDict()
_CODE_CAPACITY = 16


def _code(source: str) -> tuple[str, types.CodeType]:
    """``(source, code)`` of the function ``replay`` that ``source``
    defines, from ``_CODE`` (compiled on a miss): the source is the one
    string ``_CODE`` holds for that text."""
    entry = _CODE.pop(source, None)
    if entry is None:
        module = compile(source, "<compiled replay>", "exec")
        entry = source, next(c for c in module.co_consts if isinstance(c, types.CodeType))
    _CODE[entry[0]] = entry
    if len(_CODE) > _CODE_CAPACITY:
        _CODE.popitem(last=False)
    return entry


def _replay_function(source: str, namespace: dict) -> Callable:
    """The function ``replay`` that ``source`` defines, over ``namespace``;
    it keeps the source text ``_CODE`` holds as ``.source``."""
    source, code = _code(source)
    fn = types.FunctionType(code, namespace, "replay")
    fn.source = source
    return fn


def _timed_variant(run: Callable, counts: np.ndarray) -> Callable:
    """The timed variant of the replay function ``run``, over its namespace:
    its statements with ``T[t] = pc() - t0`` after the ``counts[t]`` of
    instruction ``t``."""
    body = iter(run.source.splitlines()[1:])
    lines = ["def replay(S, T):", " t0 = pc()"]
    for t, n in enumerate(counts.tolist()):
        lines.extend(itertools.islice(body, n))
        lines.append(f" T[{t}] = pc() - t0")
    return _replay_function("\n".join(lines) + "\n", run.__globals__)


# ----------------------------------------------------------------- the passes
class Lowered(NamedTuple):
    """What :func:`run_passes` makes of a raw trace."""

    #: every kept instruction, program order, as the arena planner saw it
    instrs: list[Instr]
    #: the launches a replay runs: ``instrs`` less the prefilled views
    replay: list[Instr]
    #: what :meth:`CompiledStep.attach` prefills, program order: ``(slot,
    #: buffer id or id range)`` or ``(slot, view kernel, base slot, kwargs)``
    static: list[tuple]
    #: ``(byte offset, shape, dtype)`` per buffer id
    plan: list[tuple[int, tuple, np.dtype]]
    #: ``(first, last)`` instruction index each buffer is live over
    live: list[tuple[int, int]]
    #: flat slot of a split multi-output kernel -> its buffer ids, in order
    #: (consecutive: one per piece)
    split: dict[int, range]
    #: prefilled view -> its base slot
    removed_alias: dict[int, int]
    #: ``(slot, rows, spec)`` per index array :meth:`CompiledStep.bind` checks
    index_bounds: list[tuple[int, int, tuple]]
    arena_bytes: int


def run_passes(trace, outputs: dict[str, int]) -> Lowered:
    """Dead-code elimination, index bounds, elementwise fusion, part
    buffers, the arena plan and the static split, in that order, over a raw
    trace (a :class:`TapeTrace` or a derived
    :class:`~repro.tensor.derive.RawTrace`, whose instructions it mutates)
    with ``outputs`` its marked output slots."""
    pinned = {*outputs.values(), *(slot for _, slot in trace.grad_writes)}
    instrs = _eliminate_dead(trace.instrs, pinned)
    index_bounds = _plan_index_bounds(instrs, trace.externals)
    instrs = _fuse_elementwise_chains(instrs, pinned)
    pieces = _split_flats(instrs, pinned)
    plan, live, arena_bytes, split = _assign_arena(instrs, pinned, pieces)
    replay, static, removed_alias = _split_static(instrs, trace.externals, split)
    return Lowered(
        instrs, replay, static, plan, live, split, removed_alias, index_bounds, arena_bytes
    )


def _slot_uses(instrs: list[Instr]) -> tuple[dict[int, int], dict[int, int]]:
    """(last instr index reading each slot, read count per slot).

    Kwarg-bound arrays count as reads too — today those are always
    externals (never fused or arena-pooled), but liveness must not rely
    on that staying true.
    """
    last: dict[int, int] = {}
    count: dict[int, int] = {}
    for t, ins in enumerate(instrs):
        for s in ins.reads:
            last[s] = t
            count[s] = count.get(s, 0) + 1
        for _, s in ins.kw_ext:
            last[s] = t
            count[s] = count.get(s, 0) + 1
    return last, count


def _eliminate_dead(instrs: list[Instr], pinned: set[int]) -> list[Instr]:
    """Drop instructions whose results never reach an output or gradient.

    The eager tape can't avoid this work — e.g. the outer backward pass
    computes loss cotangents for the displacement/strain scratch leaves
    that nobody reads — but the compiled program sees the whole step and
    prunes those chains transitively.  All kept kernels still execute
    bit-identically.
    """
    live = set(pinned)
    kept: list[Instr] = []
    for ins in reversed(instrs):
        if ins.out_slot in live:
            kept.append(ins)
            live.update(ins.reads)
            live.update(slot for _, slot in ins.kw_ext)
    kept.reverse()
    return kept


def _plan_index_bounds(instrs: list[Instr], externals: list[tuple]) -> list[tuple[int, int, tuple]]:
    """``(slot, rows, spec)`` for every index array a bind rebinds.

    ``rows`` is the fewest rows any gather reads or any segment sum
    writes through that array: what :meth:`CompiledStep.bind` checks it
    against, once per bind, because replayed gathers take their rows
    unchecked.
    """
    shapes = {slot: shape for slot, _kind, _ref, shape, _dtype in externals}
    shapes.update((ins.out_slot, ins.shape) for ins in instrs)
    bounds: dict[int, int] = {}
    for ins in instrs:
        if ins.name in ("gather", "gather_add"):
            rows = shapes[ins.in_slots[-1]][0]  # the table looked up
        elif ins.name == "segment_sum":
            rows = ins.kwargs["num_segments"]
        else:
            continue
        slot = dict(ins.kw_ext)["idx"]
        bounds[slot] = min(rows, bounds.get(slot, rows))
    specs = {slot: ref for slot, _kind, ref, _shape, _dtype in externals}
    return [(slot, rows, specs[slot]) for slot, rows in sorted(bounds.items())]


def _fuse_elementwise_chains(instrs: list[Instr], pinned: set[int]) -> list[Instr]:
    """Collapse single-consumer elementwise chains into one in-place kernel.

    The compiled analogue of the ``ops_fused`` kernels: the chain's
    intermediate results never materialize outside the chain buffer, and
    the whole chain is accounted as one launch.  Only adjacent
    instructions with equal output shape/dtype are merged, so replay
    executes the identical ufunc sequence (bit-identical results).
    """
    _last, count = _slot_uses(instrs)
    fused: list[Instr] = []
    for ins in instrs:
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
                first = (prev.name, prev.fn, prev.in_slots, prev.kwargs)
                prev.name = "fused_chain"
                prev.fn = None
                prev.kwargs = {}
                prev.chain = [first]
            argspec = tuple(_CARRY if s == prev.out_slot else s for s in ins.in_slots)
            prev.chain.append((ins.name, ins.fn, argspec, ins.kwargs))
            prev.in_slots = prev.in_slots + tuple(s for s in ins.in_slots if s != prev.out_slot)
            prev.out_slot = ins.out_slot
            continue
        fused.append(ins)
    return fused


def _split_flats(instrs: list[Instr], pinned: set[int]) -> dict[int, list[tuple[int, list[Instr]]]]:
    """The pieces of every multi-output kernel output its parts tile.

    A ``_FLAT_KERNELS`` kernel writes its results back to back into one
    flat output.  When only ``part`` views read that flat and the parts
    do not overlap, :func:`_assign_arena` gives each part its own buffer
    and the kernel is launched with ``out=`` the tuple of them, so a part
    is live only until its own last reader.  Returns ``flat slot ->
    [(elements, parts)]`` in output order, ``parts`` being every ``part``
    instruction over that piece, or empty for bytes no part covers (a
    scratch buffer live only at the launch).  A flat that is pinned, read
    directly or through another view, or whose parts overlap is left out:
    it stays one buffer.
    """
    parts: dict[int, list[Instr]] = {}
    other = set(pinned)
    for ins in instrs:
        if ins.name == "part":
            parts.setdefault(ins.in_slots[0], []).append(ins)
        else:
            other.update(ins.reads)
            other.update(slot for _, slot in ins.kw_ext)
    split: dict[int, list[tuple[int, list[Instr]]]] = {}
    for ins in instrs:
        if ins.fn not in _FLAT_KERNELS or ins.out_slot in other or ins.out_slot not in parts:
            continue
        spans: dict[tuple, list[Instr]] = {}
        for part in parts[ins.out_slot]:
            spans.setdefault((part.kwargs["offset"], part.shape), []).append(part)
        pieces: list[tuple[int, list[Instr]]] = []
        at = 0
        for (lo, shape), group in sorted(spans.items()):
            size = math.prod(shape)
            if lo < at or not size:
                break  # overlapping or empty parts: one buffer
            if lo > at:
                pieces.append((lo - at, []))
            pieces.append((size, group))
            at = lo + size
        else:
            rest = ins.nbytes // ins.dtype.itemsize - at
            if rest:
                pieces.append((rest, []))
            if len(pieces) > 1:
                split[ins.out_slot] = pieces
    return split


def _assign_arena(instrs: list[Instr], pinned: set[int], split: dict) -> tuple:
    """Plan a byte offset for the result of every out=-capable kernel.

    Each result lives from its producing instruction to the last read of
    its alias group — view-producing (alias) ops extend the lifetime of
    their base, pinned slots (program outputs, gradient sources) live to
    the end of the program.  A kernel output in ``split``
    (:func:`_split_flats`) is planned as one buffer per piece instead,
    each part heading its own alias group.  :func:`_plan_offsets` packs
    those intervals into byte offsets, so bytes are reused regardless of
    shape or dtype.  Sets every planned instruction's ``buf`` and returns
    ``(plan, live, arena_bytes, split)`` as :class:`Lowered` holds them;
    nothing is allocated: :meth:`CompiledStep.attach` turns the plan into
    views of a backing slab (docs/architecture.md, "Arena").
    """
    last, _ = _slot_uses(instrs)

    # Union alias groups: view output shares its input's lifetime/base;
    # the parts of a split output over one piece share the first's.
    base: dict[int, int] = {}
    split_parts: set[int] = set()

    def find(s: int) -> int:
        while s in base:
            s = base[s]
        return s

    for pieces in split.values():
        for _size, group in pieces:
            split_parts.update(part.out_slot for part in group)
            base.update((part.out_slot, group[0].out_slot) for part in group[1:])
    for ins in instrs:
        if ins.alias and ins.out_slot not in split_parts:
            base[ins.out_slot] = find(ins.in_slots[0])
    group_last: dict[int, int] = {}
    for s, t in last.items():
        r = find(s)
        group_last[r] = max(group_last.get(r, -1), t)
    group_pinned = {find(s) for s in pinned}

    planned: list[tuple[int, tuple, np.dtype]] = []
    live: list[tuple[int, int]] = []

    def plan(t: int, slot: int | None, nbytes: int, shape: tuple, dtype) -> int:
        """A buffer written at ``t`` and read through ``slot`` (None: by no one)."""
        root = None if slot is None else find(slot)
        until = len(instrs) if root in group_pinned else group_last.get(root, t)
        planned.append((nbytes, shape, dtype))
        live.append((t, until))
        return len(planned) - 1

    split_bufs: dict[int, range] = {}
    for t, ins in enumerate(instrs):
        if ins.alias:
            continue
        if ins.chain is None and not _takes_out(ins.fn):
            continue
        if ins.out_slot not in split:
            ins.buf = plan(t, ins.out_slot, ins.nbytes, ins.shape, ins.dtype)
            continue
        ins.buf = len(planned)  # an arena launch; attach binds the whole tuple
        for size, group in split[ins.out_slot]:
            slot, shape = (group[0].out_slot, group[0].shape) if group else (None, (size,))
            buf = plan(t, slot, size * ins.dtype.itemsize, shape, ins.dtype)
            for part in group:
                part.buf = buf
        split_bufs[ins.out_slot] = range(ins.buf, len(planned))
    offsets, arena_bytes = _plan_offsets(
        live, [-(-nbytes // _ALIGN) * _ALIGN for nbytes, _shape, _dtype in planned]
    )
    specs = [(off, shape, dtype) for off, (_nbytes, shape, dtype) in zip(offsets, planned)]
    return specs, live, arena_bytes, split_bufs


def _split_static(instrs: list[Instr], externals: list[tuple], split: dict) -> tuple:
    """Take replay-invariant view instructions out of the replay list.

    Arena-backed outputs always live at the same slab offset, so their
    slot entry only changes when the slab does; views
    (reshape/transpose/...) whose transitive base is an arena buffer or
    a frozen constant are likewise fixed per slab.  Both kinds get a
    static-attach record for :meth:`CompiledStep.attach` to materialize;
    the views leave the replay list entirely.  Returns ``(replay,
    static, removed_alias)`` as :class:`Lowered` holds them.
    """
    static = {slot for slot, kind, _ref, _shape, _dtype in externals if kind == "const"}
    replay: list[Instr] = []
    records: list[tuple] = []
    removed_alias: dict[int, int] = {}
    for ins in instrs:
        slot = ins.out_slot
        if ins.buf >= 0 and not ins.alias:
            static.add(slot)
            records.append((slot, split.get(slot, ins.buf)))
            replay.append(ins)
        elif ins.alias and ins.in_slots[0] in static:
            static.add(slot)
            removed_alias[slot] = ins.in_slots[0]
            records.append(
                (slot, ins.buf) if ins.buf >= 0 else (slot, ins.fn, ins.in_slots[0], ins.kwargs)
            )
        else:
            replay.append(ins)
    return replay, records, removed_alias


def _launch_index(lowered: Lowered, slots) -> dict[int, int]:
    """Index of the replay launch that completes each of ``slots`` (-1:
    none), a prefilled view resolved through its base."""
    launch = {ins.out_slot: t for t, ins in enumerate(lowered.replay)}
    index = {}
    for slot in slots:
        base = slot
        while base in lowered.removed_alias:
            base = lowered.removed_alias[base]
        index[slot] = launch.get(base, -1)
    return index


class _Plan(NamedTuple):
    """An arena plan as arrays: buffer ``b`` sits at byte ``offsets[b]``
    with shape ``dims[starts[b]:starts[b + 1]]`` and dtype
    ``dtypes[codes[b]]``."""

    offsets: np.ndarray
    starts: np.ndarray
    dims: np.ndarray
    codes: np.ndarray
    dtypes: tuple


def _pack_plan(plan: list[tuple[int, tuple, np.dtype]]) -> _Plan:
    """The ``(byte offset, shape, dtype)`` list :class:`Lowered` holds, as
    a :class:`_Plan`."""
    dtypes: dict = {}
    codes = [dtypes.setdefault(dtype, len(dtypes)) for _off, _shape, dtype in plan]
    return _Plan(
        np.array([off for off, _shape, _dtype in plan], dtype=np.int64),
        np.cumsum([0, *(len(shape) for _off, shape, _dtype in plan)], dtype=np.int64),
        np.array([n for _off, shape, _dtype in plan for n in shape], dtype=np.int64),
        np.array(codes, dtype=np.uint8),
        tuple(dtypes),
    )


def _interned(template: list, values: list) -> list:
    """``values`` with every entry equal to ``template``'s at its index (by
    :func:`_const_key`) replaced by ``template``'s object."""
    if template is values or len(template) != len(values):
        return values
    return [t if t is v or _const_key(t) == _const_key(v) else v for t, v in zip(template, values)]


class _Shared:
    """The replay state every program of one :data:`_SHARED` key holds:
    all but its shapes (docs/architecture.md, "What a built program
    holds").

    The key is what the state is made of: the replay source, its shared
    constants, the launch names and statements per launch, the buffer
    records (bytes of ``(slot, buffer)`` rows and of ``(slot, first,
    stop)`` rows for a split kernel's buffer range), ``(slot, kind, ref,
    dtype)`` of every parameter and batch external, the gradient writes,
    the parameter count, the outputs and the gradient launches.  The
    arrays view the key's bytes.  ``ints`` and ``views`` are the first
    program's integer constants and view records: a later program holds
    these very objects where its own are equal (:func:`_interned`).
    """

    def __init__(self, key: tuple, consts: list, ints: list, views: list) -> None:
        (source, _consts, self.kernels, lines, one, many, self.bound, grad_writes, n_params,
         outputs, launch) = key
        namespace = {"pc": time.perf_counter}
        namespace.update((f"k{i}", value) for i, value in enumerate(consts))
        self.run = _replay_function(source, namespace)
        self.timed: Callable | None = None  # built by the first replay_measured
        self.lines = np.frombuffer(lines, dtype=np.int32)  # statements per launch
        self.one = np.frombuffer(one, dtype=np.int64).reshape(-1, 2)
        self.many = np.frombuffer(many, dtype=np.int64).reshape(-1, 3)
        self.grad_writes = grad_writes
        written = {pid for pid, _ in grad_writes}
        self.nograd_params = [i for i in range(n_params) if i not in written]
        self.outputs = dict(outputs)
        self.grad_launch = dict(launch)  # gradient slot -> launch index
        self.ints = ints
        self.views = views


#: The shared state of every live program, by its key (see :class:`_Shared`).
_SHARED: weakref.WeakValueDictionary[tuple, _Shared] = weakref.WeakValueDictionary()


class CompiledStep:
    """A captured tape: a generated replay function + arena plan + gradient
    writes.

    Building a program runs :func:`run_passes` over the trace and keeps
    only what replay, binding and attaching read (docs/architecture.md,
    "What a built program holds"): per program its slot list (bound
    externals, slab views and integer constants), its plan and the shapes
    of its externals, and one :class:`_Shared` with every program of its
    structure for the rest.  It allocates nothing: it cannot replay until
    the :class:`SharedProgramCache` it is stored in has :meth:`attach`-ed
    it to the cache's slab.
    """

    def __init__(
        self,
        trace: TapeTrace,
        outputs: dict[str, int],
        n_params: int,
    ) -> None:
        self.n_instrs_captured = len(trace.instrs)
        bound = [ext for ext in trace.externals if ext[1] != "const"]
        lowered = run_passes(trace, outputs)
        replay = lowered.replay
        source, consts, ints, counts = _replay_source(replay, trace.n_slots)
        records = [r for r in lowered.static if len(r) == 2]
        one = [r for r in records if type(r[1]) is int]
        many = [(slot, bufs.start, bufs.stop) for slot, bufs in records if type(bufs) is range]
        views = [r for r in lowered.static if len(r) == 4]
        grad_writes = tuple(trace.grad_writes)
        key = (
            _code(source)[0],
            tuple(map(_const_key, consts)),
            tuple(ins.name for ins in replay),
            np.array(counts, dtype=np.int32).tobytes(),
            np.array(one, dtype=np.int64).tobytes(),
            np.array(many, dtype=np.int64).tobytes(),
            tuple((slot, kind, ref, dtype) for slot, kind, ref, _shape, dtype in bound),
            grad_writes,
            n_params,
            tuple(outputs.items()),
            tuple(_launch_index(lowered, [slot for _, slot in grad_writes]).items()),
        )
        shared = _SHARED.get(key)
        if shared is None:
            shared = _SHARED[key] = _Shared(key, consts, ints, views)
        self._shared = shared
        self._slots: list = [None] * trace.n_slots + _interned(shared.ints, ints)
        for slot, kind, ref, _shape, _dtype in trace.externals:
            if kind == "const":
                self._slots[slot] = ref
        #: the shape of each external :meth:`bind` rebinds (``_Shared.bound``)
        self._shapes = tuple(shape for _slot, _kind, _ref, shape, _dtype in bound)
        #: the view records :meth:`attach` prefills: ``(slot, view kernel,
        #: base slot, kwargs)``
        self._views = _interned(shared.views, views)
        self._plan = _pack_plan(lowered.plan)
        self.arena_bytes = lowered.arena_bytes
        self._index_bounds = lowered.index_bounds
        #: the kernel profile: each launch's output bytes
        self._kernel_bytes = np.array([ins.nbytes for ins in replay], dtype=np.int64)
        #: views of the attached slab, one per buffer id (see :meth:`attach`)
        self.buffers: list[np.ndarray] = []
        self._bound = False  # set by bind, cleared by unbind

    # What every program of its structure shares, read through its _Shared.
    @property
    def grad_writes(self) -> tuple[tuple[int, int], ...]:
        """``(parameter index, slot)`` per final gradient :meth:`apply_grads` writes."""
        return self._shared.grad_writes

    @property
    def outputs(self) -> dict[str, int]:
        """The marked outputs' slots, by name."""
        return self._shared.outputs

    @property
    def n_instrs(self) -> int:
        """Kernel launches per replay."""
        return len(self._shared.kernels)

    @property
    def _run(self) -> Callable:
        return self._shared.run

    @property
    def _kernels(self) -> tuple[str, ...]:
        return self._shared.kernels

    @property
    def _lines(self) -> np.ndarray:
        return self._shared.lines

    def specs(self) -> list[tuple[int, tuple, np.dtype]]:
        """The arena plan: ``(byte offset, shape, dtype)`` per buffer id,
        rebuilt from its arrays."""
        offsets, starts, dims, codes, dtypes = self._plan
        dims, starts = dims.tolist(), starts.tolist()
        return [
            (off, tuple(dims[lo:hi]), dtypes[code])
            for off, lo, hi, code in zip(offsets.tolist(), starts, starts[1:], codes.tolist())
        ]

    def _static_slots(self):
        """Every slot :meth:`attach` prefills."""
        shared = self._shared
        return itertools.chain(
            shared.one[:, 0].tolist(), shared.many[:, 0].tolist(), (r[0] for r in self._views)
        )

    def attach(self, slab: np.ndarray) -> None:
        """Point the program at ``slab``: rebuild ``buffers`` and static slots.

        ``slab`` is an ``_ALIGN``-aligned ``uint8`` array of at least
        ``arena_bytes``.  The static records (:class:`Lowered`) say what each
        replay-invariant slot holds: a split multi-output kernel's slot the
        tuple of its parts' buffers, an arena launch's or a part's slot its
        buffer, a prefilled view that view of its base (filled after every
        buffer, in program order).  Bound externals are untouched, so a
        program may be re-attached (to a larger slab) between replays.
        """
        buffers = self.buffers = [
            np.ndarray(shape, dtype, buffer=slab, offset=off) for off, shape, dtype in self.specs()
        ]
        slots, shared = self._slots, self._shared
        for slot, buf in shared.one.tolist():
            slots[slot] = buffers[buf]
        for slot, first, stop in shared.many.tolist():
            slots[slot] = tuple(buffers[first:stop])
        for slot, fn, base, kwargs in self._views:
            slots[slot] = fn(slots[base], **kwargs)

    def detach(self) -> None:
        """Drop every view of the slab (undoes :meth:`attach`)."""
        self.buffers = []
        for slot in self._static_slots():
            self._slots[slot] = None

    # ------------------------------------------------------------------ bind
    def bind(self, batch: GraphBatch, params: list) -> str | None:
        """Rebind external arrays to a new batch/parameter state.

        ``params`` entries may be :class:`~repro.tensor.engine.Tensor`
        parameters or raw ndarrays (e.g. a serving engine's versioned
        weight snapshots) — values are read fresh on every bind, which is
        what makes weight hot-swaps recapture-free; frozen constants stay
        in their slots.  Returns ``None`` on success or a human-readable
        guard-failure reason (the caller then falls back to eager).
        """
        slots = self._slots
        for (slot, kind, ref, dtype), shape in zip(self._shared.bound, self._shapes):
            if kind == "param":
                p = params[ref]
                arr = p.data if isinstance(p, Tensor) else p
            else:
                try:
                    arr = batch.bound_array(ref)
                except (KeyError, ValueError, IndexError) as exc:
                    return f"batch array {ref!r} unavailable: {exc}"
            if arr.shape != shape or arr.dtype != dtype:
                return (
                    f"external {kind}:{ref!r} changed shape/dtype "
                    f"({arr.shape}/{arr.dtype} vs {shape}/{dtype})"
                )
            slots[slot] = arr
        for slot, rows, spec in self._index_bounds:
            if _out_of_range(slots[slot], rows):
                raise IndexError(f"batch index array {spec!r} out of range for {rows} rows")
        self._bound = True
        return None

    def unbind(self) -> None:
        """Let go of every bound external (batch arrays and weight
        snapshots), so the program holds no caller's array between
        replays; :meth:`bind` must precede the next replay."""
        slots = self._slots
        for slot, _kind, _ref, _dtype in self._shared.bound:
            slots[slot] = None
        self._bound = False

    def _check_bound(self) -> None:
        if not self._bound:
            raise RuntimeError(
                f"replay of unbound program ({self.n_instrs} launches, externals of shapes "
                f"{self._shapes}): bind() a batch first"
            )

    # ---------------------------------------------------------------- replay
    def replay(self) -> None:
        """Execute the program on the currently bound slots.

        While a runtime profile is active every instruction is also reported
        as one kernel launch (name and output bytes), as eager dispatch does.
        """
        self._check_bound()
        self._shared.run(self._slots)
        if profiling_active():
            for name, nbytes in zip(self._shared.kernels, self._kernel_bytes.tolist()):
                record_kernel(name, nbytes)

    def grad_instr_index(self, slot: int) -> int:
        """Index of the replay instruction producing ``slot`` (-1: prefilled).

        Slots whose producing view instruction was prefilled away resolve
        through their alias base, so every gradient slot maps to the launch
        that completes it — the hook behind measured bucket ready times.
        Only the slots of ``grad_writes`` are kept (-1 for any other).
        """
        return self._shared.grad_launch.get(slot, -1)

    def replay_measured(self) -> np.ndarray:
        """Replay on the bound slots, timestamping every instruction.

        Runs the timed variant of the generated replay function, derived
        from its source on the first call by any program of its structure
        (same statements, same constants namespace).  Returns
        cumulative seconds after each launch (same kernels, same order, same
        bits as :meth:`replay`); combined with :meth:`grad_instr_index` this
        yields *measured* per-gradient completion times instead of
        byte-share estimates.
        """
        self._check_bound()
        shared = self._shared
        if shared.timed is None:
            shared.timed = _timed_variant(shared.run, shared.lines)
        times = np.zeros(self.n_instrs)
        shared.timed(self._slots, times)
        return times

    def apply_grads(self, params: list) -> None:
        """Write final gradients in place into persistent ``.grad`` arrays."""
        slots, shared = self._slots, self._shared
        for i in shared.nograd_params:
            params[i].grad = None
        for pid, slot in shared.grad_writes:
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
    """Counters describing how a compiler handled its steps so far
    (``captures``: every program stored)."""

    captures: int = 0
    replays: int = 0
    eager_fallbacks: int = 0
    unsupported: int = 0
    guard_invalidations: int = 0


@dataclass
class StepCompileStats(CompileStats):
    """A :class:`StepCompiler`'s counters: also the programs
    :meth:`StepCompiler.prepare` derived instead of traced, and the
    structures whose samples differed in more than integers."""

    derived: int = 0
    never_derive: int = 0


def total_stats(compilers) -> dict[str, int]:
    """Every counter of the compilers' stats summed over ``compilers`` (all
    of one kind)."""
    compilers = list(compilers)
    kind = type(compilers[0].stats) if compilers else CompileStats
    return {f.name: sum(getattr(c.stats, f.name) for c in compilers) for f in fields(kind)}


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
    "Arena").  A trainer's rank executors (:mod:`repro.train.ranks`)
    replay forked copies of the cache, each on its own copy of the slab,
    and never capture.  :meth:`store` grows the slab and re-attaches every
    program; eviction never shrinks it; :meth:`release` drops it.  A
    trainer runs every eager capture before the first store allocates the
    slab (:meth:`StepCompiler.prepare`, "Capture memory").

    A compiler constructed without an explicit cache owns a private instance.
    """

    def __init__(self, max_programs: int = MAX_PROGRAMS) -> None:
        if max_programs < 1:
            raise ValueError(f"max_programs must be >= 1, got {max_programs}")
        self.max_programs = max_programs
        self.programs: OrderedDict[tuple, CompiledStep] = OrderedDict()
        self.unsupported: set[tuple] = set()
        self.hits = 0
        self.misses = 0
        #: Bumped by every :meth:`store`: a copy of the cache taken at an
        #: older generation (a forked rank executor's) lacks a program.
        self.generation = 0
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

        A program larger than the slab grows it (:meth:`_reslab`).  LRU
        eviction beyond ``max_programs`` drops programs but never shrinks
        the slab.
        """
        self.generation += 1
        self.programs[sig] = prog
        if len(self.programs) > self.max_programs:
            self.programs.popitem(last=False)
        if prog.arena_bytes > self._slab.nbytes:
            self._reslab(prog.arena_bytes)
        else:
            prog.attach(self._slab)

    def _reslab(self, nbytes: int) -> None:
        """Replace the slab by one of ``nbytes`` and attach every cached
        program to it (none when ``nbytes`` is 0).

        The programs let go of the old slab *before* the new one is
        allocated, so this peaks at max(old, new) bytes, not their sum
        (arrays a caller still holds keep the old slab readable).
        """
        record_tape_free(self._slab.nbytes)
        for cached in self.programs.values():
            cached.detach()
        self._slab = None  # freed here, not after the allocation below
        self._slab = _new_slab(nbytes)
        record_tape_alloc(nbytes)
        if nbytes:
            for cached in self.programs.values():
                cached.attach(self._slab)

    def evict(self, sig: tuple) -> None:
        """Drop the program for ``sig`` (if cached); the slab keeps its size."""
        self.programs.pop(sig, None)

    def release(self) -> None:
        """Drop every cached program and the slab."""
        self.programs.clear()
        self._reslab(0)

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


def eager_predict(model, batch: GraphBatch) -> dict[str, np.ndarray]:
    """One eager single-point evaluation's four predicted property arrays.

    The forward runs under ``no_grad`` when the model's heads predict forces
    and stress directly; the reference model takes them as energy gradients.
    """
    with no_grad() if model.config.use_heads else nullcontext():
        return _prediction_arrays(model.forward(batch, training=False))


class _CompilerBase:
    """Program cache + guards shared by the train/inference compilers.

    Subclasses implement the four mode-specific hooks (``_mode``,
    :meth:`_fallback`, :meth:`_capture`, :meth:`_replay`); the shared
    :meth:`_execute` template drives the capture -> guard -> fallback flow
    so the two managers cannot drift apart.

    ``cache`` accepts a :class:`SharedProgramCache` shared with sibling
    compilers (other ranks/workers over the same model configuration); when
    omitted the compiler owns a private cache of the default capacity
    (pass ``cache=SharedProgramCache(n)`` for another).
    """

    #: program_signature mode tag; subclasses override.
    _mode = "train"
    #: counters kept in ``stats``; subclasses may extend them.
    _stats = CompileStats

    def __init__(self, model, cache: SharedProgramCache | None = None) -> None:
        self.model = model
        self.params = model.parameters()
        self.cache = cache if cache is not None else SharedProgramCache()
        #: most recently captured or replayed program; a training program
        #: keeps its bound state, an inference program is unbound after
        #: each replay (:meth:`InferenceCompiler._replay`).
        self.last_program: CompiledStep | None = None
        self.stats = self._stats()
        self._guard = self._guard_token()

    @property
    def max_programs(self) -> int:
        """LRU capacity of the (possibly shared) program cache."""
        return self.cache.max_programs

    def _guard_token(self) -> tuple:
        return (self.model.config, len(self.params))

    def _check_guard(self) -> None:
        token = self._guard_token()
        if token != self._guard:
            # Model (or loss) reconfigured since capture: the recorded op
            # sequence may no longer match — drop everything, recapture.
            self.stats.guard_invalidations += 1
            self.release()
            self.cache.unsupported.clear()
            self._guard = token
            self.params = self.model.parameters()

    # ------------------------------------------------------- shared step flow
    def _execute(self, batch: GraphBatch):
        """One step: look up the program, replay — or capture/fall back.

        The template method both managers run.  Mode-specific behavior lives
        in ``_fallback`` (full eager step), ``_capture`` (trace one eager
        step into a program) and ``_replay`` (execute a bound program);
        every guard failure funnels into the eager fallback.
        """
        self._check_guard()
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

    def will_replay(self, batch: GraphBatch) -> bool:
        """Whether :meth:`_execute` would replay a cached program on ``batch``
        (short of :meth:`CompiledStep.bind`'s checks), touching nothing."""
        if self._guard_token() != self._guard:
            return False
        sig = program_signature(batch, not self.model.config.batched_basis, self._mode)
        return sig in self.cache.programs

    def _fallback(self, batch: GraphBatch):
        raise NotImplementedError

    def _capture(self, sig: tuple, batch: GraphBatch):
        raise NotImplementedError

    def _replay(self, prog: CompiledStep, batch: GraphBatch):
        raise NotImplementedError

    def _trace(self, sig: tuple, batch: GraphBatch, eager: Callable[[], tuple], templates=None):
        """Capture ``eager()`` as a program for ``sig``: ``(its result, the
        program)``, which the caller stores.

        ``eager`` runs one eager step and returns ``(result, outputs)`` with
        ``outputs`` the named arrays to mark as program outputs.  The trace
        holds arrays weakly, so the step's intermediates die when eager
        drops them and the capture peaks where the eager step does, beside
        whatever slab the cache holds (none during a trainer's build;
        docs/architecture.md, "Capture memory"); the program is built
        (planning only, no allocation) after the step has returned, and
        after ``templates`` (a :class:`~repro.tensor.derive.TraceTemplates`)
        has sampled the raw trace.
        """
        trace = TapeTrace(batch, self.params)
        with _traced(trace):
            result, outputs = eager()
        slots = {name: trace.slot_of(arr) for name, arr in outputs.items()}
        if templates is not None:
            templates.add(sig, trace, slots)
        return result, CompiledStep(trace, slots, len(self.params))

    def _store(self, sig: tuple, prog: CompiledStep) -> None:
        self.cache.store(sig, prog)
        self.last_program = prog
        self.stats.captures += 1

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

    ``step(batch)`` captures a program on first sight of the batch's
    signature (its shape, as the caller padded it) and replays it
    afterwards; gradients land in the parameters' ``.grad`` exactly as an
    eager ``zero_grad + backward`` would leave them (the caller still runs
    the optimizer).  Any guard failure falls back to the eager step.

    Setting :attr:`validate` re-runs every replayed step eagerly and asserts
    the loss and all parameter gradients are bit-identical (test harness).
    """

    _stats = StepCompileStats

    def __init__(self, model, loss_fn, cache: SharedProgramCache | None = None) -> None:
        self.loss_fn = loss_fn
        #: Re-run every replay eagerly and assert bit-identity.
        self.validate = False
        super().__init__(model, cache)

    def _guard_token(self) -> tuple:
        return (
            self.model.config,
            len(self.params),
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

    def prepare(self, batches: list[GraphBatch]) -> None:
        """Cache a program for the shape of each of ``batches`` now.

        What a trainer runs before its first step, on one padded batch of
        every shape its sampler planned.  Shapes are taken cheapest first
        and captured eagerly, each capture one more sample of its
        structure's template (:mod:`repro.tensor.derive`), until the
        templates resolve every shape left; those are derived, largest
        first, and built by the same passes.  The templates are then
        dropped and the freed heap handed back, and only then is any
        program stored, the largest plan first.  So the largest eager tape
        is never built, every eager capture runs and every replay source is
        compiled before the slab exists, and the slab is allocated once,
        at its final size (docs/architecture.md, "Derived programs").
        """
        from repro.tensor.derive import TraceTemplates

        self._check_guard()
        serial = not self.model.config.batched_basis
        todo: dict[tuple, GraphBatch] = {}
        for batch in batches:
            sig = program_signature(batch, serial, self._mode)
            if sig not in self.cache.programs and sig not in self.cache.unsupported:
                todo.setdefault(sig, batch)
        todo = dict(sorted(todo.items(), key=lambda item: workload_cost(*item[0][2:6])))
        templates = TraceTemplates()
        built: list[tuple[tuple, GraphBatch, CompiledStep]] = []
        while (sig := next((s for s in todo if templates.predict(s) is None), None)) is not None:
            batch = todo.pop(sig)
            step = functools.partial(self._traced_step, batch)
            try:
                built.append((sig, batch, self._trace(sig, batch, step, templates)[1]))
            except TraceUnsupported:
                self.cache.unsupported.add(sig)
                self.stats.unsupported += 1
        for sig, batch in reversed(todo.items()):
            raw = templates.derive(sig)
            built.append((sig, batch, CompiledStep(raw, raw.outputs, len(self.params))))
            self.stats.derived += 1
        self.stats.never_derive += len(templates.never)
        templates = raw = None  # the samples go before the heap is handed back
        _trim_heap()
        # Largest plan first: the slab is allocated once, at its final size.
        for sig, batch, prog in sorted(built, key=lambda item: -item[2].arena_bytes):
            self._store(sig, prog)
        if built:
            prog.bind(batch, self.params)  # ``last_program``, as a capture leaves it

    def _fallback(self, batch: GraphBatch):
        return self._eager(batch)[0]

    def _traced_step(self, batch: GraphBatch):
        """The eager step a capture traces: ``(breakdown, outputs to mark)``."""
        breakdown, output = self._eager(batch)
        return breakdown, {"loss": breakdown.loss.data, **_prediction_arrays(output)}

    def _capture(self, sig: tuple, batch: GraphBatch):
        # A trainer's steps only replay: ``prepare`` built every planned
        # program before the slab existed.  A capture here (a standalone
        # compiler's) runs its eager tape beside whatever slab the cache
        # holds (docs/architecture.md, "Capture memory").
        breakdown, prog = self._trace(sig, batch, functools.partial(self._traced_step, batch))
        self._store(sig, prog)
        # ``last_program`` promises bound state, and the trainer's
        # instrumented replay (``measured_ready_fractions``) may read it
        # before any rank replays this program.
        prog.bind(batch, self.params)
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
        return self._slice_real(eager_predict(self.model, batch), batch)

    def _capture(self, sig: tuple, batch: GraphBatch):
        def eager():
            arrays = eager_predict(self.model, batch)
            return self._slice_real(arrays, batch), arrays

        result, prog = self._trace(sig, batch, eager)
        self._store(sig, prog)
        return result

    def _replay(self, prog: CompiledStep, batch: GraphBatch):
        # The outputs are slab views and ``bind`` rebinds every external
        # before each replay, so the program lets go of the caller's batch
        # and weights as soon as it has run.
        try:
            prog.replay()
            outs = prog.output_arrays()
        finally:
            prog.unbind()
        self.stats.replays += 1
        return self._slice_real(outs, batch)

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
