"""Training programs derived from a few eager captures of their structure.

FastCHGNet's graph reconstruction (Section III-C) rests on the step's op
graph being static per batch shape.  Across the shapes of one run it is
more static than that: the programs of one *structure* record the same
kernels, in the same order, on the same slots, and differ only in integers
that carry the batch counts — output shapes, ``segment_sum``'s
``num_segments``, slice bounds, the shapes of constants.

A :class:`TraceTemplate` holds the raw trace (before any pass) of one eager
sample of a structure, and every integer of each further sample's trace.
Each integer is fitted across the samples as a constant or as ``k * count +
d`` for one of the five signature counts.  A shape the fits resolve is
*derived*: the sample's trace with the predicted integers patched in, which
:class:`~repro.tensor.compile.CompiledStep` then builds like any capture
(docs/architecture.md, "Derived programs").
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from repro.tensor.compile import Instr

#: Where a program signature holds the five counts: structures, atoms,
#: edges, short edges and angles.
_COUNTS = slice(1, 6)


def structure_key(sig: tuple) -> tuple | None:
    """The template a signature's programs share: mode, structure count,
    which counts are zero, and the label and pad flags.  ``None`` for a
    serial signature, whose offset tables hard-code per-sample bounds."""
    if len(sig) != 8:
        return None
    return (sig[0], sig[1], tuple(c == 0 for c in sig[_COUNTS]), sig[6], sig[7])


#: What stands in a skeleton where its trace held an integer.
_I = object()


def _split(value, ints: list[int]):
    """``value`` with every ``int`` in it moved to the end of ``ints``."""
    kind = type(value)
    if kind is int:
        ints.append(value)
        return _I
    if kind is tuple:
        return tuple([_split(v, ints) for v in value])
    if kind is slice:
        return slice(_split(value.start, ints), _split(value.stop, ints), _split(value.step, ints))
    return value  # a literal: float, bool, None, ...


def _join(skeleton, ints: Iterator[int]):
    """Undo :func:`_split`, taking the integers from ``ints``."""
    if skeleton is _I:
        return next(ints)
    kind = type(skeleton)
    if kind is tuple:
        return tuple([_join(s, ints) for s in skeleton])
    if kind is slice:
        return slice(
            _join(skeleton.start, ints), _join(skeleton.stop, ints), _join(skeleton.step, ints)
        )
    return skeleton


def _fill(arr: np.ndarray):
    """A constant's skeleton: the bytes of its one value, or, unless it is
    a C-contiguous repeat of one value, its bytes, shape and strides (so
    its shape cannot vary either)."""
    first = arr.reshape(-1)[:1].tobytes()
    if arr.size and arr.flags.c_contiguous and arr.tobytes() == first * arr.size:
        return first
    return (arr.tobytes(), arr.shape, arr.strides)


def _flatten(trace, outputs: dict[str, int]) -> tuple[list, np.ndarray, np.ndarray]:
    """``(skeleton, ints, starts)`` of a raw trace and its output slots.

    One record per instruction, external and gradient write, then the
    outputs and the slot count.  ``skeleton[r]`` is record ``r`` without
    its integers (names, kernels, dtypes, literals, constant fills, batch
    specs); they are ``ints[starts[r]:starts[r + 1]]``: slots, output and
    external shapes, and every ``int`` of the keyword arguments.
    """
    skeleton: list = []
    ints: list[int] = []
    starts = [0]
    for ins in trace.instrs:
        ints.extend(ins.in_slots)
        ints.append(ins.out_slot)
        ints.extend(slot for _, slot in ins.kw_ext)
        ints.extend(ins.shape)
        kwargs = tuple([(k, _split(v, ints)) for k, v in ins.kwargs.items()])
        keys = tuple(k for k, _ in ins.kw_ext)
        skeleton.append((ins.name, ins.fn, ins.dtype, len(ins.in_slots), keys, len(ins.shape), kwargs))
        starts.append(len(ints))
    for slot, kind, ref, shape, dtype in trace.externals:
        ints.append(slot)
        ints.extend(shape)
        skeleton.append((kind, _fill(ref) if kind == "const" else ref, dtype))
        starts.append(len(ints))
    for pid, slot in trace.grad_writes:
        ints.append(slot)
        skeleton.append(pid)
        starts.append(len(ints))
    ints.extend(outputs.values())
    skeleton.append(tuple(outputs))
    ints.append(trace.n_slots)
    starts.extend((len(ints) - 1, len(ints)))
    return skeleton, np.array(ints, dtype=np.int64), np.array(starts, dtype=np.int64)


def _copy(ins: Instr) -> Instr:
    """A fresh copy of the not yet compiled ``ins`` (the passes mutate theirs)."""
    return Instr(ins.name, ins.fn, ins.in_slots, ins.out_slot, ins.kwargs, ins.kw_ext, ins.shape, ins.dtype)


class RawTrace:
    """A trace as its eager step left it, before any pass: what
    :class:`~repro.tensor.compile.CompiledStep` builds a program from."""

    __slots__ = ("externals", "instrs", "n_slots", "grad_writes", "outputs")

    def __init__(self, externals, instrs, n_slots, grad_writes, outputs) -> None:
        self.externals = externals
        self.instrs = instrs
        self.n_slots = n_slots
        self.grad_writes = grad_writes
        #: output name -> slot, as :class:`CompiledStep` takes them
        self.outputs = outputs

    @classmethod
    def of(cls, trace, outputs: dict[str, int]) -> "RawTrace":
        """A copy of a :class:`~repro.tensor.compile.TapeTrace` that
        building a program from the trace leaves as it is."""
        return cls(
            list(trace.externals),
            [_copy(ins) for ins in trace.instrs],
            trace.n_slots,
            list(trace.grad_writes),
            dict(outputs),
        )


class TraceTemplate:
    """The eager samples of one program structure and the fit of their
    integers (see the module docstring)."""

    def __init__(self, raw: RawTrace, counts: tuple[int, ...]) -> None:
        #: the first sample, which derived traces are patched from
        self.base = raw
        self.skeleton, ints, self._starts = _flatten(raw, raw.outputs)
        self._ints = [ints]
        self._counts = [counts]
        self._fit: tuple | None = None

    def add(self, trace, outputs: dict[str, int], counts: tuple[int, ...]) -> bool:
        """Take ``trace`` (an eager capture at ``counts``) as one more sample;
        ``False``, taking nothing, when its skeleton differs."""
        skeleton, ints, _ = _flatten(trace, outputs)
        if skeleton != self.skeleton:
            return False
        self._ints.append(ints)
        self._counts.append(counts)
        self._fit = None
        return True

    def _fitted(self) -> tuple:
        """``(counts, varying, slope, intercept, agree)``: for the constant
        model (row 0) and one model per count that varies across the samples,
        every integer's slope and intercept, and whether the model meets
        every sample (integer slopes only)."""
        if self._fit is None:
            values = np.stack(self._ints)
            counts = np.array(self._counts, dtype=np.int64)
            varying = np.flatnonzero((counts != counts[0]).any(axis=0))
            slope = [np.zeros_like(values[0])]
            intercept = [values[0]]
            agree = [(values == values[0]).all(axis=0)]
            for k in varying:
                c = counts[:, k]
                lo, hi = int(c.argmin()), int(c.argmax())
                k_slope, rest = np.divmod(values[hi] - values[lo], c[hi] - c[lo])
                d = values[lo] - k_slope * c[lo]
                slope.append(k_slope)
                intercept.append(d)
                agree.append((rest == 0) & (values == np.outer(c, k_slope) + d).all(axis=0))
            self._fit = (counts[0], varying, np.stack(slope), np.stack(intercept), np.stack(agree))
        return self._fit

    def predict(self, counts: tuple[int, ...]) -> np.ndarray | None:
        """Every integer of the trace at ``counts``, or ``None`` unless the
        samples determine each one: some model meets every sample, the models
        that do agree at ``counts``, and every count that no sample varied
        is the sampled one."""
        first, varying, slope, intercept, agree = self._fitted()
        target = np.array(counts, dtype=np.int64)
        fixed = np.ones(target.size, dtype=bool)
        fixed[varying] = False
        if (target[fixed] != first[fixed]).any():
            return None
        at = np.concatenate(([0], target[varying]))
        predicted = slope * at[:, None] + intercept
        big = np.iinfo(np.int64)
        lo = np.where(agree, predicted, big.max).min(axis=0)
        hi = np.where(agree, predicted, big.min).max(axis=0)
        if (lo != hi).any():  # no model met the samples, or two disagree here
            return None
        return lo

    def derive(self, ints: np.ndarray) -> RawTrace:
        """The base sample's trace with ``ints`` (from :meth:`predict`) in
        place of its integers: only the records whose integers change are
        rebuilt, every other instruction is copied."""
        base, skeleton = self.base, self.skeleton
        values, starts = ints.tolist(), self._starts.tolist()
        at = np.flatnonzero(ints != self._ints[0])
        changed = set((np.searchsorted(self._starts, at, side="right") - 1).tolist())
        instrs = [
            _instr(skeleton[r], iter(values[starts[r] : starts[r + 1]]))
            if r in changed
            else _copy(ins)
            for r, ins in enumerate(base.instrs)
        ]
        externals = list(base.externals)
        grad_writes = list(base.grad_writes)
        outputs, n_slots = base.outputs, base.n_slots
        n_ins, n_ext, n_grad = len(instrs), len(externals), len(grad_writes)
        for r in sorted(r for r in changed if r >= n_ins):
            part = iter(values[starts[r] : starts[r + 1]])
            if r < n_ins + n_ext:
                externals[r - n_ins] = _external(skeleton[r], part, base.externals[r - n_ins])
            elif r < n_ins + n_ext + n_grad:
                grad_writes[r - n_ins - n_ext] = (skeleton[r], next(part))
            elif r == n_ins + n_ext + n_grad:
                outputs = dict(zip(skeleton[r], part))
            else:
                n_slots = next(part)
        return RawTrace(externals, instrs, n_slots, grad_writes, dict(outputs))


def _instr(skeleton: tuple, ints: Iterator[int]) -> Instr:
    name, fn, dtype, n_in, keys, ndim, kwargs = skeleton
    in_slots = tuple(itertools.islice(ints, n_in))
    out_slot = next(ints)
    kw_ext = tuple(zip(keys, itertools.islice(ints, len(keys))))
    shape = tuple(itertools.islice(ints, ndim))
    kwargs = {k: _join(v, ints) for k, v in kwargs}
    return Instr(name, fn, in_slots, out_slot, kwargs, kw_ext, shape, dtype)


def _external(skeleton: tuple, ints: Iterator[int], base: tuple) -> tuple:
    kind, ref, dtype = skeleton
    slot = next(ints)
    shape = tuple(ints)
    if kind == "const":
        # A constant of another shape is one value repeated (``_fill``).
        ref = base[2] if shape == base[3] else np.full(shape, np.frombuffer(ref, dtype)[0])
    return (slot, kind, ref, shape, dtype)


class TraceTemplates:
    """The templates of one set of shapes, by :func:`structure_key`."""

    def __init__(self) -> None:
        self.templates: dict[tuple, TraceTemplate] = {}
        #: structures a sample's skeleton mismatch marked never-derive
        self.never: set[tuple] = set()

    def add(self, sig: tuple, trace, outputs: dict[str, int]) -> None:
        """Sample an eager capture of ``sig`` (before any pass runs on it).

        A sample whose skeleton differs from its template's marks the
        structure never-derive, and its template is dropped.
        """
        key = structure_key(sig)
        if key is None or key in self.never:
            return
        template = self.templates.get(key)
        if template is None:
            self.templates[key] = TraceTemplate(RawTrace.of(trace, outputs), sig[_COUNTS])
        elif not template.add(trace, outputs, sig[_COUNTS]):
            del self.templates[key]
            self.never.add(key)

    def predict(self, sig: tuple) -> np.ndarray | None:
        """Every integer of ``sig``'s trace, if its template resolves them."""
        template = self.templates.get(structure_key(sig))
        return None if template is None else template.predict(sig[_COUNTS])

    def derive(self, sig: tuple) -> RawTrace:
        """The raw trace of ``sig``, which :meth:`predict` resolves."""
        ints = self.predict(sig)
        if ints is None:
            raise ValueError(f"the samples do not resolve {sig!r}")
        return self.templates[structure_key(sig)].derive(ints)
