"""Span tracer installed from outside the program under test.

The benchmark times the calls into each layer's *public* callables by
swapping them for timing wrappers while a traced section runs and putting
the originals back afterwards; nothing under ``src/repro`` knows it is being
traced.  A module-level function is patched in every ``repro.*`` namespace
that imported it (``from repro.graph.batching import collate`` binds a
second name the defining module's attribute does not reach), a method on
its class.

Each span is ``[name, start, end, parent, attr]``: ``parent`` is the index
of the enclosing span (``-1`` for a root, so one op = one root span and the
spans of an op share its root), ``attr`` an optional number the wrapper
read off the call (instruction count of a replayed program, bytes of an
allreduce).  Spans stay in memory; :meth:`Tracer.write_jsonl` dumps them
when the workload ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from importlib import import_module

#: (span name, defining module, dotted attribute) of every wrapped callable.
#: A later refactor that renames one of these breaks the trace, not the
#: end-to-end numbers; README.md repeats the list for that reason.
TARGETS = [
    ("structures.neighbor_list", "repro.structures.neighbors", "neighbor_list"),
    ("structures.NeighborCache.query", "repro.structures.neighbors", "NeighborCache.query"),
    ("graph.build_graph", "repro.graph.crystal_graph", "build_graph"),
    ("graph.collate", "repro.graph.batching", "collate"),
    ("graph.pad_batch", "repro.graph.batching", "pad_batch"),
    ("data.ShardedLoader.iter_epoch", "repro.data.loader", "ShardedLoader.iter_epoch"),
    ("tensor.InferenceCompiler.run", "repro.tensor.compile", "InferenceCompiler.run"),
    ("tensor.StepCompiler.step", "repro.tensor.compile", "StepCompiler.step"),
    ("tensor.CompiledStep.bind", "repro.tensor.compile", "CompiledStep.bind"),
    ("tensor.CompiledStep.replay", "repro.tensor.compile", "CompiledStep.replay"),
    ("tensor.CompiledStep.apply_grads", "repro.tensor.compile", "CompiledStep.apply_grads"),
    ("train.Adam.step", "repro.train.optimizer", "Adam.step"),
    ("comm.allreduce_mean_inplace", "repro.comm.communicator", "SimCommunicator.allreduce_mean_inplace"),
    ("serve.submit", "repro.serve.engine", "InferenceEngine.submit"),
    ("serve.poll", "repro.serve.engine", "InferenceEngine.poll"),
    ("serve.flush", "repro.serve.engine", "InferenceEngine.flush"),
    ("serve.predict_many", "repro.serve.engine", "InferenceEngine.predict_many"),
    ("serve.predict_wave", "repro.serve.engine", "InferenceEngine.predict_wave"),
    ("serve.publish_weights", "repro.serve.engine", "InferenceEngine.publish_weights"),
    ("train.train_step", "repro.train.distributed", "DistributedTrainer.train_step"),
    ("md.TrajectoryFarm.run", "repro.md.farm", "TrajectoryFarm.run"),
]

#: Span name of the time blocked in ``next()`` on a wrapped loader iterator.
LOADER_NEXT = "data.ShardedLoader.next"
#: Span name of the root span the benchmark opens around each op.
ROOT = "op"


def _captures_of(compiler) -> int:
    return compiler.stats.captures


#: Per-target "attr" readers: called with the wrapped call's positional
#: arguments, before (and for ``changed`` readers also after) the call.
_ATTR_BEFORE = {
    "tensor.CompiledStep.replay": lambda prog: prog.n_instrs,
    "comm.allreduce_mean_inplace": lambda comm, bufs, *rest: sum(b.nbytes for b in bufs),
}
#: attr = 1 when the reader's value changed across the call (a capture ran).
_ATTR_CHANGED = {
    "tensor.InferenceCompiler.run": _captures_of,
    "tensor.StepCompiler.step": _captures_of,
}


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording
    def _open(self, name: str, attr=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attr])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The root span of one op."""
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        before = _ATTR_BEFORE.get(name)
        changed = _ATTR_CHANGED.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name, before(*args) if before else None)
            if changed:
                seen = changed(args[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if changed:
                    self.spans[idx][4] = int(changed(args[0]) != seen)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_loader(self, name: str, fn):
        """``iter_epoch`` returns a generator: time each ``next()`` on it."""
        outer = self._wrap(name, fn)
        tracer = self

        class _TimedIter:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._open(LOADER_NEXT)
                try:
                    return next(self._it)
                finally:
                    tracer._close(idx)

        def wrapper(*args, **kwargs):
            return _TimedIter(outer(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- patching
    def install(self) -> None:
        """Swap every target for its timing wrapper (undo with :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, dotted in TARGETS:
            module = import_module(module_name)
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            make = self._wrap_loader if attr == "iter_epoch" else self._wrap
            wrapped = make(name, original)
            if owner_name:
                holders = [owner]  # a method: one class attribute
            else:
                # A function: every repro namespace that bound the same object.
                holders = [
                    m
                    for key, m in list(sys.modules.items())
                    if m is not None
                    and (key == "repro" or key.startswith("repro."))
                    and getattr(m, attr, None) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put every original back."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --------------------------------------------------------------- analysis
    def mark(self) -> int:
        """Index the next span will get (slice boundary for a section)."""
        return len(self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attr) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "root": self._root_of(i), "attr": attr}
                    )
                    + "\n"
                )

    def _root_of(self, idx: int) -> int:
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        return idx


class SpanTable:
    """Durations and self times of the spans of some sections, by name.

    A section is an index range ``[lo, hi)`` of :attr:`Tracer.spans` that
    holds whole top-level spans (so every parent lies inside it).  Self time
    of a span = its duration minus the durations of its direct children
    (children are strictly nested: one thread, one stack).
    """

    def __init__(self, spans: list[list], sections: list[tuple[int, int]]) -> None:
        #: name -> [(duration, self time, attr), ...]
        self.by_name: dict[str, list[tuple[float, float, object]]] = {}
        for lo, hi in sections:
            child_time = [0.0] * (hi - lo)
            for i in range(lo, hi):
                _name, start, end, parent, _attr = spans[i]
                if parent >= lo:
                    child_time[parent - lo] += end - start
            for i in range(lo, hi):
                name, start, end, _parent, attr = spans[i]
                dur = end - start
                self.by_name.setdefault(name, []).append(
                    (dur, dur - child_time[i - lo], attr)
                )

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, *names: str) -> float:
        """Summed duration (children included), seconds."""
        return sum(d for n in names for d, _s, _a in self.by_name.get(n, ()))

    def self_time(self, *names: str) -> float:
        """Summed self time, seconds."""
        return sum(s for n in names for _d, s, _a in self.by_name.get(n, ()))

    def durations(self, name: str) -> list[float]:
        return [d for d, _s, _a in self.by_name.get(name, ())]

    def attrs(self, name: str) -> list:
        return [a for _d, _s, a in self.by_name.get(name, ()) if a is not None]
