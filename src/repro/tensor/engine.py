"""Reverse-mode automatic differentiation over NumPy arrays.

This is the reproduction's substitute for PyTorch autograd.  It supports the
one feature the paper's central optimization revolves around: **higher-order
derivatives**.  Reference CHGNet computes forces as ``F = -dE/dx`` and stress
as ``sigma = (1/V) dE/d(strain)`` *inside* the training loss, so the weight
gradient requires differentiating through a gradient (a second-order,
"double backward" pass).  FastCHGNet's Force/Stress heads remove that pass.
Both code paths run on this engine.

Design notes
------------
* Every primitive goes through :func:`apply_op`, which (i) executes the NumPy
  forward, (ii) records one *kernel launch* with the runtime, and (iii) when
  gradients are enabled, records a :class:`Node` on the tape and accounts the
  output bytes as retained tape memory.
* VJPs (vector-Jacobian products) are written in terms of other primitives
  operating on :class:`Tensor`, so running a backward pass with
  ``create_graph=True`` records a new differentiable graph — second-order
  derivatives come for free, and backward-pass kernels are counted exactly
  like forward ones (as on a real GPU).
* Graphs are freed eagerly *during* :func:`grad`/``backward`` unless
  ``retain_graph=True``: the walk consumes the topological order from the
  end and holds a tensor only while its cotangent is pending, so each
  ``node.release()`` returns the bytes to the allocator as well as to the
  memory tracker, which is how the decompose_fs memory reduction becomes
  measurable.

Compiled training steps
-----------------------
The op graph of a train/inference step is static per batch shape, so the
whole tape can be captured once and replayed without any of the per-op
bookkeeping above.  :mod:`repro.tensor.compile` implements that: a tracer
registered via :func:`push_tracer` observes every :func:`apply_op`
execution (and each final leaf-gradient write in :func:`backward`) and
compiles them into a flat kernel program with arena buffers.  Tracing is
purely observational — eager semantics, kernel accounting, numerics and
array lifetimes (the tracer holds arrays weakly) are unchanged while a
tracer is active.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.runtime.kernels import profiling_active, record_kernel
from repro.runtime.memory import record_tape_alloc, record_tape_free

DEFAULT_DTYPE = np.float64

# A VJP receives (cotangent, output tensor, input tensors, needs-mask, kwargs)
# and returns one cotangent (or None) per input.
VjpFn = Callable[..., tuple]


class _GradMode:
    enabled: bool = True


# ----------------------------------------------------------------- tracing
# Tape capture for the compile-once training step (repro.tensor.compile).
# While a tracer is pushed, every primitive execution in apply_op and every
# final leaf-gradient write in backward() is reported to it.  Tracing only
# *observes*: eager numerics, kernel accounting and the recorded graph are
# unchanged, which is what makes a captured program bit-identical to eager.
_TRACERS: list[Any] = []


def push_tracer(tracer: Any) -> None:
    """Activate a tape tracer (innermost wins); see repro.tensor.compile."""
    _TRACERS.append(tracer)


def pop_tracer(tracer: Any) -> None:
    """Deactivate a previously pushed tracer."""
    _TRACERS.remove(tracer)


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording (kernels are still counted)."""
    prev = _GradMode.enabled
    _GradMode.enabled = False
    try:
        yield
    finally:
        _GradMode.enabled = prev


@contextmanager
def enable_grad(mode: bool = True) -> Iterator[None]:
    """Force graph recording on (or off) inside the scope."""
    prev = _GradMode.enabled
    _GradMode.enabled = mode
    try:
        yield
    finally:
        _GradMode.enabled = prev


def is_grad_enabled() -> bool:
    """Whether ops currently record autodiff graph nodes."""
    return _GradMode.enabled


class Node:
    """One recorded primitive application on the tape.

    The node references its output through a *weakref*: consumers hold every
    intermediate tensor strongly (as their ``inputs``), and the final output
    is held by the caller, so the deref is always valid while a backward
    pass can still reach the node.  Avoiding the ``out.node.out`` cycle lets
    CPython reclaim abandoned graphs by refcounting alone — without this,
    un-backwarded tapes (e.g. inference forwards) sit around until the
    cyclic collector runs, whose pauses grow with graph size.
    """

    __slots__ = ("name", "vjp", "inputs", "kwargs", "_out_ref", "_nbytes", "released")

    def __init__(
        self,
        name: str,
        vjp: VjpFn,
        inputs: tuple["Tensor", ...],
        kwargs: dict[str, Any],
        out: "Tensor",
    ) -> None:
        self.name = name
        self.vjp = vjp
        self.inputs = inputs
        self.kwargs = kwargs
        self._out_ref = weakref.ref(out)
        self._nbytes = out.data.nbytes
        self.released = False

    @property
    def out(self) -> "Tensor | None":
        return self._out_ref()

    def release(self) -> None:
        """Drop references held by this node and return its tape bytes."""
        if self.released:
            return
        self.released = True
        record_tape_free(self._nbytes)
        out = self._out_ref()
        if out is not None and out.node is self:
            out.node = None
        self.inputs = ()

    def __del__(self) -> None:
        # Abandoned graphs (never backwarded) must still return their bytes
        # to the tape tracker.
        try:
            if not self.released:
                self.released = True
                record_tape_free(self._nbytes)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


class Tensor:
    """A NumPy-backed array participating in automatic differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        dtype: np.dtype | type | None = None,
    ) -> None:
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype.kind in "iub":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Tensor | None = None
        self.node: Node | None = None

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -------------------------------------------------------------- utilities
    def numpy(self) -> np.ndarray:
        """The underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        """The value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """A leaf tensor holding a copy of the data."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Clear the accumulated ``.grad``."""
        self.grad = None

    def backward(
        self,
        grad_output: "Tensor | None" = None,
        create_graph: bool = False,
        retain_graph: bool | None = None,
    ) -> None:
        """Accumulate ``d(self)/d(leaf)`` into ``leaf.grad`` for all leaves.

        ``self`` must be a scalar unless ``grad_output`` is given.
        """
        backward(self, grad_output, create_graph=create_graph, retain_graph=retain_graph)

    # Arithmetic dunders are attached by repro.tensor.ops at import time so
    # the engine stays free of op definitions (avoids a circular import).


def _collect_graph(root: Tensor) -> tuple[list[Node], list[Tensor]]:
    """Topologically order the nodes reachable from ``root``.

    Returns ``(nodes_in_topo_order, leaf_tensors)``.  Iterative DFS — GNN
    graphs routinely exceed Python's recursion limit.
    """
    topo: list[Node] = []
    leaves: list[Tensor] = []
    seen_nodes: set[int] = set()
    seen_leaves: set[int] = set()
    if root.node is None:
        if root.requires_grad:
            leaves.append(root)
        return topo, leaves
    # state: 0 = first visit (expand children), 1 = post-order (emit)
    stack: list[tuple[Node, int]] = [(root.node, 0)]
    while stack:
        node, state = stack.pop()
        if state == 1:
            topo.append(node)
            continue
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        stack.append((node, 1))
        for t in node.inputs:
            if t.node is not None:
                if id(t.node) not in seen_nodes:
                    stack.append((t.node, 0))
            elif t.requires_grad and id(t) not in seen_leaves:
                seen_leaves.add(id(t))
                leaves.append(t)
    return topo, leaves


def _ones_like(t: Tensor) -> Tensor:
    return Tensor(np.ones_like(t.data))


def _push_cotangents(node: Node, out: Tensor, g: Tensor, cot: dict) -> None:
    """Run ``node``'s VJP on ``g`` and add the results into ``cot``."""
    inputs = node.inputs
    needs = tuple(t.requires_grad for t in inputs)
    grads = node.vjp(g, out, inputs, needs, **node.kwargs)
    if len(grads) != len(inputs):
        raise RuntimeError(
            f"vjp for {node.name!r} returned {len(grads)} grads "
            f"for {len(inputs)} inputs"
        )
    for t, gt in zip(inputs, grads):
        if gt is None:
            continue
        if gt.shape != t.shape:
            raise RuntimeError(
                f"vjp for {node.name!r} produced grad of shape {gt.shape} "
                f"for input of shape {t.shape}"
            )
        prev = cot.get(id(t))
        cot[id(t)] = (t, gt if prev is None else prev[1] + gt)


def _backprop(
    output: Tensor,
    grad_output: Tensor | None,
    topo: list[Node],
    create_graph: bool,
    retain_graph: bool,
) -> dict[int, tuple[Tensor, Tensor]]:
    """Run reverse accumulation from ``output`` over its ``topo`` order.

    Returns ``{id(t): (t, cotangent)}``.  An entry holds its tensor, so an
    id is a key exactly as long as it is unambiguous; nothing else pins the
    graph.  ``topo`` is consumed from the end and each node's locals die
    with :func:`_push_cotangents`, so with ``retain_graph=False`` a tensor
    is freed as soon as its last consumer and its own node are released.
    """
    if output.node is None and not output.requires_grad:
        raise RuntimeError("output does not require grad; nothing to differentiate")
    if grad_output is None:
        if output.size != 1:
            raise RuntimeError(
                f"grad_output must be provided for non-scalar output of shape {output.shape}"
            )
        grad_output = _ones_like(output)
    elif grad_output.shape != output.shape:
        raise RuntimeError(
            f"grad_output shape {grad_output.shape} != output shape {output.shape}"
        )

    cot = {id(output): (output, grad_output)}
    with enable_grad(create_graph):
        while topo:
            node = topo.pop()
            out = node.out
            entry = cot.pop(id(out), None)
            if entry is not None:
                _push_cotangents(node, out, entry[1], cot)
            if not retain_graph:
                node.release()
    return cot


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    grad_output: Tensor | None = None,
    create_graph: bool = False,
    retain_graph: bool | None = None,
    allow_unused: bool = False,
) -> tuple[Tensor | None, ...]:
    """Compute ``d(output)/d(input)`` for each input.

    Parameters
    ----------
    output:
        Tensor to differentiate (scalar unless ``grad_output`` given).
    inputs:
        Tensors with respect to which gradients are returned.
    create_graph:
        Record the backward pass so the returned gradients are themselves
        differentiable (required for reference CHGNet force/stress training).
    retain_graph:
        Keep the forward graph alive for a second backward.  Defaults to the
        value of ``create_graph``.
    allow_unused:
        Return ``None`` (instead of raising) for inputs the output does not
        depend on.
    """
    if retain_graph is None:
        retain_graph = create_graph
    topo, _ = _collect_graph(output)
    cot = _backprop(output, grad_output, topo, create_graph, retain_graph)
    results: list[Tensor | None] = []
    for t in inputs:
        entry = cot.get(id(t))
        if entry is None:
            if not allow_unused:
                raise RuntimeError(
                    "one of the inputs was not used in the graph "
                    "(pass allow_unused=True to permit this)"
                )
            results.append(None)
        else:
            results.append(entry[1])
    return tuple(results)


def backward(
    output: Tensor,
    grad_output: Tensor | None = None,
    create_graph: bool = False,
    retain_graph: bool | None = None,
) -> None:
    """Accumulate gradients of ``output`` into ``.grad`` of all leaves."""
    if retain_graph is None:
        retain_graph = create_graph
    topo, leaves = _collect_graph(output)
    cot = _backprop(output, grad_output, topo, create_graph, retain_graph)
    for leaf in leaves:
        entry = cot.get(id(leaf))
        if entry is None:
            continue
        gt = entry[1]
        if _TRACERS:
            _TRACERS[-1].record_leaf_grad(leaf, gt)
        if leaf.grad is None:
            leaf.grad = Tensor(gt.data.copy()) if not create_graph else gt
        else:
            record_kernel("grad_accumulate", leaf.grad.data.nbytes)
            if create_graph:
                leaf.grad = leaf.grad + gt
            else:
                leaf.grad.data += gt.data


def apply_op(
    name: str,
    forward: Callable[..., np.ndarray],
    vjp: VjpFn,
    inputs: Sequence[Tensor],
    kwargs: dict[str, Any] | None = None,
) -> Tensor:
    """Execute a primitive: run forward, count the kernel, record the tape.

    All primitives in :mod:`repro.tensor.ops` funnel through here; this is
    the single point where the simulated-device accounting happens.
    """
    kwargs = kwargs or {}
    arrays = tuple(t.data for t in inputs)
    out_data = forward(*arrays, **kwargs)
    if profiling_active():
        record_kernel(name, out_data.nbytes)
    if _TRACERS:
        # Normalize scalar outputs (0-d ufunc results) to the ndarray the
        # Tensor below will hold, so the trace's buffer ids line up.
        out_data = np.asarray(out_data)
        _TRACERS[-1].record(name, forward, arrays, kwargs, out_data)
    if _GradMode.enabled and any(t.requires_grad for t in inputs):
        out = Tensor(out_data, requires_grad=True)
        out.node = Node(name, vjp, tuple(inputs), kwargs, out)
        record_tape_alloc(out_data.nbytes)
        return out
    return Tensor(out_data)
