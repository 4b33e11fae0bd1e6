"""Optimizers: Adam, the paper's choice, over a small :class:`Optimizer` base.

Parameter updates run as direct in-place NumPy operations.  :class:`Adam`
owns one aligned slab holding every parameter, its gradient and both
moments as flat vectors, so a step is one fused update recorded as one
``adam_step`` kernel (as a fused multi-tensor optimizer kernel would launch
on a GPU).
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.runtime.kernels import record_kernel
from repro.tensor.engine import Tensor
from repro.tensor.module import Parameter

#: Adam's moment decay rates and denominator epsilon (Kingma & Ba's
#: defaults, which the paper keeps).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Optimizer:
    """Base optimizer over a list of :class:`Parameter`."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam with bias correction (the paper's optimizer), at
    :data:`BETA1`, :data:`BETA2` and :data:`EPS`, without weight decay.

    The constructor moves every parameter into one page-aligned slab of
    flat float64 vectors — ``flat_params``, ``flat_grads``, the two moments
    and update scratch — laid out in **reverse parameter order**, the order
    the backward completes gradients and the distributed flush walks its
    buckets.  ``p.data``, the gradient :meth:`step` reads, ``_m[i]`` and
    ``_v[i]`` are views into it, so a step is one elementwise update over
    the flat vectors, bit-identical to updating each parameter on its own.
    Parameter data must therefore be written in place from then on
    (:meth:`Module.load_state_dict` does), and a parameter belongs to the
    last ``Adam`` built over it: a second one moves it into its own slab.

    A gradient that arrives as a fresh array (an eager backward after
    ``zero_grad``, a caller assigning ``p.grad``) is copied into the slab by
    :meth:`adopt_grads`, after which ``p.grad`` is a view too and in-place
    writers (compiled replays, the flush collectives) land in the slab.  A
    parameter without a gradient is left untouched, moments included.

    The slab is an anonymous shared mapping, so a process forked from this
    one (a trainer's rank executor, :mod:`repro.train.ranks`) writes its
    gradients into this very slab and reads the parameters this optimizer
    updates.
    """

    def __init__(self, params: list[Parameter], lr: float = 3e-4) -> None:
        super().__init__(params, lr)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed twice; it can own one slab slot only")
        self.t = 0
        # Slab slot of each parameter, last parameter first.
        self.spans: list[slice] = [slice(0, 0)] * len(self.params)
        n = 0
        for i in reversed(range(len(self.params))):
            size = self.params[i].data.size
            self.spans[i] = slice(n, n + size)
            n += size
        # Six rows (parameters, gradients, two moments, two update
        # scratch vectors), each starting on a 64-byte boundary of one
        # page-aligned anonymous shared mapping.
        stride = -(-n // 8) * 8
        mapping = mmap.mmap(-1, max(1, 6 * stride * 8))
        slab = np.frombuffer(mapping, np.float64, 6 * stride).reshape(6, stride)
        # Touch every page now, not in the first step's kernels.
        slab[:] = 0.0
        flat = slab[:, :n]
        self.flat_params, self.flat_grads, self._flat_m, self._flat_v = flat[:4]
        self._scratch = flat[4:]
        self._grads: list[np.ndarray] = []
        self._m: list[np.ndarray] = []
        self._v: list[np.ndarray] = []
        for p, span in zip(self.params, self.spans):
            view = self.flat_params[span].reshape(p.shape)
            np.copyto(view, p.data)
            # The one rebind: from here on the parameter lives in the slab.
            p.data = view
            self._grads.append(self.flat_grads[span].reshape(p.shape))
            self._m.append(self._flat_m[span].reshape(p.shape))
            self._v.append(self._flat_v[span].reshape(p.shape))

    def slices(self, indices) -> list[slice]:
        """Slab slices covering the parameters ``indices``, in slab order,
        adjacent slots merged (one slice when they are contiguous)."""
        out: list[slice] = []
        for span in sorted((self.spans[i] for i in indices), key=lambda s: s.start):
            if out and out[-1].stop == span.start:
                out[-1] = slice(out[-1].start, span.stop)
            else:
                out.append(span)
        return out

    def adopt_grads(self) -> tuple[int, ...]:
        """Copy gradients held outside the slab into it, rebinding ``p.grad``
        to the slab view; returns the indices of parameters without one."""
        missing = []
        for i, (p, view) in enumerate(zip(self.params, self._grads)):
            grad = p.grad
            if grad is None:
                missing.append(i)
            elif grad.data is not view:
                np.copyto(view, grad.data)
                p.grad = Tensor(view)
        return tuple(missing)

    def bind_grads(self, missing: tuple[int, ...]) -> None:
        """Point every ``p.grad`` at its slab view, ``None`` for the indices
        in ``missing``: what :meth:`adopt_grads` leaves behind, for a step
        whose gradients another process wrote into this slab."""
        absent = set(missing)
        for i, (p, view) in enumerate(zip(self.params, self._grads)):
            if i in absent:
                p.grad = None
            elif p.grad is None or p.grad.data is not view:
                p.grad = Tensor(view)

    def step(self) -> None:
        missing = set(self.adopt_grads())
        runs = [slice(0, self.flat_params.size)]
        if missing:
            runs = self.slices(i for i in range(len(self.params)) if i not in missing)
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for run in runs:
            # The per-parameter Adam expression, one ufunc at a time in the
            # same order (so the same bits), into scratch:
            #   m = b1 * m + (1 - b1) * g;  v = b2 * v + ((1 - b2) * g) * g
            #   p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            p, g = self.flat_params[run], self.flat_grads[run]
            m, v = self._flat_m[run], self._flat_v[run]
            s1, s2 = self._scratch[0][run], self._scratch[1][run]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s2)
            m += s2
            v *= b2
            np.multiply(g, 1.0 - b2, out=s2)
            s2 *= g
            v += s2
            np.divide(v, bc2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += EPS
            np.divide(m, bc1, out=s2)
            s2 *= self.lr
            s2 /= s1
            p -= s2
        if runs:
            nbytes = sum(r.stop - r.start for r in runs) * self.flat_params.itemsize
            record_kernel("adam_step", nbytes)
