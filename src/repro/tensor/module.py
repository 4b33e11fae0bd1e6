"""Minimal neural-network module system (parameters, Linear, LayerNorm, MLP).

Mirrors the small subset of ``torch.nn`` that CHGNet uses.  Every layer takes
a ``fused`` flag selecting between the reference composition (many kernels)
and the FastCHGNet fused/packed kernel — the switch the Fig. 8 ablation
toggles.
"""

from __future__ import annotations

import zipfile
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.tensor.engine import Tensor
from repro.tensor.functional import layernorm_reference, silu_reference
from repro.tensor.ops_fused import fused_layernorm
from repro.tensor.ops_linalg import linear as linear_op, matmul
from repro.tensor.ops_math import add, sigmoid, silu


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` leaf)."""

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)


class Module:
    """Base class with automatic parameter/submodule registration."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------- traversal
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, depth first."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count (Table I's ``param`` column)."""
        return int(sum(p.size for p in self.parameters()))

    # ----------------------------------------------------------------- state
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter's data keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def aligned_state(self, state: dict[str, np.ndarray]) -> list[np.ndarray]:
        """Validate ``state`` against this module's parameters and return
        float64 copies of its arrays in :meth:`parameters` order.

        Raises ``KeyError`` on missing/unexpected names and ``ValueError``
        on shape or dtype mismatches, always naming the offending entry.
        Shared by :meth:`load_state_dict` and the serving engine's version
        registry (which stores the aligned arrays instead of loading them
        into a module).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        arrays = []
        for name, p in own.items():
            raw = np.asarray(state[name])
            if raw.dtype.kind not in "fiu":
                raise ValueError(
                    f"dtype mismatch for {name!r}: got {raw.dtype}, "
                    "expected a floating or integer dtype"
                )
            arr = raw.astype(np.float64)
            if arr.shape != p.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: got {arr.shape}, expected {p.shape}"
                )
            arrays.append(arr)
        return arrays

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values; shapes must match exactly.

        Values are copied into the existing parameter arrays, which may be
        views an optimizer owns (:class:`~repro.train.optimizer.Adam`'s
        slab), so a load never detaches a parameter from its optimizer.
        """
        for p, arr in zip(self.parameters(), self.aligned_state(state)):
            np.copyto(p.data, arr)

    def save(self, path: str) -> None:
        """Serialize parameters to an ``.npz`` checkpoint."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        """Load parameters from an ``.npz`` checkpoint.

        Unreadable files (missing, truncated, or not an npz archive) raise
        ``ValueError`` naming the path, so callers see one exception type
        for every corrupt-checkpoint failure.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                state = {k: data[k] for k in data.files}
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"cannot read checkpoint {path!r}: {exc}") from exc
        self.load_state_dict(state)

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for p in self.parameters():
            p.grad = None

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


# ----------------------------------------------------------------- init fns
def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a ``(fan_in, fan_out)`` weight."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    """Affine layer ``y = x @ W + b``.

    ``fused=True`` uses the single ``linear`` kernel; ``fused=False`` composes
    ``matmul`` + ``add`` as the reference implementation does.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        fused: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.fused = fused
        self.weight = Parameter(xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return matmul(x, self.weight)
        if self.fused:
            return linear_op(x, self.weight, self.bias)
        return add(matmul(x, self.weight), self.bias)


class LayerNorm(Module):
    """Layer normalization over the last axis (fused or reference)."""

    def __init__(self, dim: int, eps: float = 1e-5, fused: bool = True) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.fused = fused
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        if self.fused:
            return fused_layernorm(x, self.gamma, self.beta, self.eps)
        return layernorm_reference(x, self.gamma, self.beta, self.eps)


def _activation(name: str, fused: bool) -> Callable[[Tensor], Tensor]:
    if name == "silu":
        return silu if fused else silu_reference
    if name == "sigmoid":
        return sigmoid
    if name == "identity":
        return lambda x: x
    raise ValueError(f"unknown activation {name!r}")


class ModuleList(Module):
    """List container registering each element as a submodule."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for mod in modules:
            self.append(mod)

    def append(self, mod: Module) -> None:
        setattr(self, f"item{len(self._items)}", mod)
        self._items.append(mod)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class MLP(Module):
    """Multi-layer perceptron with SiLU hidden activations (CHGNet style).

    ``zero_init_final=True`` zeroes the last layer so the module starts out
    predicting exactly zero — standard for interatomic-potential readouts:
    initial energies/forces vanish instead of being random O(1) values,
    which substantially accelerates early training (especially through the
    derivative-force path, where random energy landscapes mean large random
    forces).
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator,
        activation: str = "silu",
        final_activation: str = "identity",
        bias: bool = True,
        fused: bool = True,
        zero_init_final: bool = False,
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.layers = ModuleList(
            Linear(a, b, rng, bias=bias, fused=fused) for a, b in zip(dims[:-1], dims[1:])
        )
        if zero_init_final:
            last = self.layers[len(self.layers) - 1]
            last.weight.data[:] = 0.0
            if last.bias is not None:
                last.bias.data[:] = 0.0
        self._act = _activation(activation, fused)
        self._final = _activation(final_activation, fused)

    def forward(self, x: Tensor) -> Tensor:
        n = len(self.layers)
        for i, layer in enumerate(self.layers):
            x = layer(x)
            x = self._final(x) if i == n - 1 else self._act(x)
        return x
