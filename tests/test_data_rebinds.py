"""Parameter storage hygiene: no ``src/`` module rebinds a ``.data`` attribute
except the three places whose job it is.

:class:`~repro.train.optimizer.Adam` keeps every parameter as a view into its
slab, and the flush collectives and the update write through those views.
Rebinding ``p.data`` anywhere else would detach the parameter silently: Adam
would keep updating the slab while the model stops learning.  Writes go in
place instead (``np.copyto(p.data, ...)``, ``p.data[...] = ...``; an augmented
assignment on an ndarray is in place too).  The allowed rebinds:

* ``Tensor.__init__`` — a tensor's own construction;
* ``Adam.__init__`` — moves each parameter into the slab, once;
* ``Worker.install`` — serving replicas rebind to registry snapshots by
  reference (they have no optimizer).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: (module under ``src/``, qualified function) of the allowed rebinds.
ALLOWED = {
    ("repro/tensor/engine.py", "Tensor.__init__"),
    ("repro/train/optimizer.py", "Adam.__init__"),
    ("repro/serve/fleet.py", "Worker.install"),
}


def _targets(node: ast.expr):
    """Assignment targets, tuple/list/starred unpacking flattened."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _rebinds_data(node: ast.AST) -> bool:
    """Whether ``node`` binds an attribute named ``data``."""
    if isinstance(node, ast.Assign):
        targets = [t for target in node.targets for t in _targets(target)]
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, ast.Call):
        # setattr(x, "data", v) / object.__setattr__(x, "data", v)
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return (
            name in ("setattr", "__setattr__")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "data"
        )
    else:
        return False
    return any(isinstance(t, ast.Attribute) and t.attr == "data" for t in targets)


def data_rebinds(source: str) -> list[tuple[str, int]]:
    """``(qualified function, line)`` of every ``.data`` rebind in ``source``."""
    found = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if _rebinds_data(child):
                found.append((".".join(scope) or "<module>", child.lineno))
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            walk(child, inner)

    walk(ast.parse(source), ())
    return found


def test_detector_sees_every_rebind_form():
    source = (
        "class Tensor:\n"
        "    def __init__(self, a):\n"
        "        self.data = a\n"
        "class Model:\n"
        "    def load(self, p, a):\n"
        "        p.data = a\n"
        "        p.data[:] = a\n"
        "        p.data += a\n"
        "        x, *p.data = a, a\n"
        "        setattr(p, 'data', a)\n"
        "        object.__setattr__(p, 'data', a)\n"
        "        p.data: object = a\n"
        "def f(p, a):\n"
        "    p.grad.data = a\n"
    )
    assert data_rebinds(source) == [
        ("Tensor.__init__", 3),
        ("Model.load", 6),
        ("Model.load", 9),
        ("Model.load", 10),
        ("Model.load", 11),
        ("Model.load", 12),
        ("f", 14),
    ]


def test_src_rebinds_data_only_where_allowed():
    found, allowed_seen = [], set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for where, line in data_rebinds(path.read_text()):
            if (module, where) in ALLOWED:
                allowed_seen.add((module, where))
            else:
                found.append(f"{module}:{line} in {where}")
    assert not found, f".data rebinds outside the allowed sites: {found}"
    # the allowed list names live code, not history
    assert allowed_seen == ALLOWED
