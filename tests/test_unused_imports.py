"""Import hygiene: every ``src/`` module uses each name it imports at module level.

``__init__.py`` files are exempt: their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _annotation_names(node: ast.expr) -> set[str]:
    """Names inside an annotation, quoted forward references included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval").body)
    return names


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used |= _annotation_names(annotation)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_sees_plain_attribute_and_quoted_uses():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Sequence\n"
        "from repro.md import FIRE\n"
        "def f(x: 'Sequence[FIRE]') -> None:\n"
        "    return os.path.join(np.pi)\n"
    )
    assert unused_imports(source) == ["dataclass (line 4)", "field (line 4)"]


def test_src_modules_use_every_import():
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert not found, f"unused module-level imports: {found}"
