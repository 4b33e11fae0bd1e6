"""Public surface hygiene: every public name in ``src/`` has a caller in the
shipped system.

The gate covers each public top-level function and class in ``src/repro/**``
and each public method or property of a public class.  A name passes when its
identifier appears somewhere in ``src/``, ``benchmarks/`` or ``examples/``
outside its own definition: as a ``Name``, an ``Attribute``, an import alias
or an identifier string (``getattr(obj, "step")``, the ledger tracer's
``"Adam.step"``).  Tests do not count, and neither do the import lines and
``__all__`` of an ``__init__.py``: a re-export is not a caller.

The check matches identifiers, not bindings, so a name shared with a called
one passes; it catches surface nothing reaches at all.  A name kept on purpose
without a caller goes into :data:`ALLOWED` with its reason, and an entry whose
name is gone or has gained a caller fails the gate.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Qualified names (``module:Class.method``) kept without a caller, with why.
ALLOWED = {
    "repro.serve.engine:InferenceEngine.shutdown": (
        "the engine's terminal EngineClosed state; ROADMAP direction 2 adds "
        "the fuzzer rule that drives it"
    ),
    "repro.train.distributed:DistributedTrainer.modeled_overlap": (
        "the measured-bucket input to the overlap model; ROADMAP direction 5 "
        "is its first caller"
    ),
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _span(node: ast.AST) -> tuple[int, int]:
    """First and last line of a definition, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def definitions(source: str) -> list[tuple[str, str, tuple[int, int]]]:
    """``(qualified name, identifier, line span)`` of the public surface."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        found.append((node.name, node.name, _span(node)))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(
                    item.name
                ):
                    found.append((f"{node.name}.{item.name}", item.name, _span(item)))
    return found


def _identifier_parts(text: str) -> list[str]:
    parts = text.split(".")
    return parts if all(p.isidentifier() for p in parts) else []


def references(source: str, skip_reexports: bool = False) -> list[tuple[str, int]]:
    """``(identifier, line)`` of every use of an identifier in ``source``.

    With ``skip_reexports`` (an ``__init__.py``), top-level imports and the
    ``__all__`` list are skipped.
    """
    tree = ast.parse(source)
    skipped = set()
    if skip_reexports:
        for node in tree.body:
            is_all = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            if isinstance(node, (ast.Import, ast.ImportFrom)) or is_all:
                skipped.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.end_lineno))
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                found.append((part, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in _identifier_parts(node.value):
                found.append((part, node.lineno))
    return found


def uncalled(files: dict[str, str], defining: list[str]) -> list[str]:
    """Qualified public names in the ``defining`` modules with no caller.

    ``files`` maps a path (``src/repro/x.py``) to its source; every file is
    scanned for references, and a reference inside a name's own definition
    does not count.
    """
    uses: dict[str, set[tuple[str, int]]] = {}
    for path, source in files.items():
        for name, line in references(source, skip_reexports=path.endswith("__init__.py")):
            uses.setdefault(name, set()).add((path, line))
    found = []
    for path in defining:
        module = path.removeprefix("src/").removesuffix(".py").replace("/", ".")
        module = module.removesuffix(".__init__")
        for qualified, name, (first, last) in definitions(files[path]):
            outside = [
                where
                for where in uses.get(name, ())
                if not (where[0] == path and first <= where[1] <= last)
            ]
            if not outside:
                found.append(f"{module}:{qualified}")
    return found


def _shipped_files() -> dict[str, str]:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in CALLER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_detector_counts_callers_outside_the_definition_only():
    lib = (
        "class Engine:\n"
        "    def run(self):\n"
        "        return self.run\n"  # its own body: not a caller
        "    def step(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Engine().step()\n"
        "def patched():\n"
        "    pass\n"
        "def reexported():\n"
        "    pass\n"
        "def _hidden():\n"
        "    pass\n"
    )
    init = "from src.lib import reexported\n__all__ = ['reexported', 'helper']\n"
    user = "from lib import helper\nimport x\nx.wrap('Engine.size')\nprint(patched)\n"
    files = {"src/lib.py": lib, "src/__init__.py": init, "src/user.py": user}
    assert uncalled(files, ["src/lib.py"]) == ["lib:Engine.run", "lib:reexported"]


def test_src_public_names_have_callers():
    files = _shipped_files()
    defining = [p for p in files if p.startswith("src/repro/")]
    found = uncalled(files, defining)
    missing = [name for name in found if name not in ALLOWED]
    assert not missing, f"public names with no caller in src/, benchmarks/ or examples/: {missing}"
    # the allowlist names live, uncalled code, not history
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"stale ALLOWED entries (gone, or now called): {stale}"


def test_definitions_cover_decorators_and_skip_nested_and_private():
    source = (
        "import functools\n"
        "@functools.cache\n"
        "def cached():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "class _Hidden:\n"
        "    def visible(self):\n"
        "        pass\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    async def fill(self):\n"
        "        pass\n"
    )
    assert definitions(source) == [
        ("cached", "cached", (2, 6)),
        ("Box", "Box", (10, 15)),
        ("Box.size", "size", (11, 13)),
        ("Box.fill", "fill", (14, 15)),
    ]


def test_init_skips_only_top_level_imports_and_all():
    """A package ``__init__`` that uses a name in code is a caller; its
    re-export lines are not."""
    init = (
        "from pkg.lib import used, exported\n"
        "__all__ = ['exported']\n"
        "def setup():\n"
        "    from pkg.lib import lazy\n"
        "    return used() + lazy()\n"
    )
    names = {name for name, _ in references(init, skip_reexports=True)}
    assert {"used", "lazy"} <= names
    assert "exported" not in names
    assert "exported" in {name for name, _ in references(init)}


def test_only_identifier_strings_count():
    source = "a = 'Engine.size'\nb = 'two words'\nc = 'x-y'\nd = 'step'\ne = 'a..b'\n"
    names = [name for name, _ in references(source)]
    assert [n for n in names if n not in "abcde"] == ["Engine", "size", "step"]


def test_tests_are_not_scanned_for_callers():
    files = _shipped_files()
    assert files and all(path.split("/")[0] in CALLER_DIRS for path in files)
    assert "src/repro/cli.py" in files
    assert not any(path.startswith("tests/") for path in files)
