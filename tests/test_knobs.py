"""``tools/knobs.py``: the configuration-surface count agrees with the code,
and every knob it counts has a caller.

The caller gate covers every dataclass field, every defaulted constructor
keyword and every defaulted function parameter of the tool's classes and
functions.  A knob passes when some call in ``src/``, ``benchmarks/`` or
``examples/`` passes it to that class or function, by keyword or by position,
with a value that is not a literal equal to its default.  The callee is
resolved at the call site: by its name (bare or as an attribute), by an
import alias, or as the first argument of ``functools.partial``.  Tests do
not count: a knob only tests set is configuration nobody uses.  A knob kept
on purpose without such a caller goes into :data:`ALLOWED` with its reason,
and an entry whose knob is gone or has gained a caller fails the gate.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "knobs.py"
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Knobs (``Class.name``) kept without a caller that sets them, with why.
ALLOWED = {
    "InferenceEngine.max_programs": (
        "benchmarks/perf/workloads.py passes it (at its default), and only a "
        "change to the benchmark may edit that file"
    ),
    "InferenceEngine.max_pending": (
        "engine-wide admission backpressure: the fleet machine drives it and "
        "the ledger counts its load_shed as lost requests"
    ),
    "DistributedConfig.bucket_sampler": (
        "the compiled == eager tests build their eager reference pipeline "
        "with it"
    ),
    "SimCommunicator.trace_ring": (
        "the explicit, traced ring allreduce the modeled comm time is to be "
        "validated against (ROADMAP direction 5)"
    ),
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("knobs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defaulted(func) -> int:
    params = inspect.signature(func).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def test_counts_agree_with_fields_and_signatures():
    tool = _load_tool()
    expected = {cls.__name__: len(dataclasses.fields(cls)) for cls in tool.CONFIGS}
    expected.update(
        {cls.__name__: _defaulted(cls.__init__) for cls in tool.CONSTRUCTORS}
    )
    expected.update({func.__name__: _defaulted(func) for func in tool.FUNCTIONS})
    assert tool.knob_counts() == expected


def test_tool_runs_and_prints_the_total():
    out = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    counts = _load_tool().knob_counts()
    assert len(out) == len(counts) + 1
    for line, (name, n) in zip(out, counts.items()):
        assert line.split()[:2] == [str(n), name]
    assert out[-1].split() == [str(sum(counts.values())), "total"]


def _is_partial(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "partial"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "partial"
        and isinstance(func.value, ast.Name)
        and func.value.id == "functools"
    )


def class_calls(source: str, classes: set[str]):
    """``(callee name, positional args, keywords)`` of every call in
    ``source`` that builds one of ``classes`` or calls one of the functions
    named among them."""
    tree = ast.parse(source)
    aliases = {name: name for name in classes}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rsplit(".", 1)[-1]
                if name in classes and alias.asname:
                    aliases[alias.asname] = name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if _is_partial(func) and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Name):
            name = aliases.get(func.id)
        elif isinstance(func, ast.Attribute):
            name = func.attr if func.attr in classes else None
        else:
            name = None
        if name is not None:
            yield name, args, node.keywords


def _sets(value: ast.expr, default) -> bool:
    """Whether passing ``value`` sets a knob whose default is ``default``."""
    if default is inspect.Parameter.empty:
        return True
    try:
        return ast.literal_eval(value) != default
    except ValueError:
        return True


def unset(files: dict[str, str], knobs: dict[str, tuple[inspect.Signature, list[str]]]):
    """``Class.name`` of every knob no call in ``files`` sets, sorted.

    ``knobs`` maps a class or function name to its call signature (a
    constructor's without ``self``) and the names of its knobs.
    """
    given = set()
    for source in files.values():
        for name, args, keywords in class_calls(source, set(knobs)):
            params = knobs[name][0].parameters
            passed = []
            for param, arg in zip(params, args):
                if isinstance(arg, ast.Starred):
                    break
                passed.append((param, arg))
            passed += [(kw.arg, kw.value) for kw in keywords if kw.arg in params]
            for param, value in passed:
                if _sets(value, params[param].default):
                    given.add(f"{name}.{param}")
    return sorted(
        f"{name}.{knob}"
        for name, (_, names) in knobs.items()
        for knob in names
        if f"{name}.{knob}" not in given
    )


def _shipped_files() -> dict[str, str]:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def test_every_knob_has_a_caller():
    knobs = {
        obj.__name__: (inspect.signature(obj), names)
        for obj, names in _load_tool().knob_names().items()
    }
    found = unset(_shipped_files(), knobs)
    missing = [knob for knob in found if knob not in ALLOWED]
    assert not missing, f"knobs no caller in src/, benchmarks/ or examples/ sets: {missing}"
    # the allowlist names live, unset knobs, not history
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"stale ALLOWED entries (gone, or now set): {stale}"


def test_calls_resolve_by_name_alias_attribute_and_partial():
    def engine(model, workers=1, wait=0.05, tag=None):
        pass

    knobs = {"Engine": (inspect.signature(engine), ["workers", "wait", "tag"])}
    files = {
        "a.py": "from lib import Engine as E\nE(m, 2)\n",
        "b.py": "import functools\nfunctools.partial(lib.Engine, tag='x')\n",
        "c.py": "Engine(m, wait=0.05, tag=None)\n",
        "d.py": "Other(m, wait=1.0)\nEngine(*xs, **kw)\n",
    }
    assert unset(files, knobs) == ["Engine.wait"]
    files["e.py"] = "from functools import partial\npartial(Engine, m, 3, w)\n"
    assert unset(files, knobs) == []


def test_a_required_field_is_set_by_any_value():
    def config(sla, scans=3):
        pass

    knobs = {"Config": (inspect.signature(config), ["sla", "scans"])}
    assert unset({"a.py": "Config(sla=0.5, scans=3)\n"}, knobs) == ["Config.scans"]
    assert unset({"a.py": "Config(0.5, scans=n)\n"}, knobs) == []
