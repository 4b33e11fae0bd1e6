"""Documentation guarantees.

Four enforced contracts: the public serving/compile/fault-tolerance/trajectory API
is fully docstring-covered (every public class and method carries at
least a one-line summary), the documentation suite the README links to
actually exists with its promised sections, every `` `Class.attr` `` the
docs name on a public ``repro`` class exists, and ``docs/cli.md`` tracks
the argparse tree bidirectionally (every parser flag documented, every
documented flag real).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.comm.communicator import SimCommunicator
from repro.comm.faults import FaultPlan
from repro.data.samplers import BucketBatchSampler
from repro.md.farm import Trajectory, TrajectoryFarm
from repro.serve.engine import EngineStats, InferenceEngine, Prediction
from repro.serve.faults import WorkerFaultPlan
from repro.serve.fleet import Fleet, Worker
from repro.serve.scheduler import Autoscaler, AutoscaleConfig, FairScheduler
from repro.serve.tenants import ClassPolicy, TenantPolicy, TenantStats
from repro.tensor.compile import (
    InferenceCompiler,
    SharedProgramCache,
    StepCompiler,
)
from repro.train.distributed import DistributedTrainer

ROOT = Path(__file__).resolve().parents[1]

#: The public serving/compile/trajectory surface under the docstring-coverage contract.
DOCUMENTED_CLASSES = [
    InferenceEngine,
    SharedProgramCache,
    StepCompiler,
    InferenceCompiler,
    BucketBatchSampler,
    EngineStats,
    Prediction,
    FaultPlan,
    SimCommunicator,
    WorkerFaultPlan,
    Fleet,
    Worker,
    DistributedTrainer,
    FairScheduler,
    Autoscaler,
    AutoscaleConfig,
    TenantPolicy,
    ClassPolicy,
    TenantStats,
    Trajectory,
    TrajectoryFarm,
]


def _public_members(cls):
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member):
            yield name, member
        elif isinstance(member, property):
            yield name, member.fget


class TestDocstringCoverage:
    @pytest.mark.parametrize("cls", DOCUMENTED_CLASSES, ids=lambda c: c.__name__)
    def test_class_documented(self, cls):
        assert cls.__doc__ and cls.__doc__.strip(), f"{cls.__name__} lacks a docstring"

    @pytest.mark.parametrize("cls", DOCUMENTED_CLASSES, ids=lambda c: c.__name__)
    def test_public_methods_documented(self, cls):
        undocumented = [
            name
            for name, fn in _public_members(cls)
            if fn is not None and not (inspect.getdoc(fn) or "").strip()
        ]
        assert not undocumented, (
            f"{cls.__name__} public members missing docstrings: {undocumented}"
        )

    def test_surface_is_nontrivial(self):
        """The coverage test must actually look at methods, not just classes."""
        names = {n for n, _ in _public_members(InferenceEngine)}
        assert {"submit", "poll", "flush", "predict_many", "publish_weights"} <= names
        assert {"lookup", "store", "evict", "release"} <= {
            n for n, _ in _public_members(SharedProgramCache)
        }


class TestDocsSuite:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "docs/architecture.md",
            "docs/serving.md",
            "docs/fault_tolerance.md",
            "docs/workloads.md",
            "docs/cli.md",
            "benchmarks/README.md",
        ],
    )
    def test_exists_and_nonempty(self, path):
        f = ROOT / path
        assert f.is_file(), f"{path} missing"
        assert len(f.read_text().strip()) > 200, f"{path} is a stub"

    def test_readme_covers_the_basics(self):
        text = (ROOT / "README.md").read_text()
        for required in (
            "PYTHONPATH=src python -m pytest -x -q",  # tier-1 verify command
            "repro.cli train",
            "repro.cli md",
            "repro.cli serve",
            "docs/architecture.md",
            "docs/serving.md",
            "docs/fault_tolerance.md",
            "docs/workloads.md",
            "benchmarks/README.md",
        ):
            assert required in text, f"README.md lost its pointer to {required!r}"

    def test_fault_tolerance_doc_covers_the_contract(self):
        text = (ROOT / "docs" / "fault_tolerance.md").read_text()
        for required in (
            "FaultPlan",
            "RCKPT1",
            "bit-identical",
            "largest_feasible_world",
            "--inject-fault",
            "--resume",
        ):
            assert required in text, f"docs/fault_tolerance.md lost {required!r}"

    def test_benchmarks_readme_maps_every_bench(self):
        text = (ROOT / "benchmarks" / "README.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in text, f"benchmarks/README.md misses {bench.name}"

    def test_named_scripts_exist(self):
        """The other direction: every ``benchmarks/`` or ``tests/`` script the
        docs name is on disk (a bare ``bench_*.py`` is one in ``benchmarks/``)."""
        docs = [ROOT / "README.md", ROOT / "benchmarks" / "README.md"]
        dangling = []
        for doc in docs + sorted((ROOT / "docs").glob("*.md")):
            text = doc.read_text()
            named = re.findall(r"\b(?:benchmarks|tests)/[\w/]+\.py\b", text)
            bare = re.findall(r"(?<![\w/])bench_\w+\.py", text)
            named += ["benchmarks/" + n for n in bare]
            dangling += [
                f"{doc.relative_to(ROOT)}: {n}"
                for n in named
                if not (ROOT / n).is_file()
            ]
        assert not dangling, f"docs name scripts that do not exist: {dangling}"

    def test_benches_name_existing_docs(self):
        """Every ``*.md`` path a paper bench names in its comments or strings
        is on disk, relative to the repository root."""
        dangling = []
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            with bench.open("rb") as f:
                prose = " ".join(
                    tok.string
                    for tok in tokenize.tokenize(f.readline)
                    if tok.type in (tokenize.COMMENT, tokenize.STRING)
                )
            dangling += [
                f"{bench.name}: {name}"
                for name in re.findall(r"[\w./-]+\.md\b", prose)
                if not (ROOT / name).is_file()
            ]
        assert not dangling, f"benches name docs that do not exist: {dangling}"


def _public_repro_classes() -> dict[str, list[type]]:
    """Every public class defined in a ``repro`` module, by name."""
    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name and not name.startswith("_"):
                classes.setdefault(name, []).append(obj)
    return classes


def _has_attr(cls: type, attr: str) -> bool:
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return hasattr(cls, attr) or attr in fields


def _class_refs(text: str, classes: dict[str, list[type]]) -> tuple[list[str], list[str]]:
    """The `` `Class.attr` `` spans of ``text`` naming a class in
    ``classes``, and those of them whose member does not exist."""
    seen, dangling = [], []
    for span in re.findall(r"`([^`\n]+)`", text):
        ref = re.match(r"([A-Z]\w*)\.([A-Za-z_]\w*)", span)
        if ref is None or ref.group(1) not in classes:
            continue
        seen.append(span)
        if not any(_has_attr(cls, ref.group(2)) for cls in classes[ref.group(1)]):
            dangling.append(span)
    return seen, dangling


def test_class_ref_scan_flags_missing_members_only():
    @dataclasses.dataclass
    class Config:
        depth: int = 1

        def build(self):
            pass

    text = (
        "Call `Config.build()` after setting `Config.depth`; `Config.width` is\n"
        "gone, `Other.thing` is not ours, `config.build` is lowercase and\n"
        "`Config` alone names no member."
    )
    seen, dangling = _class_refs(text, {"Config": [Config]})
    assert seen == ["Config.build()", "Config.depth", "Config.width"]
    assert dangling == ["Config.width"]


def test_docs_class_attributes_resolve():
    """A `` `Class.attr` `` span in ``docs/*.md`` or ``README.md`` whose
    ``Class`` is a public ``repro`` class names a member that exists."""
    classes = _public_repro_classes()
    seen, dangling = 0, []
    for doc in [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md")):
        refs, missing = _class_refs(doc.read_text(), classes)
        seen += len(refs)
        dangling += [f"{doc.relative_to(ROOT)}: {span}" for span in missing]
    assert seen >= 20, f"the scan found only {seen} references; is the pattern broken?"
    assert not dangling, f"docs name class members that do not exist: {dangling}"


class TestCliDocsDriftGate:
    """``docs/cli.md`` and the argparse tree must agree, both directions."""

    @staticmethod
    def _parser_surface() -> dict[str, set[str]]:
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        return {
            name: {
                opt.option_strings[0]
                for opt in p._actions
                if opt.option_strings and opt.option_strings[0] != "-h"
            }
            for name, p in sub.choices.items()
        }

    @staticmethod
    def _documented_surface() -> dict[str, set[str]]:
        text = (ROOT / "docs" / "cli.md").read_text()
        sections: dict[str, set[str]] = {}
        current = None
        for line in text.splitlines():
            heading = re.match(r"^## `(\w+)`", line)
            if heading:
                current = heading.group(1)
                sections[current] = set()
            elif current is not None:
                sections[current].update(re.findall(r"`(--[\w-]+)`", line))
        return sections

    def test_every_subcommand_documented(self):
        parser_cmds = set(self._parser_surface())
        doc_cmds = set(self._documented_surface())
        assert parser_cmds == doc_cmds, (
            f"docs/cli.md subcommands drifted: missing={parser_cmds - doc_cmds} "
            f"stale={doc_cmds - parser_cmds}"
        )

    @pytest.mark.parametrize("command", sorted(_parser_surface.__func__()))
    def test_flags_in_sync(self, command):
        parser_flags = self._parser_surface()[command]
        doc_flags = self._documented_surface().get(command, set())
        missing = parser_flags - doc_flags
        stale = doc_flags - parser_flags
        assert not missing, f"docs/cli.md misses {command} flags: {sorted(missing)}"
        assert not stale, f"docs/cli.md documents nonexistent {command} flags: {sorted(stale)}"
