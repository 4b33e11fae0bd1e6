"""CLI smoke tests: every ``--help`` exits 0 and the text tracks behavior."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_module_entrypoint_help_exits_zero():
    """``python -m repro.cli --help`` works from a clean interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "serve" in proc.stdout and "train" in proc.stdout


@pytest.mark.parametrize("command", [None, *sorted(COMMANDS)])
def test_every_subcommand_help_exits_zero(command, capsys):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def _help_of(command: str) -> str:
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    return sub.choices[command].format_help()


def test_serve_help_documents_the_live_serving_flags():
    text = _help_of("serve")
    for flag in ("--publish-every", "--merge-tiers", "--memoize", "--compile", "--baseline"):
        assert flag in text
    assert "hot-swap" in text or "version" in text


def test_train_help_matches_shared_cache_behavior():
    """PR 3/4 made distributed compiled ranks share one program cache; the
    --compile help must describe that (the old per-rank-compiler wording
    was stale)."""
    text = _help_of("train")
    assert "share" in text  # shared program cache across ranks
    assert "--world-size" in text and "--n-buckets" in text


def test_md_help_documents_model_only_flags():
    text = _help_of("md")
    assert "--skin" in text and "--compile" in text
    assert "model calculators only" in text


def test_train_help_documents_fault_tolerance_flags():
    text = _help_of("train")
    for flag in ("--state", "--checkpoint-every", "--resume", "--inject-fault", "--no-shrink"):
        assert flag in text
    assert "kill:RANK:STEP" in text


def test_inject_fault_requires_distributed_and_state(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit, match="world-size"):
        main(["train", "--inject-fault", "kill:0:1", "--structures", "16"])
    with pytest.raises(SystemExit, match="--state"):
        main(
            [
                "train",
                "--inject-fault",
                "kill:0:1",
                "--world-size",
                "2",
                "--batch-size",
                "4",
                "--structures",
                "16",
                "--max-atoms",
                "6",
            ]
        )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--checkpoint-every", "0"], "--checkpoint-every must be >= 1, got 0"),
        (["--world-size", "2", "--checkpoint-every", "0"], "--checkpoint-every must be >= 1"),
        (["--inject-fault", "kill:0:1"], "--inject-fault requires --world-size > 1"),
        (["--world-size", "2", "--inject-fault", "kill:0:1"], "--inject-fault requires --state"),
    ],
)
def test_train_flags_checked_before_any_data(monkeypatch, flags, message):
    """Each ``train`` flag is checked once, up front: single-device and
    distributed runs fail the same way before a structure is generated."""
    import repro.data
    from repro.cli import main

    def no_data(*args, **kwargs):
        raise AssertionError("flags must be checked before the dataset is generated")

    monkeypatch.setattr(repro.data, "generate_mptrj", no_data)
    with pytest.raises(SystemExit, match=message):
        main(["train", *flags])


def test_inject_fault_rejects_bad_spec():
    from repro.cli import main

    with pytest.raises(SystemExit, match="bad fault spec"):
        main(
            [
                "train",
                "--inject-fault",
                "explode:now",
                "--world-size",
                "2",
                "--batch-size",
                "4",
                "--state",
                "/tmp/unused.rckpt",
                "--structures",
                "16",
                "--max-atoms",
                "6",
            ]
        )


def test_train_kill_recover_resume_cycle(tmp_path, capsys):
    """End-to-end CLI: fault-injected elastic run, then resume from state."""
    from repro.cli import main

    state = str(tmp_path / "state.rckpt")
    base = [
        "train",
        "--structures",
        "16",
        "--max-atoms",
        "6",
        "--batch-size",
        "4",
        "--world-size",
        "2",
        "--epochs",
        "2",
    ]
    assert main([*base, "--state", state, "--inject-fault", "kill:1:2"]) == 0
    out = capsys.readouterr().out
    assert "rank 1 failed at step 2" in out
    assert "replicas in sync: True" in out

    assert main([*base, "--epochs", "3", "--resume", state]) == 0
    out = capsys.readouterr().out
    assert "resumed from" in out
    assert "replicas in sync: True" in out
