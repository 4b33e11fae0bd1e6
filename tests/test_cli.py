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


def test_fault_injected_train_rejects_bad_lr_in_one_line(tmp_path, monkeypatch):
    """A fault-injected run builds its trainer inside the setup guard like
    every other run; the learning rate is checked by the config, before any
    data or state."""
    from repro.cli import main

    calls = _spy_on_data(monkeypatch)
    state = tmp_path / "state.rckpt"
    argv = "train --world-size 2 --batch-size 4 --inject-fault kill:1:2 --lr -1"
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--state", str(state)])
    assert exc.value.code == "train: learning rate must be positive, got -1.0"
    assert exc.value.__suppress_context__
    assert not calls and not state.exists()


@pytest.mark.parametrize(
    "flags",
    [["--world-size", "2", "--inject-fault", "kill:1:2"], ["--world-size", "1"]],
    ids=["fault-injected", "one-device"],
)
def test_batch_larger_than_corpus_exits_in_one_line(tmp_path, flags):
    """A global batch no step can fill is refused when the trainer is built,
    inside the setup guard: on a fault-injected run (it used to raise from
    inside ``run_elastic``) and on one device (it used to be clamped)."""
    from repro.cli import main

    state = tmp_path / "state.rckpt"
    argv = ["train", "--batch-size", "64", "--structures", "16", *flags, "--state", str(state)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code.startswith("train: global batch 64 yields no step on 14 structures; ")
    assert "\n" not in exc.value.code
    assert exc.value.__suppress_context__
    assert not state.exists()


def test_resumed_fault_injected_run_recovers(tmp_path, capsys):
    """A resumed run goes through elastic recovery too: the kill lands after
    the resume point and the run finishes in sync."""
    from repro.cli import main

    state = str(tmp_path / "state.rckpt")
    base = "train --structures 16 --max-atoms 6 --batch-size 4 --world-size 2".split()
    assert main([*base, "--epochs", "1", "--state", state]) == 0
    capsys.readouterr()
    resume = ["--epochs", "3", "--resume", state, "--state", state, "--inject-fault", "kill:1:5"]
    assert main([*base, *resume]) == 0
    out = capsys.readouterr().out
    assert "resumed from" in out
    assert "rank 1 failed at step 5" in out
    assert "replicas in sync: True" in out


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


# End-to-end runs of the serving, farm and model-calculator commands, sized to
# a few structures so each finishes in about a second.
_SMALL_POOL = ["--structures", "6", "--max-atoms", "6"]

# Every serving feature at once, through the async queue.
_SERVE_QUEUE = [
    "serve",
    "--requests",
    "24",
    "--tenants",
    "a:1,b:4:4",
    "--class",
    "mixed",
    "--autoscale",
    "4",
    "--inject-worker-fault",
    "kill:1:2",
    "--hedge",
    "--deadline",
    "0.5",
    "--merge-tiers",
    "--memoize",
    "8",
    "--publish-every",
    "8",
    "--baseline",
]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["serve", "--compile", "--baseline", "--requests", "16"],
            id="serve-synchronous",
        ),
        pytest.param(_SERVE_QUEUE, id="serve-queue"),
        pytest.param(
            [
                "farm",
                "--compile",
                "--baseline",
                "--trajectories",
                "6",
                "--steps",
                "4",
                "--max-steps",
                "6",
            ],
            id="farm",
        ),
        pytest.param(
            ["relax", "--calculator", "fast", "--compile", "--skin", "0.5", "--max-steps", "5"],
            id="relax-fast",
        ),
        pytest.param(["md", "--calculator", "fast", "--skin", "1", "--steps", "3"], id="md-fast"),
    ],
)
def test_command_runs_end_to_end(argv, capsys):
    from repro.cli import main

    if argv[0] in ("serve", "farm"):
        argv = [*argv, *_SMALL_POOL]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--baseline" in argv:
        assert "bit-identical" in out


def test_report_prints_dotted_lines_and_drops_unused_values(capsys):
    """Nested dicts print as dotted keys, lists comma-joined, floats to 4
    significant digits; zeros, ``None``, empty strings and empty lists are
    left out, and a boolean always shows."""
    from repro.cli import _report

    _report(
        {
            "run": "4/4 requests",
            "engine": {"batches": 3, "retries": 0, "tenants": {"a": {"served": 12}}},
            "latency_p95": 0.0123456,
            "wave_sizes": [6, 3, 1],
            "unfired": [],
            "resumed from": None,
            "state": "",
            "rate": 0.0,
            "replicas in sync": False,
        }
    )
    assert capsys.readouterr().out.splitlines() == [
        "run: 4/4 requests",
        "engine.batches: 3",
        "engine.tenants.a.served: 12",
        "latency_p95: 0.01235",
        "wave_sizes: 6, 3, 1",
        "replicas in sync: False",
    ]


def _scalar_lines(block: dict, prefix: str) -> list[str]:
    """The line each nonzero scalar of ``block`` should print as."""
    lines = []
    for key, value in block.items():
        if isinstance(value, dict):
            lines += _scalar_lines(value, f"{prefix}{key}.")
        elif value:
            text = f"{value:.4g}" if isinstance(value, float) else str(value)
            lines.append(f"{prefix}{key}: {text}")
    return lines


def test_serve_summary_prints_every_nonzero_engine_counter(monkeypatch, capsys):
    """Whatever the flags, every nonzero scalar of the run's
    ``engine.snapshot()`` prints as its own line."""
    from repro.cli import main
    from repro.serve import InferenceEngine

    snapshots = []
    real = InferenceEngine.snapshot

    def recording(engine):
        snapshots.append(real(engine))
        return snapshots[-1]

    monkeypatch.setattr(InferenceEngine, "snapshot", recording)
    assert main([*_SERVE_QUEUE, *_SMALL_POOL]) == 0
    lines = capsys.readouterr().out.splitlines()
    (snap,) = snapshots
    expected = _scalar_lines(snap, "engine.")
    assert len(expected) > 20
    assert [line for line in expected if line not in lines] == []


def test_serve_baseline_divergence_fails_the_run(monkeypatch, capsys):
    """A ``serve --baseline`` whose eager predictions differ exits 1, as
    ``farm --baseline`` does."""
    import dataclasses

    from repro.cli import main
    from repro.serve import InferenceEngine

    real = InferenceEngine.predict_many
    calls = []

    def perturbed(engine, items):
        preds = real(engine, items)
        calls.append(engine)
        if len(calls) == 2:  # the eager per-request baseline
            preds[0] = dataclasses.replace(preds[0], energy_per_atom=preds[0].energy_per_atom + 1)
        return preds

    monkeypatch.setattr(InferenceEngine, "predict_many", perturbed)
    assert main(["serve", "--baseline", "--requests", "4", *_SMALL_POOL]) == 1
    assert len(calls) == 2
    assert "baseline: DIVERGED" in capsys.readouterr().out


def _spy_on_data(monkeypatch) -> list:
    """Record every ``generate_mptrj`` call (the real corpus is still built)."""
    import repro.data

    calls = []
    real = repro.data.generate_mptrj

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.data, "generate_mptrj", spy)
    return calls


_AFTER_DATA = " --structures 20 --max-atoms 6"


# (argv, exit message, checked before the corpus is generated); the three
# values checked after it belong to the sampler, the generator itself and
# the farm's MD specs, which are built on the generated crystals.
_BAD_FLAGS = [
    ("serve --workers 0", "serve: n_workers must be >= 1, got 0", True),
    ("serve --batch-structs 0", "serve: max_batch_structs must be >= 1, got 0", True),
    ("serve --memoize -1", "serve: memoize must be non-negative, got -1", True),
    ("farm --skin -1", "farm: skin must be non-negative, got -1.0", True),
    ("farm --workers 0", "farm: n_workers must be >= 1, got 0", True),
    ("farm --fmax 0", "farm: fmax must be positive, got 0.0", True),
    ("farm --temperature -5 --md-fraction 1", "farm: temperature must be non-negative, got -5.0", False),
    (
        "farm --baseline --max-waves 2",
        "farm: --max-waves cannot take --baseline (the baseline runs every "
        "trajectory to completion, not K waves)",
        True,
    ),
    ("md --steps 0", "md: --steps must be >= 1, got 0", True),
    ("md --steps -2", "md: --steps must be >= 1, got -2", True),
    ("md --timestep 0", "md: timestep must be positive, got 0.0", True),
    ("md --calculator fast --skin -1", "md: skin must be non-negative, got -1.0", True),
    ("md --skin 1", "md: --skin only applies to model calculators, not --calculator oracle", True),
    (
        "relax --compile",
        "relax: --compile only applies to model calculators, not --calculator oracle",
        True,
    ),
    ("relax --fmax 0", "relax: fmax must be positive, got 0.0", True),
    ("relax --max-steps -1", "relax: max_steps must be non-negative, got -1", True),
    ("relax --timestep 5", "relax: timestep_fs must lie in [0.02, 2.0], got 5.0", True),
    ("train --batch-size 0" + _AFTER_DATA, "train: global batch 0 smaller than world size 1", False),
    ("train --lr -1", "train: learning rate must be positive, got -1.0", True),
    ("train --lr -1" + _AFTER_DATA, "train: learning rate must be positive, got -1.0", True),
    ("train --lr 0", "train: learning rate must be positive, got 0.0", True),
    (
        "train --world-size 2 --batch-size 4 --lr 0",
        "train: learning rate must be positive, got 0.0",
        True,
    ),
    (
        "train --world-size 2 --batch-size 4 --n-buckets 0",
        "train: n_buckets must be >= 1, got 0",
        True,
    ),
    ("dataset --structures 0", "dataset: n_structures must be positive, got 0", False),
    (
        "train --world-size 2 --batch-size 5",
        "train: global_batch_size 5 must be divisible by world_size 2",
        True,
    ),
    ("train --world-size 0", "train: world_size must be >= 1, got 0", True),
]


@pytest.mark.parametrize(
    "argv, message, before_data", _BAD_FLAGS, ids=[argv for argv, *_ in _BAD_FLAGS]
)
def test_bad_flag_value_exits_naming_command_and_value(monkeypatch, argv, message, before_data):
    """A rejected value exits as ``<command>: <message>`` with no traceback;
    values a config, engine, farm or calculator constructor checks fail
    before any structure is generated."""
    from repro.cli import main

    calls = _spy_on_data(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == message
    assert exc.value.__suppress_context__
    assert bool(calls) != before_data


def test_farm_resume_reports_the_restored_farm(tmp_path, monkeypatch, capsys):
    """A resumed farm is summarized from its checkpoint, not from the flags,
    and generates no candidate pool."""
    from repro.cli import main

    state = str(tmp_path / "farm.rckpt")
    run = ["farm", "--trajectories", "4", "--steps", "4", "--max-steps", "6", *_SMALL_POOL]
    assert main([*run, "--state", state, "--max-waves", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="farm: --resume cannot take --baseline"):
        main(["farm", "--state", state, "--resume", "--baseline"])

    calls = _spy_on_data(monkeypatch)
    assert main(["farm", "--state", state, "--resume"]) == 0
    out = capsys.readouterr().out
    assert not calls
    assert "resumed 4 trajectories" in out
    assert "4 trajectories (2 MD x 4 steps, 2 relax @ fmax 0.05)" in out
    assert "/2 relaxations converged" in out
