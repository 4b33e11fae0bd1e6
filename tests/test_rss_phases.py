"""``tools/rss_phases.py``: resident memory of a ledger workload, phase by phase."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "rss_phases.py"
CYCLES = 3  # tools/rss_phases.py's fixed count of steady cycles


def test_prints_every_phase_of_a_smoke_training_run():
    args = ["train_ddp", "--seed", "1", "--scale", "smoke"]
    out = subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True, text=True, check=True, cwd=REPO, timeout=300,
    ).stdout
    header, *lines = out.splitlines()
    assert header.split()[-5:] == ["VmRSS", "MB", "VmHWM", "MB", "blocks"]
    phases = [line[:40].strip() for line in lines]
    assert phases[:2] == ["import", "inputs"]
    steady = [f"steady cycle {k + 1}" for k in range(CYCLES)]
    assert phases[-1 - CYCLES:] == ["warm-up", *steady]
    build = phases[2:-1 - CYCLES]
    assert build[0].startswith("eager capture train (")
    assert "heap trim" in build and any(p.startswith("slab -> ") for p in build)
    blocks = {}
    for phase, line in zip(phases, lines):
        *_, rss, hwm, count = line.split()
        assert 0 < float(rss) and 0 < float(hwm)
        blocks[phase] = int(count)  # Python's allocated blocks, an exact count
    # the build (traces, templates, programs) allocates Python objects
    assert blocks["warm-up"] > blocks["import"] > 0


def test_make_target_runs_the_tool():
    out = subprocess.run(
        ["make", "-n", "rss", "W=train_ddp", "SEED=11", "SCALE=smoke"],
        capture_output=True, text=True, check=True, cwd=REPO, timeout=60,
    ).stdout
    assert out.strip() == "python3 tools/rss_phases.py train_ddp --seed 11 --scale smoke"
