"""``repro.serve.tenants.percentile`` is ``np.percentile`` bit for bit,
without importing ``numpy.ma``.

``np.percentile`` reaches ``np.unique`` and with it imports ``numpy.ma``
(0.5 MB of resident memory) on its first call, which every serving
warm-up made; the serving path now leaves it unimported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import percentile

HERE = Path(__file__).resolve().parent

finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(finite, min_size=1, max_size=40)
    | st.lists(st.integers(0, 5).map(float), min_size=1, max_size=12),  # ties
    q=st.floats(0.0, 100.0) | st.sampled_from([0, 25, 50, 90, 95, 99, 100]),
)
def test_equals_numpy_bit_for_bit(values, q):
    ours = np.float64(percentile(values, q))
    ref = np.float64(np.percentile(np.array(values), q))
    assert ours.tobytes() == ref.tobytes(), (ours, ref)


def test_empty_and_iterables():
    assert percentile([], 50) == 0.0
    assert percentile((x for x in (3.0, 1.0, 2.0)), 50) == 2.0
    assert percentile(range(11), 95) == 9.5


def test_serving_leaves_numpy_ma_unimported():
    """A served request and a snapshot (its latency percentiles) in a
    fresh process import no ``numpy.ma``."""
    code = (
        "import sys\n"
        "from serve_harness import TINY_CFG, make_graphs, make_model\n"
        "from repro.serve import InferenceEngine\n"
        "engine = InferenceEngine(make_model(), n_workers=1, compile=True)\n"
        "(graph,) = make_graphs(1, seed=4, max_atoms=6)\n"
        "rid = engine.submit(graph, now=0.0)\n"
        "engine.flush(now=0.0)\n"
        "assert engine.poll(rid, now=1e6) is not None\n"
        "snap = engine.snapshot()\n"
        "assert snap['latency_p95'] > 0.0, snap['latency_p95']\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE.parent / "src"), str(HERE)])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
