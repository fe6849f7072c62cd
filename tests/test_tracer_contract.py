"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps package
functions by name and keys Green sources on ``Section.data``.  A traced run
in a subprocess, on a small kg config, fails here when a rename or a lost
attribute breaks that contract, not only in the slow perfbench/selftest.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMALL_TRACE = {
    "model": "kg",
    "suites": ["green", "theorems"],
    "windows": {"basis_t": [-1, 1], "basis_x": [-1, 1], "homotopy_t": [-1, 1], "green_t": [-6, 6]},
}


def test_traced_child_run_sees_the_green_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace", json.dumps(SMALL_TRACE)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["all_passed"]
    layers = out["layers"]
    assert layers["bvtheory.green.calls"] > 0
    assert layers["bvtheory.green.distinct_sources"] > 0
    assert layers["lattice.calls"] > 0
