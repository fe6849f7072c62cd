"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps package
functions by name and keys Green sources on ``Section.data``.  Traced runs
in a subprocess, on small kg and maxwell2d configs, fail here when a rename,
a lost attribute or a call route that bypasses a wrapped function breaks
that contract, not only in the slow perfbench/selftest.py."""

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


# the quantization suite reaches the pairing layer only through the tau_m1
# oracle of the Sym differential, as the maxwell2d-algebraic workload does
SMALL_QUANTIZATION_TRACE = {
    "model": "maxwell2d",
    "suites": ["quantization"],
    "windows": {"homotopy_t": [-1, 1]},
    "samples": {"timeslice_words": 1, "max_word_len": 3, "word_samples": 2, "random_sections": 1},
}

# the maxwell2d-causal workload: the structures and theorems checks read the
# tau_0 and tau_D oracles by class key, through the evaluations the tracer counts
CAUSAL_TRACE = {
    "model": "maxwell2d",
    "suites": ["structures", "theorems"],
    "windows": {"basis_t": [-1, 1], "basis_x": [-1, 1], "homotopy_t": [-1, 1]},
    "regions": {"slab": {"kind": "slab", "t": [-1, 1]}},
}


def _traced_layers(config: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace", json.dumps(config)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["all_passed"]
    return out["layers"]


def test_traced_child_run_sees_the_green_layer():
    layers = _traced_layers(SMALL_TRACE)
    assert layers["bvtheory.green.calls"] > 0
    assert layers["bvtheory.green.distinct_sources"] > 0
    assert layers["lattice.calls"] > 0


def test_traced_quantization_run_sees_the_pairing_layer():
    # perfbench/selftest.py asserts bvtheory.pairing.calls > 0 on every
    # workload; a tau_m1 oracle that paired deltas without tau_minus1 reads 0
    layers = _traced_layers(SMALL_QUANTIZATION_TRACE)
    assert layers["bvtheory.pairing.calls"] > 0


def test_traced_causal_run_sees_the_oracle_evaluations():
    # a keyed read that bypassed the wrapped oracle evaluations reads 0
    layers = _traced_layers(CAUSAL_TRACE)
    assert layers["symalg.oracle.calls"] > 0
