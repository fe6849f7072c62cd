"""Tests of the benchmark harness itself (not part of the repository's tier-1).

    python3 -m pytest -q perfbench/selftest.py

The smoke test runs every workload on the small config with the traced run,
so it takes about a minute; the others take seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, Check  # noqa: E402
from workloads import DEFAULT_SEED, SUBSEEDS, WORKLOADS, sample_seed  # noqa: E402

# latticebv/*.py of the baseline package, as at commit a319f1a
BASELINE_SHA256 = "6e51af58bb4e5feda178682fd6708272f8b61c6784b0455ff70beaac3843bd8b"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_spec_matches_harness():
    spec = load_spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bound["setup_s"] == max(bound.values())


@pytest.fixture(scope="module")
def smoke():
    proc = run_bench(["--smoke"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_reports_every_metric(smoke):
    spec = load_spec()
    assert smoke["correct"] is True
    assert smoke["failed"] == 0 and smoke["attempted"] >= 2 * len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            entry = smoke["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
        for metric in spec["end_to_end"]:
            assert smoke["metrics"][f"{workload}.{metric['name']}"]["value"] > 0


def test_smoke_trace_sees_the_layers(smoke):
    m = {k: v["value"] for k, v in smoke["metrics"].items()}
    # wrappers bound through `from .bvtheory import tau_0`-style imports fire
    for workload in WORKLOADS:
        assert m[f"{workload}.bvtheory.green.calls"] > 0
        assert m[f"{workload}.bvtheory.pairing.calls"] > 0
        assert m[f"{workload}.scalars.ops"] > 0
        assert m[f"{workload}.reporting.calls"] > 0
    assert m["maxwell2d-algebraic.quantize.sym_power_homotopy.calls"] > 0
    assert m["maxwell2d-causal.quantize.sym_power_homotopy.calls"] == 0
    assert m["maxwell2d-causal.suites.algebra.wall_s"] == 0
    assert m["maxwell2d-causal.suites.green.wall_s"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(["--workload", "kg-massive", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_check_rejects_a_changed_report():
    golden = Check({7: "report\n"})
    assert golden({"stripped": "report\n", "all_passed": True}, 7)
    assert not golden({"stripped": "report \n", "all_passed": True}, 7)
    self_consistent = Check({})
    assert self_consistent({"stripped": "a", "all_passed": True}, 1)
    assert not self_consistent({"stripped": "b", "all_passed": True}, 1)
    assert self_consistent({"stripped": "b", "all_passed": True}, 2)
    assert not Check({})({"stripped": "a", "all_passed": False}, 1)


def test_baseline_package_is_frozen():
    # every recorded wall_rel / cpu_rel is relative to this package
    digest = hashlib.sha256()
    base = os.path.join(HERE, "baseline", "latticebv")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    assert digest.hexdigest() == BASELINE_SHA256


def test_config_seeds_start_at_the_seed_and_never_overlap():
    assert sample_seed(DEFAULT_SEED, 0) == DEFAULT_SEED
    runs = [{sample_seed(seed, i) for i in range(SUBSEEDS)} for seed in range(1, 101)]
    assert all(len(r) == SUBSEEDS for r in runs)
    assert len(set().union(*runs)) == 100 * SUBSEEDS
    goldens = {name for name in os.listdir(os.path.join(HERE, "golden"))}
    for workload in WORKLOADS:
        assert f"{workload}.json" in goldens
        for i in range(1, SUBSEEDS):
            assert f"{workload}.seed-{sample_seed(DEFAULT_SEED, i)}.json" in goldens
