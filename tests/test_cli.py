import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticebv.cli import main
from latticebv.reporting import CATALOG, make_report, render_report, strip_timing
from latticebv.suites import DEFAULT_CONFIG, merge_config, run_suites

GOLDEN = Path(__file__).parent / "golden"

SMALL = {
    "seed": 11,
    "windows": {
        "basis_t": [-1, 1],
        "basis_x": [-1, 1],
        "green_t": [-8, 8],
        "homotopy_t": [-2, 2],
        "homotopy_x": [0, 1],
    },
    "regions": {"slab": {"kind": "slab", "t": [-3, 3]}},
    "samples": {
        "algebra_elements": 60,
        "algebra_binomial": 8,
        "random_sections": 3,
        "section_terms": 2,
        "word_samples": 6,
        "max_word_len": 4,
        "comparison_words_per_length": 3,
        "comparison_pairs": 4,
        "tuple_reps": 2,
        "timeslice_words": 2,
    },
}


def assert_matches_golden(report, name):
    """The timing-stripped report, rendered with a final newline, equals
    tests/golden/<name> byte for byte."""
    text = render_report(strip_timing(report)) + "\n"
    assert text == (GOLDEN / name).read_text()


def write_config(tmp_path, extra=None, name="config.json"):
    config = dict(SMALL)
    if extra:
        config = merge_config(config, extra)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_run_small_config_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(cfg), "--suite", "structures", "--suite", "theorems", "--report-out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert report["schema_version"] == 1
    assert report["n_checks"] >= 2
    text = capsys.readouterr().out
    assert "[PASS] structures/pairing-dirac-trivializes" in text


def test_run_exit_code_and_witness_on_flipped_metric(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model_params": {"metric_flip": True}})
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(cfg), "--suite", "green", "--report-out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    failing = {r["identity"]: r for r in report["records"] if not r["passed"]}
    assert "metric-compatibility" in failing
    assert failing["metric-compatibility"].get("witness")
    assert "metric-antisymmetry" in failing
    assert_matches_golden(report, "kg-small-green-flipped-metric.json")


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suites": ["bogus"]}))
    code = main(["run", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"lattice": {"n_sites": "21"}}, "lattice.n_sites"),
        ({"windows": {"green_t": [12, -12]}}, "windows.green_t"),
        ({"samples": {"word_samples": -1}}, "samples.word_samples"),
        (
            {"regions": {"disjoint_pair": [{"kind": "all"}, {"kind": "hull", "seeds": [[0, 10]]}]}},
            "regions.disjoint_pair",
        ),
        ({"model_params": {"metric_flip": "no"}}, "model_params.metric_flip"),
        ({"cutoff_t0": 100}, "cutoff slices"),
    ],
)
def test_run_rejects_invalid_config_values(tmp_path, capsys, extra, field):
    # unvalidated, these give a traceback, a vacuous PASS or error witnesses
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(cfg), "--quiet", "--report-out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not out.exists()


def test_run_rejects_wrapping_ring(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "lattice": {"n_sites": 5, "slope": 1},
            "regions": {
                "disjoint_pair": [
                    {"kind": "hull", "seeds": [[0, 0], [2, 0]]},
                    {"kind": "hull", "seeds": [[0, 3], [2, 3]]},
                ]
            },
        },
    )
    code = main(["run", "--config", str(cfg), "--suite", "structures"])
    assert code == 2
    assert "cones wrap" in capsys.readouterr().err


def test_report_deterministic_modulo_timing(tmp_path):
    config = merge_config(DEFAULT_CONFIG, SMALL)
    config = merge_config(config, {"suites": ["structures", "comparison"]})
    r1 = make_report(config, run_suites(config))
    r2 = make_report(config, run_suites(config))
    assert strip_timing(r1) == strip_timing(r2)
    # and through the worker-pool path
    r3 = make_report(config, run_suites(config, workers=2))
    assert strip_timing(r1) == strip_timing(r3)


def test_explain_known_and_unknown(capsys):
    assert main(["explain", "comparison-chain-map"]) == 0
    out = capsys.readouterr().out
    assert "Q o T = T o Q_h" in out
    assert "strategy" in out
    assert main(["explain", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "comparison-chain-map" in err  # the valid ids are listed


def test_explain_witness_composition(capsys):
    assert main(["explain", "witness-composition"]) == 0
    assert "Q W W = W W Q" in capsys.readouterr().out


def test_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in ("algebra", "green", "structures", "theorems", "quantization", "comparison"):
        assert name in out


def test_every_catalog_id_has_suite_coverage():
    # every registered identity is produced by a full default run
    config = merge_config(DEFAULT_CONFIG, SMALL)
    records = run_suites(config)
    produced = {r.identity for r in records}
    assert produced == set(CATALOG)
    assert_matches_golden(make_report(config, records), "kg-small-all.json")


def test_run_with_model_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--config",
            str(cfg),
            "--model",
            "maxwell2d",
            "--suite",
            "structures",
            "--quiet",
            "--report-out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["model"] == "maxwell2d"
    assert_matches_golden(report, "maxwell2d-small-structures.json")


def test_worker_env_var_honored(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    monkeypatch.setenv("LATTICEBV_WORKERS", "2")
    code = main(
        [
            "run", "--config", str(cfg),
            "--suite", "structures", "--suite", "comparison",
            "--quiet", "--report-out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["all_passed"] is True


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_worker_env_var_is_config_error(tmp_path, monkeypatch, capsys, value):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    monkeypatch.setenv("LATTICEBV_WORKERS", value)
    code = main(
        ["run", "--config", str(cfg), "--suite", "algebra", "--quiet", "--report-out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "LATTICEBV_WORKERS" in err
    assert not out.exists()


def test_run_all_suites_kg_seed7(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        ["run", "--config", str(cfg), "--suite", "all", "--model", "kg",
         "--seed", "7", "--quiet", "--report-out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 7 and report["model"] == "kg"
    assert {r["suite"] for r in report["records"]} == {
        "algebra", "green", "structures", "theorems", "quantization", "comparison"
    }


def test_run_comparison_suite_maxwell(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        ["run", "--config", str(cfg), "--suite", "comparison", "--model",
         "maxwell2d", "--quiet", "--report-out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["all_passed"] is True


def test_suite_runner_records_crashes_as_failures():
    from latticebv.suites import ModelBundle, SuiteRunner, merge_config as mc
    from latticebv.suites import DEFAULT_CONFIG as DC

    bundle = ModelBundle(mc(DC, SMALL))
    run = SuiteRunner(bundle, "green")

    def boom():
        raise RuntimeError("solver exploded")

    run.check("complex-squares", boom)
    (rec,) = run.records
    assert rec.passed is False
    assert "solver exploded" in rec.witness


def test_cli_import_loads_every_module():
    # a module that `import latticebv.cli` leaves unloaded is reached by no
    # suite and no CLI command
    import latticebv

    pkg = Path(latticebv.__file__).parent
    probe = "import sys, latticebv.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], cwd=pkg.parent, env=env,
        capture_output=True, text=True, check=True,
    ).stdout.split()
    modules = {f"latticebv.{path.stem}" for path in pkg.glob("*.py") if path.stem != "__init__"}
    assert modules - set(loaded) == set()
