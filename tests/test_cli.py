import json

import pytest

from latticebv.cli import main
from latticebv.reporting import CATALOG, strip_timing
from latticebv.suites import DEFAULT_CONFIG, merge_config, run_suites
from latticebv.reporting import make_report

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


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suites": ["bogus"]}))
    code = main(["run", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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
    assert json.loads(out.read_text())["model"] == "maxwell2d"


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
