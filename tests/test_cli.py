import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latticebv import models, reporting, suites
from latticebv.cli import build_parser, check_report_path, main
from latticebv.quantize import SymModel
from latticebv.reporting import CATALOG, make_report, render_report, strip_timing
from latticebv.suites import DEFAULT_CONFIG, SuiteRunner, merge_config, run_suites, validate_config
from latticebv.symalg import SymElement, mul

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


def test_failing_checks_print_the_elements_as_drawn(monkeypatch):
    # Three injected failures.  The algebra suite computes on its drawn
    # elements, d and pairings times fixed integers, yet prints, and shrinks,
    # each element as drawn: the expected texts are what the same checks
    # print when they compute on the drawn values themselves.
    # moyal-associative prints three elements of random_element unshrunk.
    monkeypatch.setattr(suites, "laplacian_recursive", lambda tau, a: SymElement())
    monkeypatch.setattr(suites, "boundary_pairing", lambda tau, dmap: tau)
    monkeypatch.setattr(SymModel, "moyal_mul", lambda sm, a, b: mul(a, b) + a)
    config = merge_config(DEFAULT_CONFIG, merge_config(SMALL, {"model": "kg", "suites": ["algebra", "quantization"]}))
    witness = {rec.identity: rec.witness for rec in run_suites(config) if not rec.passed}
    assert witness["laplacian-closed-vs-recursive"] == "(-1,34)*(0,3): 1 + 0*i"
    assert witness["laplacian-boundary"] == "(0,4)*(0,36)*(1,21)*(1,37): -1 + 0*i"
    assert witness["moyal-associative"] == (
        "(-1,1,0,0)*(0,0,1,0): 1/2 + 0*i; (0,-1,1,0): 3/2 + 0*i"
        " | (-1,0,0,0): -1 + 0*i; (0,-1,1,0)*(0,0,20,0)*(0,0,20,0): 1/2 + 0*i"
        " | (-1,-1,1,0)*(-1,0,20,0)*(0,0,1,0): 3 + 0*i; (-1,0,20,0)*(-1,1,1,0)*(-1,1,20,0): -2 + 0*i"
    )


def test_run_suites_hands_each_record_to_the_callback_in_run_order(monkeypatch):
    # structures runs before algebra here, the reverse of the report's order;
    # the callback sees each record before the next check starts
    config = merge_config(merge_config(DEFAULT_CONFIG, SMALL), {"suites": ["structures", "algebra"]})
    seen = []
    checks_started = []
    check = SuiteRunner.check

    def counted(run, identity, cases):
        checks_started.append(len(seen))
        check(run, identity, cases)

    monkeypatch.setattr(SuiteRunner, "check", counted)
    records = run_suites(config, on_record=seen.append)
    assert seen == records
    assert len(seen) == make_report(config, records)["n_checks"]
    assert checks_started == list(range(len(records)))
    assert [CATALOG[rec.identity].suite for rec in seen[:1] + seen[-1:]] == ["structures", "algebra"]


def test_run_prints_each_check_line_in_run_order(tmp_path, capsys):
    # the flipped metric fails checks of both suites; a failing line is
    # followed by its witness, if it has one, and the summary comes last
    cfg = write_config(tmp_path, {"model_params": {"metric_flip": True}})
    out = tmp_path / "report.json"
    argv = ["run", "--config", str(cfg), "--suite", "structures", "--suite", "green"]
    assert main(argv + ["--report-out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    config = merge_config(DEFAULT_CONFIG, json.loads(cfg.read_text()))
    records = run_suites(merge_config(config, {"suites": ["structures", "green"]}))
    expected = []
    for rec in records:
        info = CATALOG[rec.identity]
        expected.append(f"[{'PASS' if rec.passed else 'FAIL'}] {info.suite}/{rec.identity}: {info.statement}")
        if rec.witness:
            expected.append(f"       witness: {rec.witness}")
    n_pass = sum(rec.passed for rec in records)
    expected.append(f"{n_pass}/{len(records)} checks passed (model=kg, seed=11); report: {out}")
    assert lines == expected
    assert {"structures", "green"} == {CATALOG[rec.identity].suite for rec in records if not rec.passed}


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


def test_flipped_metric_fails_across_all_suites():
    # the injected fault shows in six checks of four suites; metric-antisymmetry
    # fails with no witness
    config = merge_config(merge_config(DEFAULT_CONFIG, SMALL), {"model_params": {"metric_flip": True}})
    records = run_suites(config)
    failing = {r.identity: r for r in records if not r.passed}
    assert len(failing) == 6
    assert failing["metric-antisymmetry"].witness is None
    assert_matches_golden(make_report(config, records), "kg-small-all-flipped-metric.json")


def test_misconfigured_regions_fail_their_preconditions():
    # swapped stacked and non-ordered pairs, and a connected pair that is in
    # fact causally disjoint: each check names the broken precondition or the
    # missing counterexample instead of passing
    regions = {
        "connected_pair": [
            {"kind": "hull", "seeds": [[0, 0]]},
            {"kind": "hull", "seeds": [[0, 10]]},
        ],
        "nonordered_pair": DEFAULT_CONFIG["regions"]["stacked_pair"],
        "stacked_pair": DEFAULT_CONFIG["regions"]["nonordered_pair"],
    }
    config = merge_config(DEFAULT_CONFIG, SMALL)
    config = merge_config(config, {"regions": regions, "suites": ["theorems", "quantization"]})
    records = run_suites(config)
    failing = {r.identity: r.witness for r in records if not r.passed}
    assert failing["causality-counterexample"] == "configured pair is causally disjoint"
    assert failing["time-ordered-half"] == "configured stacked pair is not time-ordered"
    assert failing["time-ordered-half-counterexample"] == "configured pair is time-ordered"
    assert failing["einstein-causality-counterexample"] == (
        "no nonzero commutator across causally connected regions"
    )
    assert_matches_golden(make_report(config, records), "kg-small-misconfigured-regions.json")


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
        ({"workers": 2}, "workers"),
        ({"samples": {"nope": 3}}, "unknown key 'samples.nope'"),
        ({"windows": {"bogus_w": [0, 1]}}, "unknown key 'windows.bogus_w'"),
        ({"lattice": {"n_sites": 21, "foo": 3}}, "unknown key 'lattice.foo'"),
        ({"regions": {"slab": {"kind": "all"}}}, "regions.slab"),
        (
            {"regions": {"stacked_pair": [{"kind": "all"}, {"kind": "hull", "seeds": [[0, 0]]}]}},
            "regions.stacked_pair",
        ),
        (
            {"regions": {"stacked_tuple": [{"kind": "all"}] * 4}},
            "regions.stacked_tuple",
        ),
        ({"model_params": {"kapa": "1/2"}}, "unknown key 'model_params.kapa'"),
        ({"model_params": {"kappa": "abc"}}, "model_params.kappa"),
        ({"model_params": {"mass_sq": "1/0"}}, "model_params.mass_sq"),
        ({"suites": []}, "suites"),
        ({"suites": 5}, "suites"),
        ({"suites": [["green"]]}, "suites"),
        ({"suites": ["algebra", "algebra"]}, "suites"),
        ({"model": "maxwell2d", "model_params": {"kappa": "2"}}, "model_params.kappa"),
        ({"model": "maxwell2d", "model_params": {"mass_sq": "1"}}, "model_params.mass_sq"),
        ({"model": "nope"}, "unknown model 'nope'"),
        ({"model": ["kg"]}, "unknown model ['kg']"),
        # below these word lengths a check passes on cases where it cannot fail
        ({"samples": {"algebra_max_len": 3}}, "samples.algebra_max_len"),
        ({"samples": {"algebra_max_len": 2}}, "samples.algebra_max_len"),
        ({"samples": {"algebra_max_len": 1}}, "samples.algebra_max_len"),
        ({"samples": {"max_word_len": 1}}, "samples.max_word_len"),
        ({"schema_version": "x"}, "schema_version"),
        ({"schema_version": 2}, "schema_version"),
        ({"schema_version": True}, "schema_version"),
        ({"schema_version": 1.0}, "schema_version"),
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


def test_run_rejects_unwritable_report_path(tmp_path, capsys, monkeypatch):
    # checked before any suite runs: a bad path costs no run and no traceback
    def no_run(config):
        raise AssertionError("suites ran before the report path was checked")

    monkeypatch.setattr("latticebv.cli.run_suites", no_run)
    for path in (tmp_path / "no" / "such" / "r.json", tmp_path, ""):
        code = main(["run", "--suite", "comparison", "--report-out", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "--report-out" in lines[0]
        assert not captured.out
    assert not (tmp_path / "no").exists()


def test_maxwell2d_accepts_the_kg_defaults_as_any_equal_rational():
    # kappa and mass_sq are compared as rationals, not as strings
    params = {"kappa": "2/2", "mass_sq": "0/5"}
    validate_config(merge_config(DEFAULT_CONFIG, {"model": "maxwell2d", "model_params": params}))


def test_the_shortest_words_are_valid():
    shortest = {"algebra_max_len": 4, "max_word_len": 2}
    validate_config(merge_config(DEFAULT_CONFIG, {"samples": shortest}))


def test_a_model_is_one_registry_entry(monkeypatch):
    # the entry alone declares the model_params a model reads: validation,
    # the bundle and the --model choices all follow it
    monkeypatch.setitem(models.MODEL_BUILDERS, "kg2", (models.klein_gordon, ("kappa",)))
    config = merge_config(DEFAULT_CONFIG, {"model": "kg2", "model_params": {"kappa": "1/2"}})
    validate_config(config)
    with pytest.raises(ValueError, match="model_params.mass_sq is not read by the kg2 model"):
        validate_config(merge_config(config, {"model_params": {"mass_sq": "1"}}))
    bundle = suites.ModelBundle(config)
    expected = models.klein_gordon(bundle.lattice, kappa=Fraction(1, 2))
    assert bundle.model.q_op.entries == expected.q_op.entries
    assert build_parser().parse_args(["run", "--model", "kg2"]).model == "kg2"


def test_the_suite_table_runs_in_catalog_order():
    assert tuple(suites.SUITES) == reporting.SUITE_NAMES


def test_report_path_check_rejects_a_read_only_file(tmp_path, monkeypatch):
    # the folder is writable, the file is not; os.access stands in for the
    # permission bits, which a superuser would bypass
    out = tmp_path / "report.json"
    out.write_text("{}")
    real_access = os.access
    monkeypatch.setattr(
        "latticebv.cli.os.access",
        lambda p, mode: False if str(p) == str(out) else real_access(p, mode),
    )
    with pytest.raises(ValueError, match="--report-out"):
        check_report_path(str(out))


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
    # suites run serially: any worker count but 1 is rejected
    with pytest.raises(ValueError):
        run_suites(config, workers=2)


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


def _run_one_check(cases):
    from latticebv.suites import ModelBundle, SuiteRunner

    run = SuiteRunner(ModelBundle(merge_config(DEFAULT_CONFIG, SMALL)), "green")
    run.check("complex-squares", cases)
    (rec,) = run.records
    return rec


def test_suite_runner_fails_a_check_with_no_cases():
    rec = _run_one_check(lambda: iter(()))
    assert rec.passed is False
    assert rec.witness == "vacuous: no cases"


def test_suite_runner_stops_at_the_first_failing_case():
    def cases():
        yield True
        yield "first failure"
        raise RuntimeError("a case after the failure ran")

    rec = _run_one_check(cases)
    assert rec.passed is False
    assert rec.witness == "first failure"


def test_suite_runner_false_outcome_has_no_witness():
    rec = _run_one_check(lambda: [True, False])
    assert rec.passed is False
    assert rec.witness is None


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


def test_import_loads_no_code_introspection():
    # every report pays for `import latticebv` in a fresh process; dataclasses
    # alone would load inspect, ast, dis and tokenize, which no check needs.
    # Module sets, not times: -S keeps site's own imports out of the picture
    import latticebv

    pkg = Path(latticebv.__file__).parent
    probe = "import sys; before = set(sys.modules); import latticebv; print(*set(sys.modules) - before)"
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    added = subprocess.run(
        [sys.executable, "-S", "-c", probe], cwd=pkg.parent, env=env,
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "latticebv.suites" in added
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added) == set()


def test_run_loads_no_openssl():
    # digest_inputs runs in every SuiteRunner and in make_report, so a lazy
    # `import hashlib` would escape the import-time test above; hashlib loads
    # OpenSSL's _hashlib, about 3.6 MiB of resident memory
    import latticebv

    pkg = Path(latticebv.__file__).parent
    probe = (
        "import json, sys\n"
        "from latticebv.reporting import make_report, render_report\n"
        "from latticebv.suites import run_suites\n"
        "for config in json.loads(sys.argv[1]):\n"
        "    render_report(make_report(config, run_suites(config)))\n"
        "print(*sorted({'hashlib', '_hashlib', 'ssl'} & set(sys.modules)))\n"
    )
    small = merge_config(DEFAULT_CONFIG, SMALL)
    configs = [
        merge_config(small, {"model": "kg", "suites": ["comparison"]}),
        merge_config(small, {"model": "maxwell2d", "suites": ["structures"]}),
    ]
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", probe, json.dumps(configs)], cwd=pkg.parent, env=env,
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert loaded == []


def test_witness_text_of_sym_coefficients():
    # witnesses print Sym coefficients as h-polynomials over Q(i), lowest
    # order first; the element covers u^0..u^3 (u = i*h), so all four powers
    # of i, with non-integer rationals
    from fractions import Fraction

    from latticebv.quantize import IH
    from latticebv.scalars import sym_coeff
    from latticebv.suites import _fmt_elem
    from latticebv.symalg import SymElement

    u2 = IH * IH
    u3 = u2 * IH
    a = sym_coeff(Fraction(1, 2)) + IH * Fraction(-3, 4) + u2 * Fraction(5, 3) + u3 * Fraction(7, 2)
    b = IH * Fraction(2, 5) - u3 * Fraction(1, 6)
    c = u2 * -3 + sym_coeff(Fraction(-9, 4))
    e = SymElement({((-1, 0, 1, 0),): a, ((0, 1, 2, 0), (0, 1, 2, 1)): b, (): c})
    assert _fmt_elem(e) == (
        "1: -9/4 + 0*i + (3 + 0*i)*h^2; "
        "(-1,0,1,0): 1/2 + 0*i + (0 + -3/4*i)*h^1 + (-5/3 + 0*i)*h^2 + (0 + -7/2*i)*h^3; "
        "(0,1,2,0)*(0,1,2,1): (0 + 2/5*i)*h^1 + (0 + 1/6*i)*h^3"
    )
    assert _fmt_elem(e.scale(u3)) == (
        "1: (0 + 9/4*i)*h^3 + (0 + -3*i)*h^5; "
        "(-1,0,1,0): (0 + -1/2*i)*h^3 + (-3/4 + 0*i)*h^4 + (0 + 5/3*i)*h^5 + (-7/2 + 0*i)*h^6; "
        "(0,1,2,0)*(0,1,2,1): (2/5 + 0*i)*h^4 + (1/6 + 0*i)*h^6"
    )
    assert _fmt_elem(SymElement.unit(IH)) == "1: (0 + 1*i)*h^1"
