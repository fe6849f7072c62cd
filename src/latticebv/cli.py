"""Command-line entry point: configure a model, run verification suites,
emit a machine-readable report.

Subcommands:
  run          execute suites; exit 0 iff every identity check passed
  explain      show the statement and test strategy behind an identity id
  list-suites  list suite names and their registered identities
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .models import MODEL_BUILDERS
from .reporting import CATALOG, SUITE_NAMES, catalog_for_suite, make_report, render_report
from .suites import DEFAULT_CONFIG, merge_config, run_suites

EXTENDED_OVERRIDES = {
    "windows": {
        "basis_t": [-3, 3],
        "basis_x": [-3, 3],
        "green_t": [-16, 16],
        "homotopy_t": [-4, 4],
        "homotopy_x": [0, 2],
    },
    "samples": {
        "algebra_elements": 1000,
        "algebra_binomial": 80,
        "random_sections": 16,
        "word_samples": 40,
        "comparison_words_per_length": 20,
        "comparison_pairs": 24,
        "tuple_reps": 8,
        "timeslice_words": 8,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticebv",
        description="Exact verification of BV and Moyal-Weyl quantizations on lattice spacetimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run verification suites")
    run_p.add_argument("--config", help="JSON config file (merged over defaults)")
    run_p.add_argument("--seed", type=int, help="override the RNG seed")
    run_p.add_argument(
        "--suite",
        action="append",
        help="suite to run (repeatable); 'all' selects every suite",
    )
    run_p.add_argument("--model", choices=list(MODEL_BUILDERS), help="override the model")
    run_p.add_argument(
        "--extended",
        action="store_true",
        help="larger windows and sample counts",
    )
    run_p.add_argument(
        "--report-out",
        default="latticebv-report.json",
        help="path for the JSON report (default: %(default)s)",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress per-identity progress lines"
    )

    explain_p = sub.add_parser("explain", help="describe an identity check")
    explain_p.add_argument("identity", help="identity id, e.g. comparison-chain-map")

    sub.add_parser("list-suites", help="list suites and their identities")
    return parser


def load_config(args) -> dict:
    config = DEFAULT_CONFIG
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError("config file must contain a JSON object")
        config = merge_config(config, user)
    if args.extended:
        config = merge_config(config, EXTENDED_OVERRIDES)
    if args.seed is not None:
        config = merge_config(config, {"seed": args.seed})
    if args.model is not None:
        config = merge_config(config, {"model": args.model})
    if args.suite:
        suites = list(dict.fromkeys(SUITE_NAMES if "all" in args.suite else args.suite))
        config = merge_config(config, {"suites": suites})
    return config


def check_report_path(path: str) -> None:
    """Reject a report path that cannot be written, before any suite runs:
    the empty path, a folder, a path in a missing or read-only folder, or a
    read-only file (an existing file needs only its own write permission)."""
    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if not path or os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ValueError(f"--report-out {path!r} cannot be written")


def print_record(rec) -> None:
    """The progress line of one check, printed as the check ends."""
    info = CATALOG[rec.identity]
    mark = "PASS" if rec.passed else "FAIL"
    print(f"[{mark}] {info.suite}/{rec.identity}: {info.statement}", flush=True)
    if not rec.passed and rec.witness:
        print(f"       witness: {rec.witness}", flush=True)


def cmd_run(args) -> int:
    try:
        config = load_config(args)
        check_report_path(args.report_out)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        records = run_suites(config, on_record=None if args.quiet else print_record)
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = make_report(config, records)
    text = render_report(report)
    with open(args.report_out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    n_fail = sum(1 for rec in report["records"] if not rec["passed"])
    print(
        f"{report['n_checks'] - n_fail}/{report['n_checks']} checks passed "
        f"(model={report['model']}, seed={report['seed']}); report: {args.report_out}"
    )
    return 0 if report["all_passed"] else 1


def cmd_explain(args) -> int:
    info = CATALOG.get(args.identity)
    if info is None:
        print(f"unknown identity {args.identity!r}; valid ids:", file=sys.stderr)
        for key in sorted(CATALOG):
            print(f"  {key}", file=sys.stderr)
        return 2
    print(f"identity:  {args.identity}")
    print(f"suite:     {info.suite}")
    print(f"statement: {info.statement}")
    print(f"strategy:  {info.strategy}")
    return 0


def cmd_list_suites() -> int:
    for suite in SUITE_NAMES:
        ids = catalog_for_suite(suite)
        print(f"{suite} ({len(ids)} checks)")
        for key in ids:
            print(f"  {key}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.command == "list-suites":
        return cmd_list_suites()
    parser.error("no command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
