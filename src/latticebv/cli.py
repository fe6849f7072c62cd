"""Command-line entry point: configure a model, run verification suites,
emit a machine-readable report.

Subcommands:
  run          execute suites; exit 0 iff every identity check passed
  explain      show the statement and test strategy behind an identity id
  list-suites  list suite names and their registered identities

The worker count for suite dispatch can be overridden with the
LATTICEBV_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    run_p.add_argument("--model", choices=["kg", "maxwell2d"], help="override the model")
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
        if "all" in args.suite:
            suites = list(SUITE_NAMES)
        else:
            suites = list(dict.fromkeys(args.suite))
        config = merge_config(config, {"suites": suites})
    return config


def worker_count(config: dict) -> int:
    """The suite worker count: LATTICEBV_WORKERS if set, else the config's
    "workers"; a positive integer, or ValueError."""
    name, raw = "LATTICEBV_WORKERS", os.environ.get("LATTICEBV_WORKERS")
    if raw is None:
        name, raw = "workers", config.get("workers", 1)
    try:
        workers = int(raw)
    except (TypeError, ValueError):
        workers = 0
    if workers < 1 or isinstance(raw, (bool, float)):
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return workers


def cmd_run(args) -> int:
    try:
        config = load_config(args)
        workers = worker_count(config)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        records = run_suites(config, workers=workers)
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = make_report(config, records)
    text = render_report(report)
    with open(args.report_out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    if not args.quiet:
        for rec in report["records"]:
            mark = "PASS" if rec["passed"] else "FAIL"
            print(f"[{mark}] {rec['suite']}/{rec['identity']}: {rec['statement']}")
            if not rec["passed"] and rec.get("witness"):
                print(f"       witness: {rec['witness']}")
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
