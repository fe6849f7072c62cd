"""One benchmark child process: runs latticebv once and prints one JSON line.

    python3 perfbench/child.py MODE OVERRIDES_JSON

MODE is one of
  setup  import latticebv, merge the config and build a ModelBundle;
         reports setup_s (import + config merge + bundle construction)
  run    the path `latticebv run` takes: config merge -> suites.run_suites
         (workers=1) -> reporting.make_report -> reporting.render_report
  trace  as run, with the per-layer tracer installed first
  probe  as run; also lists the failing checks and their witnesses

`run`, `trace` and `probe` print the report with its timing fields stripped,
which must be byte-identical to a golden for fixed inputs.  The parent
measures wall and CPU time from outside; the child reports its own peak RSS.
latticebv must be imported from the directory PYTHONPATH names: `src/` of
the checkout, or the frozen baseline package in perfbench/baseline/.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time



def main(argv) -> int:
    mode, overrides = argv[1], json.loads(argv[2])
    start = time.perf_counter()
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import latticebv
    from latticebv import reporting, suites

    src = os.path.join(os.environ["PYTHONPATH"], "latticebv")
    if os.path.dirname(os.path.abspath(latticebv.__file__)) != src:
        print(f"latticebv imported from {latticebv.__file__}, not {src}", file=sys.stderr)
        return 3
    config = suites.merge_config(suites.DEFAULT_CONFIG, overrides)
    if mode == "setup":
        suites.ModelBundle(config)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    records = suites.run_suites(config, workers=1)
    report = reporting.make_report(config, records)
    reporting.render_report(report)  # rendered and discarded, as the CLI writes it
    out = {
        "stripped": reporting.render_report(reporting.strip_timing(report)) + "\n",
        "all_passed": report["all_passed"],
        "n_checks": report["n_checks"],
    }
    if mode == "probe":
        out["failing"] = {
            rec["identity"]: rec.get("witness")
            for rec in report["records"]
            if not rec["passed"]
        }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
