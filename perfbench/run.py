"""The latticebv benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-golden

Run from the root of a source checkout; latticebv is imported from `src/`.
Each run of a workload is a fresh child process (closed loop, one client,
workers=1) that takes the path `latticebv run` takes.  Timed runs come in
pairs: the same config run by the frozen baseline package in
perfbench/baseline/ (latticebv as of the commit that defined this benchmark)
and by this checkout's latticebv, one right after the other, in alternating
order.  Pairs repeat until `--seconds` is spent (at least one), and the
end-to-end metrics are medians over them:

  wall_rel      wall time of this checkout's run over the baseline's, spawn
                to exit; 1 at the baseline, 0.5 when twice as fast
  cpu_rel       the same for user+sys CPU time
  setup_s       import of latticebv + config merge + ModelBundle, median of
                SETUP_REPS separate processes after one warm-up
  peak_rss_mib  max RSS of the run's process

The two runs of a pair get the same inputs and the same few seconds of the
host, so neither the work a seed draws nor the drift of a shared host's speed
moves the ratio.  Printed beside them, not in the result line:

  wall_s        wall time of one run, spawn to exit
  cpu_s         user+sys CPU time of the run's process
  base_wall_s   wall time of the baseline's run

The pairs cycle through SUBSEEDS config seeds derived from `--seed`
(workloads.sample_seed; the first is `--seed` itself).  Every run's report,
timing fields stripped, must equal the committed golden of its config seed
byte for byte (default seed), or for another seed pass every check and equal
the other runs of the same config seed; a run that does not is counted as
failed (golden_mismatch) and its pair is discarded.  The baseline's reports
are not checked.  Each invocation also runs the flipped-metric
failure-injection probe once, untimed.

With `--trace 1` one more run is made with the per-layer tracer installed
(tracer.py); the per-layer metrics and trace.overhead_ratio (traced wall /
untraced median wall_s) replace the end-to-end metrics in the result.

The last line of standard output is one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
`--smoke` runs every workload shrunk to the small config, with every metric
and the traced run, in seconds; it checks the harness, not the program's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden")
BASELINE = os.path.join(HERE, "baseline")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    DEFAULT_SEED, PROBE, PROBE_FAILING, SUBSEEDS, WORKLOADS, overrides, sample_seed,
)

SETUP_REPS = 11
# the end-to-end metrics of BENCHMARK.json; wall_s, cpu_s and base_wall_s are
# printed beside them
END_TO_END = ("wall_rel", "cpu_rel", "setup_s", "peak_rss_mib")
RUN_LIMIT_S = 170.0  # a whole invocation must end within this


class BenchError(Exception):
    pass


def child_env(package_root: str) -> dict:
    env = dict(os.environ)
    env.pop("LATTICEBV_WORKERS", None)  # the thread pool is racy and no faster
    # imports read cached bytecode, as from an installed package; the warm-up
    # runs write it beside the sources
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = package_root
    return env


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Spawns child processes one at a time and measures each from outside."""

    def __init__(self, started: float):
        self.started = started
        self.env = child_env(os.path.join(ROOT, "src"))
        self.base_env = child_env(BASELINE)
        self.nproc = os.cpu_count() or 1
        self.flagged = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, mode: str, config: dict, baseline: bool = False) -> dict:
        """Runs child.py MODE with this checkout's latticebv, or with the
        frozen baseline package if `baseline`."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("time limit reached")
        load_before = os.getloadavg()[0]
        cpu_before = os.times()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, json.dumps(config)],
            cwd=ROOT, env=self.base_env if baseline else self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} child did not finish within the time limit")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        cpu_after = os.times()
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["wall_s"] = wall
        result["cpu_s"] = (cpu_after.children_user - cpu_before.children_user
                           + cpu_after.children_system - cpu_before.children_system)
        result["load_before"] = load_before
        result["load_after"] = os.getloadavg()[0]
        if load_before > self.nproc:
            self.flagged += 1
        return result


def golden_name(workload: str, config_seed: int, smoke: bool = False) -> str:
    prefix = "smoke-" if smoke else ""
    if config_seed == DEFAULT_SEED:
        return f"{prefix}{workload}.json"
    return f"{prefix}{workload}.seed-{config_seed}.json"


def read_golden(name: str):
    path = os.path.join(GOLDEN, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_probe(runner: Runner) -> tuple:
    """Failure injection: the flipped metric must fail exactly the recorded
    checks with the recorded witnesses."""
    res = runner.child("probe", PROBE)
    failing = res["failing"]
    golden = read_golden("probe.json")
    expected = json.loads(golden)["failing"] if golden else None
    ok = sorted(failing) == PROBE_FAILING and (expected is None or failing == expected)
    return ok, res


class Check:
    """Compares each run's stripped report with the golden of its config seed,
    or for a config seed without one with the first run of that seed."""

    def __init__(self, goldens: dict):
        self.goldens = goldens  # config seed -> report text
        self.first = {}

    def __call__(self, res: dict, config_seed: int) -> bool:
        text = res["stripped"]
        if config_seed in self.goldens:
            return text == self.goldens[config_seed]
        first = self.first.setdefault(config_seed, text)
        return res["all_passed"] and text == first


def measure(runner: Runner, configs: dict, check: Check, seconds: float, reserve: float):
    """Timed pairs until `seconds` is spent, at least one, cycling through the
    config seeds of `configs`; `reserve` is the share of a pair's time to keep
    for work after the loop.  A pair runs the baseline package and this
    checkout's latticebv on the same config, in alternating order.  Returns
    (good runs, each with its pair's baseline times; attempted)."""
    seeds = list(configs)
    good, attempted = [], 0
    loop_start = time.perf_counter()
    pairs = []  # seconds of one pair
    while True:
        pair_start = time.perf_counter()
        config_seed = seeds[attempted % len(seeds)]
        if attempted % 2:
            res = runner.child("run", configs[config_seed])
            base = runner.child("run", configs[config_seed], baseline=True)
        else:
            base = runner.child("run", configs[config_seed], baseline=True)
            res = runner.child("run", configs[config_seed])
        pairs.append(time.perf_counter() - pair_start)
        attempted += 1
        res["base_wall_s"], res["base_cpu_s"] = base["wall_s"], base["cpu_s"]
        ok = check(res, config_seed)
        print(
            f"  run {attempted} (config seed {config_seed}): wall {res['wall_s']:.3f} s  "
            f"cpu {res['cpu_s']:.3f} s  baseline wall {base['wall_s']:.3f} s  "
            f"rss {res['peak_rss_mib']:.1f} MiB  "
            f"load {res['load_before']:.2f}->{res['load_after']:.2f}  "
            f"report {'ok' if ok else 'MISMATCH'}",
            flush=True,
        )
        if ok:
            good.append(res)
        typical = statistics.median(pairs)
        if (time.perf_counter() - loop_start + typical > seconds
                or typical * (1 + reserve) > runner.remaining()):
            break
    return good, attempted


def summarize(good: list, setup: list) -> dict:
    metrics = {}
    for name, unit, values in (
        ("wall_rel", "ratio", [r["wall_s"] / r["base_wall_s"] for r in good]),
        ("cpu_rel", "ratio", [r["cpu_s"] / r["base_cpu_s"] for r in good]),
        ("wall_s", "s", [r["wall_s"] for r in good]),
        ("cpu_s", "s", [r["cpu_s"] for r in good]),
        ("base_wall_s", "s", [r["base_wall_s"] for r in good]),
        ("setup_s", "s", setup),
        ("peak_rss_mib", "MiB", [r["peak_rss_mib"] for r in good]),
    ):
        if not values:
            continue
        q1, q3 = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit,
                         "n": len(values), "q1": q1, "q3": q3}
    return metrics


def print_metrics(metrics: dict, attempted: int, failed: int, prefix: str = "") -> None:
    for name, m in metrics.items():
        extra = f"  (n={m['n']}, q1 {m['q1']:.4f}, q3 {m['q3']:.4f})" if "n" in m else ""
        print(f"{prefix}{name:<40} {m['value']:>12.4f} {m['unit']}{extra}")
    print(f"{prefix}{'golden_mismatch':<40} {failed / attempted:>12.4f} share "
          f"({failed}/{attempted} runs)")


def bench_workload(runner, workload, seed, seconds, trace, smoke=False):
    """Set-up runs, timed runs and optionally the traced run of one workload.
    Returns (end-to-end metrics, per-layer metrics or None, attempted, failed)."""
    seeds = [sample_seed(seed, i) for i in range(1 if smoke else SUBSEEDS)]
    configs = {s: overrides(workload, s, smoke) for s in seeds}
    goldens = {}
    if seed == DEFAULT_SEED:
        for s in seeds:
            text = read_golden(golden_name(workload, s, smoke))
            if text is not None:
                goldens[s] = text
    check = Check(goldens)
    golden = f"{len(goldens)} golden reports" if goldens else "no golden (seed-self-consistency)"
    print(f"workload {workload}: config seeds {seeds}; {golden}")
    # warm-up: bytecode caches of both packages, file cache
    runner.child("setup", configs[seed])
    runner.child("setup", configs[seed], baseline=True)
    setup = [runner.child("setup", configs[seed])["setup_s"]
             for _ in range(1 if smoke else SETUP_REPS)]
    # the traced run takes about 1.2 untraced runs, 0.6 pairs
    good, attempted = measure(runner, configs, check, seconds, 0.7 if trace else 0.0)
    failed = attempted - len(good)
    metrics = summarize(good, setup)
    layers = None
    if trace:
        res = runner.child("trace", configs[seed])
        attempted += 1
        if check(res, seed):
            layers = dict(res["layers"])
            if good:
                layers["trace.overhead_ratio"] = res["wall_s"] / metrics["wall_s"]["value"]
        else:
            failed += 1
    return metrics, layers, attempted, failed


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    })


def print_layers(layers: dict, prefix: str = "") -> dict:
    out = {}
    for name in sorted(layers):
        out[name] = {"value": layers[name], "unit": layer_unit(name)}
        print(f"{prefix}{name:<40} {layers[name]:>14.4f} {out[name]['unit']}")
    return out


def print_context(runner, seed, args_text):
    print(f"context: nproc={runner.nproc} python={platform.python_version()} "
          f"commit={git_commit()} seed={seed} {args_text} "
          f"load1={os.getloadavg()[0]:.2f}", flush=True)


def cmd_workload(args, runner) -> int:
    print_context(runner, args.seed,
                  f"workload={args.workload} seconds={args.seconds} trace={args.trace}")
    probe_ok, probe = run_probe(runner)
    print(f"probe (kg, flipped metric): {'ok' if probe_ok else 'FAILED'}; "
          f"failing {sorted(probe['failing'])} in {probe['wall_s']:.2f} s", flush=True)
    metrics, layers, attempted, failed = bench_workload(
        runner, args.workload, args.seed, args.seconds, args.trace)
    print_metrics(metrics, attempted, failed)
    if runner.flagged:
        print(f"warning: {runner.flagged} runs started with load above nproc={runner.nproc}")
    correct = probe_ok and failed == 0
    out = print_layers(layers or {}) if args.trace else {
        name: metrics[name] for name in END_TO_END if name in metrics}
    print(result_line(correct, attempted, failed, out))
    return 0 if correct else 1


def cmd_smoke(runner) -> int:
    print_context(runner, DEFAULT_SEED, "smoke")
    probe_ok, probe = run_probe(runner)
    print(f"probe (kg, flipped metric): {'ok' if probe_ok else 'FAILED'}")
    attempted = failed = 0
    combined = {}
    for workload in WORKLOADS:
        metrics, layers, n, bad = bench_workload(  # seconds=0: one timed run
            runner, workload, DEFAULT_SEED, 0, True, smoke=True)
        print_metrics(metrics, n, bad, prefix=f"  {workload}.")
        print_layers(layers or {}, prefix=f"  {workload}.")
        attempted, failed = attempted + n, failed + bad
        for name, m in metrics.items():
            combined[f"{workload}.{name}"] = m
        for name, value in (layers or {}).items():
            combined[f"{workload}.{name}"] = {"value": value, "unit": layer_unit(name)}
    correct = probe_ok and failed == 0
    print(result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


def cmd_write_golden(runner) -> int:
    """Record the golden reports of this checkout's program at the default seed."""
    os.makedirs(GOLDEN, exist_ok=True)
    res = runner.child("probe", PROBE)
    with open(os.path.join(GOLDEN, "probe.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"failing": res["failing"]}, indent=2, sort_keys=True) + "\n")
    for smoke in (True, False):
        for workload in WORKLOADS:
            for i in range(1 if smoke else SUBSEEDS):
                config_seed = sample_seed(DEFAULT_SEED, i)
                res = runner.child("run", overrides(workload, config_seed, smoke))
                if not res["all_passed"]:
                    raise BenchError(f"{workload}: a check failed; golden not written")
                name = golden_name(workload, config_seed, smoke)
                with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
                    fh.write(res["stripped"])
                print(f"wrote golden/{name} ({res['n_checks']} checks, {res['wall_s']:.1f} s)",
                      flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    # a terminated benchmark stops its child too (see Runner.child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "latticebv", "__init__.py")):
        print(f"error: no latticebv sources under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(time.perf_counter())
    try:
        if args.write_golden:
            return cmd_write_golden(runner)
        if args.smoke:
            return cmd_smoke(runner)
        if args.workload is None:
            parser.error("--workload is required")
        return cmd_workload(args, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
