#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which builds the library
from src/) into $CARGO_TARGET_DIR or .bench_build, runs the workload, and
prints the runner's output. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; its metric names are
checked against BENCHMARK.json before it is printed. Exit code 0 only when
the build worked, every operation succeeded and every output check agreed.

Steadiness mode repeats a workload on consecutive seeds and prints each
metric's median, quartiles and spread against its bound:

    python3 perfbench/run.py --steady 5 --workload deep_replay --seed 1

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deep_replay", "stored_shards")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures once, then builds the runner; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", out, "--target", "wfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "wfbench")


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    return contract["per_layer" if trace else "end_to_end"]


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    # Telemetry, chaos and kernel knobs of the library stay unset: timed
    # runs must measure the default configuration.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WINOFAULT_")}
    # A relative scratch directory keeps the daemon's socket path short.
    out_dir = os.path.relpath(os.path.join(build_dir(), "run"))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, lines, None
    expected = [(m["name"], m["unit"]) for m in contract_metrics(trace)]
    got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(expected) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result does not match BENCHMARK.json's metric names and units")
        return 1, lines[:-1], None
    return proc.returncode, lines, result


def steady(binary, args):
    defs = {m["name"]: m for m in contract_metrics(args.trace)}
    values = {name: [] for name in defs}
    for k in range(args.steady):
        seed = args.seed + k
        code, _, result = run_once(binary, args.workload, seed, args.seconds,
                                   args.trace)
        if code != 0 or result is None:
            log(f"run with seed {seed} failed (exit {code})")
            return 1
        for name in defs:
            values[name].append(result["metrics"][name]["value"])
        log(f"seed {seed} done")
    print(f"{args.workload}: {args.steady} runs, seeds {args.seed}.."
          f"{args.seed + args.steady - 1}, --seconds {args.seconds}")
    print(f"{'metric':42} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    worst = 0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = defs[name].get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "UNSTEADY")
            worst = max(worst, 0 if spread <= bound else 1)
        print(f"{name:42} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    print("per-run values, in seed order:")
    for name, vals in values.items():
        print(f"  {name}: " + " ".join(f"{v:.6g}" for v in vals))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat N times on seeds seed..seed+N-1 and "
                             "print medians, quartiles and spreads")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.steady:
        return steady(binary, args)
    code, lines, result = run_once(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
