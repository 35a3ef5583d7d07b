#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--workload NAME] [--seconds S]

On one workload (default stored_shards: the shortest, and the one whose
traced run exercises every layer) it checks that
  1. the metric names and units printed by an untraced and a traced run
     equal BENCHMARK.json's end_to_end and per_layer lists;
  2. a second seed changes the output digest but not the metric set;
  3. the exact per-layer counts repeat bit for bit across two traced runs
     of one seed, and the traced run's digest equals the untraced one.
Exits 0 when every check passes.
"""
import argparse
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

# Counts that are pure functions of the seed: no perf change may move them.
EXACT = ("fault.sites_per_trial", "nn.unfaulted_trial_ratio",
         "store.journal_write_bytes", "store.shard_write_bytes",
         "dist.buckets_claimed", "dist.cells_recovered", "dist.cells_healed")


def digest_of(lines):
    for line in lines:
        if line.startswith("digest: "):
            return line.split()[1]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="stored_shards",
                        choices=bench.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    binary = bench.build()
    if binary is None:
        print("selftest: build failed")
        return 2

    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    runs = {}
    for key, seed, trace in (("a", 1, 0), ("b", 2, 0), ("ta", 1, 1),
                             ("tb", 1, 1)):
        code, lines, result = bench.run_once(binary, args.workload, seed,
                                             args.seconds, trace)
        check(code == 0 and result is not None and result["correct"],
              f"run seed={seed} trace={trace} succeeds with a valid result "
              "(metric names and units equal BENCHMARK.json's)")
        if result is None:
            return 1
        runs[key] = (digest_of(lines), result["metrics"])

    check(runs["a"][0] != runs["b"][0],
          "a new seed changes the digest "
          f"({runs['a'][0]} vs {runs['b'][0]})")
    check(sorted(runs["a"][1]) == sorted(runs["b"][1]),
          "a new seed keeps the metric set")
    check(runs["ta"][0] == runs["a"][0],
          "the traced run's digest equals the untraced one")
    for name in EXACT:
        va = runs["ta"][1][name]["value"]
        vb = runs["tb"][1][name]["value"]
        check(va == vb, f"{name} repeats exactly ({va!r} vs {vb!r})")
    print("selftest:", "passed" if not failures else
          f"{len(failures)} check(s) failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
