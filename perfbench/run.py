#!/usr/bin/env python3
"""Builds and runs the extsec benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first form builds the benchmark (a
release build of perfbench/ and the workspace crates it uses, into
$CARGO_TARGET_DIR or .bench_build) and runs one workload; the last line of
its output is the JSON result. The second form runs every workload briefly
and checks that each metric named in BENCHMARK.json is printed with its
unit, that the oracle saw no failure, and that a fixed seed gives the same
input digest twice.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    try:
        return subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = []
        for trace in ("0", "0", "1"):
            done = run(binary, ["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", trace])
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"selftest {workload}: run failed")
            result = json.loads(lines[-1])
            table = spec["per_layer"] if trace == "1" else spec["end_to_end"]
            for metric in table:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    sys.exit(f"selftest {workload}: {metric['name']} missing or mis-unit")
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"selftest {workload}: oracle failures ({result['failed']})")
            digests.append([ln for ln in lines if ln.startswith("digest:")])
        if not digests[0] or any(d != digests[0] for d in digests):
            sys.exit(f"selftest {workload}: input digest changed between runs")
        print(f"selftest {workload}: ok ({digests[0][0][:60]}...)")
    print("selftest: ok")


def main():
    binary = build()
    if sys.argv[1:] == ["--selftest"]:
        selftest(binary)
        return 0
    done = run(binary, sys.argv[1:])
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
