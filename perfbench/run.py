#!/usr/bin/env python3
"""Build and run the seta benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the `seta-perfbench`
package in this directory against the checkout's crates (into
$CARGO_TARGET_DIR, default `.bench_build`), runs it, checks that the
reported metrics are exactly the ones `BENCHMARK.json` declares for the
mode, and prints the host provenance line, the binary's report lines and,
last, the JSON result line. Any failure exits non-zero without a result.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    """The checkout's commit, read from .git without running git (a
    checkout without .git reports "unknown")."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args):
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True, timeout=60
    ).stdout.strip()
    rustflags = os.environ.get("RUSTFLAGS", "")
    target_cpu = re.search(r"target-cpu=(\S+)", rustflags)
    return {
        "provenance": {
            "cpu_model": cpu_model(),
            "logical_cores": os.cpu_count(),
            "rustc": rustc,
            "rustflags": rustflags,
            "target_cpu": target_cpu.group(1) if target_cpu else "default",
            "git_rev": git_rev(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        fail(f"unknown workload {args.workload}")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(ROOT, target, "release", "seta-perfbench")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
    )
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    lines = run.stdout.splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result line has keys {sorted(result)}")
    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json {section}: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {sorted(k for k in want if k in got and got[k] != want[k])}")

    print(json.dumps(provenance(args)))
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
