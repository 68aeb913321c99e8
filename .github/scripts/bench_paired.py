#!/usr/bin/env python3
"""Paired benchmark runs of a base checkout against a changed checkout.

    python3 .github/scripts/bench_paired.py --base DIR --change DIR --out DIR

For every workload that the change's `BENCHMARK.json` declares, runs
`python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace 0` in
both checkouts 5 times, alternating which side runs first. Each
checkout builds into its own target directory under --out, so the two
builds never share artifacts. Every output is kept under --out, one
`<workload>-<pair>-<side>.out` file per run.

Exits non-zero when any run fails, reports `correct` false or has
`failed > 0`, or when, for some `end_to_end` metric, the change is worse
than its partner run by more than that metric's `bound` (relative) in a
majority of the pairs. Both sides run on the same machine back to back,
so a pair compares like with like; a majority keeps one noisy pair from
failing the job.
"""

import argparse
import json
import os
import subprocess
import sys

PAIRS = 5
SECONDS = 5


def run_side(checkout, target_dir, workload, out_path):
    """Runs the benchmark once in `checkout`; returns its result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
    )
    with open(out_path, "w") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"{out_path}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def worse_by(metric, base, change):
    """How much worse `change` is than `base`, relative to `base` (no
    declared metric reads 0)."""
    delta = (change - base) / abs(base)
    return -delta if metric["better"] == "higher" else delta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--out", required=True, help="directory for results")
    args = parser.parse_args()

    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    sides = {
        "base": (os.path.abspath(args.base), os.path.join(out, "target-base")),
        "change": (os.path.abspath(args.change), os.path.join(out, "target-change")),
    }
    with open(os.path.join(sides["change"][0], "BENCHMARK.json")) as f:
        declared = json.load(f)

    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        pairs = []
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {}
            for side in order:
                checkout, target = sides[side]
                path = os.path.join(out, f"{workload}-{i}-{side}.out")
                result = run_side(checkout, target, workload, path)
                if result["correct"] is not True or result["failed"] > 0:
                    problems.append(f"{path}: correct={result['correct']} "
                                    f"failed={result['failed']}")
                pair[side] = result["metrics"]
            pairs.append(pair)

        for metric in declared["end_to_end"]:
            name = metric["name"]
            losses = [
                worse_by(metric, p["base"][name]["value"], p["change"][name]["value"])
                for p in pairs
            ]
            lost = sum(1 for loss in losses if loss > metric["bound"])
            shown = ", ".join(f"{loss:+.1%}" for loss in losses)
            print(f"{workload} {name}: worse by {shown}; "
                  f"{lost}/{len(pairs)} pairs beyond {metric['bound']:.0%}")
            if lost > len(pairs) // 2:
                problems.append(f"{workload} {name}: change worse than "
                                f"{metric['bound']:.0%} in {lost}/{len(pairs)} pairs")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
