#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Runs one workload several times, each with another seed (or one seed
repeated), and prints for every metric its median, first and third quartile,
and spread: the distance between the quartiles as a share of the median,
with quartiles from statistics.quantiles(values, n=4). The bounds in
BENCHMARK.json are set from this report: a metric's spread must stay below
a third of its bound.

    python3 e2ebench/steadiness.py --workload movies-stream --runs 10
    python3 e2ebench/steadiness.py --workload segments-serve --runs 5 --trace
    python3 e2ebench/steadiness.py --workload movies-learn --runs 3 --same-seed

--trace runs the traced invocation after each untraced one and reports the
tracing overhead: the traced run's end-to-end medians minus the untraced
run's. --same-seed repeats one seed and reports whether the digests and the
count metrics repeated exactly. Run from anywhere; the benchmark command is
read from BENCHMARK.json and run from the repository root.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per-layer counts that must repeat exactly across runs of one seed.
EXACT = ["learn.clauses", "delta.reground_frac", "service.hit_ratio", "coalesce.batch_mean"]


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = re.findall(r"digest ([0-9a-f]{16})", proc.stdout)
    traced = {}
    for line in lines:
        if line.startswith("traced-e2e: "):
            traced = {k: v["value"] for k, v in json.loads(line[len("traced-e2e: "):]).items()}
    return result, digests, traced


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", action="store_true", help="also run traced and report the overhead")
    ap.add_argument("--same-seed", action="store_true", help="repeat --first-seed instead of varying it")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [args.first_seed if args.same_seed else args.first_seed + i for i in range(args.runs)]

    untraced, traced_e2e, layers, digests, failures = {}, {}, {}, set(), 0
    for seed in seeds:
        result, dig, _ = run_once(spec, args.workload, seed, seconds, False)
        failures += (not result["correct"]) + result["failed"]
        digests.add(tuple(dig))
        for name, m in result["metrics"].items():
            untraced.setdefault(name, []).append(m["value"])
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {summary}",
              flush=True)
        if args.trace:
            result, dig, e2e = run_once(spec, args.workload, seed, seconds, True)
            failures += (not result["correct"]) + result["failed"]
            for name, v in e2e.items():
                traced_e2e.setdefault(name, []).append(v)
            for name, m in result["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
            verified = result["metrics"].get("replay.verified", {}).get("value")
            print(f"seed {seed} traced: correct={result['correct']} replay.verified={verified}", flush=True)

    print(f"\n{args.workload}: {len(seeds)} runs of {seconds}s, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  steady")
    for name, values in untraced.items():
        med, q1, q3, s = spread(values)
        bound = bounds.get(name)
        steady = "" if bound is None else ("yes" if s < bound / 3 else "NO")
        if name == "setup_s":
            steady += " (exempt)"
        print(f"{name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{s:>9.3f}{bound or 0:>7.2f}  {steady}")
    if traced_e2e:
        print("\ntracing overhead (traced median - untraced median):")
        for name, values in traced_e2e.items():
            base = statistics.median(untraced[name])
            diff = statistics.median(values) - base
            print(f"  {name:<22}{diff:>+14.6g}  ({diff / base:+.1%})" if base else f"  {name:<22}{diff:>+14.6g}")
    if layers:
        print("\nper-layer medians:")
        for name, values in layers.items():
            print(f"  {name:<28}{statistics.median(values):>14.6g}  min {min(values):.6g} max {max(values):.6g}")
    if args.same_seed:
        print(f"\ndigests identical across runs: {len(digests) == 1}")
        for name in ["heldout_f1"] + EXACT:
            values = untraced.get(name) or layers.get(name)
            if values:
                print(f"  {name} repeated exactly: {len(set(values)) == 1} {sorted(set(values))}")
    print(f"\nfailed checks or calls: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
