#!/usr/bin/env python3
"""Interleaved A/B comparison of the end-to-end benchmark at two revisions.

Exports each side into its own directory (``git archive``; the working tree,
uncommitted changes included, when ``--head`` is omitted), builds its
e2ebench binary into its own target directory, then runs k interleaved
pairs per workload. Pair i runs the base first when i is even and the head
first when i is odd, so a drift in the machine's load hits both sides alike.

For every metric it prints each side's median and quartiles, the change of
the median, how many of the k pairs the head won (by the metric's direction
in BENCHMARK.json), and whether the medians differ by more than the
distance between the base's quartiles. For every side it prints the failed
share of operations (failed / attempted over all runs), whether every run
reported ``correct: true``, and the digests the runs printed.

For every end-to-end metric of BENCHMARK.json it then prints a
no-regression verdict against that metric's ``bound``, a fraction of the
base median:

    worse       the head median is worse than the base median by more than
                the bound;
    unresolved  the base's spread (quartile distance over median) exceeds
                the bound, and not every head run beats every base run;
    ok          otherwise.

    python3 scripts/ab_e2e.py --base HEAD~1 --pairs 10 --workloads movies-learn
    python3 scripts/ab_e2e.py --base main --head HEAD --seconds 15 --trace

Quartiles come from statistics.quantiles(values, n=4), as in
e2ebench/steadiness.py. Run from anywhere inside the repository.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """Write revision `rev` (or the working tree when `rev` is None) to `dest`."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.decode().split("\0")
        for name in filter(None, files):
            src = ROOT / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
    else:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def build(src, target):
    """Build the side's e2ebench binary into `target`; return its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", str(src / "e2ebench" / "Cargo.toml"), "--bin", "e2ebench"],
        cwd=src, env=env, check=True,
    )
    return target / "release" / "e2ebench"


def run_once(binary, src, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=src, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["digests"] = re.findall(r"digest ([0-9a-f]{16})", proc.stdout)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Distance between the quartiles as a fraction of the median."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, head, better, bound):
    """The no-regression verdict of one end-to-end metric (see the module doc)."""
    bmed, hmed = statistics.median(base), statistics.median(head)
    worsening = hmed - bmed if better == "lower" else bmed - hmed
    if worsening > bound * abs(bmed):
        return "worse"
    beats_all = max(head) < min(base) if better == "lower" else min(head) > max(base)
    if spread(base) > bound and not beats_all:
        return "unresolved"
    return "ok"


def report(workload, runs, directions, bounds):
    print(f"\n== {workload}: {len(runs['base'])} pairs")
    for side in ("base", "head"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        digests = sorted({" ".join(r["digests"]) for r in runs[side]})
        share = failed / attempted if attempted else 0.0
        print(f"  {side}: failed share {share:.4f} ({failed}/{attempted}), "
              f"correct {correct}, digests {' | '.join(digests)}")
    names = [m for m in runs["base"][0]["metrics"] if m in runs["head"][0]["metrics"]]
    print(f"  {'metric':<28} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34} "
          f"{'change':>8} {'wins':>6} {'beyond IQR':>10}")
    for name in names:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        better = directions.get(name, "lower")
        wins = sum((h < b) if better == "lower" else (h > b) for b, h in zip(base, head))
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        change = (hmed - bmed) / bmed * 100 if bmed else float("nan")
        beyond = abs(hmed - bmed) > (bq3 - bq1)
        print(f"  {name:<28} {bmed:>12.6g} [{bq1:>9.4g}, {bq3:>9.4g}] "
              f"{hmed:>12.6g} [{hq1:>9.4g}, {hq3:>9.4g}] {change:>+7.1f}% "
              f"{wins:>3}/{len(base):<2} {'yes' if beyond else 'no':>10}")
    print(f"  {'end-to-end metric':<28} {'bound':>6} {'base spread':>11}  verdict")
    for name, bound in bounds.items():
        if name not in names:
            continue
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        print(f"  {name:<28} {bound:>6.2f} {spread(base):>11.3f}  "
              f"{verdict(base, head, directions[name], bound)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--head", help="head revision (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10, help="interleaved pairs per workload")
    ap.add_argument("--seconds", type=int, default=15, help="measured seconds per run")
    ap.add_argument("--seed", type=int, default=501, help="traffic seed")
    ap.add_argument("--workloads", help="comma-separated (default: every workload in BENCHMARK.json)")
    ap.add_argument("--trace", action="store_true", help="run traced and compare per-layer metrics too")
    ap.add_argument("--work-dir", help="where the exports and target directories go (default: a new temporary directory)")
    ap.add_argument("--json", help="also write every run's result to this file")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    work = Path(args.work_dir) if args.work_dir else Path(tempfile.mkdtemp(prefix="ab_e2e_"))

    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        src = work / f"{side}-src"
        print(f"exporting and building {side} ({rev or 'working tree'}) in {src}", file=sys.stderr)
        export(rev, src)
        sides[side] = (build(src, work / f"{side}-target"), src)

    results = {}
    for workload in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                binary, src = sides[side]
                runs[side].append(run_once(binary, src, workload, args.seed, args.seconds, args.trace))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        report(workload, runs, directions, bounds)
        results[workload] = runs
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
