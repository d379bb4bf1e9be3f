#!/usr/bin/env python3
"""Interleaved A/B pairs of the repository benchmark on one host.

Usage:

    python3 perfbench/ab.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        [--pairs 10]

Each checkout is a source tree holding BENCHMARK.json, perfbench/ and
src/; each builds its own driver on its first run. The run length and the
workload list are the change's BENCHMARK.json (run_seconds, workloads),
so both sides run exactly as the benchmark sets them. Pair i runs every
workload once on each side with seed SEED_BASE + i, the parent first on
even pairs and the change first on odd ones, so slow drift on the host
lands on both sides alike.

For every workload x metric it prints each side's median and quartiles,
the change/parent ratio of the medians, and the change's win fraction
(pairs where the change read better; ties count for neither side), and
a verdict:

  gain        the change won >= 9/10 of the pairs and the medians differ
              by more than the parent's own quartile spread;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (q3 - q1) / median exceeds the bound,
              unless every change run beat every parent run;
  same        none of the above.

Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Seed of pair 0; pair i uses SEED_BASE + i.
SEED_BASE = 1000


def run_side(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"ab: {root} {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    host = next((ln[len("host: "):] for ln in lines
                 if ln.startswith("host: ")), "{}")
    return {k: v["value"] for k, v in result["metrics"].items()}, host


def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if spread > bound and not all_better:
        word = "unresolved"
    elif win_frac >= 0.9 and abs(cm - pm) > (p3 - p1):
        word = "gain"
    elif worse_by > bound:
        word = "regression"
    else:
        word = "same"
    return win_frac, spread, word


def main():
    ap = argparse.ArgumentParser(
        description="Interleaved A/B pairs of perfbench/run.py")
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    spec_path = sides["change"] / "BENCHMARK.json"
    if not spec_path.is_file():
        ap.error(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {}  # (workload, metric, side) -> [value per pair]
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        seed = SEED_BASE + i
        for wl in workloads:
            for side in order:
                got, host = run_side(sides[side], wl, seed, seconds)
                for name, v in got.items():
                    values.setdefault((wl, name, side), []).append(v)
                print(f"pair {i + 1}/{args.pairs} {wl:<8} {side:<6} "
                      f"seed {seed} host {host}", file=sys.stderr,
                      flush=True)

    print(f"{'workload':<9} {'metric':<28} {'parent q1/med/q3':<36} "
          f"{'change q1/med/q3':<36} {'ratio':>7} {'wins':>5} "
          f"{'p.spread':>8}  verdict")
    for wl in workloads:
        for name, m in metrics.items():
            parent = values[(wl, name, "parent")]
            change = values[(wl, name, "change")]
            win_frac, spread, word = verdict(
                parent, change, m["better"], m["bound"])
            pq = "/".join(f"{x:.5g}" for x in quartiles(parent))
            cq = "/".join(f"{x:.5g}" for x in quartiles(change))
            pm = statistics.median(parent)
            ratio = statistics.median(change) / pm if pm else float("nan")
            print(f"{wl:<9} {name:<28} {pq:<36} {cq:<36} {ratio:>7.4f} "
                  f"{win_frac:>5.2f} {spread:>8.4f}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
