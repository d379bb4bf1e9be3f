#!/usr/bin/env python3
"""Gate the repo benchmark's `coherent` result for CI's perf-smoke job.

Usage:
    python3 perfbench/run.py --workload coherent --seed 1 --seconds 5 \
        --trace 0 > PERF_coherent.txt
    python3 perfbench/run.py --workload coherent --seed 1 --seconds 5 \
        --trace 1 > PERF_coherent_traced.txt
    tools/check_single_thread_perf.py PERF_coherent.txt \
        --traced PERF_coherent_traced.txt

Reads the result line perfbench prints last (see perfbench/README.md)
and fails (exit 1) when:

  * there is no result line,
  * `correct` is false or `failed` is above 0 (a cell failed
    Workload::verify, or a digest or count did not repeat across
    passes), or
  * `throughput_per_s`, the simulated cycles per host second inside
    GpuSystem::run() over the 24 fig12 coherence cells, is below
    MIN_THROUGHPUT (505000, i.e. 0.505 Mcyc/s).

The floor is a cliff guard, not a speedup gate: hosted runners are
slow and noisy. It catches an accidental debug build or a quadratic
scan in the main loop, not single-digit regressions; compare
interleaved A/B runs (perfbench/ab.py) for those. It replaces a
0.50 Mcyc/s floor on the geomean of 16 fig12 cells, scaled by the
median ratio of this number to that geomean over ten interleaved
pairs on one 4-vCPU Xeon guest (1.0095; quartiles 0.92 and 1.15).

With --traced, it also reads the result line of a traced run of the
same workload and seed, and fails unless that run is correct and each
count in TRACED_COUNTS equals its pinned value. These counts are sums
over the 24 cells of one pass: they depend on the model and the seed,
never on the host or the pass count. A change meant only to make the
simulator faster must leave them alone; `gpu.sm_ticks`,
`gpu.issue_slots_used` and `noc.ticks` also move when the main loop
ticks a component it used to skip, which no golden shows. To
regenerate them after an intended timing-model change (the same
change regenerates the goldens under tests/integration/goldens/), run

    python3 perfbench/run.py --workload coherent --seed 1 --seconds 5 \
        --trace 1

and copy the six values from its result line into TRACED_COUNTS.

Stdlib only, no third-party deps.
"""

import argparse
import json
import sys

#: Simulated cycles per second floor on `throughput_per_s`.
MIN_THROUGHPUT = 505000

#: Per-pass counts of the traced `coherent` run at seed 1.
TRACED_COUNTS = {
    "sim.stats_digest": 137426080732014,
    "gpu.sm_ticks": 2019990,
    "gpu.issue_slots_used": 7074072,
    "noc.ticks": 1984486,
    "noc.packets": 2843928,
    "l1.tag_accesses": 7270806,
}


def result_line(path):
    """The last non-empty line of the report, parsed, or None."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def passed(result):
    """Print the correctness summary; True when every check passed."""
    correct = result.get("correct") is True
    n_failed = result.get("failed", 0)
    attempted = result.get("attempted", 0)
    print(f"correct: {correct}, failed: {n_failed}/{attempted}")
    if not correct or n_failed > 0 or attempted <= 0:
        print("FAIL: the benchmark's correctness checks did not pass")
        return False
    return True


def metric(result, name):
    return result.get("metrics", {}).get(name, {}).get("value")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="stdout of perfbench/run.py "
                        "--workload coherent --trace 0")
    parser.add_argument("--traced", metavar="REPORT",
                        help="stdout of perfbench/run.py --workload "
                        "coherent --seed 1 --trace 1")
    args = parser.parse_args()

    result = result_line(args.report)
    if result is None:
        print(f"FAIL: no perfbench result line in {args.report}")
        return 1

    failed = not passed(result)
    value = metric(result, "throughput_per_s") or 0.0
    line = f"throughput_per_s: {value:.0f} cycles/s, floor {MIN_THROUGHPUT}"
    if value < MIN_THROUGHPUT:
        line = "FAIL: " + line
        failed = True
    print(line)

    if args.traced:
        traced = result_line(args.traced)
        if traced is None:
            print(f"FAIL: no perfbench result line in {args.traced}")
            return 1
        failed |= not passed(traced)
        for name, want in TRACED_COUNTS.items():
            got = metric(traced, name)
            line = f"{name}: {got}, pinned {want}"
            if got != want:
                line = "FAIL: " + line
                failed = True
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
