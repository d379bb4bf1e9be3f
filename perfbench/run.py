#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, print metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload coherent|explore \
        --seed N --seconds S --trace 0|1

The driver (perfbench/driver.cc) is built from source with CMake, Release
and LTO as in the top-level build, into $CARGO_TARGET_DIR/perfbench-<H>
(default .bench_build/perfbench-<H>), where H is a hash of this
checkout's path, so two checkouts never build or time each other's
sources. It runs the workload serially, a fixed number of passes: S over
the workload's nominal pass time (PASS_SECONDS), at least two. This
script checks correctness (every cell passes Workload::verify, every
count and per-cell stat digest repeats across the passes, the
exploration is complete with zero violations), aggregates the passes and
prints, as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer ones. The exit code is 0 when every check
passed and 1 when one failed. It is 2, with no result line, when the
sources are missing, the build fails or the driver runs out of time.
See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Paper's G-TSC-RC over TC-RC geomean speedup on the coherence-required
#: set (EXPERIMENTS.md, headline claims), the repo's only reference.
PAPER_GTSC_RC_OVER_TC_RC = 1.38

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "gpu.construct": "gpu.construct_s",
    "gpu.run": "gpu.run_s",
    "gpu.destroy": "gpu.destroy_s",
    "protocols.make": "protocols.make_s",
    "workloads.make": "workloads.make_s",
    "workloads.verify": "workloads.verify_s",
    "energy.compute": "energy.compute_s",
    "verify.model_init": "verify.init_s",
    "verify.explore": "verify.explore_s",
    "bench.harvest": "bench.harvest_s",
}
#: Spans whose self time is the benchmark's own glue code.
GLUE_SPANS = ("pass", "cell")

#: Nominal host seconds of one pass (README.md, Workloads). A run makes
#: --seconds / this many passes, so the pass count is the same for every
#: version of the code under test: a slower change takes longer instead
#: of getting fewer samples.
PASS_SECONDS = {"coherent": 2.5, "explore": 5.0}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    # A tree configured from another checkout would build and time that
    # checkout's sources, so every checkout gets its own.
    tag = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return target / f"perfbench-{tag}"


def build():
    """Configure (once) and build the driver; return its path."""
    tree = build_dir()
    if not (tree / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(tree), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return tree / "perfbench_driver"


def source_digest():
    """Short SHA-256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint(raw):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_rev": rev,
        "src_sha256": source_digest(),
        "build_type": raw["build_type"],
        "lto": raw["lto"],
    }


def div(a, b):
    return a / b if b else 0.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def check(raw):
    """Correctness gate.

    Returns (attempted, failed, messages): cells (or explorations) run,
    how many of them failed a check, and one message per failed check.
    """
    passes = raw["passes"]
    labels = [c["label"] for c in raw["cells"]]
    ref = passes[0]
    messages = []
    failed_units = set()

    def fail(index, unit, text):
        failed_units.add((index, unit))
        messages.append(f"pass {index}: {unit}: {text}")

    for p in passes:
        i = p["index"]
        for f in p["failures"]:
            unit, _, text = f.partition(": ")
            fail(i, unit, text)
        for label, cell, ref_cell in zip(labels, p["cells"],
                                         ref["cells"]):
            if cell["digest"] != ref_cell["digest"]:
                fail(i, label, f"stats digest {cell['digest']} differs "
                     f"from pass 0 ({ref_cell['digest']})")
        for key, value in p["counts"].items():
            if ref["counts"].get(key) != value:
                fail(i, "counts", f"{key} = {value} differs from pass 0")
    attempted = sum(p["attempted"] for p in passes)
    return attempted, min(len(failed_units), attempted), messages


def items(counts, explore):
    return counts["states"] if explore else counts["cycles"]


def end_to_end(raw, explore):
    """End-to-end metrics from the untraced passes.

    Each time is the median over the passes of one pass's figure (its
    cells summed), so it is the time of a pass that ran, and the pass
    count is fixed per workload.
    Returns (metrics, per-pass series for the report).
    """
    passes = [p for p in raw["passes"] if not p["traced"]]
    series = {
        "setup_s": [p["setup_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "throughput_per_s": [div(items(p["counts"], explore), p["main_s"])
                             for p in passes],
    }
    units = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s"}
    metrics = {k: {"value": median(series[k]), "unit": units[k]}
               for k in units}
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    return metrics, series


def model_accuracy(raw):
    """Geomean G-TSC-RC over TC-RC cycle speedup of the workload's cells.

    Returns (speedup, signed relative error against the paper's ~1.38x
    on the coherence-required set); both are 0 on `explore`, which has
    no cells.
    """
    cycles = {(c["workload"], c["protocol"], c["consistency"]): o["cycles"]
              for c, o in zip(raw["cells"], raw["passes"][0]["cells"])}
    ratios = [cycles[(w, "tc", "rc")] / cycles[(w, "gtsc", "rc")]
              for (w, p, cons) in cycles if (p, cons) == ("gtsc", "rc")]
    if not ratios:
        return 0.0, 0.0
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return geo, geo / PAPER_GTSC_RC_OVER_TC_RC - 1.0


def per_layer(raw, attempted, failed):
    passes = raw["passes"]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    c = passes[0]["counts"]
    g = c.get
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def self_time(span):
        return median([p["self_s"].get(span, 0.0) for p in traced])

    for span, name in SELF_TIME_METRICS.items():
        put(name, self_time(span), "s")
    put("bench.self_s", sum(self_time(s) for s in GLUE_SPANS), "s")

    run_s = self_time("gpu.run")
    explore_s = self_time("verify.explore")
    cycles = g("cycles", 0)
    instrs = g("instructions", 0)
    put("sim_mcyc_per_s", div(cycles / 1e6, run_s), "Mcyc/s")
    put("sim_kips", div(instrs / 1e3, run_s), "kinstr/s")
    put("explore_states_per_s", div(g("states", 0), explore_s), "1/s")
    put("gpu.run_ns_per_cycle", div(run_s * 1e9, cycles), "ns")
    put("gpu.run_ns_per_instr", div(run_s * 1e9, instrs), "ns")

    slots = g("issue_slots_used", 0)
    put("gpu.issue_slots_used", slots, "count")
    put("gpu.issue_slots_per_instr", div(slots, instrs), "ratio")
    put("gpu.sm_ticks", g("sm_ticks", 0), "count")
    put("gpu.fast_forwarded_cycles", g("fast_forwarded", 0), "cycles")
    for comp in ("sm", "l1", "l2", "noc", "dram"):
        put(f"gpu.activity.{comp}",
            div(g(f"activity_cycles.{comp}", 0), cycles), "frac")

    for key in ("l1.tag_accesses", "l1.hits", "l1.miss_expired",
                "l1.rejects_mshr_full", "l1.renewals_sent", "l2.accesses",
                "l2.renewals", "l2.stall_mshr_full"):
        put(key, g(key, 0), "count")
    put("l1.reject_ratio",
        div(g("l1.rejects_mshr_full", 0), g("l1.tag_accesses", 0)), "frac")

    packets = g("noc.req.packets", 0) + g("noc.resp.packets", 0)
    put("noc.packets", packets, "count")
    put("noc.bytes", g("noc.req.bytes", 0) + g("noc.resp.bytes", 0), "B")
    put("noc.ticks", g("noc_ticks", 0), "count")
    put("noc.pops_per_tick", div(packets, g("noc_ticks", 0)), "ratio")
    put("noc.latency_p99", g("noc.latency_p99", 0), "cycles")

    put("dram.accesses", g("dram.reads", 0) + g("dram.writes", 0), "count")
    put("energy.total_uj", g("energy_j", 0) * 1e6, "uJ")

    put("verify.states", g("states", 0), "count")
    put("verify.transitions", g("transitions", 0), "count")
    put("verify.dedup_ratio", div(g("deduped", 0), g("transitions", 0)),
        "frac")

    put("sim.cycles", cycles, "cycles")
    put("sim.instructions", instrs, "count")
    put("sim.ipc", div(instrs, cycles), "instr/cycle")
    cells = passes[0]["cells"]
    digest = hashlib.sha256(
        "".join(cell["digest"] for cell in cells).encode()).hexdigest()
    put("sim.stats_digest", int(digest[:12], 16) if cells else 0, "hash48")

    geo, err = model_accuracy(raw)
    put("model.gtsc_rc_over_tc_rc", geo, "ratio")
    put("model.err_vs_paper", abs(err), "frac")

    # Median pass of each kind, as for the end-to-end figures.
    wall_traced = median([p["wall_s"] for p in traced])
    wall_untraced = median([p["wall_s"] for p in untraced])
    put("trace.overhead_s", wall_traced - wall_untraced, "s")
    put("trace.overhead_frac",
        div(wall_traced - wall_untraced, wall_untraced), "frac")
    put("trace.spans_per_pass", div(raw["spans"], len(traced)), "count")
    put("fail_frac", div(failed, attempted), "frac")
    return out


def describe(raw, host, e2e, series, layers):
    """Human-readable report; `layers` is None on an untraced run."""
    passes = raw["passes"]
    explore = raw["workload"] == "explore"
    n_traced = sum(p["traced"] for p in passes)
    what = ("exhaustive SC enumeration of the default verify model "
            "(deterministic, the seed is not used)" if explore else
            f"{len(raw['cells'])} cells/pass, wl.scale={raw['wl_scale']},"
            f" wl.seed={raw['seed']}; every cell starts with cold "
            f"modelled caches")
    print(f"perfbench {raw['workload']}: {len(passes)} passes "
          f"({len(passes) - n_traced} untraced, {n_traced} traced); "
          f"{what}")
    print("host: " + json.dumps(host, sort_keys=True))
    for name, xs in series.items():
        q1, q3 = quartiles(xs)
        print(f"  {name:<18} {e2e[name]['value']:.6g} {e2e[name]['unit']}"
              f"  (median of {len(xs)} passes; q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'peak_rss_mb':<18} {raw['peak_rss_mb']:.6g} MB")
    if not explore:
        geo, err = model_accuracy(raw)
        print(f"model: G-TSC-RC / TC-RC geomean cycle speedup "
              f"{geo:.4f}x vs the paper's ~{PAPER_GTSC_RC_OVER_TC_RC}x"
              f" (err {err:+.1%}); the synthetic workloads are "
              f"otherwise unvalidated")
    if layers:
        print("self time per span (median of traced passes), seconds:")
        rows = [(name, layers[name]["value"])
                for name in list(SELF_TIME_METRICS.values()) +
                ["bench.self_s"]]
        for name, value in sorted(rows, key=lambda r: -r[1]):
            print(f"  {name:<20} {value:.6f}")
        print(f"  tracing overhead: {layers['trace.overhead_s']['value']:+.6f}"
              f" s per pass ({layers['trace.overhead_frac']['value']:+.2%})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: simulator sources not found under {ROOT / 'src'}")
        return 2
    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    n_passes = max(2, round(args.seconds / PASS_SECONDS[args.workload]))
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--passes", str(n_passes), "--trace",
           str(args.trace), "--trace-out", str(out_dir / f"{stem}.trace.json")]
    # A fixed pass count runs longer on slower code; allow 3x the
    # nominal time before calling it a hang.
    timeout = 3 * args.seconds + 60
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {timeout:g} s; no result")
        return 2
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    explore = args.workload == "explore"
    host = host_fingerprint(raw)
    attempted, failed, failures = check(raw)
    e2e, series = end_to_end(raw, explore)
    layers = per_layer(raw, attempted, failed) if args.trace else None
    raw["host"] = host
    (out_dir / f"{stem}.json").write_text(json.dumps(raw) + "\n")

    describe(raw, host, e2e, series, layers)
    for f in failures:
        print(f"FAIL {f}")
    print(f"fail_frac: {failed}/{attempted}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": layers or e2e}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
