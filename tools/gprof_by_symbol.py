#!/usr/bin/env python3
"""Self time per text symbol from a gprof (-pg) profile, clones included.

Usage:
    tools/gprof_by_symbol.py BINARY [GMON ...] [--top N]
        [--group 'LABEL=REGEX' ...]

`gprof -p` drops the local clones GCC emits (`[clone .part.0]`,
`.constprop.N`, `.isra.N`) and files their samples under the symbol
before them, so a function that GCC split reads too low and its
neighbour too high. This script reads the histogram records of each
GMON (default gmon.out) itself and charges each bin to the text symbol
of `nm -n -C BINARY` that holds the bin's first address, each clone as
its own symbol. Local symbols that share a demangled name (one copy
per translation unit) are summed under that name. Several GMON files,
from runs of the same binary, are summed too (`gprof -s` may abort on
them with "somebody miscounted").

It prints the share of all samples of the top N symbols (default 25).
Then, when --group is given, it prints the share of each group: the
symbols whose demangled name matches REGEX (re.search). A symbol
counts for the first group it matches; the rest is "other".

Example, from a RelWithDebInfo build configured with
-DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg:

    build-pg/examples/gtsc-sim run gtsc rc cc gpu.num_sms=8 \\
        gpu.warps_per_sm=12 gpu.num_partitions=4 wl.scale=32
    tools/gprof_by_symbol.py build-pg/examples/gtsc-sim gmon.out \\
        --group 'crossbar=noc::(Crossbar|ArrivalRing)'

Reads the 64-bit little-endian gmon.out that glibc writes on x86-64,
whose addresses are link-time addresses, as `nm` prints them.
Standard library only; needs binutils' nm.
"""

import argparse
import bisect
import re
import struct
import subprocess
import sys

GMON_HEADER = 20  # "gmon", version, 12 spare bytes
TAG_HIST, TAG_ARC, TAG_BB = 0, 1, 2


def read_histogram(path):
    """[(low_pc, bytes per bin, [count per bin], rate)] of GMON."""
    data = open(path, "rb").read()
    if data[:4] != b"gmon":
        raise SystemExit(f"{path}: not a gmon.out file")
    hists = []
    off = GMON_HEADER
    while off < len(data):
        tag = data[off]
        off += 1
        if tag == TAG_HIST:
            low, high, n, rate = struct.unpack_from("<QQii", data, off)
            off += 24 + 16  # the fields above, then the unit name
            counts = struct.unpack_from(f"<{n}H", data, off)
            off += 2 * n
            hists.append((low, (high - low) / n, counts, rate))
        elif tag == TAG_ARC:
            off += 20
        elif tag == TAG_BB:
            (n,) = struct.unpack_from("<i", data, off)
            off += 4 + 16 * n
        else:
            raise SystemExit(f"{path}: unknown record tag {tag}")
    return hists


def text_symbols(binary):
    """Sorted addresses and the demangled name at each."""
    out = subprocess.run(["nm", "-n", "-C", "--defined-only", binary],
                         capture_output=True, text=True, check=True)
    addrs, names = [], []
    for line in out.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in "TtWw":
            continue
        addr = int(parts[0], 16)
        if addrs and addrs[-1] == addr:
            continue  # an alias of the symbol before it
        addrs.append(addr)
        names.append(parts[2])
    return addrs, names


def main():
    ap = argparse.ArgumentParser(
        description="Self time per text symbol from a gprof profile")
    ap.add_argument("binary")
    ap.add_argument("gmon", nargs="*", default=["gmon.out"])
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--group", action="append", default=[],
                    metavar="LABEL=REGEX")
    args = ap.parse_args()

    groups = []
    for g in args.group:
        label, sep, regex = g.partition("=")
        if not sep:
            ap.error(f"--group '{g}' is not LABEL=REGEX")
        groups.append((label, re.compile(regex)))

    addrs, names = text_symbols(args.binary)
    samples = {}
    total = 0
    rate = 0
    for path in args.gmon:
        for low, per_bin, counts, rate in read_histogram(path):
            for i, c in enumerate(counts):
                if not c:
                    continue
                k = bisect.bisect_right(addrs, low + int(i * per_bin)) - 1
                name = names[k] if k >= 0 else "<before the first symbol>"
                samples[name] = samples.get(name, 0) + c
                total += c
    if total == 0:
        raise SystemExit("no samples in " + " ".join(args.gmon))

    print(f"samples: {total} ({total / rate:.2f} s at {rate} Hz)")
    ranked = sorted(samples.items(), key=lambda kv: -kv[1])
    for name, c in ranked[:args.top]:
        print(f"{100.0 * c / total:6.2f}% {c:8d}  {name}")
    if groups:
        shares = {label: 0 for label, _ in groups}
        shares["other"] = 0
        for name, c in samples.items():
            label = next((lb for lb, rx in groups if rx.search(name)),
                         "other")
            shares[label] += c
        print("groups:")
        for label, c in shares.items():
            print(f"{100.0 * c / total:6.2f}% {c:8d}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
