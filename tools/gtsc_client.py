#!/usr/bin/env python3
"""Minimal client for the gtscd simulation-serving daemon.

Talks line-delimited JSON over the daemon's unix socket (protocol in
docs/SERVING.md) and renders per-cell results as they stream back.
Stdlib only — usable from CI, notebooks and shell scripts without a
virtualenv.

Usage:
    tools/gtsc_client.py --socket PATH ping [--wait SECS]
    tools/gtsc_client.py --socket PATH stats
    tools/gtsc_client.py --socket PATH run \
        --cell WORKLOAD:PROTOCOL:CONSISTENCY [--cell ...] \
        [--set key=value ...] [--jobs N] [--no-store] \
        [--expect-hits N] [--expect-misses N] [--json]
    tools/gtsc_client.py --socket PATH shutdown

Examples:
    # Wait for a freshly launched daemon to come up.
    tools/gtsc_client.py --socket /tmp/gtscd.sock ping --wait 30

    # Run two cells of the fig12 matrix; exit 1 unless both were
    # cache misses (fresh simulations).
    tools/gtsc_client.py --socket /tmp/gtscd.sock run \
        --cell bh:tc:sc --cell bh:gtsc:rc \
        --set gpu.max_cycles=20000 --expect-misses 2

Exit status: 0 on success, 1 on daemon errors or unmet
--expect-hits / --expect-misses, 2 on usage / connection failure.
"""

import argparse
import json
import socket
import sys
import time


def connect(path: str, wait: float) -> socket.socket:
    """Connect to the daemon, retrying for up to `wait` seconds."""
    deadline = time.monotonic() + wait
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError as e:
            sock.close()
            if time.monotonic() >= deadline:
                print(f"gtsc_client: cannot connect to {path}: {e}",
                      file=sys.stderr)
                sys.exit(2)
            time.sleep(0.2)


def request(sock: socket.socket, req: dict):
    """Send one request; yield response objects until its final one.

    The daemon streams `result` lines for a run before the terminal
    `done` / `pong` / `stats` / `bye` / `error` line.
    """
    sock.sendall((json.dumps(req) + "\n").encode())
    buf = b""
    while True:
        nl = buf.find(b"\n")
        if nl < 0:
            chunk = sock.recv(65536)
            if not chunk:
                print("gtsc_client: daemon closed the connection",
                      file=sys.stderr)
                sys.exit(2)
            buf += chunk
            continue
        line, buf = buf[:nl], buf[nl + 1:]
        resp = json.loads(line)
        yield resp
        if resp.get("op") in ("done", "pong", "stats", "bye",
                              "error"):
            return


def parse_cell(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        print(f"gtsc_client: bad --cell '{text}' "
              f"(want WORKLOAD:PROTOCOL:CONSISTENCY)",
              file=sys.stderr)
        sys.exit(2)
    return {"workload": parts[0], "protocol": parts[1],
            "consistency": parts[2]}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--socket", required=True,
                        help="gtscd unix socket path")
    parser.add_argument("command",
                        choices=["ping", "stats", "run", "shutdown"])
    parser.add_argument("--wait", type=float, default=0.0,
                        help="seconds to retry the connection "
                             "(and, for ping, the ping itself)")
    parser.add_argument("--cell", action="append", default=[],
                        metavar="W:P:C",
                        help="workload:protocol:consistency cell "
                             "(repeatable)")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="base config override (repeatable)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="sweep workers for this request")
    parser.add_argument("--no-store", action="store_true",
                        help="bypass the result store for this run")
    parser.add_argument("--expect-hits", type=int, default=None,
                        help="fail unless exactly N cells were "
                             "cache hits")
    parser.add_argument("--expect-misses", type=int, default=None,
                        help="fail unless exactly N cells were "
                             "simulated fresh")
    parser.add_argument("--json", action="store_true",
                        help="print raw response lines instead of "
                             "the table")
    args = parser.parse_args()

    sock = connect(args.socket, args.wait)

    if args.command == "ping":
        for resp in request(sock, {"op": "ping", "id": "cli"}):
            if args.json:
                print(json.dumps(resp))
            elif resp.get("op") == "pong":
                print(f"pong schema={resp.get('schema')} "
                      f"code={resp.get('code')} "
                      f"store={resp.get('store') or '(none)'}")
            else:
                print(json.dumps(resp))
                return 1
        return 0

    if args.command in ("stats", "shutdown"):
        ok = True
        for resp in request(sock, {"op": args.command, "id": "cli"}):
            print(json.dumps(resp))
            ok = ok and resp.get("ok", False)
        return 0 if ok else 1

    # run
    if not args.cell:
        print("gtsc_client: run needs at least one --cell",
              file=sys.stderr)
        return 2
    config = {}
    for ov in args.overrides:
        key, sep, value = ov.partition("=")
        if not sep:
            print(f"gtsc_client: bad --set '{ov}'", file=sys.stderr)
            return 2
        config[key] = value
    req = {"op": "run", "id": "cli",
           "cells": [parse_cell(c) for c in args.cell]}
    if config:
        req["config"] = config
    if args.jobs:
        req["jobs"] = args.jobs
    if args.no_store:
        req["store"] = False

    hits = misses = 0
    failed = False
    for resp in request(sock, req):
        if args.json:
            print(json.dumps(resp))
        if not resp.get("ok", False):
            if not args.json:
                print(f"error: {resp.get('message')}",
                      file=sys.stderr)
            failed = True
            continue
        op = resp.get("op")
        if op == "result":
            cached = resp.get("cached", False)
            hits += 1 if cached else 0
            misses += 0 if cached else 1
            if not args.json:
                cell = req["cells"][resp["cell"]]
                result = resp.get("result", {})
                print(f"[{resp['cell']}] "
                      f"{cell['workload']}/{cell['protocol']}-"
                      f"{cell['consistency']}: "
                      f"{'hit ' if cached else 'miss'} "
                      f"cycles={result.get('cycles')} "
                      f"insns={result.get('instructions')} "
                      f"key={resp.get('key', '')[:12]}")
        elif op == "done" and not args.json:
            print(f"done: {resp.get('cells')} cells, "
                  f"{resp.get('hits')} hits, "
                  f"{resp.get('misses')} misses in "
                  f"{resp.get('seconds')}s")

    if args.expect_hits is not None and hits != args.expect_hits:
        print(f"FAIL: expected {args.expect_hits} hits, got {hits}",
              file=sys.stderr)
        failed = True
    if args.expect_misses is not None and misses != args.expect_misses:
        print(f"FAIL: expected {args.expect_misses} misses, "
              f"got {misses}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
