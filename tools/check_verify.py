#!/usr/bin/env python3
"""Gate the protocol verification lab's results for CI's verify job.

Usage:
    tools/check_verify.py [--expect FILE=STATES/TRANSITIONS ...]
                          RESULT.json [RESULT2.json ...]

Each file is the --out JSON of one `gtsc_verify` invocation. Fails
(exit 1) when any file:

  * is missing, unreadable, or not a gtsc_verify result,
  * reports violations != 0 (an invariant witness or a forbidden
    litmus outcome — the report was already printed by gtsc_verify),
  * is an --explore result that did not fully enumerate its state
    space ("complete": false — a truncated run proves nothing),
  * is an --explore result named by an --expect whose unique-state or
    transition count differs from the pinned one, or
  * is a --litmus result that executed zero runs.

--expect pins an exploration's exact size. A visited set that wrongly
reports a state as seen closes a smaller space, cleanly and
"complete"; only the counts show it. FILE is the result path exactly
as it is given among the RESULT arguments, and --expect may repeat.
The counts change only when the model, the controllers or the
canonical-state quotient change on purpose. To regenerate them, run
the same `gtsc_verify --explore ... --out FILE` command and copy its
"states_visited" and "transitions" fields (gtsc_verify also prints
both on its last line).

Stdlib only, no third-party deps.
"""

import argparse
import json
import re
import sys


def parse_expect(text: str):
    m = re.fullmatch(r"(.+)=(\d+)/(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad --expect {text!r}: want FILE=STATES/TRANSITIONS")
    return m.group(1), (int(m.group(2)), int(m.group(3)))


def check(path: str, expect) -> bool:
    try:
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: {path}: {e}")
        return False

    mode = blob.get("mode")
    if mode not in ("explore", "litmus"):
        print(f"FAIL: {path}: not a gtsc_verify result (mode={mode!r})")
        return False

    ok = True
    violations = int(blob.get("violations", -1))
    if violations != 0:
        print(f"FAIL: {path}: {violations} violation(s)")
        for w in blob.get("witnesses", []):
            for v in w.get("violations", []):
                print(f"  witness: {v}")
        for fail in blob.get("failures", []):
            print(f"  litmus: seed={fail.get('seed')} "
                  f"cell={fail.get('cell')} spec={fail.get('spec')}")
        ok = False

    if expect is not None and mode != "explore":
        print(f"FAIL: {path}: --expect names a {mode} result")
        ok = False

    if mode == "explore":
        if not blob.get("complete", False):
            print(f"FAIL: {path}: exploration incomplete "
                  f"(states_visited={blob.get('states_visited')}, "
                  f"truncated={blob.get('truncated')})")
            ok = False
        if expect is not None:
            got = (int(blob.get("states_visited", -1)),
                   int(blob.get("transitions", -1)))
            if got != expect:
                print(f"FAIL: {path}: {got[0]} states / {got[1]} "
                      f"transitions, expected {expect[0]} / "
                      f"{expect[1]}")
                ok = False
        if ok:
            pinned = ", as pinned" if expect is not None else ""
            print(f"OK: {path}: {blob.get('states_visited')} states, "
                  f"{blob.get('transitions')} transitions{pinned}, "
                  f"complete, 0 violations "
                  f"({float(blob.get('states_per_sec', 0)):.0f} "
                  f"states/s)")
    else:
        runs = int(blob.get("runs", 0))
        if runs == 0:
            print(f"FAIL: {path}: litmus batch executed zero runs")
            ok = False
        if ok:
            print(f"OK: {path}: {blob.get('tests')} litmus tests, "
                  f"{runs} runs, 0 forbidden outcomes "
                  f"(seed {blob.get('seed')})")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Gate gtsc_verify --out results.")
    ap.add_argument("--expect", action="append", default=[],
                    type=parse_expect, metavar="FILE=STATES/TRANSITIONS",
                    help="pin an exploration's exact counts (repeatable)")
    ap.add_argument("results", nargs="+", metavar="RESULT.json")
    args = ap.parse_args()
    expects = dict(args.expect)
    unknown = sorted(set(expects) - set(args.results))
    if unknown:
        ap.error(f"--expect names a file that is not a RESULT: "
                 f"{', '.join(unknown)}")
    results = [check(p, expects.get(p)) for p in args.results]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
