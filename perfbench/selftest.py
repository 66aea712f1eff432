#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny sizes of every workload.

Run from the root of a checkout:  python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that:
  * a --trace 0 run passes the gate and emits every end_to_end metric
    with its unit, and a --trace 1 run emits every per_layer metric;
  * a run with a deliberately mismatched digest fails the gate by name
    and counts all its operations as failed.
It also checks that a malformed flag value is a one-line error with exit
code 2. Exits 1 if any check fails.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def result(exe, args):
    proc = subprocess.run([exe] + args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]), proc.stdout
    except (IndexError, ValueError):
        return proc.returncode, None, proc.stdout + proc.stderr


def emits(res, specs, label):
    metrics = res["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        expect(m is not None and m["unit"] == spec["unit"]
               and isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               "%s emits %s in %s" % (label, spec["name"], spec["unit"]))
    extra = sorted(set(metrics) - {s["name"] for s in specs})
    expect(not extra, "%s emits no unlisted metric %s" % (label, extra))


def main():
    exe = run.build()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "42", "--seconds", "1", "--size", "tiny"]
        for trace, specs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = "%s --trace %s" % (name, trace)
            code, res, out = result(exe, base + ["--trace", trace])
            expect(code == 0 and res is not None, label + " exits 0 with a result")
            if res is None:
                print(out)
                continue
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   label + " passes the gate")
            emits(res, specs, label)
        for trace, check in (("0", "digest.repeat"), ("1", "digest.jobs")):
            label = "%s --trace %s --inject-mismatch" % (name, trace)
            code, res, out = result(exe, base + ["--trace", trace, "--inject-mismatch"])
            expect(res is not None and not res["correct"]
                   and res["failed"] == res["attempted"] >= 1
                   and ("check FAILED: " + check) in out,
                   label + " fails " + check)
    proc = subprocess.run([exe, "--workload", "fleet-day", "--seed", "x"],
                          capture_output=True, text=True)
    expect(proc.returncode == 2 and proc.stdout == ""
           and len(proc.stderr.strip().splitlines()) == 1,
           "a malformed --seed is a one-line error with exit code 2")
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
