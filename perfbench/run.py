#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fleet-day --seed 42 --seconds 20 --trace 0

Every argument is passed to perfbench/lgbench.exe (see lgbench.ml for the
full list); the last line of standard output is the JSON result. The
build goes to .bench_build/ in the checkout, with dune's shared cache off,
so nothing is read or written outside the checkout. Build output goes to
standard error. Exits 2 without a result when the checkout is incomplete
or the build fails.
"""

import glob
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/lgbench.exe"
# What must be present for the library to build.
REQUIRED = ["dune-project", "lib", "perfbench/dune", "perfbench/lgbench.ml"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_env():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune", path=env.get("PATH")) is None:
        # An opam switch that is installed but not on PATH.
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if not found:
            fail("dune not found on PATH")
        env["PATH"] = os.path.dirname(found[-1]) + os.pathsep + env.get("PATH", "")
    return env


def build():
    """Build lgbench.exe in the current checkout; return its path."""
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("run from the root of a repository checkout (missing: %s)" % ", ".join(missing))
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           TARGET]
    proc = subprocess.run(cmd, env=dune_env(), stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "default", "perfbench", "lgbench.exe")


def main(argv):
    exe = build()
    sys.stdout.flush()
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
