#!/usr/bin/env python3
"""Build and run the CoStar-Go benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload json-reader --seed 1 --seconds 10 --trace 0

The Go program in this directory is its own module that builds against the
repository's packages (replace costar => ../). It is built into .bench_build/
at the repository root, with the Go build cache, module cache and temporary
files kept there too, and then run with the same arguments. Its last line of
standard output is the result object; the exit code is passed through. Traced
runs (--trace 1) also write their spans to .bench_build/spans/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("json-reader", "python-fresh", "serve-mixed")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/pkg/mod",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOWORK"] = "off"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: %s is not a CoStar-Go checkout (no go.mod or internal/)" % ROOT, file=sys.stderr)
        return 2

    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        print("perfbench: build failed:\n" + build.stdout, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
