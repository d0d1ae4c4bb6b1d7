#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the repository root. The build tree is $CARGO_TARGET_DIR, or
.bench_build when that is unset; inputs go to <build tree>/work. Each run
builds (a no-op when nothing changed), runs the oracle self-test, generates
the workload's inputs for the seed in a separate process, then measures
them. The measuring process prints an environment line and, last, one JSON
result line, which this script passes through as its own last line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "serve_read", "serve_delta")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(tree):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tree = build_dir()
    build(tree)
    binary = os.path.join(tree, "perfbench")
    test = subprocess.run([os.path.join(tree, "oracle_test")],
                          stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if test.returncode:
        log("perfbench: oracle self-test failed")
        sys.exit(1)

    work = os.path.join(tree, "work")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    gen = subprocess.run([binary, "gen"] + common, stdout=sys.stderr,
                         stderr=sys.stderr, timeout=120)
    if gen.returncode:
        log("perfbench: input generation failed")
        sys.exit(1)
    run = subprocess.run(
        [binary, "run"] + common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace),
                                    "--rev", revision()],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=args.seconds + 120)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        log("perfbench: run failed with code", run.returncode)
        sys.exit(1)
    json.loads(lines[-1])  # the result line must parse
    print(run.stdout.strip(), flush=True)


if __name__ == "__main__":
    main()
