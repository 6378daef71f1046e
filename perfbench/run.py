#!/usr/bin/env python3
"""Builds and runs the privrec end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-lastfm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the library under src/ plus
the benchmark binary) into .bench_build/perfbench; later runs rebuild only
what changed. Build output goes to stderr. The binary's last line of stdout
is the result: {"correct", "attempted", "failed", "metrics"}. The traced run
(--trace 1) also writes a Chrome trace to .bench_build/traces/.

Exit status: the binary's (0 when every output check held); 2 when the
benchmark cannot be built, or its result line is malformed or does not
name exactly the metrics BENCHMARK.json lists for the run's mode.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds the binary; all output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_e2e",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """Content hash of the library sources and the benchmark itself."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def declared_metrics(kind):
    """Sorted metric names BENCHMARK.json lists under `kind`, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return sorted(m["name"] for m in json.load(f)[kind])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    scratch = os.path.join(BUILD_ROOT, "scratch-%d" % os.getpid())
    command = [BINARY, "--scratch-dir=" + scratch]
    if args.self_test:
        command.append("--self-test")
    else:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += [
            "--workload=" + args.workload,
            "--seed=%d" % args.seed,
            "--seconds=%g" % args.seconds,
            "--trace=%d" % args.trace,
            "--trace-out=" + os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
            "--source-digest=" + source_digest(),
        ]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    if not args.self_test:
        try:
            last = json.loads(lines[-1]) if lines else None
        except ValueError:
            last = None
        if not isinstance(last, dict) or sorted(last) != [
                "attempted", "correct", "failed", "metrics"]:
            fail("the benchmark printed no result line")
        expected = declared_metrics("per_layer" if args.trace else "end_to_end")
        if expected is not None and sorted(last["metrics"]) != expected:
            fail("metrics differ from BENCHMARK.json: %s" % sorted(
                set(last["metrics"]).symmetric_difference(expected)))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
