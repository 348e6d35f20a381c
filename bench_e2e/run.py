#!/usr/bin/env python3
"""End-to-end benchmark of the default k-MST engine.

Run from the repository root:

    python3 bench_e2e/run.py --workload paper_mix --seed 1 --seconds 15 --trace 0

Builds the engine and the e2e_bench binary from source into .bench_build/ (or
$CARGO_TARGET_DIR when set), runs one workload and relays the binary's
output. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is nonzero when the
build fails, an answer fails its oracle check, or the binary times out.
See bench_e2e/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_mix", "hot_repeat", "ingest_mix", "sharded_mix")
# A run must end within 180 s; leave room for the incremental build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"bench_e2e: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src_dir = os.path.join(root, "bench_e2e")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to bench_e2e/; "
             "run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", src_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout's last line is the result.
            proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(cmd)} failed: {err}")
        if proc.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {proc.returncode}")
    return os.path.join(build_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)),
                             "e2e")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace_dir", os.path.join(build_dir, "traces")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2e_bench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        # A failed run prints no result line on stdout.
        sys.stderr.write(proc.stdout)
        fail(f"e2e_bench exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("e2e_bench's last line is not JSON")
    # e2e_bench prints every metric it measured; the result line carries
    # exactly the ones BENCHMARK.json declares for this mode.
    declared = [m["name"] for m in spec["per_layer" if args.trace
                                        else "end_to_end"]]
    missing = [name for name in declared if name not in result["metrics"]]
    if missing:
        fail(f"e2e_bench did not report {', '.join(missing)}")
    # Everything measured stays visible one line above the result.
    print("all_metrics " + json.dumps(result["metrics"]))
    result["metrics"] = {name: result["metrics"][name] for name in declared}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
