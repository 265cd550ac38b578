#!/usr/bin/env python3
"""Repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload social|web --seed N --seconds S --trace 0|1

Run from the repository root. Builds the perfbench binary (once) into the
build directory named by $CARGO_TARGET_DIR (default .bench_build), makes the
seeded inputs (cached there, outside every timed window), runs, and prints
two JSON lines: context (host, inputs, failures), then the result
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics and writes a Chrome trace next to the build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import report  # noqa: E402

WORKLOADS = ("social", "web")
# Cached input sets kept per workload besides the current one (each set is
# ~200 MB on disk for the one-shot graph).
KEEP_INPUTS = 2
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    binary = os.path.join(build_dir, "perfbench")
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return binary


def evict_inputs(cache, workload, seed):
    """Keeps the current input set and the KEEP_INPUTS newest others."""
    if not os.path.isdir(cache):
        return
    current = f"{workload}-s{seed}"
    sets = [d for d in os.listdir(cache)
            if d.startswith(workload + "-s") and d != current]
    sets.sort(key=lambda d: os.path.getmtime(os.path.join(cache, d)),
              reverse=True)
    for d in sets[KEEP_INPUTS:]:
        shutil.rmtree(os.path.join(cache, d), ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}; nothing to measure")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(target, "perfbench-build"))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cache = os.path.join(target, "perfbench-inputs")
    evict_inputs(cache, args.workload, args.seed)
    runs = os.path.join(target, "perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    raw_path = os.path.join(runs, stem + ".json")
    if os.path.exists(raw_path):
        os.remove(raw_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache", cache, "--out", raw_path]
    if args.trace:
        cmd += ["--trace-out", os.path.join(runs, stem + ".trace.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    if proc.returncode != 0 or not os.path.exists(raw_path):
        log(f"run failed with exit code {proc.returncode}")
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    out = report.result(raw, bool(args.trace))
    info = report.info(raw)
    info["run_s"] = time.monotonic() - started
    print(json.dumps(info))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
