#!/usr/bin/env python3
"""Runs one workload of the ODNET benchmark and prints its result.

Run from the repository root:

    python3 odbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Builds the benchmark (and the library it measures, from ../src) in
.bench_build on first use, runs odnet_bench, checks its output and prints
the result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics;
the traced run also writes a Chrome trace (checked with
tools/validate_trace.py). `--self-test` builds and runs the benchmark's own
tests instead. README.md in this directory documents every metric.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "odnet_bench")
VALIDATE_TRACE = os.path.join(ROOT, "tools", "validate_trace.py")
RUN_TIMEOUT_S = 170

WORKLOADS = ("serve", "eval", "train", "train_ps")
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Metrics every workload reports, untraced (end to end) and traced (per
# layer). A run missing one of them is not correct.
END_TO_END = ["setup_s", "throughput_per_s", "latency_p50_ms", "peak_rss_mb",
              "hr10", "train_loss"]
PER_LAYER = ["forward.us_per_row", "forward.rows_per_call", "forward.share",
             "outside_forward.ms_per_op", "encode.us_per_row",
             "hsgc_city.us_per_call", "hsgc_user.us_per_row",
             "pec.us_per_row", "jlc.us_per_row", "probe.coverage",
             "plan_cache.captures", "plan_cache.replays",
             "plan_cache.peak_bytes", "trace.overhead_ratio"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def odnet_variables(environ):
    """Names of ODNET_* variables, which change what is measured."""
    return sorted(k for k in environ if k.startswith("ODNET_"))


def check_result(result, trace):
    """Problems with a parsed result line; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"unexpected result keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"'{key}' is not a non-negative integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing was attempted")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["'metrics' is not an object"]
    want = PER_LAYER if trace else END_TO_END
    missing = [m for m in want if m not in metrics]
    extra = [m for m in metrics if m not in want]
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"unexpected metrics {extra}")
    for name, entry in metrics.items():
        if not METRIC_NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"metric {name}: want value and unit")
            continue
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"metric {name}: value {value!r} is not finite")
        if not isinstance(entry["unit"], str) or not UNIT.match(entry["unit"]):
            problems.append(f"metric {name}: bad unit {entry['unit']!r}")
    return problems


def source_digest():
    """sha256 over the library and benchmark sources, so runs of checkouts
    without git history can still be told apart."""
    h = hashlib.sha256()
    for top in ("src", "odbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Configures (once) and builds .bench_build. False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to the benchmark")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def validate_trace(path):
    if not os.path.isfile(VALIDATE_TRACE):
        return [f"{VALIDATE_TRACE} not found"]
    proc = subprocess.run([sys.executable, VALIDATE_TRACE, path],
                          capture_output=True, text=True, timeout=120)
    sys.stdout.write(f"# {proc.stdout.strip()}\n" if proc.stdout else "")
    if proc.returncode != 0:
        return [f"trace check failed: {proc.stderr.strip()}"]
    return []


def run(args):
    if not build():
        return 1
    print(f"# git_sha: {git_sha()}")
    print(f"# source_digest: {source_digest()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_file = os.path.join(
            BUILD_DIR, f"trace_{args.workload}_{args.seed}.json")
        cmd += ["--trace-file", trace_file]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"odnet_bench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"odnet_bench exited with {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("odnet_bench printed no result line")
        return 1
    problems = check_result(result, bool(args.trace))
    if trace_file is not None:
        problems += validate_trace(trace_file)
    for p in problems:
        print(f"# result check failed: {p}")
    if problems and isinstance(result, dict):
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


def self_test():
    if not build():
        return 1
    ctest = subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                            "--output-on-failure"], cwd=ROOT)
    unit = subprocess.run([sys.executable, "-m", "unittest", "-v",
                           os.path.join(BENCH_DIR, "test_run.py")],
                          cwd=ROOT)
    return 0 if ctest.returncode == 0 and unit.returncode == 0 else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args(argv)
    found = odnet_variables(os.environ)
    if found:
        log(f"refusing to run with {', '.join(found)} set: ODNET_* "
            "variables change what is measured")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
