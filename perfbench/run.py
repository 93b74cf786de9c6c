#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

Builds the library, ndetd and the benchmark program from source (optimized,
into .bench_build/ at the repository root), then runs workloads:

  python3 perfbench/run.py --workload serve_hot --seed 3 --seconds 12 --trace 0
  python3 perfbench/run.py                  # every workload, one row each
  python3 perfbench/run.py --self-test      # the benchmark's own tests

The last line of a single-workload run is its result:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or every per-layer metric (--trace 1).  The line before it is
the full record (seed, machine and build stamp, sample counts); records and
Chrome traces are also written under .bench_build/.  The all-workloads run
also measures the serve workloads' latency at fixed rates and their
max_rate_rps, and prints them beside the metrics.  The exit status is
non-zero when any output failed its correctness check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["tables_cold", "table6_def2", "serve_hot", "serve_miss"]
# Record figures the all-workloads table prints beside the metrics.
SERVE_FIGURES = [("p50_ms.low", "ms"), ("p99_ms.low", "ms"), ("p50_ms.high", "ms"),
                 ("p99_ms.high", "ms"), ("max_rate_rps", "req/s")]
OPTIMIZED_BUILD_TYPES = {"Release", "RelWithDebInfo", "MinSizeRel"}
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(command):
    """Runs a build step with its output on stderr (stdout carries results)."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(command))


def build(targets):
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no repository sources next to perfbench/ (missing %s)" % required)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)


def cache_entries():
    entries = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("//", "#")):
                key, value = line.rstrip("\n").split("=", 1)
                entries[key.split(":", 1)[0]] = value
    return entries


def checked_build_type():
    """Refuses to report from an unoptimized or sanitizer build."""
    cache = cache_entries()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail("refusing to report from an unoptimized build (CMAKE_BUILD_TYPE=%r)" % build_type)
    for option in ("NDET_SANITIZE", "NDET_SANITIZE_THREAD"):
        if cache.get(option, "OFF").upper() in ("ON", "1", "TRUE", "YES"):
            fail("refusing to report from a sanitizer build (%s=ON)" % option)
    flags = " ".join(cache.get(k, "") for k in ("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS"))
    if "-fsanitize" in flags or "-O0" in flags:
        fail("refusing to report from a build with flags %r" % flags)
    return build_type


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, build_type, commit, rates=False):
    """Runs one workload; returns (exit code, record, result line)."""
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    command = [
        os.path.join(BUILD, "ndet_perfbench"),
        "--workload=" + workload,
        "--seed=%d" % seed,
        "--seconds=%s" % seconds,
        "--trace=%d" % trace,
        "--ndetd=" + os.path.join(BUILD, "ndet", "src", "ndetd"),
        "--reference=" + os.path.join(HERE, "reference_digests.json"),
        "--trace-out=" + os.path.join(BUILD_ROOT, "traces", tag + ".trace.json"),
        "--commit=" + commit,
        "--build-type=" + build_type,
        "--rates=%d" % rates,
    ]
    timeout = RUN_TIMEOUT_S + (8 * seconds if rates else 0)
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (workload, timeout), file=sys.stderr)
        return 1, None, None
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        return completed.returncode or 1, None, None
    record, result = lines[-2], lines[-1]
    with open(os.path.join(BUILD_ROOT, "results", tag + ".json"), "w") as out:
        out.write(record + "\n")
    return completed.returncode, record, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, one row each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")], cwd=ROOT).returncode)

    build(["ndet_perfbench", "ndetd"])
    build_type = checked_build_type()
    commit = source_id()

    if args.workload:
        code, record, result = run_workload(args.workload, args.seed, args.seconds,
                                            args.trace, build_type, commit)
        if result is None:
            sys.exit(code or 1)
        print(record)
        print(result, flush=True)
        sys.exit(code)

    failed = False
    for workload in WORKLOADS:
        code, record, result = run_workload(workload, args.seed, args.seconds, args.trace,
                                            build_type, commit, rates=not args.trace)
        if result is None:
            print("%-12s FAILED (no result)" % workload, flush=True)
            failed = True
            continue
        parsed = json.loads(result)
        failed = failed or code != 0 or not parsed["correct"]
        cells = ["%s=%.6g %s" % (name, metric["value"], metric["unit"])
                 for name, metric in parsed["metrics"].items()]
        info = json.loads(record)["info"]
        cells += ["%s=%.6g %s" % (name, info[name], unit)
                  for name, unit in SERVE_FIGURES if name in info]
        print("%-12s correct=%s  %s" % (workload, parsed["correct"], "  ".join(cells)),
              flush=True)
    if record:
        print("stamp: " + json.dumps(json.loads(record)["stamp"]))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
