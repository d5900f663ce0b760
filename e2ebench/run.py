#!/usr/bin/env python3
"""Builds and runs regal's end-to-end benchmark.

    python3 e2ebench/run.py --workload warm_served --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --self-test

The first call configures and builds the library from ../src together with
regal_e2e (CMake, Release) under .bench_build/e2ebench; later calls only
rebuild what changed. Build output goes to stderr; stdout carries the
report of regal_e2e, whose last line is the JSON result. Durable stores live in
a per-run directory under .bench_build/e2ebench/run-<pid>, removed after
the run; a traced run writes its spans to
.bench_build/e2ebench/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "regal_e2e")
# A run is cut off well inside three minutes; the first build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no regal sources at " + os.path.join(ROOT, "src"))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_build_step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD, "--target", "regal_e2e",
                    "-j", jobs])


def run_build_step(command):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("build step failed: %s" % error)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(command))


def git_revision():
    # The ceiling keeps git from reading repositories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    revision = done.stdout.strip()
    return revision if done.returncode == 0 and revision else "none"


def source_digest():
    """SHA-256 over src/ (paths and bytes), so runs of a checkout that is
    not a git repository still name the code they measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def run(command):
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        child.kill()
        child.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["warm_served", "cold_analyst", "ingest_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")

    build()
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    try:
        if args.self_test:
            code = run([BINARY, "--self-test", "--workdir", workdir])
            tests = os.path.join(HERE, "test_compare.py")
            code = code or subprocess.run([sys.executable, tests]).returncode
            return code
        trace_out = os.path.join(BUILD, "traces", "%s-seed%d.jsonl" %
                                 (args.workload, args.seed))
        sys.stdout.flush()
        return run([BINARY, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--workdir", workdir,
                    "--trace-out", trace_out, "--git-rev", git_revision(),
                    "--src-digest", source_digest()])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
