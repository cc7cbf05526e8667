#!/usr/bin/env python3
"""Builds the Usher benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

The harness is compiled with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; configuration and compilation happen
only when something changed. Build output goes to stderr, and only when
the build fails. The harness's stdout is passed through unchanged: its
last line is the result object. Traced runs (--trace 1) also write their
spans as Chrome trace-event JSON to <build dir>/traces/.

Exit status is the harness's own, or 1 when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative to the checkout, so the daemon's unix socket path stays
    # well under the 108-byte sun_path limit wherever the checkout lives.
    return os.path.relpath(os.path.join(ROOT, base), ROOT)


def build(bdir):
    cmake_dir = os.path.join(bdir, "perfbench")
    env = dict(os.environ, TMPDIR=os.path.abspath(bdir))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "usher_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "usher_bench")


def main(argv):
    args = {}
    smoke = False
    i = 0
    while i < len(argv):
        if argv[i] == "--smoke":
            smoke = True
            i += 1
            continue
        if i + 1 >= len(argv) or argv[i] not in (
                "--workload", "--seed", "--seconds", "--trace"):
            sys.stderr.write(__doc__)
            return 2
        args[argv[i]] = argv[i + 1]
        i += 2
    if len(args) != 4:
        sys.stderr.write(__doc__)
        return 2

    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    binary = build(bdir)
    if binary is None:
        return 1

    cmd = [binary]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [key, args[key]]
    cmd += ["--scratch", os.path.join(bdir, "run-%d" % os.getpid())]
    if args["--trace"] == "1":
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (args["--workload"], args["--seed"]))]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, TMPDIR=os.path.abspath(bdir))
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
