#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 gapbench/run.py --workload <gap_suite|serve_read|serve_write> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 gapbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
gapbench/ (which compiles the library from ../src) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls only check the build is
current.  The benchmark's output is passed through unchanged, so its last
line is the JSON result.  Build and run failures exit non-zero without a
result line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "gapbench")


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(out):
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], log,
                      BUILD_TIMEOUT_S) != 0:
            return fail_build(log, out)
    # Bounded so a many-core host does not run out of compiler memory.
    jobs = str(min(os.cpu_count() or 1, 8))
    if run_logged(["cmake", "--build", out, "-j", jobs], log,
                  BUILD_TIMEOUT_S) != 0:
        return fail_build(log, out)
    return True


def fail_build(log, out):
    with open(log, "rb") as f:
        tail = f.read()[-4000:].decode(errors="replace")
    sys.stderr.write(tail + "\ngapbench: build failed (log: %s)\n" % log)
    # A failed configure must not be mistaken for a usable tree next time.
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        os.remove(cache)
    return False


def main(argv):
    out = build_dir()
    try:
        if not build(out):
            return 1
    except subprocess.TimeoutExpired:
        sys.stderr.write("gapbench: build timed out\n")
        return 1
    if argv == ["--self-test"]:
        cmd = [os.path.join(out, "gapbench_selftest"),
               os.path.join(HERE, "..", "BENCHMARK.json")]
    else:
        cmd = [os.path.join(out, "gapbench")] + argv
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("gapbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
