#!/usr/bin/env python3
"""OptRouter benchmark entry point.

Builds the `optbench` program (and the router sources it links) with
optimisation from this checkout, then runs one workload:

    python3 optbench/run.py --workload sweep|rootbound|service \
        --seed N --seconds S --trace 0|1

The program's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to stderr. The build tree is
$CARGO_TARGET_DIR/optbench (default .bench_build/optbench) under the checkout
root; nothing is written outside the checkout.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("optbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("router sources (src/) are missing from this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "optbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "optbench",
                  "--parallel", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if rc != 0:
            fail("build step failed (exit %d): %s" % (rc, " ".join(cmd)))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "optbench")
    build(build_dir)
    binary = os.path.join(build_dir, "optbench")
    env = dict(os.environ)
    # The service workload's unix socket lives in the build tree; a relative
    # path keeps it under the sockaddr_un length limit.
    env["OPTBENCH_RUN_DIR"] = os.path.relpath(build_dir, ROOT)
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
