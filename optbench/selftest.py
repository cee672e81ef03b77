#!/usr/bin/env python3
"""Self-test of the OptRouter benchmark.

Runs every workload at toy size, untraced and traced, through run.py and
asserts that:
  * the last stdout line is one JSON object with exactly the keys correct,
    attempted, failed and metrics, reporting correct=true and failed=0;
  * the metrics carry exactly the names and units BENCHMARK.json lists
    (end_to_end untraced, per_layer traced);
  * corrupting one reference verdict (--tamper) flips correct to false;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the command fails without printing a result.

    python3 optbench/selftest.py
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd=ROOT):
    spec = json.load(open(os.path.join(cwd, "BENCHMARK.json")))
    proc = subprocess.run(spec["command"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            tag = "%s trace=%s" % (w, trace)
            rc, last, err = run(["--workload", w, "--seed", "7", "--seconds",
                                 "1", "--trace", trace, "--toy"])
            expect(rc == 0, tag + " exits 0" + ("" if rc == 0 else ": " + err))
            try:
                res = json.loads(last)
            except ValueError:
                expect(False, tag + " last line is JSON")
                continue
            expect(sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], tag + " result keys")
            expect(res.get("correct") is True and res.get("failed") == 0
                   and res.get("attempted", 0) >= 1,
                   tag + " correct with no failed op")
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            expect(got == want[trace], tag + " metric names and units")
        rc, last, err = run(["--workload", w, "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--toy", "--tamper"])
        try:
            tampered = json.loads(last)
        except ValueError:
            tampered = {}
        expect(rc == 0 and tampered.get("correct") is False
               and tampered.get("failed", 0) > 0,
               w + " tampered reference verdict gives correct=false")

    # Only BENCHMARK.json and the benchmark's own files: must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    rc, last, _ = run(["--workload", spec["workloads"][0]["name"], "--seed",
                       "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(rc != 0 and not last.startswith("{"),
           "fails without a result when the router sources are absent")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILED" % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
