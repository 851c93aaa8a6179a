#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/bench.exe with
dune into .bench_build/, runs it with the same arguments, checks that
the result line names exactly the metrics BENCHMARK.json declares for
the mode (end_to_end for --trace 0, per_layer for --trace 1), and
prints the program's output.  Scratch files (the pcap capture, the span
dump) go to .bench_work/.  Exit status is non-zero when the build, the
run or the check fails.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the repository root (no dune-project or lib/ here)")
    try:
        with open("BENCHMARK.json") as f:
            declared = json.load(f)
    except (OSError, ValueError) as e:
        return fail("cannot read BENCHMARK.json: %s" % e)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + argv, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        return fail("bench.exe exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        return fail("no result line")
    result = json.loads(lines[-1])
    mode = "per_layer" if "--trace" in argv and argv[argv.index("--trace") + 1] == "1" \
        else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[mode]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        return fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s, "
                    "unit mismatch %s" % (
                        mode, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                        sorted(k for k in want if k in got and want[k] != got[k])))
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
