#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <serve-open|offline-pim|model-sweep>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The library and the benchmark are compiled with CMake into .bench_build/
at the root of the checkout (incrementally after the first run). Build
output goes to stderr, so the benchmark's JSON result stays the last
line of stdout. Arguments are passed to the benchmark binary, which
rejects malformed command lines with exit status 2.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main(argv):
    if argv == ["--self-test"]:
        build("perfbench_tests")
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    build("perfbench")
    try:
        return subprocess.run([os.path.join(BUILD, "perfbench")] + argv,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
