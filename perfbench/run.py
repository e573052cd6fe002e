#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark program (perfbench/CMakeLists.txt) is configured and built under
.bench_build/perfbench in the checkout; build output goes to standard
error. The program's own output, whose last line is the JSON result,
goes to standard output. Working files (checkpoints, journals) live
under .bench_work and the traced run's span file under .bench_out, all
inside the checkout. Exits non-zero without a result when the build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dfault_perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at %s/src to build" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    build(env)
    command = [
        BINARY,
        *sys.argv[1:],
        "--reference", REFERENCE,
        "--work-dir", os.path.join(ROOT, ".bench_work", "run-%d" % os.getpid()),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    sys.stdout.flush()
    done = subprocess.run(command, cwd=ROOT, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
