#!/usr/bin/env python3
"""Builds and runs the AIQL benchmark.

    python3 aiqlbench/run.py --workload <investigate|hunt|retention> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 aiqlbench/run.py --test      # decorator fidelity test

Run from the repository root. The first call configures and builds the
benchmark (library sources included) under .bench_build/aiqlbench; later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Traced runs write their spans
to .bench_build/spans/<workload>-<seed>.jsonl.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "aiqlbench")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("aiqlbench: no library sources at %s/src" % ROOT)
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT, env=env) != 0:
            sys.exit("aiqlbench: build failed: " + " ".join(cmd))


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main(argv):
    if argv == ["--test"]:
        build()
        return subprocess.call([os.path.join(BUILD_DIR, "aiqlbench_test")], cwd=ROOT)
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in opts or "--seed" not in opts:
        sys.exit(__doc__)
    build()
    cmd = [os.path.join(BUILD_DIR, "aiqlbench")] + argv + ["--commit", commit()]
    if opts.get("--trace") == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-%s.jsonl" % (opts["--workload"], opts["--seed"]))]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
