#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see NOTES.md).

    python3 perfbench/run.py --workload batch_s --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) inside the checkout;
build output goes to standard error. The last line of standard output is
the JSON result. Extra flags (--smoke, --expect-digest PAIRS:SUM) are passed
through to the binary. For the recorded seed, the expected batch digest is
taken from perfbench/digests.json unless --expect-digest is given.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary's own run is bounded by --seconds plus set-up and checks; this
# only stops a hung run within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "--target", "fsim_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def recorded_digest(args):
    """The digest recorded for (workload, size, seed), if any."""
    try:
        with open(os.path.join(HERE, "digests.json")) as f:
            digests = json.load(f)
    except (OSError, ValueError):
        return None
    if "--seed" not in args or "--workload" not in args:
        return None
    size = "smoke" if "--smoke" in args else "full"
    seed = args[args.index("--seed") + 1]
    entry = digests.get(args[args.index("--workload") + 1], {}).get(size)
    if entry is None or str(entry["seed"]) != seed:
        return None
    return f"{entry['pairs']}:{entry['sum']}"


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        return 2
    binary = os.path.join(out_dir, "fsim_perfbench")
    work_dir = os.path.join(out_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    args = list(argv)
    if "--expect-digest" not in args:
        digest = recorded_digest(args)
        if digest is not None:
            args += ["--expect-digest", digest]
    proc = subprocess.Popen([binary] + args + ["--work-dir", work_dir],
                            cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
