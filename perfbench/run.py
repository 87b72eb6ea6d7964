#!/usr/bin/env python3
"""The kbt benchmark of record: builds the program from source and runs one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the tree, as
does everything a run writes (store directories, span files). The last line of
standard output is the result JSON printed by the benchmark binary; build
output goes to standard error. Workloads and metrics are described in
perfbench/README.md.

--self-test runs a short hot_read with one expected answer inverted and
passes only if the run reports the wrong answer and exits nonzero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev(root):
    """The git revision when the tree is a checkout, else a digest of its sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [os.path.join(root, top)]
        if os.path.isdir(paths[0]):
            paths = sorted(os.path.join(d, f) for d, _, fs in os.walk(paths[0]) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, build_root):
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "kbt_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "kbt_perfbench")


def run(binary, args, capture=False):
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


def self_test(binary, common):
    out = run(binary, ["--workload", "hot_read", "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--flip-expected"] + common, capture=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    caught = (out.returncode == 1 and result.get("correct") is False
              and result.get("failed", 0) >= 1)
    print(f"self-test: flipped answer {'reported' if caught else 'NOT reported'} "
          f"(exit {out.returncode}, failed {result.get('failed')})")
    print("self-test passed" if caught else "self-test FAILED")
    return 0 if caught else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a kbt source tree ({needed} is missing)")
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_root)
    common = ["--out-dir", os.path.join(build_root, "perfbench-out"),
              "--rev", source_rev(root)]
    if args.self_test:
        return self_test(binary, common)
    out = run(binary, ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)] + common)
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
