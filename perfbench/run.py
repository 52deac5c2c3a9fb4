#!/usr/bin/env python3
"""Builds and runs the dlpic repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload trad_paper --seed 1 --seconds 10 --trace 0

The first call configures and compiles the benchmark together with the
library sources into .bench_build/perfbench (a Release build); later calls
only re-check that build. The benchmark binary prints its run context as a
JSON line and, as the last line of standard output, the result object with
`correct`, `attempted`, `failed` and `metrics`. Build and progress logs go to
standard error. Any extra arguments (for example `--corrupt reply`, used by
the self-test) are passed through to the binary.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("trad_paper", "dlpic_mlp", "dlpic_mlp_int16", "dlpic_cnn", "serve_mlp_mixed")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / ".bench_build" / "perfbench"


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                # A failed configure leaves a cache behind; drop it so the
                # next call configures from scratch.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def source_id():
    """Git SHA when the checkout is a repository, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 2

    socket_path = os.path.relpath(build_dir() / f"serve-{os.getpid()}.sock", ROOT)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket", socket_path, "--source-id", source_id()] + passthrough
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        Path(ROOT / socket_path).unlink(missing_ok=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
