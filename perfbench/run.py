#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload protocol|train|serve \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the program's src/ plus the benchmark program, Release) into
.bench_build/perfbench; later calls only rebuild what changed. The last
line of standard output is the result object of the run; build output
goes to standard error. See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("protocol", "train", "serve")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree for the next call to trust.
            if os.path.exists(cache):
                os.remove(cache)
            raise RuntimeError("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise RuntimeError("building the benchmark failed")
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when the tree is a git checkout, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-" + h.hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--small", action="store_true",
                   help="smallest workload sizes (the benchmark's test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run(args, binary):
    workdir = os.path.join(os.path.dirname(build_dir()), "perfbench-out")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--commit", source_id()]
    if args.small:
        cmd.append("--small")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("benchmark exited with code %d"
                           % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise RuntimeError("malformed result line: " + lines[-1])
    return lines


def main(argv):
    args = parse_args(argv)
    try:
        started = time.monotonic()
        binary = build()
        print("build: %.1f s" % (time.monotonic() - started),
              file=sys.stderr)
        lines = run(args, binary)
    except (RuntimeError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
