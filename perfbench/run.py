#!/usr/bin/env python3
"""Build the fpmlib benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library and the fpmbench binary are
built with CMake into .bench_build/perfbench (incremental after the first
run); build output goes to stderr. fpmbench's standard output is passed
through unchanged: its last line is the JSON result. Traced runs write
their Chrome-trace files to .bench_build/perfbench/traces/.

Extra flags (--smoke: tiny sizes, for the smoke test) are forwarded to the
binary; see perfbench/README.md.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
WORKLOAD_COUNT = 3  # what `--workload all` runs
# Per workload: set-up, the traced run's probes and a slow host's slack.
RUN_MARGIN_S = 60


def run_timeout(args):
    """Seconds fpmbench may take: twice each measured window plus a margin,
    per workload run (`--workload all` runs every one)."""
    def value(flag):
        return args[args.index(flag) + 1] if flag in args[:-1] else None
    try:
        seconds = max(0.0, float(value("--seconds")))
    except (TypeError, ValueError):
        seconds = 0.0  # fpmbench rejects the arguments at once
    workloads = WORKLOAD_COUNT if value("--workload") == "all" else 1
    return workloads * (2 * seconds + RUN_MARGIN_S)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_sha256():
    """Content hash of the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for top, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if args else 2
    build("fpmbench")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "fpmbench"), *args,
           "--trace-dir", traces, "--git-sha", git_sha(),
           "--src-sha", src_sha256()]
    timeout = run_timeout(args)
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
