#!/usr/bin/env python3
"""Repository benchmark: builds the Release benchmark program from source,
runs its self-test, then runs one workload.

    python3 perfbench/run.py --workload order_tcp|geo_read|geo_write \
        --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. Build output, results
and span files go under $CARGO_TARGET_DIR (default
.bench_build) in the current directory. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("order_tcp", "geo_read", "geo_write")
RUN_TIMEOUT_S = 170


def source_id(root):
    """git sha when root is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configures (once) and builds; all tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
                    "perfbench_selftest"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the repository root (src/ not found)", file=sys.stderr)
        return 1
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    try:
        build(root, build_dir)
        subprocess.run([os.path.join(build_dir, "perfbench_selftest")], check=True,
                       stdout=sys.stderr, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.join(out_root, "perfbench-results"),
           "--source", source_id(root)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
