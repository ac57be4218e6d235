#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of a checkout. The first run configures and builds
perfbench (the gpd libraries from src/ plus the harness, Release) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The last line of stdout is the one-line JSON result. --list prints every
metric the benchmark reports, by name and unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def src_digest():
    """sha256 over the library sources: identifies the build without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() or "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ next to perfbench/: run from the root of a gpd checkout")
        return None
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
            return None
    r = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, check=False)
    if r.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def list_metrics(bench):
    for kind in ("end_to_end", "per_layer"):
        print(f"# {kind} ({'--trace 0' if kind == 'end_to_end' else '--trace 1'})")
        for m in bench[kind]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"{m['name']:40s} {m['unit']:8s} {m['better']}{bound}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.list:
        list_metrics(bench)
        return 0
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        log("build failed")
        return 1
    work = os.path.join(target, "work")
    os.makedirs(work, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(len(os.sched_getaffinity(0))), "--workdir", work]
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev(),
               PERFBENCH_SRC_DIGEST=src_digest())
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=170, check=False)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 1
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result line (exit code {r.returncode})")
        return 1
    want = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(want):
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(want) ^ set(result['metrics']))}")
        return 1
    print("\n".join(lines), flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
