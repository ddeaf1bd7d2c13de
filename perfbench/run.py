#!/usr/bin/env python3
"""churntomo benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's libraries from source) in Release mode under .bench_build/,
then runs one workload and passes its output through.  The last line of
standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload year_batch --seed 20170623 \
        --seconds 5 --trace 0
    python3 perfbench/run.py --selftest      # unit checks of the helpers

The benchmark measures the shipped defaults.  Execution knobs that would
select a non-default mode (CT_SAT_BACKEND, CT_SAT_DELTA, CT_STREAMING,
CT_PLATFORM_SHARDS, CT_SCENARIO, CT_SAT_PORTFOLIO*) are cleared from the
benchmark's environment here, and the cleared names are stamped into the
run context.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
WORKLOADS = ("year_batch", "sat_replay")
STRAY_KNOBS = ("CT_SAT_BACKEND", "CT_SAT_DELTA", "CT_STREAMING", "CT_PLATFORM_SHARDS",
               "CT_SCENARIO")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def is_stray_knob(name):
    return name in STRAY_KNOBS or name.startswith("CT_SAT_PORTFOLIO")


def clean_environment(environ):
    """Returns (environment without stray knobs, sorted cleared names)."""
    cleared = sorted(k for k in environ if is_stray_knob(k))
    env = {k: v for k, v in environ.items() if k not in cleared}
    # Keep every build artefact inside the checkout.
    env["CCACHE_DISABLE"] = "1"
    env["CCACHE_DIR"] = str(BUILD_DIR / "ccache")
    return env, cleared


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so results and the
    ledger's solve counts are tied to the code even outside a git
    checkout."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root):
    """HEAD of the checkout, or "none" when it is not a git work tree
    (or is nested inside another repository)."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root:
            return "none"
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--",
                                "src", "CMakeLists.txt", "perfbench"],
                               capture_output=True, text=True, timeout=30)
        sha = head.stdout.strip() or "none"
        return sha + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(env, targets):
    """Configures once and builds `targets`; compiler output goes to
    stderr so the result stays the last line of stdout."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, env=env, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target", *targets]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def run_binary(cmd, env):
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


def selftest(env):
    if not build(env, ["perfbench_selftest"]):
        return 1
    work_dir = BUILD_DIR / "selftest"
    work_dir.mkdir(parents=True, exist_ok=True)
    if run_binary([str(CMAKE_DIR / "perfbench_selftest"), str(work_dir)], env) != 0:
        return 1
    tests = subprocess.run([sys.executable, "-B", str(BENCH_DIR / "test_run.py")], env=env)
    return tests.returncode


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20170623)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    env, cleared = clean_environment(dict(os.environ))
    if args.selftest:
        return selftest(env)
    if args.workload is None:
        parser.error("--workload is required")
    if not build(env, ["perfbench"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = BUILD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    digest = source_digest(ROOT)
    cmd = [str(CMAKE_DIR / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(work_dir),
           "--expected", str(BENCH_DIR / "expected.txt"),
           "--ledger", str(BUILD_DIR / "ledger.txt"),
           "--source-digest", digest,
           "--git-sha", git_sha(ROOT),
           "--cleared", ",".join(cleared) or "none"]
    sys.stdout.flush()
    return run_binary(cmd, env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
