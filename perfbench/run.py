#!/usr/bin/env python3
"""Build and run gSuite's repository benchmark.

Run from the root of a gSuite checkout:

    python3 perfbench/run.py --workload sim-exact --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

The benchmark program (perfbench/src) is configured and built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on every
call; an up-to-date build only re-checks. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. A failed build
or run exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sim-exact", "sim-sampled", "host-profile"]
# A workload run that takes longer than this is stopped and fails.
RUN_TIMEOUT_S = 170


def build(pkg: Path, build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "-S", str(pkg), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "gsuite_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "gsuite_perfbench"


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when root is not a git work
    tree's top level (an exported checkout)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    pkg = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    try:
        binary = build(pkg, build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    sha = git_sha(root)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for name in workloads:
        cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(build_root / "perfbench-out"),
               "--git-sha", sha]
        try:
            run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
