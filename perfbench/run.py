#!/usr/bin/env python3
"""Builds the perfbench benchmark from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build
output goes to stderr; the benchmark's last stdout line is its JSON
result. Exits non-zero, without a result, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# A run ends well inside this; past it, the run is killed as hung.
RUN_TIMEOUT_S = 170

# Never return heap memory to the kernel, and serve allocations up to
# glibc's 32 MiB ceiling from the heap instead of fresh mappings.
MALLOC_TUNABLES = "glibc.malloc.trim_threshold=4294967295:glibc.malloc.mmap_threshold=33554432"


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    # Keep freed memory in the process: with glibc's defaults, whether a
    # set-up re-faults its pages depends on when the heap was last
    # trimmed, which made set-up times bimodal from run to run.
    tunables = [t for t in [env.get("GLIBC_TUNABLES"), MALLOC_TUNABLES] if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables)
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
