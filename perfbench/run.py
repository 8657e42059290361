#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sessions|net_rtt|toolchain|all \
        --seed N --seconds S --trace 0|1

`all` runs every workload in turn, each for S seconds, and prefixes each
metric with its workload's name. A traced run always covers every
workload.

All three builds (untraced; with spans; with the repository's
`telemetry` feature) go to $CARGO_TARGET_DIR, `.bench_build` by default.
Build output goes to stderr; the last line of stdout is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, features):
    """Builds one variant and returns the path of a copy of its binary
    (the next build of another variant overwrites the original)."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if features:
        cmd += ["--features", features]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    built = os.path.join(target_dir, "release", "perfbench")
    copy = built + "-" + (features or "plain")
    shutil.copy2(built, copy)
    return copy


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("perfbench: no workspace sources next to perfbench/")
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        plain, spans, telemetry = (
            build(target_dir, features) for features in ("", "spans", "telemetry"))
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    sys.stdout.flush()
    result = subprocess.run([
        plain, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--root", ROOT,
        "--spans-exe", spans,
        "--telemetry-exe", telemetry,
    ])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
