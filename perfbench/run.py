#!/usr/bin/env python3
"""Build the lock benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is inproc-zipf, lockd-hot or cluster-spread. The Go build cache,
the binary and the run's journals all live under .bench_build/ in the
repository root. The last line of standard output is the run's JSON
result; the exit status is 0 only when the correctness oracle passed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A cold build compiles the standard library too; a run ends well inside
# its three minutes.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    argv = [binary, "--workdir", os.path.join(BUILD, "work")] + sys.argv[1:]
    try:
        # subprocess.run kills and reaps the child when the timeout fires.
        return subprocess.run(argv, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
