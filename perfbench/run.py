#!/usr/bin/env python3
"""Build the benchmark binary from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Every build artefact, Go cache and scratch file stays under .bench_build/ in
the current directory. The last line of standard output is the result JSON.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD, "perfbench")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([BINARY, "-workdir", tmp] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
