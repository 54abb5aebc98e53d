#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload forkjoin --seed 1 --seconds 10 --trace 0

Every argument is passed on to the command. The build cache, the binary
and the run's artifacts stay inside the repository (.bench_build and
.bench_out), so the benchmark reads and writes nothing outside it. If the
build fails, for example because the scheduler's sources are missing, it
exits with status 2 and prints no result.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr)
    except OSError as err:
        print(f"run.py: cannot run the go toolchain: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed; no result", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_out")
    return subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
