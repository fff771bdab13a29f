#!/usr/bin/env python3
"""Build and run the gdsiiguard performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

The script compiles the benchmark (a Go module of its own in this directory
that imports the repository through a relative replace directive) into
.bench_build/, keeps every Go cache and temporary file under .bench_build/,
then runs the binary with the given arguments. The binary prints one JSON
result object as the last line of standard output; build output and progress
go to standard error. Extra arguments are passed through unchanged, so
`python3 perfbench/run.py compare A B` runs the result comparison mode.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod beside perfbench/: run from a repository checkout",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["GOPROXY"] = "off"
    env["GOWORK"] = "off"
    env["CGO_ENABLED"] = "0"
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    env["PERFBENCH_OUT"] = os.path.join(build, "results")
    os.chdir(root)
    # Replace this process with the benchmark so a signal sent to the run
    # reaches the program that does the work, and nothing is left behind.
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
