#!/usr/bin/env python3
"""Build the benchmark with dune and run one workload in a fresh process.

Run from the root of the repository:

    python3 perfbench/run.py --workload serial-chain8 --seed 1 --seconds 10 --trace 0

Workloads: serial-chain8, durable-writes, engine-chain8, cluster-chain8.
The last line of standard output is the result as one JSON object; the
lines before it print every metric with its unit.  The exit code is not 0
when the build fails, a check fails or the run overruns.

dune is taken from PATH.  When PATH does not hold it (a shell that has not
loaded opam's environment), the bin directory of opam's current switch is
put in front of PATH.
"""

import os
import shutil
import subprocess
import sys

# a first build from a clean checkout takes well under a minute
BUILD_TIMEOUT_S = 600
# the contract's limit is 180 s per run; leave room to stop cleanly
RUN_TIMEOUT_S = 170


def build_env():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune", path=env.get("PATH")) is None and shutil.which("opam"):
        try:
            prefix = subprocess.run(
                ["opam", "var", "prefix"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                timeout=60,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            prefix = ""
        if prefix:
            env["PATH"] = os.path.join(prefix, "bin") + os.pathsep + env.get("PATH", "")
            env["OPAM_SWITCH_PREFIX"] = prefix
    return env


def main():
    env = build_env()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build exceeded %d s\n" % BUILD_TIMEOUT_S)
        return 1
    except OSError as e:
        sys.stderr.write("perfbench: cannot run dune: %s\n" % e)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
