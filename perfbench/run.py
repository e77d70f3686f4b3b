#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; later runs reuse it.  The last line of standard
output is the JSON result; build output goes to standard error.  The
exit code is the benchmark's: 0 only when every check passed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Variables the simulator reads that would change what a run measures:
# the thread count is fixed in the benchmark, the profiler runs only in
# traced runs, and the SIMD target is auto-detected.
SCRUBBED_ENV = ("PL_THREADS", "PL_PROFILE", "PL_ISA")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets=("perfbench",)):
    """Configure once, then build @p targets; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources at %s" %
                 os.path.join(ROOT, "src"))
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--parallel", "4", "--target",
                    *targets], check=True, stdout=sys.stderr)
    return out


def main():
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    sys.stdout.flush()
    result = subprocess.run([os.path.join(out, "perfbench"), *sys.argv[1:]],
                            env=env)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
