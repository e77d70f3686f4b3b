#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark and its C++ self-tests (percentile rule, names,
doctored pinned total), then checks that BENCHMARK.json declares
exactly the workloads and metrics the benchmark prints, and that bad
arguments are refused.  Takes about ten seconds after the build.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (after the path is set)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
failures = 0


def check(ok, what):
    global failures
    print(("ok   " if ok else "FAIL ") + what)
    failures += 0 if ok else 1


def last_json(cmd):
    """Run @p cmd; return (exit code, parsed last stdout line or None)."""
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return p.returncode, None


def main():
    out = run.build(("perfbench", "perfbench_selftest"))
    bench = os.path.join(out, "perfbench")
    check(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
          == 0, "C++ self-tests pass")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([bench, "--list"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    rows = [line.split() for line in listed if line]
    declared = {
        "workload": [w["name"] for w in spec["workloads"]],
        "end_to_end": [[m["name"], m["unit"]] for m in spec["end_to_end"]],
        "per_layer": [[m["name"], m["unit"]] for m in spec["per_layer"]],
    }
    check(declared["workload"] == [r[1] for r in rows if r[0] == "workload"],
          "BENCHMARK.json lists the benchmark's workloads")
    for kind in ("end_to_end", "per_layer"):
        check(declared[kind] == [r[1:] for r in rows if r[0] == kind],
              "BENCHMARK.json lists the benchmark's %s metrics" % kind)
    names = declared["workload"] + [m[0] for m in declared["end_to_end"] +
                                    declared["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(set(names)) ==
          len(names), "names are unique and match [A-Za-z0-9_.-]+")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(max(bounds.values()) <= 0.25 and
          bounds["setup_s"] == max(bounds.values()),
          "bounds are at most 0.25 and setup_s has the largest")

    # Real runs print exactly the declared names, in order.
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = last_json([bench, "--workload", "design_sweep",
                                  "--seed", "1", "--seconds", "3",
                                  "--trace", trace])
        check(code == 0 and result is not None and result["correct"] and
              [[k, v["unit"]] for k, v in result["metrics"].items()] ==
              declared[kind],
              "a --trace %s run prints every %s metric" % (trace, kind))

    for bad in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                ["--workload", "train_cnn", "--seed", "-1", "--seconds",
                 "1", "--trace", "0"],
                ["--workload", "train_cnn", "--seed", "1", "--seconds", "1"]):
        code, result = last_json([bench, *bad])
        check(code == 2 and result is None,
              "refused: " + " ".join(bad))

    print("selftest FAILED" if failures else "selftest passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
