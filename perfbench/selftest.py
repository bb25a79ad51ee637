#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  For each workload in BENCHMARK.json
it makes two one-second untraced runs and one traced run on the same
seed, and checks that:

  - the last line of each run is the result object, correct, with 0
    failed operations;
  - every metric BENCHMARK.json names is printed, with its unit, and no
    other;
  - speedup_geomean is identical in the two untraced runs;
  - layer times never exceed the end-to-end per-job time
    (residual_pct >= 0).

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark's
own files.  Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = "7"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd="."):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", SEED,
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


def result(workload, trace):
    code, lines = run(workload, trace)
    label = "%s trace=%d" % (workload, trace)
    check(code == 0 and lines, label + ": exits 0 with output")
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, label + ": last line is JSON")
        return {}
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          label + ": result has exactly correct/attempted/failed/metrics")
    check(res.get("correct") is True and res.get("failed") == 0
          and res.get("attempted", 0) >= 1, label + ": correct, 0 failed")
    return res.get("metrics", {})


def same_metrics(label, printed, declared):
    check(sorted(printed) == sorted(m["name"] for m in declared),
          label + ": prints exactly the declared metrics")
    for m in declared:
        got = printed.get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              "%s: %s printed in %s" % (label, m["name"], m["unit"]))


def bare_directory():
    bare = os.path.join("perfbench", "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    code, lines = run("cold", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not any(l.startswith('{"correct"') for l in lines),
          "refuses to run without the sources, printing no result")


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for w in (w["name"] for w in bench["workloads"]):
        first = result(w, 0)
        second = result(w, 0)
        same_metrics(w + " trace=0", first, bench["end_to_end"])
        geo = [m.get("speedup_geomean", {}).get("value") for m in (first, second)]
        check(geo[0] is not None and geo[0] == geo[1],
              "%s: speedup_geomean repeats exactly (%s)" % (w, geo))
        layers = result(w, 1)
        same_metrics(w + " trace=1", layers, bench["per_layer"])
        residual = layers.get("residual_pct", {}).get("value", -1)
        check(residual >= 0, "%s: residual_pct >= 0 (%.2f)" % (w, residual))
    bare_directory()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
