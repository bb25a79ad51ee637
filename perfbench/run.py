#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold|rebatch|warm|proxy \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/cedarbench.exe
from source with dune (inside the checkout, with dune's shared cache
off), runs it with the given arguments plus the source revision, and
passes its standard output through: the last line is the result object.
Everything it writes stays in the checkout (_build/, perfbench/out/).
Exits non-zero without a result when the checkout cannot be built.
See perfbench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "cedarbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def revision():
    """The git commit when the checkout is a repository, else a digest
    of the sources the benchmark builds from."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else [
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs]
        for p in sorted(paths):
            if p.endswith((".ml", ".mli", ".c", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/cedarbench.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:] + ["--commit", revision()],
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
