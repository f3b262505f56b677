"""Reproducer for leaving ``recognize`` out of the benchmark.

    python3 bench/recognize_budget.py

Draws 30 seeded random diagrams (at most 3 objects of rank at most 2) over
Z/4, Z/8, F4, GR(4,2) and F3 in turn, runs ``tannaka-forge recognize`` on
each in a child process at --budget 1024 with a 4 s wall-clock cap, and
runs the draws that hit the cap again at --budget 4096.  A draw that hits the
cap at both budgets shows that --budget does not bound the cost of
recognition, so no steady recognition workload can be built on it yet.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from tannaka_forge.algebra import AlgebraSpec  # noqa: E402
from tannaka_forge.suite import random_diagram  # noqa: E402
from tannaka_forge.textio import format_diagram  # noqa: E402

SEED, DRAWS, CAP_S = 5, 30, 4.0
RINGS = [("Z/4", (2, 2, 1)), ("Z/8", (2, 3, 1)), ("F4", (2, 1, 2)),
         ("GR(4,2)", (2, 2, 2)), ("F3", (3, 1, 1))]


def recognize(path: str, budget: int, cap: float):
    """(seconds, exit code or None when the cap was hit)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "tannaka_forge.cli", "recognize",
                               "--budget", str(budget), path],
                              capture_output=True, env=env, timeout=cap)
        return time.perf_counter() - t0, proc.returncode
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None


def main() -> int:
    workdir = os.path.join(os.getcwd(), ".bench_work", "recognize")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(SEED)
    capped = []
    for i in range(DRAWS):
        name, (p, n, f) = RINGS[i % len(RINGS)]
        D, _ = random_diagram(rng, AlgebraSpec.make(p, n, f), max_obj=3, max_rank=2)
        path = os.path.join(workdir, "draw-%02d.diagram" % i)
        with open(path, "w") as fh:
            fh.write(format_diagram(D))
        secs, code = recognize(path, 1024, CAP_S)
        ranks = [o.rank for o in D.objects]
        print("draw %02d %-8s ranks %-10s budget 1024: %s"
              % (i, name, ranks, "past %.0f s cap" % CAP_S if code is None
                 else "exit %d in %.2f s" % (code, secs)), flush=True)
        if code is None:
            capped.append((i, path))
    still = 0
    for i, path in capped:
        secs, code = recognize(path, 4096, CAP_S)
        still += code is None
        print("draw %02d budget 4096: %s" % (i, "past %.0f s cap" % CAP_S if code is None
                                            else "exit %d in %.2f s" % (code, secs)))
    print("%d of %d draws ran past %.0f s at budget 1024; %d of those also at 4096"
          % (len(capped), DRAWS, CAP_S, still))
    return 0


if __name__ == "__main__":
    sys.exit(main())
