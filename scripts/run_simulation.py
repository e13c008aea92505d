#!/usr/bin/env python3
"""Full-scale Monte Carlo run.

One million first-passage paths with 2000 Euler steps and the bridge
correction, plus the density comparison table and the Bessel-bridge
Feynman-Kac estimate.  Outputs land in out/simulate/.  Flags appended
on the command line override the defaults (e.g. --paths 100000).

At the full path count the first-passage sweep and the Feynman-Kac
estimator (which steps the bridge radius alone) take comparable shares
of the runtime; expect a few minutes single-threaded.
"""

import sys

from fpkit.cli import main

if __name__ == "__main__":
    extra = sys.argv[1:]
    sys.exit(main([
        "simulate",
        "--boundary", "s=1; fprime=0",
        "--x0", "1",
        "--paths", "1000000",
        "--steps", "2000",
        "--seed", "42",
        "--threads", "1",
        "--out", "out/simulate",
        *extra,
    ]))
