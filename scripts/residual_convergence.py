#!/usr/bin/env python3
"""Residual convergence study for the closed-form solution.

Tabulates the max-norm relative residual of the backward equation
against the grid spacing, confirming the 2nd-order decay of the
operator's truncation and its measured constant (~38 in units of
Delta^2 on the standard boundary as Delta -> 0).  The time difference is
4th-order, so the 3-point x stencil sets the constant; the ratio settles
to 4 from above as the 4th-order time term fades.  The residuals are
``fpkit verify``'s own (``fine_grid_residuals``), as in criterion 1.
"""

import fpkit as fp
from fpkit.grids import GridSpec
from fpkit.verify import fine_grid_residuals


def main():
    b = fp.parse_boundary("s=1; fprime=0.5,0.3")
    print(f"{'delta':>10} {'nt x nx':>12} {'max_rel':>12} {'ratio':>8} {'C=rel/d^2':>10}")
    prev = None
    for k in (1, 2, 4, 8):
        nt = 112 * k + 1
        nx = int(round(2.95 / (0.9 / (nt - 1)))) + 1
        spec = GridSpec(0.0, 0.9, 0.05, 3.0, nt, nx)
        rep = fine_grid_residuals(b, spec)["backward_closed_w"]
        ratio = "" if prev is None else f"{prev / rep.max_rel:8.2f}"
        print(f"{spec.dt:10.2e} {nt:>6}x{nx:<5} {rep.max_rel:12.3e} {ratio:>8} "
              f"{rep.max_rel / spec.dt ** 2:10.1f}")
        prev = rep.max_rel


if __name__ == "__main__":
    main()
