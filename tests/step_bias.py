"""The sweep's chord bias, as code: the tables that set ``sweep_chords``.

A cell is deterministic.  It holds the sweep's chord level -- the
piecewise-linear level through ``montecarlo.sweep_level``'s nodes, or
through the unshifted nodes x0 + int_0^t_j f' -- against the smooth level,
in 20 equal bins of [0, s].  Both bin masses come from the
Buonocore-Nobile-Ricciardi oracle (``volterra_oracle.level_density``),
the chord level's with the kernel slope of the chord that holds t from
the left, which makes its kernel vanish inside that chord.  Each solve
runs on a uniform grid that holds every chord node, at N and 2N
intervals, and its bin masses, the density taken linear between nodes,
are extrapolated at order 1.5.  The cell is the
worst bin's |chord mass - smooth mass| in units of that bin's binomial
standard error at n paths, SE(n) = sqrt(p (1 - p) / n).

Run ``python tests/step_bias.py`` to print, in CHANGES.md's format:

* the plain-chord table at the chord counts that CHANGES.md's table of
  the unshifted sweep gives, beside the values it printed;
* the shifted-chord table at ``sweep_chords``' own counts, at 50,000,
  100,000, 262,144 and 1,000,000 paths;
* the chord scan: every chord count the rule takes between 50,000 and
  1,000,000 paths, each at the largest path count it takes it at, where
  its standard error is smallest.
"""

import sys
from functools import cache
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fpkit.boundary import integral_fprime, parse_boundary  # noqa: E402
from fpkit.montecarlo import sweep_chords, sweep_level  # noqa: E402
from volterra_oracle import extrapolated_masses, level_density, trapezoid_density  # noqa: E402

N_BINS = 20
#: fewest intervals of a cell's coarser solve; the solves of -40t from
#: x0 = 2 diverge at ~1,400.  Cells from 2,560 agree with cells from 5,120
#: to within 1e-4 SE(n), except on -40t, where 448 chords read 0.0195 from
#: 2,688 and 0.0194 from 8,960
MIN_GRID = 2560
#: path counts of the tables
PATHS = (1_000_000, 262_144, 100_000, 50_000)
#: requested steps of every cell, the CLI's default; it caps no level here
STEPS = 2000

#: (label, boundary spec, x0) of the tables' levels
LEVELS = (
    ("0.5 + 0.3t", "s=1; fprime=0.5,0.3", 1.0),
    ("−0.3t", "s=1; fprime=0,-0.3", 1.0),
    ("3t", "s=1; fprime=0,3", 1.0),
    ("−0.5 + 0.6t, s = 2", "s=2; fprime=-0.5,0.6", 1.0),
    ("−40t", "s=1; fprime=0,-40", 2.0),
    ("2t²", "s=1; fprime=0,0,2", 1.0),
    ("3t", "s=1; fprime=0,3", 0.5),
    ("1 − 3t", "s=1; fprime=1,-3", 1.5),
    ("0.5 + 0.3t", "s=1; fprime=0.5,0.3", 0.3),
    ("0.2t, s = 4", "s=4; fprime=0,0.2", 2.0),
)

#: CHANGES.md's table of the unshifted sweep: per level of LEVELS, the
#: (chords, worst bin / SE(n)) it printed at each of PATHS
PLAIN_TABLE = (
    ((39, 0.0091), (30, 0.0091), (25, 0.0074), (22, 0.0065)),
    ((39, 0.0112), (30, 0.0114), (25, 0.0092), (22, 0.0079)),
    ((123, 0.0102), (94, 0.0095), (78, 0.0082), (68, 0.0082)),
    ((110, 0.0140), (84, 0.0150), (70, 0.0115), (61, 0.0099)),
    ((448, 0.0192), (343, 0.0169), (283, 0.0154), (246, 0.0149)),
    ((142, 0.0026), (109, 0.0030), (90, 0.0027), (78, 0.0022)),
    ((123, 0.0265), (94, 0.0307), (78, 0.0239), (68, 0.0233)),
    ((123, 0.0044), (94, 0.0050), (78, 0.0037), (68, 0.0045)),
    ((39, 0.0566), (30, 0.0581), (25, 0.0421), (22, 0.0341)),
    ((127, 0.0053), (97, 0.0046), (80, 0.0036), (70, 0.0042)),
)


def grid(chords: int) -> int:
    """Intervals of a cell's coarser solve: the fewest multiple of
    ``chords`` that is at least MIN_GRID."""
    return chords * -(-MIN_GRID // chords)


@cache
def smooth_masses(spec: str, x0: float, n: int) -> np.ndarray:
    """The smooth level's extrapolated bin masses on the grids n and 2n."""
    b = parse_boundary(spec)
    s = b.horizon_s
    return extrapolated_masses(lambda m: trapezoid_density(b, x0, s, m), s, N_BINS, n)


@cache
def chord_masses(spec: str, x0: float, chords: int, shifted: bool = True) -> np.ndarray:
    """The chord level's extrapolated bin masses, through the sweep's nodes
    (``shifted``) or through x0 + int_0^t_j f'."""
    b = parse_boundary(spec)
    s = b.horizon_s
    if shifted:
        nodes, values = sweep_level(b, x0, chords)
    else:
        nodes = np.linspace(0.0, s, chords + 1)
        values = x0 + integral_fprime(b, 0.0, nodes)
    slopes = np.diff(values) / np.diff(nodes)

    def slope(u):
        # the chord that holds u from the left; grid nodes that round just
        # past a chord node still take the chord that ends there
        left = np.ceil(u * (chords / s) - 1e-6).astype(int) - 1
        return slopes[np.clip(left, 0, chords - 1)]

    return extrapolated_masses(
        lambda m: level_density(lambda u: np.interp(u, nodes, values), slope, s, m),
        s, N_BINS, grid(chords))


def worst_bin(spec: str, x0: float, chords: int, n_paths: int, shifted: bool = True) -> float:
    """Largest |chord-level mass - smooth-level mass| / SE(n_paths) over the bins."""
    truth = smooth_masses(spec, x0, grid(chords))
    # bins that no path reaches in float64 (from t = 0.65 on -40t) are left out
    live = truth > 0.0
    se = np.sqrt(truth[live] * (1.0 - truth[live]) / n_paths)
    return float(np.max(np.abs(chord_masses(spec, x0, chords, shifted)[live] - truth[live]) / se))


def rule_chords(spec: str, x0: float, n_paths: int) -> int:
    return sweep_chords(parse_boundary(spec), x0, STEPS, n_paths)


def scan(spec: str, x0: float) -> list[tuple[int, int, float]]:
    """(chords, n, worst bin / SE(n)) for every chord count that the rule
    takes between the smallest and the largest of PATHS, each at the
    largest n that takes it."""
    lo, hi = min(PATHS), max(PATHS)
    rows = []
    chords = rule_chords(spec, x0, lo)
    while chords <= rule_chords(spec, x0, hi):
        # the largest n in [lo, hi] whose count is at most chords
        low, high = lo, hi
        while low < high:
            mid = (low + high + 1) // 2
            low, high = (mid, high) if rule_chords(spec, x0, mid) <= chords else (low, mid - 1)
        if rule_chords(spec, x0, low) == chords:
            rows.append((chords, low, worst_bin(spec, x0, chords, low)))
        chords += 1
    return rows


def _header() -> str:
    sizes = [f"{n:,}" for n in PATHS]
    return "| level | x₀ | " + " | ".join(sizes) + " |\n|---|---|" + "---|" * len(PATHS)


def main() -> None:
    print("Plain chords at the counts of CHANGES.md's unshifted table:",
          "chords, worst bin / SE(n) (printed there)\n")
    print(_header())
    for (label, spec, x0), row in zip(LEVELS, PLAIN_TABLE):
        cells = [f"{c}, {worst_bin(spec, x0, c, n, shifted=False):.4f} ({old:.4f})"
                 for n, (c, old) in zip(PATHS, row)]
        print(f"| {label} | {x0:g} | " + " | ".join(cells) + " |")
    print("\nShifted chords at the rule's counts: chords, worst bin / SE(n)\n")
    print(_header())
    worst = 0.0
    for label, spec, x0 in LEVELS:
        cells = []
        for n in PATHS:
            chords = rule_chords(spec, x0, n)
            bias = worst_bin(spec, x0, chords, n)
            worst = max(worst, bias)
            cells.append(f"{chords}, {bias:.4f}")
        print(f"| {label} | {x0:g} | " + " | ".join(cells) + " |")
    print(f"\nChord scan, {min(PATHS):,} to {max(PATHS):,} paths: every chord count "
          "the rule takes, each at the largest n that takes it; the worst cell\n")
    print("| level | x₀ | chords | worst: chords, n, worst bin / SE(n) |\n|---|---|---|---|")
    for label, spec, x0 in LEVELS:
        rows = scan(spec, x0)
        chords, n, bias = max(rows, key=lambda r: r[2])
        worst = max(worst, bias)
        print(f"| {label} | {x0:g} | {rows[0][0]}–{rows[-1][0]} | {chords}, {n:,}, {bias:.4f} |")
    print(f"\nLargest cell of the shifted table and the scan: {worst:.4f} SE(n)")


if __name__ == "__main__":
    main()
