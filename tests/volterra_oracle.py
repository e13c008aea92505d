"""Deterministic oracle for the hitting density of a curved level, shared by
the tests that hold the Feynman-Kac estimator and the sweep against the
truth.

Brownian motion from 0 first meets the level S(t) = x0 + int_0^t f' at
time t with density g(t), the solution of the second-kind Volterra
equation of Buonocore, Nobile & Ricciardi (1987),

    g(t) = -2 psi(t | 0, 0) + 2 int_0^t g(tau) psi(t | S(tau), tau) dtau,

    psi(t | y, tau) = 1/2 f(S(t), t | y, tau) [k(t) - (S(t) - y) / (t - tau)],

with f the Gaussian transition density.  The k(t) terms cancel from the
exact equation, so any k is valid; k = S' makes the kernel vanish like
(t - tau)^(1/2) as tau -> t on a smooth level, so the trapezoid rule
applies as it stands; the square root caps its order near 1.5, which
``hitting_density_at`` measures rather than assumes.  On a straight
level the kernel is zero and g is Bachelier-Levy at any resolution.
``level_density`` takes the level as a callable pair (S, k), so that a
piecewise-linear level -- the sweep's chords -- is solved by the same
rule, with k the slope of the chord that holds t from the left.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular

from fpkit.boundary import eval_fprime, integral_fprime, integral_fprime_sq
from fpkit.grids import NumericalError

#: kernel entries per block of rows of ``level_density``'s solve (1 MB a
#: plane, which stays in cache: 2x faster than 8 MB)
BLOCK_ENTRIES = 1 << 17
#: intervals of ``hitting_density_at``'s coarsest trapezoid rule per unit of
#: t / x0^2, and its fewest; from x0 = 1 at t = 1 that is 100.  At 20 per
#: unit the rule's first differences change sign from x0 = 0.3, 0.2 and 0.1
#: on 0.5 + 0.3t and -0.5 + 0.6t, and at 40 they keep it from x0 = 1 down
#: to 0.1 on those levels and on 3t
INTERVALS_PER_SCALE = 40
MIN_INTERVALS = 100


def _psi(level_t, slope_t, t, level_tau, tau):
    """psi(t | S(tau), tau), rows t and columns tau, 0 where tau >= t (an
    infinite lag there makes the transition density, and so psi, 0)."""
    lag = t[:, None] - tau
    lag[lag <= 0.0] = np.inf
    gap = level_t[:, None] - level_tau
    drift = np.subtract(slope_t[:, None], gap / lag)
    gap *= gap
    gap /= lag
    gap *= -0.5
    psi = np.exp(gap, out=gap)
    lag *= 2.0 * np.pi
    psi /= np.sqrt(lag, out=lag)
    psi *= drift
    psi *= 0.5
    return psi


def level_density(level, slope, t: float, n: int) -> np.ndarray:
    """g at the n + 1 nodes i t / n by the trapezoid rule, for the level
    ``level``(u) with kernel slope ``slope``(u), both vectorised; g(0) = 0.

    Node i's equation is g_i = free_i + 2h sum_{0<j<i} psi_ij g_j (the
    tau = t_i end of the kernel is 0 and g(0) = 0).  Rows are solved in
    blocks: the columns before a block enter its right side as one product,
    and the block's own lower-triangular system is solved exactly."""
    nodes = np.linspace(0.0, t, n + 1)
    levels = np.asarray(level(nodes), dtype=float)
    slopes = np.asarray(slope(nodes), dtype=float)
    h = t / n
    zero = np.zeros(1)
    g = np.zeros(n + 1)
    rows = max(1, BLOCK_ENTRIES // n)
    for lo in range(1, n + 1, rows):
        hi = min(lo + rows, n + 1)
        free = -2.0 * _psi(levels[lo:hi], slopes[lo:hi], nodes[lo:hi], zero, zero)[:, 0]
        kernel = 2.0 * h * _psi(levels[lo:hi], slopes[lo:hi], nodes[lo:hi],
                                levels[1:hi], nodes[1:hi])
        rhs = free + kernel[:, :lo - 1] @ g[1:lo]
        block = np.eye(hi - lo) - kernel[:, lo - 1:]
        g[lo:hi] = solve_triangular(block, rhs, lower=True)
    return g


def trapezoid_density(b, x0: float, t: float, n: int) -> np.ndarray:
    """g at the n + 1 nodes i t / n of the level x0 + int_0^t f'; g(0) = 0."""
    return level_density(lambda u: x0 + integral_fprime(b, 0.0, u),
                         lambda u: eval_fprime(b, u), t, n)


def hitting_density_at(b, x0: float, t: float, n: int | None = None
                       ) -> tuple[float, float, float]:
    """(g(t), error estimate, observed order) by Richardson extrapolation.

    The trapezoid values at n, 2n and 4n intervals give the observed order
    p = log2((g_n - g_2n) / (g_2n - g_4n)), and the extrapolation
    g_4n + (g_4n - g_2n) / (2^p - 1).  The same from 2n, 4n and 8n gives a
    second extrapolation, and the gap between the two is the error
    estimate.  A level whose trapezoid values agree to rounding is
    returned as it stands, with its spread as the error.  n defaults to
    INTERVALS_PER_SCALE t / x0^2, at least MIN_INTERVALS: the step must be
    small against x0^2, the time scale on which g rises from 0.  First
    differences that change sign have no order, and raise NumericalError.
    """
    if n is None:
        n = max(MIN_INTERVALS, math.ceil(INTERVALS_PER_SCALE * t / x0 / x0))
    values = [trapezoid_density(b, x0, t, n * 2 ** k)[-1] for k in range(4)]
    diffs = np.diff(values)
    if np.all(np.abs(diffs) <= 1e-14 * abs(values[-1])):
        return values[-1], float(np.ptp(values)), math.nan
    if not np.all(diffs[:-1] * diffs[1:] > 0.0):
        raise NumericalError(f"trapezoid values {values} from x0 = {x0} at n = {n} do not "
                             "converge monotonically; take a larger n")
    extrapolated, orders = [], []
    for k in range(2):
        p = math.log2(diffs[k] / diffs[k + 1])
        extrapolated.append(values[k + 2] + diffs[k + 1] / (2.0 ** p - 1.0))
        orders.append(p)
    return extrapolated[1], abs(extrapolated[1] - extrapolated[0]), orders[1]


def bin_masses(g: np.ndarray, s: float, n_bins: int) -> np.ndarray:
    """Mass in each of ``n_bins`` equal bins of [0, s] of the density that
    is linear between its values ``g`` at equal nodes: the trapezoid rule
    where the bin edges are nodes."""
    h = s / (g.size - 1)
    cumulative = np.append(0.0, np.cumsum(0.5 * h * (g[1:] + g[:-1])))
    at = np.linspace(0.0, g.size - 1, n_bins + 1)
    node = np.minimum(at.astype(int), g.size - 2)
    frac = at - node
    slope = g[node + 1] - g[node]
    return np.diff(cumulative[node] + h * frac * (g[node] + 0.5 * frac * slope))


def extrapolated_masses(density, s: float, n_bins: int, n: int) -> np.ndarray:
    """Bin masses from ``density``(intervals) at n and 2n intervals,
    extrapolated at order 1.5, the order that ``hitting_density_at``
    measures."""
    coarse, fine = (bin_masses(density(m), s, n_bins) for m in (n, 2 * n))
    return fine + (fine - coarse) / (2.0 ** 1.5 - 1.0)


def hitting_bin_masses(b, x0: float, n_bins: int, n: int = 1280) -> np.ndarray:
    """First-passage mass in each of ``n_bins`` equal bins of [0, s], by
    ``extrapolated_masses`` on ``trapezoid_density``; n is a multiple of
    ``n_bins``, so that the masses are trapezoid rules.  At the default n
    every bin agrees to 2e-8 with the same extrapolation from 4n and 8n on
    f' = 0.5 + 0.3t and on f' = 3t, and to 1.7e-8 with their exact Airy
    series; from x0 = 0.5 and 0.3, and on -0.5 + 0.6t at s = 2, the gap
    to the series reaches 1.5e-7 to 2.7e-7."""
    if n % n_bins:
        raise ValueError(f"{n} intervals do not split into {n_bins} bins")
    s = b.horizon_s
    return extrapolated_masses(lambda m: trapezoid_density(b, x0, s, m), s, n_bins, n)


def fk_density(b, x0: float, est) -> tuple[float, float]:
    """(density, std error) at the horizon s from a ``bessel_bridge_fk``
    estimate: x0 (2 pi s^3)^(-1/2) exp(-x0^2/2s - f'(0) x0 - 1/2 int_0^s f'^2)
    times its mean and its std error, to hold against ``hitting_density_at``."""
    s = b.horizon_s
    prefactor = x0 / np.sqrt(2.0 * np.pi * s ** 3) * np.exp(
        -x0 * x0 / (2.0 * s) - eval_fprime(b, 0.0) * x0 - 0.5 * integral_fprime_sq(b, 0.0, s))
    return prefactor * est.mean, prefactor * est.std_error
