"""Deterministic oracle for the hitting density of a curved level, shared by
the tests that hold the Feynman-Kac estimator against the truth.

Brownian motion from 0 first meets the level S(t) = x0 + int_0^t f' at
time t with density g(t), the solution of the second-kind Volterra
equation of Buonocore, Nobile & Ricciardi (1987),

    g(t) = -2 psi(t | 0, 0) + 2 int_0^t g(tau) psi(t | S(tau), tau) dtau,

    psi(t | y, tau) = 1/2 f(S(t), t | y, tau) [S'(t) - (S(t) - y) / (t - tau)],

with f the Gaussian transition density.  For a smooth level the kernel
vanishes like (t - tau)^(1/2) as tau -> t, so the trapezoid rule applies
as it stands; the square root caps its order near 1.5, which
``hitting_density_at`` measures rather than assumes.  On a straight
level the kernel is zero and g is Bachelier-Levy at any resolution.
"""

import math

import numpy as np

from fpkit.boundary import eval_fprime, integral_fprime, integral_fprime_sq


def _psi(b, x0, t, y, tau):
    """psi(t | y, tau) for a scalar t and arrays y, tau < t."""
    level = x0 + integral_fprime(b, 0.0, t)
    lag = t - tau
    gap = level - y
    density = np.exp(-gap * gap / (2.0 * lag)) / np.sqrt(2.0 * np.pi * lag)
    return 0.5 * density * (eval_fprime(b, t) - gap / lag)


def trapezoid_density(b, x0: float, t: float, n: int) -> np.ndarray:
    """g at the n + 1 nodes i t / n by the trapezoid rule; g(0) = 0."""
    nodes = np.linspace(0.0, t, n + 1)
    levels = x0 + integral_fprime(b, 0.0, nodes)
    h = t / n
    g = np.zeros(n + 1)
    for i in range(1, n + 1):
        free = -2.0 * _psi(b, x0, nodes[i], np.zeros(1), np.zeros(1))[0]
        # the tau = t_i end of the kernel is 0 and g(0) = 0: interior nodes only
        kernel = _psi(b, x0, nodes[i], levels[1:i], nodes[1:i])
        g[i] = free + 2.0 * h * (kernel @ g[1:i])
    return g


def hitting_density_at(b, x0: float, t: float, n: int = 100) -> tuple[float, float, float]:
    """(g(t), error estimate, observed order) by Richardson extrapolation.

    The trapezoid values at n, 2n and 4n intervals give the observed order
    p = log2((g_n - g_2n) / (g_2n - g_4n)), and the extrapolation
    g_4n + (g_4n - g_2n) / (2^p - 1).  The same from 2n, 4n and 8n gives a
    second extrapolation, and the gap between the two is the error
    estimate.  A level whose trapezoid values agree to rounding is
    returned as it stands, with its spread as the error.
    """
    values = [trapezoid_density(b, x0, t, n * 2 ** k)[-1] for k in range(4)]
    diffs = np.diff(values)
    if np.all(np.abs(diffs) <= 1e-14 * abs(values[-1])):
        return values[-1], float(np.ptp(values)), math.nan
    extrapolated, orders = [], []
    for k in range(2):
        p = math.log2(diffs[k] / diffs[k + 1])
        extrapolated.append(values[k + 2] + diffs[k + 1] / (2.0 ** p - 1.0))
        orders.append(p)
    return extrapolated[1], abs(extrapolated[1] - extrapolated[0]), orders[1]


def hitting_bin_masses(b, x0: float, n_bins: int, n: int = 1280) -> np.ndarray:
    """First-passage mass in each of ``n_bins`` equal bins of [0, s].

    Each bin's mass is the trapezoid rule on ``trapezoid_density``'s
    nodes, at n and at 2n intervals (n a multiple of ``n_bins``); the two
    are extrapolated at order 1.5, the order ``hitting_density_at``
    measures.  At the default n every bin agrees to 2e-8 with the same
    extrapolation from 4n and 8n on f' = 0.5 + 0.3t and on f' = 3t.
    """
    if n % n_bins:
        raise ValueError(f"{n} intervals do not split into {n_bins} bins")
    masses = []
    for intervals in (n, 2 * n):
        g = trapezoid_density(b, x0, b.horizon_s, intervals)
        per_bin = g[:-1].reshape(n_bins, -1)
        ends = np.append(per_bin[:, 0], g[-1])
        h = b.horizon_s / intervals
        masses.append(h * (per_bin.sum(axis=1) - 0.5 * ends[:-1] + 0.5 * ends[1:]))
    return masses[1] + (masses[1] - masses[0]) / (2.0 ** 1.5 - 1.0)


def fk_density(b, x0: float, est) -> tuple[float, float]:
    """(density, std error) at the horizon s from a ``bessel_bridge_fk``
    estimate: x0 (2 pi s^3)^(-1/2) exp(-x0^2/2s - f'(0) x0 - 1/2 int_0^s f'^2)
    times its mean and its std error, to hold against ``hitting_density_at``."""
    s = b.horizon_s
    prefactor = x0 / np.sqrt(2.0 * np.pi * s ** 3) * np.exp(
        -x0 * x0 / (2.0 * s) - eval_fprime(b, 0.0) * x0 - 0.5 * integral_fprime_sq(b, 0.0, s))
    return prefactor * est.mean, prefactor * est.std_error
