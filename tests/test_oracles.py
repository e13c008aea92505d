"""The test-side oracles held against each other: the Volterra solution of
``volterra_oracle`` against the Airy series of ``airy_oracle``, which is
exact on every level with linear f' and f'' > 0."""

import numpy as np
import pytest

import airy_oracle
from fpkit.boundary import eval_fprime, integral_fprime, parse_boundary
from fpkit.grids import NumericalError
from volterra_oracle import hitting_bin_masses, hitting_density_at, trapezoid_density

B_LIN = parse_boundary("s=1; fprime=0.5,0.3")
B_STRONG = parse_boundary("s=1; fprime=0,3")
B_S2 = parse_boundary("s=2; fprime=-0.5,0.6")


def _row_loop_density(b, x0, t, n):
    """The trapezoid rule row by row: g_i = -2 psi(t_i | 0, 0)
    + 2h sum_{0<j<i} psi(t_i | S(t_j), t_j) g_j."""
    def psi(ti, y, tau):
        level = x0 + integral_fprime(b, 0.0, ti)
        lag, gap = ti - tau, level - y
        density = np.exp(-gap * gap / (2.0 * lag)) / np.sqrt(2.0 * np.pi * lag)
        return 0.5 * density * (eval_fprime(b, ti) - gap / lag)

    nodes = np.linspace(0.0, t, n + 1)
    levels = x0 + integral_fprime(b, 0.0, nodes)
    g = np.zeros(n + 1)
    for i in range(1, n + 1):
        kernel = psi(nodes[i], levels[1:i], nodes[1:i])
        g[i] = -2.0 * psi(nodes[i], 0.0, 0.0) + 2.0 * (t / n) * (kernel @ g[1:i])
    return g


@pytest.mark.parametrize("b, x0", [(B_LIN, 1.0), (B_STRONG, 0.3), (B_S2, 1.0)])
def test_blocked_volterra_solve_matches_the_row_loop(b, x0):
    # the blocks sum in another order, so the two agree to a few float64 ulp
    n = 700
    np.testing.assert_allclose(trapezoid_density(b, x0, b.horizon_s, n),
                               _row_loop_density(b, x0, b.horizon_s, n), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("b, x0, t", [
    (B_LIN, 1.0, 1.0), (B_STRONG, 1.0, 1.0), (B_S2, 1.0, 2.0), (B_LIN, 0.5, 1.0),
    (B_LIN, 1.0, 0.3), (B_LIN, 0.3, 1.0), (B_STRONG, 0.3, 1.0),
], ids=["gentle", "strong", "s2", "near", "early", "small-start", "strong-small-start"])
def test_volterra_density_matches_the_airy_series(b, x0, t):
    # the Richardson value lies within its own error estimate of the exact
    # series, and the estimate is at most 2e-8 (1.6e-8 on 3t from x0 = 0.3)
    value, error, order = hitting_density_at(b, x0, t)
    exact = airy_oracle.hitting_density(b, x0, t)[0]
    assert abs(value - exact) <= error <= 2e-8


def test_volterra_density_from_a_small_start():
    # from x0 = 0.3 the resolution follows the start: 445 intervals, not 100
    value, error, order = hitting_density_at(B_LIN, 0.3, 1.0)
    assert abs(value - 0.0654131765) <= error
    assert 1.4 <= order <= 1.6


def test_volterra_density_refuses_first_differences_that_change_sign():
    # at h = 1/56, coarse against x0^2 = 0.09, the trapezoid values do not
    # fall monotonically, so they have no observed order
    with pytest.raises(NumericalError, match="monotonically"):
        hitting_density_at(B_LIN, 0.3, 1.0, n=56)


@pytest.mark.parametrize("b, x0, first, bound", [
    (B_STRONG, 1.0, 0, 2e-8), (B_S2, 1.0, 0, 3e-7), (B_STRONG, 0.5, 0, 3e-7),
    (B_LIN, 0.3, 1, 3e-7),
], ids=["strong", "s2", "strong-near", "small-start"])
def test_volterra_bin_masses_match_the_airy_series(b, x0, first, bound):
    # every bin of the default resolution within ``bound`` of the exact
    # masses; from x0 = 0.3 the first bin would need over 2^18 zeros of Ai
    edges = np.linspace(0.0, b.horizon_s, 21)[first:]
    exact = airy_oracle.hitting_bin_masses(b, x0, edges)
    assert np.max(np.abs(hitting_bin_masses(b, x0, 20)[first:] - exact)) <= bound


def test_airy_series_refuses_what_it_cannot_sum():
    with pytest.raises(ValueError, match="beta > 0"):
        airy_oracle.hitting_density(parse_boundary("s=1; fprime=0,-0.3"), 1.0, 1.0)
    with pytest.raises(ValueError, match="zeros of Ai"):
        airy_oracle.hitting_density(B_LIN, 0.3, 0.002)
    # where exp(-x0^2 / 2t) is below EARLY_CUT the density is 0
    assert airy_oracle.hitting_density(B_LIN, 1.0, 0.01)[0] == 0.0
