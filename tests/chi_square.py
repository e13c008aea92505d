"""Chi-square statistics of first-passage histograms, shared by the tests
that hold the sweep against an exact density or against another step grid."""

import numpy as np
from scipy.stats import chi2


def chi_square_vs_reference(hist, expected_masses):
    """Multinomial chi-square of binned counts against expected masses.

    The never-crossed remainder is included as an extra cell, so the
    statistic has (n_bins + 1) - 1 degrees of freedom.  Returns
    (statistic, p_value).
    """
    expected_masses = np.asarray(expected_masses, dtype=float)
    observed = np.append(hist.masses, 1.0 - hist.masses.sum()) * hist.n_total
    expected = np.append(expected_masses, 1.0 - expected_masses.sum()) * hist.n_total
    if np.any(expected <= 0.0):
        raise ValueError("expected counts must be positive in every cell")
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = hist.masses.size
    return stat, float(chi2.sf(stat, dof))


def chi_square_two_sample(hist_a, hist_b):
    """Two-sample chi-square of two histograms over the same bins, the
    never-crossed remainder again an extra cell; cells empty in both
    samples carry no information and are dropped.  Returns
    (statistic, p_value)."""
    cells = [np.append(h.masses, 1.0 - h.masses.sum()) * h.n_total for h in (hist_a, hist_b)]
    seen = cells[0] + cells[1] > 0.0
    obs_a, obs_b = (c[seen] for c in cells)
    ka, kb = np.sqrt(hist_b.n_total / hist_a.n_total), np.sqrt(hist_a.n_total / hist_b.n_total)
    stat = float(np.sum((ka * obs_a - kb * obs_b) ** 2 / (obs_a + obs_b)))
    return stat, float(chi2.sf(stat, obs_a.size - 1))
