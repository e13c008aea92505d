"""Multinomial chi-square of a first-passage histogram, shared by the tests
that hold the fixed-level sweep against its exact density."""

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
