import numpy as np
import pytest

from fpkit.boundary import parse_boundary
from fpkit.montecarlo import (BLOCK_SIZE, MAX_UNIT_PATHS, DensityHistogram, MCConfig,
                              bessel_bridge_fk, chi_square_vs_reference, compare_density,
                              first_passage_histogram, kappa_time_density,
                              reference_time_density, _bin_masses, _radial_step)

B_ZERO = parse_boundary("s=1; fprime=0")
B_UP = parse_boundary("s=1; fprime=1")
B_LIN = parse_boundary("s=1; fprime=0.5,0.3")
B_DOWN = parse_boundary("s=1; fprime=0,-0.3")


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(n_paths=0, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        MCConfig(n_paths=10, n_steps=1, seed=1)
    with pytest.raises(ValueError):
        MCConfig(n_paths=10, n_steps=10, seed=-1)


def test_histogram_determinism_and_thread_independence():
    cfg = MCConfig(n_paths=70000, n_steps=150, seed=99)
    h1 = first_passage_histogram(B_ZERO, 1.0, cfg, 10)
    h2 = first_passage_histogram(B_ZERO, 1.0, cfg, 10)
    np.testing.assert_array_equal(h1.masses, h2.masses)
    assert h1.n_crossed == h2.n_crossed
    h3 = first_passage_histogram(B_ZERO, 1.0, cfg, 10, n_workers=3)
    np.testing.assert_array_equal(h1.masses, h3.masses)


def test_histogram_mass_and_fields():
    cfg = MCConfig(n_paths=20000, n_steps=100, seed=5)
    h = first_passage_histogram(B_ZERO, 1.0, cfg, 20)
    assert h.masses.sum() <= 1.0
    assert h.masses.sum() == pytest.approx(h.n_crossed / h.n_total)
    assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 1.0
    assert h.n_total == 20000


def test_far_level_never_crossed():
    cfg = MCConfig(n_paths=20000, n_steps=100, seed=5)
    h = first_passage_histogram(B_ZERO, 8.0, cfg, 10)
    assert h.n_crossed == 0


def test_receding_level_crosses_less():
    cfg = MCConfig(n_paths=50000, n_steps=200, seed=13)
    fixed = first_passage_histogram(B_ZERO, 1.0, cfg, 10)
    receding = first_passage_histogram(B_UP, 1.0, cfg, 10)
    assert receding.n_crossed < fixed.n_crossed


def test_x0_validation():
    cfg = MCConfig(n_paths=10, n_steps=10, seed=1)
    with pytest.raises(ValueError):
        first_passage_histogram(B_ZERO, 0.0, cfg, 10)
    with pytest.raises(ValueError):
        bessel_bridge_fk(B_ZERO, -1.0, cfg)


def test_fixed_level_histogram_matches_exact_density():
    # bridge-corrected crossing sampling is exact in law for a fixed level;
    # 4 empirical standard errors per bin at this path count
    cfg = MCConfig(n_paths=200000, n_steps=400, seed=42)
    h = first_passage_histogram(B_ZERO, 1.0, cfg, 20)
    expected = _bin_masses(lambda t: reference_time_density(B_ZERO, 1.0, t), h.bin_edges)
    se = np.sqrt(expected * (1 - expected) / h.n_total)
    assert np.all(np.abs(h.masses - expected) <= 4.0 * se)
    stat, p = chi_square_vs_reference(h, expected)
    assert p > 0.001


def test_kappa_and_reference_densities():
    # fixed level: kappa(t)/h(t) = t, and the reference is the exact density
    ts = np.array([0.25, 0.5, 0.75, 1.0])
    ratio = kappa_time_density(B_ZERO, 1.0, ts) / reference_time_density(B_ZERO, 1.0, ts)
    np.testing.assert_allclose(ratio, ts, rtol=1e-12)
    assert kappa_time_density(B_ZERO, 1.0, np.array([0.0]))[0] == 0.0


def test_compare_density_table():
    cfg = MCConfig(n_paths=50000, n_steps=200, seed=21)
    table = compare_density(B_ZERO, 1.0, cfg, n_bins=10)
    assert table.empirical.size == 10
    # for the fixed level, kappa mass per bin is the t-weighted reference
    assert np.all(table.kappa_mass < table.reference_mass)
    # determinism of the full table
    table2 = compare_density(B_ZERO, 1.0, cfg, n_bins=10)
    np.testing.assert_array_equal(table.empirical, table2.empirical)
    np.testing.assert_array_equal(table.z_scores, table2.z_scores)


def test_fk_constant_slope_gives_exactly_one():
    cfg = MCConfig(n_paths=4000, n_steps=50, seed=7)
    est = bessel_bridge_fk(B_UP, 1.0, cfg)  # f'' = 0
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.n_paths == 4000


def test_fk_positive_curvature_discounts():
    cfg = MCConfig(n_paths=30000, n_steps=200, seed=11)
    est = bessel_bridge_fk(B_LIN, 1.0, cfg)  # f'' = 0.3
    assert 0.0 < est.mean < 1.0
    assert est.std_error > 0.0


def test_fk_negative_curvature_exceeds_one():
    cfg = MCConfig(n_paths=30000, n_steps=200, seed=11)
    est = bessel_bridge_fk(B_DOWN, 1.0, cfg)  # f'' = -0.3
    assert est.mean > 1.0


def test_fk_determinism_and_thread_independence():
    cfg = MCConfig(n_paths=70000, n_steps=60, seed=3)
    e1 = bessel_bridge_fk(B_LIN, 1.0, cfg)
    e2 = bessel_bridge_fk(B_LIN, 1.0, cfg)
    assert e1.mean == e2.mean and e1.std_error == e2.std_error
    e3 = bessel_bridge_fk(B_LIN, 1.0, cfg, n_workers=4)
    assert e1.mean == e3.mean and e1.std_error == e3.std_error


@pytest.mark.parametrize("n_paths", [
    BLOCK_SIZE // 2 + 1,           # fewer paths than one block
    2 * BLOCK_SIZE + 123,          # not a multiple of the block size
    3 * BLOCK_SIZE - 7,            # three blocks: 5 workers outnumber them
    MAX_UNIT_PATHS + 2 * BLOCK_SIZE + 1,  # more paths than one work unit holds
])
@pytest.mark.parametrize("antithetic", [False, True])
def test_outputs_bitwise_independent_of_worker_count(n_paths, antithetic):
    cfg = MCConfig(n_paths=n_paths, n_steps=12, seed=17, antithetic=antithetic)
    hists = [first_passage_histogram(B_LIN, 0.5, cfg, 8, n_workers=w) for w in (1, 2, 3, 5)]
    fks = [bessel_bridge_fk(B_LIN, 1.0, cfg, n_workers=w) for w in (1, 2, 3, 5)]
    assert hists[0].n_crossed > 0
    for h, fk in zip(hists[1:], fks[1:]):
        assert h.masses.tobytes() == hists[0].masses.tobytes()
        assert h.n_crossed == hists[0].n_crossed
        assert (fk.mean, fk.std_error) == (fks[0].mean, fks[0].std_error)


def _noncentral_chi3_mean(mu, sig):
    """E|mu e1 + sig Z|, Z ~ N(0, I_3)."""
    from scipy.special import erf

    a = mu / (sig * np.sqrt(2.0))
    return (mu + sig ** 2 / mu) * erf(a) + sig * np.sqrt(2.0 / np.pi) * np.exp(-a * a)


def test_radial_step_matches_3d_step_law():
    # |a + sigma Z|, Z ~ N(0, I_3): noncentral chi_3 mean and second moment
    # |a|^2 + 3 sigma^2, within 4 standard errors
    n, r0, shrink, var = 10 ** 6, 0.8, 0.6, 0.15
    rng = np.random.default_rng(2024)
    radius = np.full(n, r0)
    _radial_step(radius, shrink, var, rng.standard_normal(n), rng.standard_exponential(n))
    mu, sig = shrink * r0, np.sqrt(var)
    mean_r = _noncentral_chi3_mean(mu, sig)
    second_r = mu ** 2 + 3.0 * sig ** 2
    se1 = radius.std() / np.sqrt(n)
    se2 = (radius ** 2).std() / np.sqrt(n)
    assert abs(radius.mean() - mean_r) <= 4.0 * se1
    assert abs(np.mean(radius ** 2) - second_r) <= 4.0 * se2


def test_fk_step_refinement_consistency():
    n_paths = 30000
    est_n = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 128, seed=101))
    est_2n = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 256, seed=202))
    combined = np.hypot(est_n.std_error, est_2n.std_error)
    assert abs(est_n.mean - est_2n.mean) <= 3.0 * combined


def test_fk_antithetic_consistent_and_not_noisier():
    n_paths = 40000
    plain = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 100, seed=55))
    anti = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 100, seed=55, antithetic=True))
    combined = np.hypot(plain.std_error, anti.std_error)
    assert abs(plain.mean - anti.mean) <= 3.0 * combined
    assert anti.std_error <= plain.std_error * 1.05


@pytest.mark.parametrize("n_paths", [4000, 4001])
def test_fk_antithetic_pairs_halve_error(n_paths):
    # negated radial normals with shared exponentials pair strongly; an odd
    # count leaves one path unpaired, and the mirrored halves must still be
    # averaged as pairs
    plain = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 40, seed=5))
    anti = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 40, seed=5, antithetic=True))
    assert anti.std_error < 0.5 * plain.std_error


def test_fk_bracketed_by_exact_radius_moments():
    # law-level check of the bridge sampler: with constant curvature c the
    # estimate E[exp(-c I)], I = int_0^s R_u du, must sit between the exact
    # Jensen bound exp(-c E[I]) and the second-order bound
    # 1 - c E[I] + (c^2/2) s int E[R^2], both computable in closed form
    # from the bridge marginals R_u = ||N(mu(u) e1, sigma(u)^2 I_3)||
    # with mu = x (s-u)/s and sigma^2 = u (s-u)/s.
    c, x, s = 0.3, 1.0, 1.0
    b = parse_boundary("s=1; fprime=0,0.3")  # f'' = 0.3

    u = np.linspace(0.0, s, 4001)[1:-1]
    mu = x * (s - u) / s
    sig = np.sqrt(u * (s - u) / s)
    mean_r = np.concatenate([[x], _noncentral_chi3_mean(mu, sig), [0.0]])
    second_r = np.concatenate([[x * x],
                               mu ** 2 + 3.0 * sig ** 2,
                               [0.0]])
    du = s / 4000
    m1 = float(np.trapezoid(mean_r, dx=du))
    m2_bound = s * float(np.trapezoid(second_r, dx=du))  # E[I^2] <= s int E[R^2]

    cfg = MCConfig(n_paths=200000, n_steps=400, seed=314)
    est = bessel_bridge_fk(b, x, cfg)
    lower = np.exp(-c * m1)
    upper = 1.0 - c * m1 + 0.5 * c * c * m2_bound
    assert lower - 4.0 * est.std_error <= est.mean <= upper + 4.0 * est.std_error


def test_histogram_invariants_enforced():
    with pytest.raises(ValueError):
        DensityHistogram(np.array([0.0, 0.5, 0.4]), np.array([0.1, 0.1]), 10, 100)
    with pytest.raises(ValueError):
        DensityHistogram(np.array([0.0, 0.5, 1.0]), np.array([0.9, 0.2]), 110, 100)
