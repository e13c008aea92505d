import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import expon, invgauss, kstest, norm

from chi_square import chi_square_two_sample, chi_square_vs_reference
from fpkit import montecarlo
from fpkit.boundary import (Boundary, eval_fprime, eval_fsecond, integral_fprime_sq,
                            parse_boundary)
from fpkit.montecarlo import (BLOCK_SIZE, FK_CHUNK, MAX_UNIT_PATHS, DensityHistogram,
                              MCConfig, bessel_bridge_fk, compare_density,
                              first_passage_histogram, kappa_time_density,
                              reference_time_density, _bin_masses, _draw_variates,
                              _hit_times, _radial_step)
from volterra_oracle import hitting_density_at, trapezoid_density

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


def _bachelier_levy(x0, slope, t):
    """x0 (2 pi t^3)^(-1/2) exp(-(x0 + slope t)^2 / 2t), the hitting density
    of the level x0 + slope t, and 0 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = x0 / np.sqrt(2.0 * np.pi * t[pos] ** 3) * np.exp(
        -(x0 + slope * t[pos]) ** 2 / (2.0 * t[pos]))
    return out


@pytest.mark.parametrize("slope, n_bins", [(0.7, 20), (-0.5, 17)])
def test_constant_slope_histogram_matches_bachelier_levy(slope, n_bins):
    # a level x0 + c t is its own chord, so the sweep is exact in law: its
    # histogram must match x0 (2 pi t^3)^(-1/2) exp(-(x0 + c t)^2 / 2t) with
    # bins that no midpoint of the 7 nominal steps lines up with
    x0 = 1.0
    b = parse_boundary(f"s=1; fprime={slope}")
    h = first_passage_histogram(b, x0, MCConfig(n_paths=131072, n_steps=7, seed=2718), n_bins)
    masses = _bin_masses(lambda t: _bachelier_levy(x0, slope, t), h.bin_edges)
    stat, p = chi_square_vs_reference(h, masses)
    assert p > 0.001


def test_curved_level_histogram_independent_of_step_grid():
    # exact in-step crossing times leave a curved level only the chord error,
    # so 10 steps (two bins each) and 400 steps give one law at this size
    coarse = first_passage_histogram(B_LIN, 1.0, MCConfig(262144, 10, seed=31), 20)
    fine = first_passage_histogram(B_LIN, 1.0, MCConfig(262144, 400, seed=32), 20)
    stat, p = chi_square_two_sample(coarse, fine)
    assert p > 0.001


@pytest.mark.parametrize("slope, n_bins", [(0.7, 20), (-0.5, 17)])
def test_line_through_chord_sweep_matches_bachelier_levy(slope, n_bins):
    # a 1e-300 curvature keeps the 200-step sweep, strides and bridge
    # refinement included, while the level equals x0 + c t to float64; the
    # strided chords are then exact, so Bachelier-Levy is the law
    x0 = 1.0
    b = Boundary((slope, 1e-300), 1.0)
    h = first_passage_histogram(b, x0, MCConfig(n_paths=262144, n_steps=200, seed=1618),
                                n_bins, n_workers=2)
    masses = _bin_masses(lambda t: _bachelier_levy(x0, slope, t), h.bin_edges)
    stat, p = chi_square_vs_reference(h, masses)
    assert p > 0.001


@pytest.mark.parametrize("b, x0, n_steps", [
    (B_LIN, 1.0, 100),
    (B_DOWN, 1.0, 100),
    # falls ~1.6 per 8-chord stride near t = 0.2, where its paths cross:
    # a path above a stride's lowest node must be refined, not skipped
    (parse_boundary("s=1; fprime=0,-40"), 2.0, 40),
], ids=["rising", "falling", "steep"])
def test_strided_sweep_matches_chord_by_chord_sweep(b, x0, n_steps, monkeypatch):
    # one chord per stride is the plain per-chord sweep; 100 steps end on a
    # 4-chord stride
    strided = first_passage_histogram(b, x0, MCConfig(262144, n_steps, seed=41), 20, n_workers=2)
    monkeypatch.setattr(montecarlo, "COARSE_CHORDS", 1)
    plain = first_passage_histogram(b, x0, MCConfig(262144, n_steps, seed=42), 20, n_workers=2)
    stat, p = chi_square_two_sample(strided, plain)
    assert p > 0.001


def test_far_curved_level_skips_every_stride(monkeypatch):
    def refine(*args):
        raise AssertionError("a stride refined a path 8 standard deviations off")

    monkeypatch.setattr(montecarlo, "_refine", refine)
    h = first_passage_histogram(B_LIN, 8.0, MCConfig(20000, 100, seed=5), 10)
    assert h.n_crossed == 0
    assert not np.any(h.masses)


@pytest.mark.parametrize("a, d2", [
    (1.0, 0.0),      # level flat against the bridge: Levy time
    (0.3, -0.7),     # endpoint past the level: a certain, direct hit
    (1e-40, 0.5),    # a float32 subnormal distance below the level
    (1e-40, 0.0),
])
def test_hit_times_finite_inside_step(a, d2):
    dt = 0.25
    u = _hit_times(np.random.default_rng(8), np.full(10000, a), np.full(10000, d2), dt)
    assert np.all(np.isfinite(u))
    assert np.all((u > 0.0) & (u < dt))


def test_hit_times_start_on_level():
    u = _hit_times(np.random.default_rng(8), np.zeros(1000), np.full(1000, 0.5), 0.25)
    assert np.all(u == 0.0)


@pytest.mark.parametrize("d2", [0.0, 0.8, -0.8])
def test_hit_times_law(d2):
    # u <= v iff r <= R = v dt / (dt - v), where r is Levy a^2 / Z^2 when
    # d2 = 0 and inverse Gaussian with mean a dt / |d2|, shape a^2 otherwise
    a, dt, n = 0.6, 0.5, 20000
    u = _hit_times(np.random.default_rng(99), np.full(n, a), np.full(n, d2), dt)

    def cdf(v):
        r = v * dt / (dt - v)
        if d2 == 0.0:
            return 2.0 * norm.sf(a / np.sqrt(r))
        mean, shape = a * dt / abs(d2), a * a
        return invgauss.cdf(r, mean / shape, scale=shape)

    assert kstest(u, cdf).pvalue > 0.001


def test_kappa_and_reference_densities():
    # fixed level: kappa(t)/h(t) = t, and the reference is the exact density
    ts = np.array([0.25, 0.5, 0.75, 1.0])
    ratio = kappa_time_density(B_ZERO, 1.0, ts) / reference_time_density(B_ZERO, 1.0, ts)
    np.testing.assert_allclose(ratio, ts, rtol=1e-12)
    assert kappa_time_density(B_ZERO, 1.0, np.array([0.0]))[0] == 0.0


def test_compare_density_table():
    cfg = MCConfig(n_paths=50000, n_steps=200, seed=21)
    hist = first_passage_histogram(B_ZERO, 1.0, cfg, 10)
    table = compare_density(B_ZERO, 1.0, hist)
    assert table.empirical.size == 10
    # for the fixed level, kappa mass per bin is the t-weighted reference
    assert np.all(table.kappa_mass < table.reference_mass)
    # determinism of the full table
    table2 = compare_density(B_ZERO, 1.0, first_passage_histogram(B_ZERO, 1.0, cfg, 10))
    np.testing.assert_array_equal(table.empirical, table2.empirical)
    np.testing.assert_array_equal(table.z_scores, table2.z_scores)


def test_compare_density_empty_bin_z_floors_variance_at_one_path():
    # an empty bin's binomial variance is floored at 1/n, so its SE is 1/n
    n = 1024
    hist = DensityHistogram(np.linspace(0.0, 1.0, 5), np.array([0.0, 0.25, 0.25, 0.25]), 768, n)
    table = compare_density(B_ZERO, 1.0, hist)
    assert table.kappa_mass[0] > 0.0
    assert table.z_scores[0] == -table.kappa_mass[0] * n


def test_fk_constant_slope_gives_exactly_one(monkeypatch):
    # f'' = 0 makes every trapezoid weight 0: no path may be stepped
    def draw(*args):
        raise AssertionError("FK drew variates on a level with f'' = 0")

    monkeypatch.setattr(montecarlo, "_draw_variates", draw)
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
@pytest.mark.parametrize("falling", [False, True])  # f'' = +0.3 or -0.3
def test_outputs_bitwise_independent_of_worker_count(n_paths, falling):
    b = B_DOWN if falling else B_LIN
    cfg = MCConfig(n_paths=n_paths, n_steps=12, seed=17)
    hists = [first_passage_histogram(b, 0.5, cfg, 8, n_workers=w) for w in (1, 2, 3, 5)]
    fks = [bessel_bridge_fk(b, 1.0, cfg, n_workers=w) for w in (1, 2, 3, 5)]
    assert hists[0].n_crossed > 0
    for h, fk in zip(hists[1:], fks[1:]):
        assert h.masses.tobytes() == hists[0].masses.tobytes()
        assert h.n_crossed == hists[0].n_crossed
        assert (fk.mean, fk.std_error) == (fks[0].mean, fks[0].std_error)


def test_lowest_failing_unit_raises_and_the_pool_serves_the_next_call(monkeypatch):
    # one block per unit, so 3 blocks make 3 units at 2 workers.  Unit 1
    # fails late, so unit 2 fails first; the raise is still unit 1's, the
    # one a serial walk meets, and the next call is the serial result
    monkeypatch.setattr(montecarlo, "MAX_UNIT_PATHS", BLOCK_SIZE)
    cfg = MCConfig(n_paths=3 * BLOCK_SIZE, n_steps=12, seed=17)
    assert len(montecarlo._units(cfg.n_paths, 2)) == 3
    serial = first_passage_histogram(B_LIN, 0.5, cfg, 8)
    original = montecarlo._block_rng

    def failing(seed, block):
        if block == 1:
            time.sleep(0.05)
        if block in (1, 2):
            raise RuntimeError(f"unit {block}")
        return original(seed, block)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_block_rng", failing)
        with pytest.raises(RuntimeError, match="unit 1"):
            first_passage_histogram(B_LIN, 0.5, cfg, 8, n_workers=2)
    again = first_passage_histogram(B_LIN, 0.5, cfg, 8, n_workers=2)
    assert again.masses.tobytes() == serial.masses.tobytes()
    assert again.n_crossed == serial.n_crossed > 0


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
    _radial_step(radius, n, shrink, np.sqrt(var) * rng.standard_normal(n),
                 2.0 * var * rng.standard_exponential(n))
    mu, sig = shrink * r0, np.sqrt(var)
    mean_r = _noncentral_chi3_mean(mu, sig)
    second_r = mu ** 2 + 3.0 * sig ** 2
    se1 = radius.std() / np.sqrt(n)
    se2 = (radius ** 2).std() / np.sqrt(n)
    assert abs(radius.mean() - mean_r) <= 4.0 * se1
    assert abs(np.mean(radius ** 2) - second_r) <= 4.0 * se2


def test_radial_step_mirror_steps_with_negated_normals():
    # a mirror radius shares its partner's products; stepping it must give,
    # bit for bit, the plain step with the normal negated and e repeated
    rng = np.random.default_rng(7)
    radius, mirror = rng.random(9) + 0.5, rng.random(8) + 0.5
    z, e = np.sqrt(0.03) * rng.standard_normal(9), 0.06 * rng.standard_exponential(9)
    plain = np.concatenate([radius, mirror])
    _radial_step(plain, 17, 0.9, np.concatenate([z, -z[:8]]), np.concatenate([e, e[:8]]))
    paired = np.concatenate([radius, mirror])
    _radial_step(paired, 9, 0.9, z, e)
    assert paired.tobytes() == plain.tobytes()


def _variates(rng, k, n):
    z = np.empty((k, n), dtype=np.float32)
    e = np.empty((k, n), dtype=np.float32)
    _draw_variates(rng, z, e, np.empty((k + 1) // 2 * n))
    return z, e


@pytest.mark.parametrize("which, law", [(0, norm), (1, expon)], ids=["normal", "exponential"])
def test_drawn_variates_follow_their_laws(which, law):
    # 1M draws against N(0, 1) or Exp(1): chi-square over 50 equiprobable
    # cells, the last of them the remainder cell of chi_square_vs_reference
    sample = _variates(np.random.default_rng(99), FK_CHUNK, 10 ** 6 // FK_CHUNK)[which]
    cells = 50
    inner_edges = law.ppf(np.arange(1, cells) / cells)
    counts = np.bincount(np.searchsorted(inner_edges, sample.ravel()), minlength=cells)
    hist = SimpleNamespace(masses=counts[:-1] / sample.size, n_total=sample.size)
    stat, p = chi_square_vs_reference(hist, np.full(cells - 1, 1.0 / cells))
    assert p > 0.001, (stat, p)


class _ExtremeUniforms:
    """Stands in for a generator whose every float64 uniform is the largest,
    1 - 2**-53, and whose every float32 uniform is 0."""

    def random(self, dtype=np.float64, out=None):
        out[...] = 1.0 - 2.0 ** -53 if dtype == np.float64 else 0.0


def test_drawn_variates_reach_their_tails():
    # the smallest 1 - U, 2**-53, gives the radius sqrt(106 ln 2) = 8.57 at
    # angle 0 and the exponential 53 ln 2 = 36.7
    z, e = _variates(_ExtremeUniforms(), FK_CHUNK, 5)
    h = (FK_CHUNK + 1) // 2
    assert z[:h].min() > 8.0
    assert e.min() > 36.0


def test_fk_float32_radius_matches_float64_stepping():
    # the estimator steps and sums in float32; stepping its own draws in
    # float64 here, on the graded mesh u_j = s (1 - (1 - j/m)^2), m = n/2,
    # with the control-variate estimate, must give the same mean within
    # 0.01 standard error
    cfg = MCConfig(n_paths=20000, n_steps=200, seed=23)
    est = bessel_bridge_fk(B_LIN, 1.0, cfg)
    s, x, m = B_LIN.horizon_s, 1.0, cfg.n_steps // 2
    t = s * (1.0 - (1.0 - np.arange(m + 1) / m) ** 2)
    coef = np.asarray(eval_fsecond(B_LIN, t), dtype=float)
    coef *= 0.5 * (np.append(np.diff(t), 0.0) + np.append(0.0, np.diff(t)))
    mu, sig = x * (s - t[1:-1]) / s, np.sqrt(t[1:-1] * (s - t[1:-1]) / s)
    mean_integral = coef[0] * x + np.sum(coef[1:-1] * _noncentral_chi3_mean(mu, sig))
    ys, cs = [], []
    for block, lo in enumerate(range(0, cfg.n_paths, BLOCK_SIZE)):
        n = min(BLOCK_SIZE, cfg.n_paths - lo)
        lead, trail = (n + 1) // 2, n // 2
        rng = montecarlo._block_rng(cfg.seed, block)
        radius = np.full(n, x)
        integral = coef[0] * radius
        for j0 in range(0, m - 1, FK_CHUNK):
            z, e = _variates(rng, min(FK_CHUNK, m - 1 - j0), lead)
            for i in range(z.shape[0]):
                tau, dt = s - t[j0 + i], t[j0 + i + 1] - t[j0 + i]
                shrink = (tau - dt) / tau
                var = dt * shrink
                step = np.sqrt(var) * z[i].astype(float)
                radius *= shrink
                radius += np.concatenate([step, -step[:trail]])
                expo = np.concatenate([e[i], e[i][:trail]]).astype(float)
                radius = np.sqrt(radius ** 2 + 2.0 * var * expo)
                integral += coef[j0 + i + 1] * radius
        for vals, out in ((np.exp(-integral), ys), (integral, cs)):
            out.append(np.append(0.5 * (vals[:trail] + vals[lead:]), vals[trail:lead]))
    y, c = np.concatenate(ys), np.concatenate(cs)
    cov = np.cov(y, c)
    mean64 = y.mean() - cov[0, 1] / cov[1, 1] * (c.mean() - mean_integral)
    assert abs(est.mean - mean64) <= 0.01 * est.std_error


@pytest.mark.parametrize("slope", [0.7, -0.5])
def test_volterra_oracle_is_bachelier_levy_on_a_straight_level(slope):
    b = parse_boundary(f"s=1; fprime={slope}")
    g = trapezoid_density(b, 1.0, 1.0, 200)
    t = np.linspace(0.0, 1.0, 201)[1:]
    np.testing.assert_allclose(g[1:], _bachelier_levy(1.0, slope, t), rtol=1e-8)
    value, error, order = hitting_density_at(b, 1.0, 1.0)
    assert value == pytest.approx(_bachelier_levy(1.0, slope, 1.0), rel=1e-8)
    assert error <= 1e-8 * value


def test_volterra_oracle_converges_on_a_curved_level():
    # the kernel's sqrt(t - tau) end caps the trapezoid rule near order 1.5
    value, error, order = hitting_density_at(B_LIN, 1.0, 1.0)
    assert 1.4 <= order <= 1.6
    assert error <= 1e-8
    assert value == pytest.approx(0.0924982208, abs=1e-10)


def _fk_density(b, x0, est):
    # x0 (2 pi s^3)^(-1/2) exp(-x0^2/2s - f'(0) x0 - 1/2 int_0^s f'^2) E[...]
    s = b.horizon_s
    prefactor = x0 / np.sqrt(2.0 * np.pi * s ** 3) * np.exp(
        -x0 * x0 / (2.0 * s) - eval_fprime(b, 0.0) * x0 - 0.5 * integral_fprime_sq(b, 0.0, s))
    return prefactor * est.mean, prefactor * est.std_error


@pytest.mark.parametrize("b", [B_LIN, B_DOWN, parse_boundary("s=2; fprime=-0.5,0.6")],
                         ids=["rising", "falling", "s2"])
def test_fk_density_matches_volterra_oracle(b):
    # the hitting density at the horizon, prefactor x FK, against the
    # Buonocore-Nobile-Ricciardi solution; the graded mesh keeps FK's bias
    # far below the control variate's std error
    est = bessel_bridge_fk(b, 1.0, MCConfig(50000, 800, seed=808), n_workers=2)
    density, se = _fk_density(b, 1.0, est)
    truth = hitting_density_at(b, 1.0, b.horizon_s)[0]
    assert abs(density - truth) <= 4.0 * se


def test_fk_control_variate_std_error():
    # 3.9e-5 with the plain mean of mirrored pairs
    est = bessel_bridge_fk(B_LIN, 1.0, MCConfig(50000, 800, seed=809), n_workers=2)
    assert 0.0 < est.std_error <= 1e-5


def test_fk_step_refinement_consistency():
    n_paths = 30000
    est_n = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 128, seed=101))
    est_2n = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 256, seed=202))
    combined = np.hypot(est_n.std_error, est_2n.std_error)
    assert abs(est_n.mean - est_2n.mean) <= 3.0 * combined


@pytest.mark.parametrize("n_paths", [4000, 4001])
def test_fk_std_error_matches_spread_of_means(n_paths):
    # the reported std error counts averaged mirror pairs, so over seeds the
    # means must scatter by about it; treating the mirrored paths as
    # independent samples understates it about threefold
    runs = [bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 40, seed=seed))
            for seed in range(1000, 1030)]
    spread = np.std([r.mean for r in runs], ddof=1)
    ratio = spread / np.median([r.std_error for r in runs])
    assert 0.6 <= ratio <= 1.5


def test_fk_odd_path_count_keeps_its_pairs():
    # an odd block leaves one path unpaired; every other path must still be
    # averaged with its own mirror, so one more path cannot cost precision
    even = bessel_bridge_fk(B_LIN, 1.0, MCConfig(4000, 40, seed=5))
    odd = bessel_bridge_fk(B_LIN, 1.0, MCConfig(4001, 40, seed=5))
    assert odd.std_error <= 1.2 * even.std_error


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
    for masses in (np.array([0.5, -0.1]), np.array([0.5])):
        with pytest.raises(ValueError, match="nonnegative, one per bin"):
            DensityHistogram(np.array([0.0, 0.5, 1.0]), masses, 10, 100)


def test_estimate_and_bin_count_preconditions():
    from fpkit.montecarlo import MCEstimate
    with pytest.raises(ValueError, match="negative"):
        MCEstimate(0.5, -1.0, 10)
    with pytest.raises(ValueError, match="at least one bin"):
        first_passage_histogram(B_ZERO, 1.0, MCConfig(10, 10, seed=1), 0)


@pytest.mark.parametrize("n_paths", [1, 2])
def test_fk_with_too_few_paths_reports_zero_std_error(n_paths):
    # one or two paths make one mirrored pair: no degree of freedom is left
    est = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 8, seed=1))
    assert est.std_error == 0.0 and 0.0 < est.mean < 1.0 and est.n_paths == n_paths
