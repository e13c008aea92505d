import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import invgauss, kstest, norm

from chi_square import chi_square_two_sample, chi_square_vs_reference
from fpkit import montecarlo
from fpkit.boundary import (Boundary, eval_fsecond, integral_fprime, parse_boundary,
                            sup_abs_fsecond)
from fpkit.grids import NumericalError
from fpkit.montecarlo import (BLOCK_SIZE, COARSE_CHORDS, MAX_UNIT_PATHS, MIN_STEPS,
                              REFERENCE_PATHS, DensityHistogram, MCConfig,
                              bessel_bridge_fk, compare_density,
                              first_passage_histogram, fk_intervals, sweep_chords,
                              sweep_level, _bin_masses, _bridge_nodes, _hit_times,
                              _radial_step, _refine)
from step_bias import worst_bin
from volterra_oracle import fk_density, hitting_bin_masses, hitting_density_at, trapezoid_density

B_ZERO = parse_boundary("s=1; fprime=0")
B_UP = parse_boundary("s=1; fprime=1")
B_LIN = parse_boundary("s=1; fprime=0.5,0.3")
B_DOWN = parse_boundary("s=1; fprime=0,-0.3")
B_STRONG = parse_boundary("s=1; fprime=0,3")
B_S2 = parse_boundary("s=2; fprime=-0.5,0.6")


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
    assert h.n_crossed == round(h.masses.sum() * h.n_total)
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
    with pytest.raises(ValueError):
        first_passage_histogram(B_LIN, float("nan"), cfg, 10)
    with pytest.raises(ValueError):
        bessel_bridge_fk(B_LIN, float("nan"), cfg)


def test_fk_past_float64_raises_numerical_error():
    # the squared radius, the weights exp(-I) and exp(-E[c]) each overflow
    # float64 in turn, and at a subnormal start E[R] divides by an
    # underflowed mean: refused, never returned as NaN or inf, and no
    # numpy warning escapes, in the pool's thread either (40,000 paths make
    # two work units); a start of 1e150 still gives a finite 0
    cfg = MCConfig(40000, 10, seed=1)
    for fprime, x in (("0.5,0.3", 1e160), ("0.5,-0.3", 2400.0), ("0.5,-0.3", 1e10),
                      ("0.5,0.3", 5e-324)):
        with pytest.raises(NumericalError, match="Feynman-Kac"):
            bessel_bridge_fk(parse_boundary(f"s=1; fprime={fprime}"), x, cfg, n_workers=2)
    est = bessel_bridge_fk(B_LIN, 1e150, cfg, n_workers=2)
    assert (est.mean, est.std_error) == (0.0, 0.0)


def test_sweep_refuses_a_level_past_its_float32_range():
    # d1 * d2 overflows float32 from |level| ~ 1.8e19, the cast itself from 3.4e38
    cfg = MCConfig(1000, 10, seed=1)
    for x0 in (1e20, 1e200):
        with pytest.raises(NumericalError, match="float32 sweep"):
            first_passage_histogram(B_LIN, x0, cfg, 10)
    assert first_passage_histogram(B_LIN, 1e18, cfg, 10).n_crossed == 0


def test_sweep_refuses_a_horizon_past_its_float32_range():
    # sqrt(dt) overflows float32 from s ~ 1.2e77, and the shift's h^2 float64
    # from s ~ 1.3e154: refused, with no numpy warning, and never a share
    # crossed by paths that stepped to -inf
    cfg = MCConfig(1000, 10, seed=1)
    for spec in ("s=1e78; fprime=0", "s=1e160; fprime=0", "s=1e300; fprime=0,1"):
        with pytest.raises(NumericalError, match="float32 sweep"):
            first_passage_histogram(parse_boundary(spec), 1.0, cfg, 10)
    flat = parse_boundary("s=1e18; fprime=0")
    assert first_passage_histogram(flat, 1.0, cfg, 10).n_crossed == 1000


def test_fixed_level_histogram_matches_exact_density():
    # bridge-corrected crossing sampling is exact in law for a fixed level;
    # 4 empirical standard errors per bin at this path count
    cfg = MCConfig(n_paths=200000, n_steps=400, seed=42)
    h = first_passage_histogram(B_ZERO, 1.0, cfg, 20)
    expected = compare_density(B_ZERO, 1.0, h).reference_mass
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
    # so 10 chords (two bins each) and the 14 that the rule takes at
    # 262,144 paths give one law at this size
    coarse = first_passage_histogram(B_LIN, 1.0, MCConfig(262144, 10, seed=31), 20)
    fine = first_passage_histogram(B_LIN, 1.0, MCConfig(262144, 2000, seed=32), 20)
    stat, p = chi_square_two_sample(coarse, fine)
    assert p > 0.001


@pytest.mark.parametrize("slope, n_bins", [(0.7, 20), (-0.5, 17)])
def test_line_through_chord_sweep_matches_bachelier_levy(slope, n_bins):
    # a 1e-300 curvature keeps the chord sweep (one 8-chord stride at
    # --steps 200), bridge refinement included, while the level equals
    # x0 + c t to float64; the strided chords are then exact, so
    # Bachelier-Levy is the law
    x0 = 1.0
    b = Boundary((slope, 1e-300), 1.0)
    h = first_passage_histogram(b, x0, MCConfig(n_paths=262144, n_steps=200, seed=1618),
                                n_bins, n_workers=2)
    masses = _bin_masses(lambda t: _bachelier_levy(x0, slope, t), h.bin_edges)
    stat, p = chi_square_vs_reference(h, masses)
    assert p > 0.001


@pytest.mark.parametrize("b, x0, n_steps, chords", [
    (B_LIN, 1.0, 36, 14),
    (B_DOWN, 1.0, 36, 14),
    # 40 chords: falls ~1.6 per 8-chord stride near t = 0.2, where its paths
    # cross: a path above a stride's lowest node must be refined, not skipped
    (parse_boundary("s=1; fprime=0,-40"), 2.0, 40, 40),
    # lowest at t = 0.5, inside the third stride: paths meet L mid-stride
    (parse_boundary("s=1; fprime=-1,2"), 1.0, 36, 35),
    # a start near the level: most near paths reach each stride's L
    (B_LIN, 0.2, 36, 30),
], ids=["rising", "falling", "steep", "dip", "near"])
def test_strided_sweep_matches_chord_by_chord_sweep(b, x0, n_steps, chords, monkeypatch):
    # one chord per stride is the plain per-chord sweep, on the same chords;
    # at 262,144 paths the rule takes 14 chords of either gentle level from
    # x0 = 1 (two strides of 7), 30 from x0 = 0.2 and 35 of the dip (five
    # strides of 7), and the steep level takes every requested step
    assert sweep_chords(b, x0, n_steps, 262144) == chords
    strided = first_passage_histogram(b, x0, MCConfig(262144, n_steps, seed=41), 20, n_workers=2)
    monkeypatch.setattr(montecarlo, "COARSE_CHORDS", 1)
    assert sweep_chords(b, x0, n_steps, 262144) == chords
    plain = first_passage_histogram(b, x0, MCConfig(262144, n_steps, seed=42), 20, n_workers=2)
    stat, p = chi_square_two_sample(strided, plain)
    assert p > 0.001


def test_far_curved_level_skips_every_stride(monkeypatch):
    def refine(*args):
        raise AssertionError("a stride refined a path 8 standard deviations off")

    monkeypatch.setattr(montecarlo, "_refine", refine)
    # one 8-chord stride at 20,000 paths, not a plain step
    assert sweep_chords(B_LIN, 8.0, 100, 20000) == COARSE_CHORDS
    h = first_passage_histogram(B_LIN, 8.0, MCConfig(20000, 100, seed=5), 10)
    assert h.n_crossed == 0
    assert not np.any(h.masses)


def test_stride_refines_only_the_paths_that_reach_its_lowest_node(monkeypatch):
    # on 3t at 50,000 paths ~5% of path-strides reach L; only those are
    # refined
    refined = []
    original = montecarlo._refine

    def refine(tau, *args):
        refined.append(tau.size)
        return original(tau, *args)

    monkeypatch.setattr(montecarlo, "_refine", refine)
    # 31 chords at 50,000 paths: four strides of 7 or 8 chords
    n_strides = -(-sweep_chords(B_STRONG, 1.0, 800, 50000) // COARSE_CHORDS)
    assert n_strides == 4
    first_passage_histogram(B_STRONG, 1.0, MCConfig(50000, 800, seed=7), 20, n_workers=2)
    assert 0 < sum(refined) <= 0.1 * 50000 * n_strides


@pytest.mark.parametrize("b, chords", [
    # from x0 = 1 at REFERENCE_PATHS, c = ceil(s sqrt(sup |f''| / (8 CHORD_GAP)))
    # is 18 at f'' = 0.3 and 55 at f'' = 3, and it scales by
    # (n_paths / REFERENCE_PATHS)^(1/5) elsewhere, one 8-chord stride at
    # least; past c, more requested steps add no chord
    (B_LIN, {REFERENCE_PATHS: [2, 10, 16, 17, 18, 18, 18],
             262144: [2, 10, 14, 14, 14, 14, 14],
             50000: [2, 10, 10, 10, 10, 10, 10],
             16: [2, 8, 8, 8, 8, 8, 8]}),
    (B_STRONG, {REFERENCE_PATHS: [2, 10, 16, 17, 55, 55, 55],
                262144: [2, 10, 16, 17, 42, 42, 42],
                50000: [2, 10, 16, 17, 31, 31, 31],
                16: [2, 8, 8, 8, 8, 8, 8]}),
    (B_UP, {n_paths: [1] * 7 for n_paths in (REFERENCE_PATHS, 262144, 50000, 16)}),
], ids=["gentle", "strong", "constant"])
def test_sweep_chord_count_per_requested_steps(b, chords, monkeypatch):
    # min(n, c) chords of n requested: the sweep's level nodes say so at 16
    # paths, where a curved level takes one stride, min(n, 8)
    steps = (2, 10, 16, 17, 400, 800, 2000)
    for n_paths, counts in chords.items():
        assert [sweep_chords(b, 1.0, n, n_paths) for n in steps] == counts, n_paths
    if b is not B_UP:
        assert chords[16] == [min(n, COARSE_CHORDS) for n in steps]
    nodes = []
    original = montecarlo.integral_fprime

    def level(b, a, t):
        nodes.append(np.size(t))
        return original(b, a, t)

    monkeypatch.setattr(montecarlo, "integral_fprime", level)
    for n in steps:
        first_passage_histogram(b, 1.0, MCConfig(16, n, seed=1), 4)
    assert [k - 1 for k in nodes] == chords[16]


def _counts_at_reference_paths(b, x, n_steps):
    """(chords, intervals) of the step rules at REFERENCE_PATHS paths: the
    chords within a gap of 1.25e-4 min(1, x) of the level, 8 at least, and
    FK's count of every run before the rules scaled with the path count."""
    if not any(b.deriv_coeffs[1:]):
        return 1, 0
    need = b.horizon_s * math.sqrt(sup_abs_fsecond(b) / (8.0 * 1.25e-4)) / math.sqrt(min(1.0, x))
    chords = min(n_steps, max(8, math.ceil(need)))
    return chords, 2 * math.ceil(min(16.0 * max(1.0, b.horizon_s / x / x), 2048.0))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.sampled_from([B_ZERO, B_UP, B_LIN, B_DOWN, B_STRONG, B_S2]),
       st.sampled_from([2.0, 1.0, 0.5, 0.3, 1e-3]), st.integers(2, 5000),
       st.integers(1, 10 ** 8), st.integers(1, 10 ** 8))
def test_step_counts_grow_with_paths_from_a_floor(b, x, n_steps, n_a, n_b):
    # nondecreasing in n_paths, never below the floors (n_steps caps the
    # sweep's), and at REFERENCE_PATHS the counts written out above
    lo, hi = sorted((n_a, n_b))
    chords, intervals = sweep_chords(b, x, n_steps, lo), fk_intervals(b, x, lo)
    assert chords <= sweep_chords(b, x, n_steps, hi)
    assert intervals <= fk_intervals(b, x, hi)
    if any(b.deriv_coeffs[1:]):
        assert chords >= min(n_steps, COARSE_CHORDS) and intervals >= MIN_STEPS
    else:
        assert (chords, intervals) == (1, 0)
    assert ((sweep_chords(b, x, n_steps, REFERENCE_PATHS), fk_intervals(b, x, REFERENCE_PATHS))
            == _counts_at_reference_paths(b, x, n_steps))


def test_sweep_chords_take_every_step_past_float64_curvature():
    # sup |f''| overflows float64 on this level; every requested step is taken
    b = Boundary((0.0,) * 16 + (1e300,), 1e3)
    assert sweep_chords(b, 1.0, 50, 16) == sweep_chords(b, 1.0, 50, REFERENCE_PATHS) == 50


@functools.cache
def _oracle_bin_masses(b):
    return hitting_bin_masses(b, 1.0, 20)


@pytest.mark.parametrize("b", [B_LIN, B_STRONG], ids=["gentle", "strong"])
@pytest.mark.parametrize("n_steps", [800, 2000])
def test_sweep_at_the_rule_chords_matches_volterra_oracle(b, n_steps):
    # 14 or 42 chords at 262,144 paths and both 800 and 2000 steps, whose
    # worst bin the bias table puts within 0.06 of this run's standard error
    h = first_passage_histogram(b, 1.0, MCConfig(262144, n_steps, seed=2026), 20,
                                n_workers=2)
    stat, p = chi_square_vs_reference(h, _oracle_bin_masses(b))
    assert p > 0.001


def test_sweep_at_the_scaled_chords_matches_volterra_oracle():
    # f' = 3t at 50,000 paths takes 31 chords, not the 55 of 1M paths
    cfg = MCConfig(50000, 2000, seed=2027)
    assert sweep_chords(B_STRONG, 1.0, cfg.n_steps, cfg.n_paths) == 31
    h = first_passage_histogram(B_STRONG, 1.0, cfg, 20, n_workers=2)
    stat, p = chi_square_vs_reference(h, _oracle_bin_masses(B_STRONG))
    assert p > 0.001


def test_sweep_from_a_small_start_matches_volterra_oracle():
    # 0.5 + 0.3t from x0 = 0.3, the tightest level of the unshifted chords'
    # bias table, takes 25 chords at 262,144 paths
    cfg = MCConfig(262144, 2000, seed=2028)
    assert sweep_chords(B_LIN, 0.3, cfg.n_steps, cfg.n_paths) == 25
    h = first_passage_histogram(B_LIN, 0.3, cfg, 20, n_workers=2)
    stat, p = chi_square_vs_reference(h, hitting_bin_masses(B_LIN, 0.3, 20))
    assert p > 0.001


@pytest.mark.parametrize("b", [B_UP, B_ZERO, parse_boundary("s=2; fprime=-0.7"),
                               Boundary((0.7, 1e-300), 1.0)],
                         ids=["rising", "fixed", "falling-s2", "line-through"])
def test_sweep_level_of_a_line_is_unshifted(b):
    # the shift -f''(t_j) h^2 / 12 is exactly 0 where f' is constant (and
    # rounds away at a curvature of 1e-300): the nodes are x0 + int_0^t f'
    for chords in (1, 7, 22):
        t, level = sweep_level(b, 1.3, chords)
        assert t.tobytes() == np.linspace(0.0, b.horizon_s, chords + 1).tobytes()
        assert level.tobytes() == (1.3 + integral_fprime(b, 0.0, t)).tobytes()


@pytest.mark.parametrize("b", [B_LIN, B_STRONG, B_S2, parse_boundary("s=1; fprime=0,0,2")],
                         ids=["gentle", "strong", "s2", "quadratic"])
def test_sweep_level_shifts_each_node_by_the_chords_mean_gap(b, monkeypatch):
    # a chord of width h lies f'' h^2 / 12 above the level on average; each
    # node is lowered by f''(t_j) h^2 / 12, and the sweep steps those nodes
    cfg = MCConfig(20000, 2000, seed=3)
    chords = sweep_chords(b, 1.0, cfg.n_steps, cfg.n_paths)
    h = b.horizon_s / chords
    t, level = sweep_level(b, 1.0, chords)
    unshifted = 1.0 + integral_fprime(b, 0.0, t)
    np.testing.assert_allclose(unshifted - level, eval_fsecond(b, t) * h * h / 12.0,
                               rtol=1e-9, atol=1e-15)
    strides = []
    original = montecarlo._refine

    def refine(tau, start, end, normals, expo, stride, dt):
        strides.append(stride)
        return original(tau, start, end, normals, expo, stride, dt)

    monkeypatch.setattr(montecarlo, "_refine", refine)
    first_passage_histogram(b, 1.0, cfg, 10)
    # the first stride's level nodes, in the sweep's float32
    assert strides[0].size > 2
    assert strides[0].tobytes() == level[:strides[0].size].astype(np.float32).tobytes()


@pytest.mark.parametrize("spec, x0", [("s=1; fprime=0.5,0.3", 0.3), ("s=1; fprime=0,3", 0.5)],
                         ids=["gentle-from-0.3", "strong-from-0.5"])
@pytest.mark.parametrize("n_paths", [50000, REFERENCE_PATHS])
def test_rule_chords_hold_the_bias_table(spec, x0, n_paths):
    # the chord bias table's tightest rows: at the rule's own chords the
    # shifted chord level's worst bin is within 0.06 of the run's standard
    # error, against the smooth level's Volterra bin masses
    chords = sweep_chords(parse_boundary(spec), x0, 2000, n_paths)
    assert worst_bin(spec, x0, chords, n_paths) <= 0.06


def test_bias_table_reprints_an_unshifted_cell():
    # 22 unshifted chords on 0.5 + 0.3t from x0 = 1 at 50,000 paths:
    # CHANGES.md's table printed 0.0065
    assert round(worst_bin("s=1; fprime=0.5,0.3", 1.0, 22, 50000, shifted=False), 4) == 0.0065


def _drawn_hit_times(rng, a, d2, dt):
    """``_hit_times`` on one normal and then one uniform per bridge from ``rng``."""
    n = np.size(a)
    return _hit_times(rng.standard_normal(n), rng.random(n), a, d2, dt)


@pytest.mark.parametrize("a, d2", [
    (1.0, 0.0),      # level flat against the bridge: Levy time
    (0.3, -0.7),     # endpoint past the level: a certain, direct hit
    (1e-40, 0.5),    # a float32 subnormal distance below the level
    (1e-40, 0.0),
])
def test_hit_times_finite_inside_step(a, d2):
    dt = 0.25
    u = _drawn_hit_times(np.random.default_rng(8), np.full(10000, a), np.full(10000, d2), dt)
    assert np.all(np.isfinite(u))
    assert np.all((u > 0.0) & (u < dt))


def test_hit_times_start_on_level():
    u = _drawn_hit_times(np.random.default_rng(8), np.zeros(1000), np.full(1000, 0.5), 0.25)
    assert np.all(u == 0.0)


def _hit_time_cdf(v, a, d2, dt):
    """P(u <= v) for the hit time u of a bridge over a step dt: u <= v iff
    r <= v dt / (dt - v), where r is Levy a^2 / Z^2 when d2 = 0 and inverse
    Gaussian with mean a dt / |d2|, shape a^2 otherwise."""
    r = v * dt / (dt - v)
    if d2 == 0.0:
        return 2.0 * norm.sf(a / np.sqrt(r))
    mean, shape = a * dt / abs(d2), a * a
    return invgauss.cdf(r, mean / shape, scale=shape)


@pytest.mark.parametrize("d2", [0.0, 0.8, -0.8])
def test_hit_times_law(d2):
    a, dt, n = 0.6, 0.5, 20000
    u = _drawn_hit_times(np.random.default_rng(99), np.full(n, a), np.full(n, d2), dt)
    assert kstest(u, lambda v: _hit_time_cdf(v, a, d2, dt)).pvalue > 0.001


def test_hit_times_law_on_mixed_widths():
    # one width per bridge: each time's own cdf maps it to a uniform
    a, d2, n = 0.6, 0.8, 20000
    dt = np.resize([0.5, 0.2, 0.05], n)
    u = _drawn_hit_times(np.random.default_rng(99), np.full(n, a), np.full(n, d2), dt)
    assert np.all((u >= 0.0) & (u <= dt))
    assert kstest(_hit_time_cdf(u, a, d2, dt), "uniform").pvalue > 0.001


def test_hit_times_equal_widths_match_the_scalar_call_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.exponential(size=5000)
    d2 = rng.normal(size=5000)
    d2[:100] = 0.0
    a[100:200] = 0.0
    dt = 0.37
    scalar = _drawn_hit_times(np.random.default_rng(4), a, d2, dt)
    array = _drawn_hit_times(np.random.default_rng(4), a, d2, np.full(a.size, dt))
    assert scalar.tobytes() == array.tobytes()


def test_hit_times_at_zero_width_are_zero():
    u = _drawn_hit_times(np.random.default_rng(8), np.array([0.0, 0.3, 1.0]),
                   np.array([0.5, 0.0, -0.2]), np.zeros(3))
    assert np.all(u == 0.0)


def _stride_nodes(k, dt):
    return (np.arange(k + 1) * dt).astype(np.float32)


@pytest.mark.parametrize("tau_chords", [0.3, 3.5, 7.4], ids=["first", "mid", "last"])
def test_bridge_nodes_follow_the_bridge_from_tau(tau_chords):
    # from (tau, L) to (k dt, z), node i at t_i > tau is normal with mean
    # L + (t_i - tau) / (k dt - tau) (z - L) and variance
    # (t_i - tau) (k dt - t_i) / (k dt - tau); nodes at or before tau are L
    k, dt, n, low, end = 8, 0.05, 20000, 0.3, -0.2
    t = _stride_nodes(k, dt)
    tau = np.float32(tau_chords * dt)
    normals = np.random.default_rng(21).standard_normal((k - 1, n), dtype=np.float32)
    s, x = _bridge_nodes(np.full(n, tau), np.full(n, low, dtype=np.float32),
                         np.full(n, end, dtype=np.float32), normals, t)
    big_t, tau = float(t[k]), float(tau)
    for i in range(1, k):
        ti = float(t[i])
        if ti <= tau:
            assert np.all(x[i] == np.float32(low))
            continue
        mean = low + (ti - tau) / (big_t - tau) * (end - low)
        sd = np.sqrt((ti - tau) * (big_t - ti) / (big_t - tau))
        assert kstest(x[i], norm(mean, sd).cdf).pvalue > 0.001
    assert np.all(x[k] == np.float32(end))


def test_refine_from_the_strides_last_instant():
    # tau = k dt (1 - 2**-24) and tau = k dt: every interior node is the
    # start, only the last chord is tested, over a width of ~k dt 2**-24 or
    # 0, and only the paths that end above the level cross in it
    k, dt, n = 8, 1.0 / 39.0, 4000
    level = np.linspace(0.5, 0.9, k + 1).astype(np.float32)
    t = _stride_nodes(k, dt)
    end = np.where(np.arange(n) % 2 == 1, 1.2, 0.4).astype(np.float32)
    rng = np.random.default_rng(5)
    for tau in (np.float32(k * dt * (1.0 - 2.0 ** -24)), t[k]):
        taus = np.full(n, tau, dtype=np.float32)
        start = np.full(n, level[0])
        normals = rng.standard_normal((k - 1, n), dtype=np.float32)
        s, x = _bridge_nodes(taus, start, end, normals, t)
        assert np.all(x[1:k] == start)
        cols, chord, offset, a, d2 = _refine(taus, start, end, normals,
                                             rng.standard_exponential((k, n), dtype=np.float32),
                                             level, dt)
        assert np.array_equal(cols, np.flatnonzero(end > level[k]))
        assert np.all(chord == k - 1)
        assert np.all(np.isfinite(a) & np.isfinite(d2)) and np.all(a >= 0.0)
        offset = offset.astype(np.float64)
        width = np.maximum(dt - offset, 0.0)
        assert np.all(width <= k * dt * 2.0 ** -23)
        u = _drawn_hit_times(rng, a, d2, width)
        assert np.all((u >= 0.0) & (u <= width))


def test_refine_after_a_direct_hit_of_the_lowest_node():
    # paths below L = level[k] that end at or above it (a direct hit, d2 <= 0)
    # meet L at a drawn tau and must cross a chord at or after it
    k, dt, n = 8, 1.0 / 39.0, 4000
    level = np.linspace(0.9, 0.5, k + 1).astype(np.float32)
    low = level.min()
    rng = np.random.default_rng(6)
    w = np.full(n, 0.2, dtype=np.float32)
    end = (low + np.abs(rng.standard_normal(n))).astype(np.float32)
    end[:10] = low
    tau = _drawn_hit_times(rng, low - w, low - end, k * dt).astype(np.float32)
    assert np.all((tau >= 0.0) & (tau <= np.float32(k * dt)))
    cols, chord, offset, a, d2 = _refine(
        tau, np.full(n, low), end, rng.standard_normal((k - 1, n), dtype=np.float32),
        rng.standard_exponential((k, n), dtype=np.float32), level, dt)
    assert np.array_equal(cols, np.arange(n))
    start = _stride_nodes(k, dt)[chord] + offset
    assert np.all((start >= tau) & (start <= np.float32(k * dt)))
    assert np.all(np.isfinite(a) & np.isfinite(d2)) and np.all(a >= 0.0)
    u = _drawn_hit_times(rng, a, d2, np.maximum(dt - offset.astype(np.float64), 0.0))
    assert np.all(np.isfinite(u))


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


def test_fk_int_start_matches_float_start_bit_for_bit():
    # an int x must build a float64 radius, not an int64 one that the
    # in-place bridge step cannot take
    cfg = MCConfig(20000, 10, seed=1)
    b = parse_boundary("s=1; fprime=0.5,-0.3")
    as_int, as_float = bessel_bridge_fk(b, 1, cfg), bessel_bridge_fk(b, 1.0, cfg)
    assert (as_int.mean, as_int.std_error) == (as_float.mean, as_float.std_error)


def test_fk_constant_slope_gives_exactly_one(monkeypatch):
    # f'' = 0 makes every trapezoid weight 0: no stream may even be made
    def stream(*args):
        raise AssertionError("FK made a stream on a level with f'' = 0")

    monkeypatch.setattr(montecarlo, "_block_rng", stream)
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


@pytest.mark.parametrize("b, x0", [
    (B_ZERO, 1.0),  # the plain step, whose crossing times run in packs
    (B_LIN, 0.05),  # five strides, in which most paths reach L
], ids=["plain", "strided"])
@pytest.mark.parametrize("n_workers", [1, 2])
def test_packing_does_not_change_the_histogram(b, x0, n_workers, monkeypatch):
    # blocks draw into runs of whole blocks' paths, so each block its own
    # run, each unit one run, and each block its own unit give the same
    # bytes; only the number of runs changes
    cfg = MCConfig(n_paths=3 * BLOCK_SIZE + 100, n_steps=100, seed=23)
    original = montecarlo._runs

    def histogram(**constants):
        runs = []

        def counted(*args):
            packed = original(*args)
            runs.extend(packed)
            return packed

        with monkeypatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(montecarlo, name, value)
            patch.setattr(montecarlo, "_runs", counted)
            return first_passage_histogram(b, x0, cfg, 20, n_workers), len(runs)

    default, n_default = histogram()
    one_block, n_one_block = histogram(REFINE_PATHS=1)
    one_unit, n_one_unit = histogram(REFINE_PATHS=MAX_UNIT_PATHS)
    small_units, _ = histogram(MAX_UNIT_PATHS=BLOCK_SIZE)
    assert n_one_block > n_default >= n_one_unit
    for h in (one_block, one_unit, small_units):
        assert h.masses.tobytes() == default.masses.tobytes()
        assert h.n_crossed == default.n_crossed > 0


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


def test_fk_matches_a_per_block_float64_reference():
    # one block at a time, drawing per step its normals and then its
    # exponentials, as the estimator does, and stepping on the graded mesh
    # u_j = s (1 - (1 - j/m)^2) with the rule's m (20 at 20,000 paths).  Both take
    # the same draws in float64, so only rounding may part them: the means
    # must agree within 1e-9 standard error and the standard errors within
    # 1e-9 of their own.  The reference sums the trapezoid
    # rules at m and at m/2 intervals (the even nodes), takes the Richardson
    # pair (4 exp(-I_m) - exp(-I_{m/2})) / 3 and, as its control variate,
    # the same pair of the integrals with its exact mean
    cfg = MCConfig(n_paths=20000, n_steps=200, seed=23)
    est = bessel_bridge_fk(B_LIN, 1.0, cfg)
    s, x, m = B_LIN.horizon_s, 1.0, fk_intervals(B_LIN, 1.0, cfg.n_paths)
    t = s * (1.0 - (1.0 - np.arange(m + 1) / m) ** 2)

    def trapezoid_coef(nodes):
        width = np.diff(nodes)
        coef = np.asarray(eval_fsecond(B_LIN, nodes), dtype=float)
        return coef * 0.5 * (np.append(width, 0.0) + np.append(0.0, width))

    coef_m, coef_h = trapezoid_coef(t), trapezoid_coef(t[::2])
    mu, sig = x * (s - t[1:-1]) / s, np.sqrt(t[1:-1] * (s - t[1:-1]) / s)
    mean_r = _noncentral_chi3_mean(mu, sig)
    mean_m = coef_m[0] * x + np.sum(coef_m[1:-1] * mean_r)
    mean_h = coef_h[0] * x + np.sum(coef_h[1:-1] * mean_r[1::2])
    mean_integral = (4.0 * mean_m - mean_h) / 3.0
    ys, cs = [], []
    for block, lo in enumerate(range(0, cfg.n_paths, BLOCK_SIZE)):
        n = min(BLOCK_SIZE, cfg.n_paths - lo)
        lead, trail = (n + 1) // 2, n // 2
        rng = montecarlo._block_rng(cfg.seed, block)
        radius = np.full(n, x)
        integral_m, integral_h = coef_m[0] * radius, coef_h[0] * radius
        for j in range(m - 1):
            z, e = rng.standard_normal(lead), rng.standard_exponential(lead)
            tau, dt = s - t[j], t[j + 1] - t[j]
            shrink = (tau - dt) / tau
            var = dt * shrink
            step = np.sqrt(var) * z
            radius *= shrink
            radius += np.concatenate([step, -step[:trail]])
            radius = np.sqrt(radius ** 2 + 2.0 * var * np.concatenate([e, e[:trail]]))
            integral_m += coef_m[j + 1] * radius
            if (j + 1) % 2 == 0:
                integral_h += coef_h[(j + 1) // 2] * radius
        y = (4.0 * np.exp(-integral_m) - np.exp(-integral_h)) / 3.0
        c = (4.0 * integral_m - integral_h) / 3.0
        for vals, out in ((y, ys), (c, cs)):
            out.append(np.append(0.5 * (vals[:trail] + vals[lead:]), vals[trail:lead]))
    y, c = np.concatenate(ys), np.concatenate(cs)
    cov = np.cov(y, c)
    beta = cov[0, 1] / cov[1, 1]
    mean64 = y.mean() - beta * (c.mean() - mean_integral)
    # the residual variance over count - 2 degrees of freedom, over the count
    se64 = np.sqrt((cov[0, 0] - beta * cov[0, 1]) * (y.size - 1) / (y.size - 2) / y.size)
    assert abs(est.mean - mean64) <= 1e-9 * est.std_error
    assert est.std_error == pytest.approx(se64, rel=1e-9)


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


@pytest.mark.parametrize("b", [B_LIN, B_DOWN, B_S2, B_STRONG],
                         ids=["rising", "falling", "s2", "strong"])
def test_fk_density_matches_volterra_oracle(b):
    # the hitting density at the horizon, prefactor x FK, against the
    # Buonocore-Nobile-Ricciardi solution; the Richardson pair on the graded
    # mesh keeps FK's bias far below the control variate's std error
    est = bessel_bridge_fk(b, 1.0, MCConfig(50000, 800, seed=808), n_workers=2)
    density, se = fk_density(b, 1.0, est)
    truth = hitting_density_at(b, 1.0, b.horizon_s)[0]
    assert abs(density - truth) <= 4.0 * se


def test_fk_richardson_on_the_coarsest_mesh_matches_volterra_oracle():
    # FK's mesh from x0 = 1 at s = 1, m = 30 graded intervals at 400k paths
    # and any --steps, where the plain trapezoid rule alone is biased by
    # many std errors
    est = bessel_bridge_fk(B_LIN, 1.0, MCConfig(400000, 32, seed=810), n_workers=2)
    density, se = fk_density(B_LIN, 1.0, est)
    truth = hitting_density_at(B_LIN, 1.0, 1.0)[0]
    assert abs(density - truth) <= 4.0 * se


def test_graded_mesh_even_nodes_are_the_half_mesh():
    # the Richardson pair shares one path set: node 2i of the m mesh must be
    # node i of the m/2 mesh bit for bit, and so must the time left
    for s in (1.0, 1.7):
        for m in range(16, 201, 2):
            nodes, left = montecarlo._graded_mesh(s, m)
            half_nodes, half_left = montecarlo._graded_mesh(s, m // 2)
            assert nodes[::2].tobytes() == half_nodes.tobytes(), (s, m)
            assert left[::2].tobytes() == half_left.tobytes(), (s, m)


def test_fk_control_variate_std_error():
    # 6.6e-5 with the plain mean of mirrored pairs
    est = bessel_bridge_fk(B_LIN, 1.0, MCConfig(50000, 800, seed=809), n_workers=2)
    assert 0.0 < est.std_error <= 1e-5


@pytest.mark.parametrize("b, x, intervals", [
    # intervals at REFERENCE_PATHS, 262,144, 50,000 and 16 paths
    (B_LIN, 1.0, (32, 28, 24, 16)), (B_STRONG, 1.0, (32, 28, 24, 16)),
    (B_LIN, 2.0, (32, 28, 24, 16)), (B_S2, 1.0, (64, 56, 46, 18)),
    (B_LIN, 0.5, (128, 110, 90, 34)), (B_LIN, 0.3, (356, 302, 246, 90)),
    (B_LIN, 1e-3, (4096,) * 4), (B_LIN, 5e-324, (4096,) * 4), (B_UP, 1.0, (0,) * 4),
], ids=["gentle", "strong", "far", "s2", "near", "nearer", "capped", "subnormal",
        "constant"])
def test_fk_interval_count_per_level(b, x, intervals, monkeypatch):
    # 32 max(1, s / x^2) (n_paths / REFERENCE_PATHS)^(1/8) intervals, even,
    # at least 16 and at most 4096, and not --steps: the nodes that f'' is
    # taken on say so (the run stops there), and a constant f' takes none
    class Taken(Exception):
        pass

    def fsecond(b, t):
        raise Taken(np.size(t) - 1)

    monkeypatch.setattr(montecarlo, "eval_fsecond", fsecond)
    counts = [fk_intervals(b, x, n_paths) for n_paths in (REFERENCE_PATHS, 262144, 50000, 16)]
    assert tuple(counts) == intervals
    # 16 paths scale the count by 0.25, so they take the floor wherever
    # s / x^2 < 2
    if intervals[0] and b.horizon_s < 2.0 * x * x:
        assert intervals[-1] == MIN_STEPS
    for n in (2, 32, 400, 800, 2000):
        if not intervals[-1]:
            assert bessel_bridge_fk(b, x, MCConfig(16, n, seed=1)).mean == 1.0
            continue
        with pytest.raises(Taken) as taken:
            bessel_bridge_fk(b, x, MCConfig(16, n, seed=1))
        assert taken.value.args == (intervals[-1],)


def test_fk_at_the_rule_intervals_matches_volterra_oracle():
    # f' = 2t^2, the table's steepest level (sup |f''| = 4), whose bias the
    # table puts within 0.1 of a 1M-path standard error at 32 intervals
    b = parse_boundary("s=1; fprime=0,0,2")
    est = bessel_bridge_fk(b, 1.0, MCConfig(1_000_000, 2000, seed=812), n_workers=2)
    density, se = fk_density(b, 1.0, est)
    truth = hitting_density_at(b, 1.0, 1.0)[0]
    assert abs(density - truth) <= 4.0 * se


def test_fk_at_the_scaled_intervals_matches_volterra_oracle():
    # f' = 2t^2 at 50,000 paths takes 24 intervals, not the 32 of 1M paths
    b = parse_boundary("s=1; fprime=0,0,2")
    cfg = MCConfig(50000, 2000, seed=813)
    assert fk_intervals(b, 1.0, cfg.n_paths) == 24
    density, se = fk_density(b, 1.0, bessel_bridge_fk(b, 1.0, cfg, n_workers=2))
    truth = hitting_density_at(b, 1.0, 1.0)[0]
    assert abs(density - truth) <= 4.0 * se


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
        MCEstimate(0.5, -1.0, 10, 16)
    with pytest.raises(ValueError, match="at least one bin"):
        first_passage_histogram(B_ZERO, 1.0, MCConfig(10, 10, seed=1), 0)


@pytest.mark.parametrize("n_paths", [1, 2])
def test_fk_with_too_few_paths_reports_zero_std_error(n_paths):
    # one or two paths make one mirrored pair: no degree of freedom is left
    est = bessel_bridge_fk(B_LIN, 1.0, MCConfig(n_paths, 8, seed=1))
    assert est.std_error == 0.0 and 0.0 < est.mean < 1.0 and est.n_paths == n_paths
