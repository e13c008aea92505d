"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criterion 1 checks the residual operator's order of
convergence (ratio >= 3.5 under halving), not the order of each axis:
the time difference is 4th-order and the 2nd-order space difference
sets the measured ~3.8e-5 on the stated grid.  Criteria 1 and 2 read one
two-level ``observed_order`` call, whose level 0 is the stated grid.
"""

import functools
import os
import time

import numpy as np
import pytest

import fpkit as fp
from chi_square import chi_square_vs_reference
from fpkit.cli import main as cli_main
from fpkit.grids import GridSpec, sample_field, transform_grid
from fpkit.montecarlo import MCConfig, bessel_bridge_fk, compare_density, first_passage_histogram
from fpkit.parallel import usable_cores
from fpkit.solutions import GammaPoly
from fpkit.transform import log_phi_xx
from fpkit.verify import (check_inequality, check_vanishing_at_origin, form_preservation,
                          observed_order, product_spread, quadrature_match, transform_loop,
                          vanishing_probes, zero_identity_gap)
from volterra_oracle import fk_density, hitting_density_at

B_ACC = fp.parse_boundary("s=1; fprime=0.5,0.3")
GRID_ACC = GridSpec(0.0, 0.9, 0.05, 3.0, 901, 2951)  # dt = dx = 1e-3
WORKERS = usable_cores()


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


@functools.cache
def _halving():
    """(reports, ratios, seconds) of ``observed_order`` on GRID_ACC and its
    halving, 1801x5901 at dt = dx = 5e-4, timed over the one call that
    criteria 1 and 2 share, whichever runs first."""
    start = time.perf_counter()
    reports, ratios = observed_order(B_ACC, GRID_ACC, 2, WORKERS)
    return reports, ratios, time.perf_counter() - start


def test_criterion_01_backward_residual():
    reports, ratios, elapsed = _halving()
    rep = reports[0]["backward_closed_w"]
    (ratio,) = ratios["backward_closed_w"]
    ok = rep.max_rel <= 1e-4 and ratio >= 3.5 and elapsed < 30.0
    report(1, ok, f"max_rel={rep.max_rel:.3e} (tol 1e-4), halving ratio={ratio:.2f} "
                  f"(>=3.5), runtime={elapsed:.1f}s (<30s)")
    assert ratio >= 3.5
    assert elapsed < 30.0
    assert rep.max_rel <= 1e-4, (
        f"measured max_rel {rep.max_rel:.3e} at t={rep.t_at_max:.3f}, "
        f"x={rep.x_at_max:.3f} (halving ratio {ratio:.2f}); the closed form "
        "measures ~3.8e-5 with the 4th-order time stencil"
    )


def test_criterion_02_adjoint_residual():
    # Phi at lam = 0 is real; at lam = 1.5 its Re and Im are taken
    worst = max(rep.max_rel for key, rep in _halving()[0][0].items()
                if key.startswith("forward_"))
    ok = worst <= 1e-4
    report(2, ok, f"worst forward max_rel over lam in {{0, 1.5}}, re/im: {worst:.3e} (tol 1e-4)")
    assert ok


def test_criterion_03_form_preservation():
    # on the whole fine grid, at its own dx, and as verify takes it: on the
    # grid's t rows at the x spacing nearest 0.05
    worst = 0.0
    for lam in (0.0, 1.5):
        phi = sample_field(GRID_ACC, lambda t, x: fp.phi_lambda(B_ACC, lam, t, x))
        worst = max(worst, float(np.max(np.abs(log_phi_xx(phi).values))))
    shared = form_preservation(B_ACC, GRID_ACC)
    ok = worst <= 1e-8 and shared <= 1e-8
    report(3, ok, f"max |d2/dx2 log phi| = {worst:.3e} on the grid, {shared:.3e} on the "
                  "0.05 stencil (tol 1e-8)")
    assert ok


def test_criterion_04_contour_integration_match():
    rng = np.random.default_rng(20240404)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        deg_f = int(rng.integers(0, 3))
        b = fp.Boundary(tuple(rng.uniform(-1.0, 1.0, deg_f + 1)),
                        float(rng.uniform(0.5, 2.0)))
        t = float(rng.uniform(0.0, b.horizon_s - 0.05))
        x = float(rng.uniform(0.0, 2.0))
        g = GammaPoly(tuple(rng.uniform(-1.0, 1.0, int(rng.integers(1, 5)))))
        worst = max(worst, quadrature_match(b, g, t, x))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(4, ok, f"worst relative mismatch = {worst:.3e} (tol 1e-8), "
                  f"runtime={elapsed:.1f}s (<10s)")
    assert ok


def test_criterion_05_zero_identity():
    rng = np.random.default_rng(20240405)
    worst = 0.0
    for _ in range(1000):
        deg_f = int(rng.integers(0, 4))
        b = fp.Boundary(tuple(rng.uniform(-1.5, 1.5, deg_f + 1)),
                        float(rng.uniform(0.5, 2.0)))
        t = float(rng.uniform(0.0, b.horizon_s - 0.05))
        x = float(rng.uniform(0.0, 3.0))
        worst = max(worst, zero_identity_gap(b, t, x))
    ok = worst <= 1e-14
    report(5, ok, f"worst |w2| / |first term| = {worst:.3e} (tol 1e-14) at 1000 points")
    assert ok


def test_criterion_06_transform_loop():
    # the check fpkit verify runs, on its default transform grid
    dev, rep = transform_loop(B_ACC, transform_grid(0.0, 0.9, 3.0, 901, 301))
    ok = dev <= 1e-6 and rep.max_rel <= 1e-3
    report(6, ok, f"analytic-target deviation = {dev:.3e} (tol 1e-6), "
                  f"residual max_rel = {rep.max_rel:.3e} (tol 1e-3)")
    assert ok


def test_criterion_07_product_constancy():
    rng = np.random.default_rng(20240407)
    worst = 0.0
    for _ in range(20):
        deg_f = int(rng.integers(0, 4))
        b = fp.Boundary(tuple(rng.uniform(-1.5, 1.5, deg_f + 1)),
                        float(rng.uniform(0.5, 2.0)))
        lam = float(rng.uniform(-5.0, 5.0))
        ts = rng.uniform(0.0, b.horizon_s, 50)
        xs = rng.uniform(-2.0, 2.0, 50)
        worst = max(worst, product_spread(b, lam, ts, xs))
    ok = worst <= 1e-12
    report(7, ok, f"worst relative spread = {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_08_vanishing_at_origin():
    exact_zero = (fp.closed_w(B_ACC, 0.0, 0.0) == 0.0)
    g = GammaPoly((0.4, -0.7, 0.2))
    exact_zero &= (fp.closed_w_gamma(B_ACC, g, 0.0, 0.0) == 0.0)
    probes = vanishing_probes(B_ACC.horizon_s)  # the probes of fpkit verify's check, s = 1
    rep_w = check_vanishing_at_origin(lambda t, x: fp.closed_w(B_ACC, t, x), 0.0, probes)
    rep_g = check_vanishing_at_origin(
        lambda t, x: fp.closed_w_gamma(B_ACC, GammaPoly((0.0, 1.0)), t, x), 0.0, probes)
    probes_passed = rep_w.violation_count == 0 and rep_g.violation_count == 0
    ok = exact_zero and probes_passed
    report(8, ok, f"exact zeros at (0,0): {exact_zero}; probe checks passed: {probes_passed}")
    assert ok


def test_criterion_09_inequality_diagnostic():
    worst_ratio_dev = 0.0
    for s in (0.5, 2.0):
        b = fp.Boundary((0.0,), s)
        for x in np.linspace(0.05, 3.0, 20):
            ratio = fp.closed_w(b, 0.0, float(x)) / fp.derived_kernel(s, float(x))
            worst_ratio_dev = max(worst_ratio_dev, abs(ratio - s) / s)
    spec_lo = GridSpec(0.0, 0.2, 0.1, 3.0, 5, 30)
    b_lo = fp.Boundary((0.0,), 0.5)
    w_lo = sample_field(spec_lo, lambda t, x: fp.closed_w(b_lo, t, x))
    rep_lo = check_inequality(w_lo, 0.5)
    spec_hi = GridSpec(0.0, 0.8, 0.1, 3.0, 5, 30)
    b_hi = fp.Boundary((0.0,), 2.0)
    w_hi = sample_field(spec_hi, lambda t, x: fp.closed_w(b_hi, t, x))
    rep_hi = check_inequality(w_hi, 2.0)
    ok = (worst_ratio_dev <= 1e-12 and rep_lo.violation_count == 0
          and rep_hi.violation_count == rep_hi.total_points)
    report(9, ok, f"ratio deviation = {worst_ratio_dev:.3e} (tol 1e-12); "
                  f"s=0.5 violations = {rep_lo.violation_count} (want 0); "
                  f"s=2 violations = {rep_hi.violation_count}/{rep_hi.total_points} (want all)")
    assert ok


def test_criterion_10_monte_carlo_validation():
    b0 = fp.parse_boundary("s=1; fprime=0")
    workers = min(8, os.cpu_count() or 1)
    start = time.perf_counter()
    cfg = MCConfig(n_paths=1_000_000, n_steps=2000, seed=42)
    hist = first_passage_histogram(b0, 1.0, cfg, 20, n_workers=workers)
    elapsed = time.perf_counter() - start
    expected = compare_density(b0, 1.0, hist).reference_mass
    stat, p_value = chi_square_vs_reference(hist, expected)

    fk_flat = bessel_bridge_fk(fp.parse_boundary("s=1; fprime=1"), 1.0,
                               MCConfig(20000, 200, seed=7))
    # prefactor x FK at s against the Volterra oracle, in each run's std errors
    truth = hitting_density_at(B_ACC, 1.0, 1.0)[0]
    fk_z = []
    for cfg_fk in (MCConfig(50000, 400, seed=101), MCConfig(50000, 800, seed=202)):
        density, se = fk_density(B_ACC, 1.0, bessel_bridge_fk(B_ACC, 1.0, cfg_fk))
        fk_z.append((density - truth) / se)
    fk_ok = all(abs(z) <= 3.0 for z in fk_z)

    runtime_ok = elapsed < 60.0 if workers >= 8 else True
    ok = (p_value > 0.001 and fk_flat.mean == 1.0 and fk_flat.std_error == 0.0
          and fk_ok and runtime_ok)
    runtime_note = (f"runtime={elapsed:.1f}s (<60s, {workers} workers)" if workers >= 8
                    else f"runtime={elapsed:.1f}s ({workers} worker(s); 8 unavailable, "
                         "bound not asserted)")
    report(10, ok, f"chi2 p={p_value:.4f} (>0.001); flat-curvature FK mean={fk_flat.mean} "
                   f"(exactly 1); FK density z vs Volterra oracle="
                   f"{', '.join(f'{z:.2f}' for z in fk_z)} (|z|<=3); {runtime_note}")
    assert p_value > 0.001
    assert fk_flat.mean == 1.0 and fk_flat.std_error == 0.0
    assert fk_ok, fk_z
    assert runtime_ok


def test_criterion_11_simulate_determinism(tmp_path):
    args = ["simulate", "--boundary", "s=1; fprime=0.5,0.3", "--x0", "1",
            "--paths", "50000", "--steps", "500", "--seed", "2024", "--threads", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = cli_main(args + ["--out", str(out1)])
    rc2 = cli_main(args + ["--out", str(out2)])
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("fpt_histogram.csv", "comparison.csv", "feynman_kac.json",
                     "config.json")
    )
    ok = rc1 == 0 and rc2 == 0 and identical
    report(11, ok, f"repeated simulate byte-identical: {identical}")
    assert ok
