import json
import os
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import fpkit.cli as cli
import fpkit.verify as verify
from fourier_oracle import assert_hermitian_fold
from fpkit.boundary import Boundary, boundary_potential, integral_fprime, parse_boundary
from fpkit.grids import GridField, GridSpec, NumericalError, sample_field, transform_grid
from fpkit.kernels import HORIZON_MARGIN, default_half_width, simpson_weights
from fpkit.parallel import run_in_order, usable_cores
from fpkit.solutions import (GammaPoly, closed_w, closed_w_gamma, phi_lambda, phi_lambda_planes,
                             product_phi_u, u_lambda, w1_lambda)
from fpkit.transform import bluman_shtelen_w
from fpkit.verify import (TOLERANCES, CheckResult, check_inequality, check_vanishing_at_origin,
                          fine_grid_residuals, observed_order, quadrature_match, residual_backward,
                          residual_forward, run_checks, transform_loop, vanishing_probes,
                          zero_identity_gap)

B_LIN = parse_boundary("s=1; fprime=0.5,0.3")
B_CONST = parse_boundary("s=1; fprime=1")
V_LIN = boundary_potential(B_LIN)

# measured 2nd-order truncation constant of closed_w on this boundary is
# ~40 in units of Delta^2 (max-norm relative, max_rel ~ 6.6e-4 here); the
# time difference is 4th-order, so the x stencil sets it
RESID_SPEC = GridSpec(0.0, 0.9, 0.05, 3.0, 226, 739)  # dt = dx = 4e-3
RESID_TOL = 2.5e-2


def test_residual_backward_closed_w():
    w = sample_field(RESID_SPEC, lambda t, x: closed_w(B_LIN, t, x))
    rep = residual_backward(w, V_LIN)
    assert rep.max_rel <= RESID_TOL
    assert rep.max_abs >= 0.0
    # argmax strictly inside the grid
    assert RESID_SPEC.t_min < rep.t_at_max < RESID_SPEC.t_max
    assert RESID_SPEC.x_min < rep.x_at_max < RESID_SPEC.x_max


def test_residual_zero_field():
    w = sample_field(RESID_SPEC, lambda t, x: np.zeros(np.broadcast(t, x).shape))
    rep = residual_backward(w, V_LIN)
    assert rep.max_abs == 0.0
    rep_f = residual_forward(w, V_LIN)
    assert rep_f.max_abs == 0.0


def test_residual_backward_u_lambda():
    spec = GridSpec(0.0, 0.9, 0.05, 3.0, 91, 296)
    w = sample_field(spec, lambda t, x: u_lambda(B_LIN, 0.0, t, x).real)
    rep = residual_backward(w, V_LIN)
    assert rep.max_rel <= 1e-4


def test_residual_forward_phi_lambda():
    spec = GridSpec(0.0, 0.9, 0.05, 3.0, 91, 296)
    phi0 = sample_field(spec, lambda t, x: phi_lambda(B_LIN, 0.0, t, x))
    assert residual_forward(phi0, V_LIN).max_rel <= 1e-4
    # lam = 2 has steeper time derivatives (lam^2 t / 2 in the exponent);
    # the 1e-4 figure needs the finer grid
    spec_fine = GridSpec(0.0, 0.9, 0.05, 3.0, 451, 1476)
    phi2 = sample_field(spec_fine, lambda t, x: phi_lambda(B_LIN, 2.0, t, x))
    assert residual_forward(GridField(spec_fine, phi2.values.real), V_LIN).max_rel <= 1e-4
    assert residual_forward(GridField(spec_fine, phi2.values.imag), V_LIN).max_rel <= 1e-4


def test_residual_time_stencil_exact_for_quartic():
    # w = c p(t) with p quartic solves -w_t + (p'/p) w = w_xx/2 (and
    # +w_t - (p'/p) w = w_xx/2); the five-point time stencils, central and
    # one-sided, differentiate quartics exactly, so the residual is roundoff
    # on every interior row including the first and last
    p = np.polynomial.Polynomial([1.0, 1.0, 1.0, 1.0, 1.0])
    dp = p.deriv()
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 11, 7)
    for scale in (1.0, 1.0 - 2.0j):
        w = sample_field(spec, lambda t, x: scale * p(t) + 0.0 * x)
        assert residual_backward(w, lambda t, x: dp(t) / p(t) + 0.0 * x).max_rel <= 1e-12
        assert residual_forward(w, lambda t, x: -dp(t) / p(t) + 0.0 * x).max_rel <= 1e-12


def test_residual_grid_too_small():
    spec = GridSpec(0.0, 0.5, 0.0, 1.0, 3, 8)
    w = sample_field(spec, lambda t, x: np.zeros(np.broadcast(t, x).shape))
    with pytest.raises(ValueError):
        residual_backward(w, V_LIN)


def test_residual_backward_gamma_solution():
    # higher kernel orders steepen the derivatives; the truncation constant
    # grows accordingly but the solution still satisfies the equation
    # (clean 2nd-order decay under refinement)
    g = GammaPoly((0.0, 1.0))

    def max_rel(nt, nx):
        spec = GridSpec(0.0, 0.9, 0.05, 3.0, nt, nx)
        w = sample_field(spec, lambda t, x: closed_w_gamma(B_LIN, g, t, x))
        return residual_backward(w, V_LIN).max_rel

    coarse = max_rel(226, 739)
    assert coarse <= 5e-2
    assert coarse / max_rel(451, 1477) >= 3.5


def test_residual_order_of_accuracy():
    def max_rel(nt, nx):
        spec = GridSpec(0.0, 0.9, 0.05, 3.0, nt, nx)
        w = sample_field(spec, lambda t, x: closed_w(B_LIN, t, x))
        return residual_backward(w, V_LIN).max_rel

    ratio = max_rel(226, 739) / max_rel(451, 1477)
    assert 3.5 <= ratio <= 4.5


# ------------------------------------------------------------ row blocks

SMALL_TSPEC = transform_grid(0.0, 0.9, 3.0, 31, 31)


def rows(spec, planes):
    """A walk source's ``planes_of``: the planes (re, im) = planes(t, x, out)
    on grid rows lo..hi-1 of ``spec``, whose nodes are built once, built in
    the block's planes ``out``."""
    tt, xx = spec.mesh()
    return lambda lo, hi, out: planes(tt[lo:hi], xx, out)


def fine_grid_results(spec, n_workers=1):
    """run_checks' residual entries, form-preservation maximum and transform
    loop deviation on ``spec`` (the loop's grid is SMALL_TSPEC)."""
    _, residuals, diagnostics = run_checks(B_LIN, spec, SMALL_TSPEC, TOLERANCES, 0, 1.0, None,
                                           n_workers=n_workers)
    return (residuals, diagnostics["form_preservation_max_abs"],
            diagnostics["transform_max_rel_deviation"])


@pytest.mark.parametrize("nt, n_workers", [(47, 1), (5, 1), (47, 2), (5, 2)],
                         ids=["47", "5", "47-2workers", "5-2workers"])
def test_row_block_seams_change_no_report(monkeypatch, nt, n_workers):
    # 47 rows is prime, so every height > 1 leaves a short last block; at
    # nt = 5 a block of >= 5 rows holds both one-sided rows.  Covers the
    # real closed w, the float64 Phi at lam = 0 and the complex Phi at 1.5,
    # streamed, and the sampled real closed w and complex u at lam = 1.5.
    # The transform loop's blocks on SMALL_TSPEC's 31 columns are then 1, 3,
    # 5, 9 and all 31 rows high, and its deviation and residual hold too.
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, nt, 61)
    w = sample_field(spec, lambda t, x: closed_w(B_LIN, t, x))
    u = sample_field(spec, lambda t, x: u_lambda(B_LIN, 1.5, t, x))
    assert u.values.dtype == np.complex128
    sources = [(rows(spec, lambda t, x, out: (closed_w(B_LIN, t, x, out=out), None)), -1.0)]
    sources += [(rows(spec, partial(phi_lambda_planes, B_LIN, lam)), +1.0)
                for lam in (0.0, 1.5)]
    results = {}
    for height in (1, 2, 3, 5, nt):
        monkeypatch.setattr(verify, "BLOCK_NODES", height * spec.nx)
        results[height] = (fine_grid_results(spec, n_workers),
                           residual_backward(w, V_LIN, n_workers).to_json(),
                           residual_backward(u, V_LIN, n_workers).to_json())
        # the one walk of run_checks reports each source as its own walk does
        assert verify._stream_checks(spec, sources, V_LIN, n_workers) == [
            verify._stream_checks(spec, [source], V_LIN, n_workers)[0] for source in sources]
    whole = results[nt]
    (residuals, form_max, dev), field_rep, u_rep = whole
    assert set(residuals) == {"backward_closed_w", "forward_phi_lam0.0_re",
                              "forward_phi_lam1.5_re", "forward_phi_lam1.5_im",
                              "backward_transform_w"}
    assert field_rep == residuals["backward_closed_w"]
    assert form_max > 0.0 and dev > 0.0 and u_rep["max_abs"] > 0.0
    for height, result in results.items():
        assert result == whole, height


def divided_residual(spec, w, v, time_sign):
    """(max |residual|, t, x at its first row-major maximum, max |w|) of
    time_sign * w_t + V w - w_xx/2 on the whole field ``w``, each stencil
    divided by its step as the residual kernel once did: the time stencils
    over 12 dt, then times time_sign, and the x stencil over dx^2, then
    times 0.5."""
    c = w[:, 1:-1]
    wt = np.empty((spec.nt - 2, spec.nx - 2), dtype=w.dtype)
    wt[1:-1] = (c[3:-1] - c[1:-3]) * 8.0 - c[4:] + c[:-4]
    wt[0] = -3.0 * c[0] - 10.0 * c[1] + 18.0 * c[2] - 6.0 * c[3] + c[4]
    wt[-1] = 3.0 * c[-1] + 10.0 * c[-2] - 18.0 * c[-3] + 6.0 * c[-4] - c[-5]
    wt /= 12.0 * spec.dt
    rows = w[1:-1]
    wxx = (rows[:, 2:] - rows[:, 1:-1] * 2.0 + rows[:, :-2]) / (spec.dx * spec.dx)
    tt, xx = spec.mesh()
    mags = np.abs(wt * time_sign + v(tt, xx)[1:-1, 1:-1] * rows[:, 1:-1] - wxx * 0.5)
    i, j = np.unravel_index(np.argmax(mags), mags.shape)
    return (mags[i, j], spec.t_min + (i + 1) * spec.dt, spec.x_min + (j + 1) * spec.dx,
            np.max(np.abs(w)))


@pytest.mark.parametrize("height", [1, 3, 47])
def test_block_peaks_match_the_divided_residual(monkeypatch, height):
    # the residual kernel scales each stencil by one multiply; on the 47-row
    # seam grid its reports keep the divided kernel's peaks to 1e-9 and their
    # (t, x) positions exactly, for the real closed w, Phi at lam = 0 and the
    # two planes of Phi at 1.5, streamed, and the complex sampled u at 1.5
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 47, 61)
    monkeypatch.setattr(verify, "BLOCK_NODES", height * spec.nx)
    tt, xx = spec.mesh()
    phi = phi_lambda(B_LIN, 1.5, tt, xx)
    u = u_lambda(B_LIN, 1.5, tt, xx)
    cases = [(closed_w(B_LIN, tt, xx), -1.0), (phi_lambda(B_LIN, 0.0, tt, xx), +1.0),
             (phi.real.copy(), +1.0), (phi.imag.copy(), +1.0), (u, -1.0)]
    sources = [(lambda lo, hi, out, field=field: (field[lo:hi], None), time_sign)
               for field, time_sign in cases]
    reports = [rep for (rep,) in verify._stream_checks(spec, sources, V_LIN)]
    for rep, (field, time_sign) in zip(reports, cases):
        max_abs, t_at, x_at, scale = divided_residual(spec, field, V_LIN, time_sign)
        assert rep.max_abs == pytest.approx(max_abs, rel=1e-9, abs=0.0)
        assert rep.max_rel == pytest.approx(max_abs / scale, rel=1e-9, abs=0.0)
        assert (rep.t_at_max, rep.x_at_max) == (t_at, x_at)


def whole_field_transform_loop(tspec):
    """transform_loop's (dev, report) from whole fields: the engine on u_0 and
    Phi_0 sampled on ``tspec``, its residual_backward, and the deviation
    from (x - int_0^t f') u_0 over the whole grid."""
    u0 = sample_field(tspec, partial(u_lambda, B_LIN, 0.0))
    w = bluman_shtelen_w(u0, sample_field(tspec, partial(phi_lambda, B_LIN, 0.0)))
    tt, xx = tspec.mesh()
    target = u0.values * (xx - integral_fprime(B_LIN, 0.0, tt))
    dev = float(np.max(np.abs(w.values - target))
                / max(float(np.max(np.abs(target))), verify.RELATIVE_FLOOR))
    return dev, residual_backward(w, V_LIN)


@pytest.mark.parametrize("tspec, height", [
    (SMALL_TSPEC, None), (SMALL_TSPEC, 4), (transform_grid(0.0, 0.9, 3.0, 331, 301), None)],
    ids=["small", "small-4-rows", "331x301"])
def test_transform_loop_is_the_whole_field_loop_bit_for_bit(monkeypatch, tspec, height):
    # the loop walks tspec in row blocks and reduces in block order: 331 is
    # prime, so its 159-row blocks end in a short one (13 rows), as SMALL_TSPEC's
    # 4-row blocks do (3 rows), while SMALL_TSPEC is one block by default
    if height is not None:
        monkeypatch.setattr(verify, "BLOCK_NODES", height * tspec.nx)
    expected = whole_field_transform_loop(tspec)
    assert expected[0] > 0.0 and expected[1].max_abs > 0.0
    for n_workers in (1, 2, 3):
        assert transform_loop(B_LIN, tspec, n_workers) == expected


def test_transform_loop_keeps_the_engine_refusals(tmp_path, capsys):
    # on f' = 10, Phi_0 = exp(50 t - 10 x) is e^-30 at t = 0, x = 3: below
    # MIN_FIELD_MAGNITUDE, so the loop's first block refuses it (exit 3),
    # after the residual grid, which stops at x = 1, has passed
    argv = ["verify", "--boundary", "s=1; fprime=10", "--grid", "0:0.5:9,0.05:1:9",
            "--transform-grid", "0:0.5:9,0:3:9", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    assert "at or below 1e-12" in capsys.readouterr().err
    with pytest.raises(ValueError, match="x_min = 0"):
        transform_loop(B_LIN, GridSpec(0.0, 0.9, 0.1, 3.0, 31, 31))
    with pytest.raises(ValueError, match="odd nx"):
        transform_loop(B_LIN, GridSpec(0.0, 0.9, 0.0, 3.0, 31, 30))


def test_streamed_field_keeps_whole_field_dtype_rule(monkeypatch):
    # rows t < 0.3 are real (and positive), so with 1-row blocks some blocks
    # of this complex field are float64: their imaginary residual is 0, not
    # skipped, and the report matches the whole sampled field's
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 23, 41)

    def fn(t, x):
        phi = phi_lambda(B_LIN, 1.5, t, x)
        return np.where(t < 0.3, np.abs(phi), phi)

    def planes(t, x, out):
        values = fn(t, x)
        return values.real, values.imag

    field = sample_field(spec, fn)
    expected = [residual_forward(GridField(spec, field.values.real), V_LIN),
                residual_forward(GridField(spec, field.values.imag), V_LIN)]
    for height in (1, 4, spec.nt):
        monkeypatch.setattr(verify, "BLOCK_NODES", height * spec.nx)
        assert verify._stream_checks(spec, [(rows(spec, planes), +1.0)], V_LIN) == [expected]


def test_all_zero_im_plane_gets_an_all_zero_report():
    # a source that yields an Im plane gets an imaginary report, zero when
    # the plane is zero everywhere: no block's Im plane counts as absent
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 23, 41)

    def planes(t, x, out):
        re = phi_lambda(B_LIN, 0.0, t, x)
        return re, np.zeros_like(re)

    ((re_rep, im_rep),) = verify._stream_checks(
        spec, [(rows(spec, planes), +1.0)], V_LIN)
    assert re_rep == residual_forward(sample_field(spec, partial(phi_lambda, B_LIN, 0.0)), V_LIN)
    assert (im_rep.max_abs, im_rep.max_rel) == (0.0, 0.0)
    assert (im_rep.t_at_max, im_rep.x_at_max) == (spec.t_min + spec.dt, spec.x_min + spec.dx)


def test_run_checks_samples_the_potential_once_per_fine_grid_block(monkeypatch):
    # closed w and Phi at lam = 0 and 1.5 share one walk of the fine grid
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 29, 61)
    monkeypatch.setattr(verify, "BLOCK_NODES", 4 * spec.nx)
    calls = []

    def counted_potential(b):
        v = boundary_potential(b)

        def counted(t, x, out=None):
            calls.append(np.shape(x))
            return v(t, x, out=out)
        return counted

    monkeypatch.setattr(verify, "boundary_potential", counted_potential)
    run_checks(B_LIN, spec, SMALL_TSPEC, TOLERANCES, 0, 1.0, None)
    # the transform loop's residual calls it on SMALL_TSPEC's 31 columns
    assert calls.count((1, spec.nx)) == len(list(verify._row_blocks(spec))) == 8


@pytest.mark.parametrize("height", [1, 4, 29])
def test_run_checks_builds_the_fine_grid_nodes_once_not_per_block(monkeypatch, height):
    # whatever the block height, one pass builds spec's nodes twice: once in
    # the walk, for the potential, and once in fine_grid_residuals, for the
    # three fields (not once per block of each field)
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 29, 61)
    monkeypatch.setattr(verify, "BLOCK_NODES", height * spec.nx)
    calls = []
    original = GridSpec.mesh

    def counted(grid):
        calls.append(grid)
        return original(grid)

    monkeypatch.setattr(GridSpec, "mesh", counted)
    run_checks(B_LIN, spec, SMALL_TSPEC, TOLERANCES, 0, 1.0, None)
    assert calls.count(spec) == 2


def fine_grid_peak(nt, n_workers):
    """Peak of the allocations traced, in every thread, over fine_grid_results
    on an nt x 2951 grid."""
    tracemalloc.start()
    try:
        fine_grid_results(GridSpec(0.0, 0.9, 0.05, 3.0, nt, 2951), n_workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fine_grid_memory_flat_in_nt():
    # the fine-grid fields are streamed in row blocks: doubling nt at fixed
    # nx leaves the peak of traced allocations where it was (sampling whole
    # fields doubles it).  One worker, so no two blocks' peaks can coincide.
    assert fine_grid_peak(321, 1) <= 1.1 * fine_grid_peak(161, 1)


def test_fine_grid_memory_two_workers_at_most_two_blocks():
    # two workers hold at most two blocks at once, and the rest of the run
    # is the one-worker run's, so the peak stays within twice that run's
    # however the threads interleave
    assert fine_grid_peak(321, 2) <= 2.0 * fine_grid_peak(321, 1)


def transform_peak(nt, n_workers):
    """Peak of the allocations traced, in every thread, over transform_loop
    on an nt x 301 transform grid."""
    tracemalloc.start()
    try:
        transform_loop(B_LIN, transform_grid(0.0, 0.9, 3.0, nt, 301), n_workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_loop_memory_flat_in_nt():
    # the loop's fields are built in row blocks of a reused workspace, so
    # doubling nt leaves the traced peak where it was (whole fields double
    # it: 10.97 MB against 5.56 MB)
    assert transform_peak(901, 1) <= 1.1 * transform_peak(451, 1)


def test_transform_loop_memory_two_workers_at_most_two_blocks():
    # each worker makes one workspace; the rest of the loop is shared
    assert transform_peak(901, 2) <= 2.0 * transform_peak(901, 1)


def test_fine_grid_residuals_are_the_ones_verify_writes(tmp_path):
    # acceptance criteria 1 and 2 read these reports
    assert cli.main(["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast",
                     "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "residuals.json").read_text())
    reports = fine_grid_residuals(B_LIN, GridSpec(0.0, 0.9, 0.05, 3.0, 226, 739))
    assert {key: rep.to_json() for key, rep in reports.items()} == {
        key: written[key] for key in reports}
    assert set(written) - set(reports) == {"backward_transform_w"}


def test_observed_order_halves_dt_and_dx_exactly():
    spec = GridSpec(0.0, 0.7, 0.1, 2.9, 6, 8)
    reports, ratios = observed_order(B_LIN, spec, 4)
    assert len(reports) == 4
    for k, level in enumerate(reports):
        for rep in level.values():
            assert rep.grid == GridSpec(0.0, 0.7, 0.1, 2.9, 2 ** k * 5 + 1, 2 ** k * 7 + 1)
            assert rep.grid.dt == spec.dt / 2 ** k and rep.grid.dx == spec.dx / 2 ** k
    assert set(ratios) == set(reports[0])
    assert all(len(r) == 3 for r in ratios.values())
    assert ratios["backward_closed_w"][1] == (reports[1]["backward_closed_w"].max_rel
                                              / reports[2]["backward_closed_w"].max_rel)


def test_observed_order_level_zero_is_fine_grid_residuals():
    spec = GridSpec(0.0, 0.9, 0.05, 3.0, 57, 185)
    reports, _ = observed_order(B_LIN, spec, 2, n_workers=2)
    assert reports[0] == fine_grid_residuals(B_LIN, spec)


def test_observed_order_of_closed_w_on_the_coarse_triple():
    # 114x370 -> 227x739 -> 453x1477: ratios approach 4 from above (4.88, 4.29)
    _, ratios = observed_order(B_LIN, GridSpec(0.0, 0.9, 0.05, 3.0, 114, 370), 3,
                               n_workers=2)
    assert len(ratios["backward_closed_w"]) == 2
    assert min(ratios["backward_closed_w"]) >= 3.5


@pytest.mark.parametrize("levels", [0, -1])
def test_observed_order_needs_a_level(levels):
    with pytest.raises(ValueError, match="levels >= 1"):
        observed_order(B_LIN, RESID_SPEC, levels)


def test_form_preservation_does_not_fail_under_refinement():
    # the form check samples Phi on the grid's t rows and x extents at the
    # x spacing nearest 0.05, so refining x changes none of its bits.  At
    # each grid's own dx the stencil's roundoff would read 2.81e-9, 1.12e-8
    # and 4.49e-8 here, 4x per halving.  Only the form entry is judged: at
    # nt = 9 other checks fail by design
    values = set()
    for nx in (2951, 5901, 11801):
        _, _, diagnostics = run_checks(B_LIN, GridSpec(0.0, 0.9, 0.05, 3.0, 9, nx),
                                       SMALL_TSPEC, TOLERANCES, 0, 1.0, None)
        values.add(diagnostics["form_preservation_max_abs"])
    assert len(values) == 1
    assert values.pop() <= TOLERANCES["tol_form_preservation"]


def test_complex_phi_pass_works_on_real_planes(monkeypatch):
    # the lam = 1.5 pass never unwraps, takes no cos, sin, hypot, log or
    # arctan2 on more nodes than one grid row (form preservation is not
    # taken on its blocks), and holds no complex block: at one worker its
    # traced peak is 4.7 of its halo'd block planes (float64)
    spec = GridSpec(0.0, 0.9, 0.05, 3.0, 161, 2951)

    def no_unwrap(*args, **kwargs):
        raise AssertionError("np.unwrap called")

    def at_most_a_row(name, ufunc):
        def guarded(*args, **kwargs):
            if any(np.size(a) > spec.nx for a in args):
                raise AssertionError(f"np.{name} called on more than one grid row")
            return ufunc(*args, **kwargs)
        return guarded

    monkeypatch.setattr(np, "unwrap", no_unwrap)
    for name in ("cos", "sin", "hypot", "log", "arctan2"):
        monkeypatch.setattr(np, name, at_most_a_row(name, getattr(np, name)))
    plane = (verify.BLOCK_NODES // spec.nx + 4) * spec.nx * 8
    tracemalloc.start()
    try:
        (reports,) = verify._stream_checks(
            spec, [(rows(spec, partial(phi_lambda_planes, B_LIN, 1.5)), +1.0)], V_LIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 2
    assert peak < 6 * plane


@pytest.mark.parametrize("seed", [7, 1, 123])
def test_zero_identity_draws_in_one_call_match_the_loop(seed):
    # run_checks draws its 200 zero-identity (t, x) pairs in one call.  The
    # worst gap is the loop's over zero_identity_gap at each pair bit for
    # bit, and the RNG state after it is the loop's, so the product-constancy
    # draws that follow, and their value, are unchanged.  Their 20 draws are
    # taken in one broadcast product_spread call, whose worst is the per-draw
    # loop's bit for bit
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 9, 11)
    _, _, diagnostics = run_checks(B_LIN, spec, SMALL_TSPEC, TOLERANCES, seed, 1.0, None)
    s = B_LIN.horizon_s
    rng = np.random.default_rng(seed)
    for _ in range(10):  # the quadrature draws
        rng.uniform(0.0, s - 0.05)
        rng.uniform(0.0, 2.0)
        rng.uniform(-1.0, 1.0, rng.integers(1, 5))
    zero_worst = 0.0
    for _ in range(200):
        t = rng.uniform(0.0, s - 0.05)
        x = rng.uniform(0.0, 3.0)
        zero_worst = max(zero_worst, zero_identity_gap(B_LIN, float(t), float(x)))
    prod_worst = 0.0
    for _ in range(20):  # one draw at a time, each by the per-draw formula
        lam = rng.uniform(-5.0, 5.0)
        ts, xs = rng.uniform(0.0, s, 50), rng.uniform(-2.0, 2.0, 50)
        ref = product_phi_u(B_LIN, lam)
        vals = phi_lambda(B_LIN, lam, ts, xs) * u_lambda(B_LIN, lam, ts, xs)
        prod_worst = max(prod_worst, float(np.max(np.abs(vals - ref)) / abs(ref)))
    assert diagnostics["zero_identity_worst"] == zero_worst
    assert diagnostics["product_constancy_worst"] == prod_worst


def test_run_checks_outputs_do_not_depend_on_worker_count(monkeypatch):
    # 3-row blocks, so that every worker count takes several blocks
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 29, 61)
    monkeypatch.setattr(verify, "BLOCK_NODES", 3 * spec.nx)
    runs = {}
    for n_workers in (1, 2, 3):
        checks, residuals, diagnostics = run_checks(B_LIN, spec, SMALL_TSPEC, TOLERANCES, 0,
                                                    1.0, None, n_workers=n_workers)
        runs[n_workers] = json.dumps([[c.to_json() for c in checks], residuals, diagnostics])
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_block_error_exits_3_and_the_pool_serves_the_next_run(tmp_path, monkeypatch, capsys):
    # two workers whatever the host; the block at t >= 0.5 of the lam = 1.5
    # field fails inside a worker or the caller
    monkeypatch.setattr(cli, "usable_cores", lambda: 2)
    original = verify.phi_lambda_planes

    def failing(b, lam, t, x, out=None):
        re, im = original(b, lam, t, x, out=out)
        if t[0, 0] >= 0.5 and im is not None:
            raise NumericalError("injected block failure")
        return re, im

    argv = ["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast"]
    with monkeypatch.context() as patch:
        patch.setattr(verify, "phi_lambda_planes", failing)
        assert cli.main(argv + ["--out", str(tmp_path / "failed")]) == 3
    assert "injected block failure" in capsys.readouterr().err
    assert cli.main(argv + ["--out", str(tmp_path / "next")]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_runs_where_the_platform_has_no_affinity_set(tmp_path, monkeypatch, capsys):
    # macOS and Windows have no os.sched_getaffinity: verify counts the
    # cores by os.cpu_count() there, and its outputs do not change
    argv = ["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast", "--out"]
    assert cli.main(argv + [str(tmp_path / "affinity")]) == 0
    printed = capsys.readouterr().out
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cores() == (os.cpu_count() or 1)
    assert cli.main(argv + [str(tmp_path / "count")]) == 0
    assert capsys.readouterr().out == printed
    for name in ("residuals.json", "diagnostics.json", "checks.json", "config.json"):
        assert (tmp_path / "count" / name).read_bytes() == (tmp_path / "affinity" / name).read_bytes()


def test_block_map_raises_the_first_failing_block():
    # item 3 fails late, so with several workers item 5 fails first; the
    # raise is still item 3's, the one a serial walk meets
    def work(i):
        if i == 3:
            time.sleep(0.05)
        if i in (3, 5):
            raise NumericalError(f"item {i}")
        return i

    for n_workers in (1, 2, 3):
        with pytest.raises(NumericalError, match="item 3"):
            run_in_order(work, range(9), n_workers)
        assert run_in_order(work, [0, 1, 2], n_workers) == [0, 1, 2]


def test_block_map_at_one_worker_runs_nothing_after_a_raise():
    calls = []

    def work(i):
        calls.append(i)
        if i in (3, 5):
            raise NumericalError(f"item {i}")
        return i

    with pytest.raises(NumericalError, match="item 3"):
        run_in_order(work, range(9), 1)
    assert calls == [0, 1, 2, 3]


def test_block_map_runs_each_block_once_under_thread_switching():
    # more workers than cores, switching threads every microsecond: a claim
    # taken twice or lost would repeat or drop an item
    calls = []

    def work(i):
        calls.append(i)
        return float(np.sum(np.arange(i % 50)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_in_order(work, list(range(3000)), 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == [float(np.sum(np.arange(i % 50))) for i in range(3000)]
    assert sorted(calls) == list(range(3000))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_verify_default_grid_max_rss_below_100mb(tmp_path):
    # the child reads its own high-water mark, VmHWM.  Its ru_maxrss would
    # not do: exec records the spawning process's peak there, and this test
    # process may be hundreds of MB by now
    probe = (
        "import sys\n"
        "from fpkit.cli import main\n"
        "rc = main(['verify', '--boundary', 's=1; fprime=0.5,0.3', '--out', sys.argv[1]])\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(rc, hwm)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True)
    rc, max_rss_kb = map(int, run.stdout.splitlines()[-1].split())
    assert rc == 0
    assert max_rss_kb / 1024 < 100.0


# ---------------------------------------------------------------- inequality

def fixed_level_field(s, spec):
    b = Boundary((0.0,), s)
    return sample_field(spec, lambda t, x: closed_w(b, t, x))


def test_inequality_zero_field_passes():
    spec = GridSpec(0.0, 0.4, 0.0, 3.0, 5, 21)
    w = sample_field(spec, lambda t, x: np.zeros(np.broadcast(t, x).shape))
    rep = check_inequality(w, 1.0)
    assert rep.violation_count == 0
    assert rep.total_points == 5 * 21


def test_inequality_fixed_level_below_horizon():
    # closed_w / h = s identically for a fixed level; s = 0.5 stays inside
    spec = GridSpec(0.0, 0.2, 0.1, 3.0, 5, 30)
    rep = check_inequality(fixed_level_field(0.5, spec), 0.5)
    assert rep.violation_count == 0
    assert rep.worst_margin >= 0.0


def test_inequality_fixed_level_above_horizon():
    # s = 2: the ratio is 2, every x > 0 node breaks the upper bound
    spec = GridSpec(0.0, 0.8, 0.1, 3.0, 5, 30)
    rep = check_inequality(fixed_level_field(2.0, spec), 2.0)
    assert rep.violation_count == rep.total_points
    assert rep.worst_margin < 0.0


def test_inequality_monotone_in_added_constant():
    spec = GridSpec(0.0, 0.2, 0.1, 3.0, 5, 30)
    base = fixed_level_field(0.5, spec)
    shifted = GridField(spec, base.values + 0.05)
    assert (check_inequality(shifted, 0.5).violation_count
            >= check_inequality(base, 0.5).violation_count)


def test_inequality_rejects_complex_and_bad_grid():
    spec = GridSpec(0.0, 0.4, 0.0, 3.0, 5, 21)
    w = sample_field(spec, lambda t, x: np.exp(1j * x) + 0 * t)
    with pytest.raises(ValueError):
        check_inequality(w, 1.0)
    w_real = sample_field(spec, lambda t, x: np.zeros(np.broadcast(t, x).shape))
    with pytest.raises(ValueError):
        check_inequality(w_real, 0.3)  # t_max >= s


# ------------------------------------------------------- vanishing at x -> 0

def test_vanishing_closed_w_passes():
    rep = check_vanishing_at_origin(lambda x: closed_w(B_LIN, 0.0, x), B_LIN.horizon_s)
    assert rep.violation_count == 0


def test_vanishing_gamma_solution_passes():
    g = GammaPoly((0.0, 1.0))
    rep = check_vanishing_at_origin(lambda x: closed_w_gamma(B_LIN, g, 0.0, x),
                                    B_LIN.horizon_s)
    assert rep.violation_count == 0


def test_vanishing_constant_field_fails():
    rep = check_vanishing_at_origin(lambda x: 1.0, 1.0)
    assert rep.violation_count > 0
    assert rep.worst_margin < 0.0


def test_vanishing_probes_at_unit_horizon_are_the_powers_of_two():
    want = tuple(2.0 ** -k for k in range(1, 21))
    assert [p.hex() for p in vanishing_probes(1.0)] == [p.hex() for p in want]
    assert [len(vanishing_probes(s)) for s in (0.1, 0.25, 2.0, 4.0)] == [19, 19, 21, 21]


def test_vanishing_line_passes_on_a_short_horizon():
    # at s = 0.1 the peak of x k(s, x) sits near sqrt(s) = 0.32: probes
    # from x = 0.5 would start past it, where |w(0, x)| still rises toward
    # the origin.  Only the vanishing line is read; the residual lines may
    # fail on a grid this small
    b = parse_boundary("s=0.1; fprime=0.5,0.3")
    spec = GridSpec(0.0, 0.04, 0.01, 1.0, 41, 331)
    tspec = transform_grid(0.0, 0.04, 1.0, 41, 101)
    checks, _, diagnostics = run_checks(b, spec, tspec, TOLERANCES, 20240501, 1.0, None)
    (line,) = [c for c in checks if c.name == "vanishing at origin (t=0)"]
    assert line.value == 0 and line.passed
    assert diagnostics["vanishing_at_origin"]["total"] == 19


# ---------------------------------------------------------- quadrature match

def test_quadrature_match_base_solution():
    assert quadrature_match(B_CONST, GammaPoly((1.0,)), 0.5, 1.0) <= 1e-8


def test_quadrature_match_zero_point():
    assert quadrature_match(B_CONST, GammaPoly((1.0,)), 0.0, 0.0) == 0.0


def test_quadrature_match_gamma_solution():
    assert quadrature_match(B_LIN, GammaPoly((0.0, 1.0)), 0.3, 0.8) <= 1e-8


def test_quadrature_match_window_precondition():
    with pytest.raises(ValueError):
        quadrature_match(B_CONST, GammaPoly((1.0,)), 0.96, 1.0)


def test_quadrature_draws_are_hermitian_and_their_half_fold_is_the_full_one():
    # run_checks' 10 quadrature draws at verify's default seed: each integrand
    # Gamma(lam) w1_lambda is Hermitian on all 16,001 nodes, so
    # symmetric_simpson's fold on lam >= 0 is the full mirrored fold bit for bit
    s = B_LIN.horizon_s
    rng = np.random.default_rng(cli.build_parser().parse_args(["verify"]).seed)
    for _ in range(10):
        t = float(rng.uniform(0.0, s - HORIZON_MARGIN))
        x = float(rng.uniform(0.0, 2.0))
        g = GammaPoly(tuple(rng.uniform(-1.0, 1.0, rng.integers(1, 5))))
        half_width = default_half_width(s - t, x + integral_fprime(B_LIN, t, s))
        assert_hermitian_fold(lambda lam: g(lam) * w1_lambda(B_LIN, lam, t, x), half_width)


# ------------------------------------------------------------ check results

def test_check_result_line_and_json():
    ok = CheckResult("residual", "max_rel", np.float64(3.0e-5), 1e-4)
    assert ok.line() == "PASS residual: max_rel=3.000e-05 tol=1.0e-04"
    bad = CheckResult("residual", "max_rel", np.float64(2.0e-4), 1e-4)
    assert bad.line() == "FAIL residual: max_rel=2.000e-04 tol=1.0e-04"
    # numpy values come out as plain JSON types
    assert json.loads(json.dumps(bad.to_json())) == {
        "name": "residual", "value": 2.0e-4, "tol": 1e-4,
        "margin": 1e-4 - 2.0e-4, "passed": False}
    assert type(bad.to_json()["passed"]) is bool
    count = CheckResult("vanishing", "violations", 1, 0)
    assert count.line() == "FAIL vanishing: violations=1"
    assert count.to_json()["value"] == 1.0 and not count.passed


# --------------------------------------------------- adjoint pairing (Green)

def test_adjoint_pairing_flux_identity():
    # d/dt int_0^X u Phi dx equals the boundary flux (Phi_x u - Phi u_x)/2
    # evaluated at both ends, for any backward/forward solution pair
    b = B_LIN
    lam_u, lam_phi = 1.3, 0.7
    X, n = 2.0, 4001
    xs = np.linspace(0.0, X, n)
    wts = simpson_weights(n, xs[1] - xs[0])

    def inner(t):
        return np.sum(wts * u_lambda(b, lam_u, t, xs) * phi_lambda(b, lam_phi, t, xs))

    def flux_at(t, x):
        h = 1e-6
        u_val = u_lambda(b, lam_u, t, x)
        p_val = phi_lambda(b, lam_phi, t, x)
        u_x = (u_lambda(b, lam_u, t, x + h) - u_lambda(b, lam_u, t, x - h)) / (2 * h)
        p_x = (phi_lambda(b, lam_phi, t, x + h) - phi_lambda(b, lam_phi, t, x - h)) / (2 * h)
        return 0.5 * (p_x * u_val - p_val * u_x)

    t0, h = 0.4, 1e-5
    lhs = (inner(t0 + h) - inner(t0 - h)) / (2 * h)
    rhs = flux_at(t0, X) - flux_at(t0, 0.0)
    assert abs(lhs - rhs) <= 1e-5 * (1 + abs(rhs))


def test_report_and_inequality_preconditions():
    from fpkit.verify import DiagnosticReport
    for count in (-1, 6):
        with pytest.raises(ValueError, match="violation count"):
            DiagnosticReport(count, 0.0, 5)
    spec = GridSpec(0.0, 0.5, -1.0, 1.0, 5, 5)
    w = sample_field(spec, lambda t, x: closed_w(B_LIN, t, x))
    with pytest.raises(ValueError, match="x >= 0"):
        check_inequality(w, B_LIN.horizon_s)
