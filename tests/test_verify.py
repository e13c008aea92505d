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
from fpkit.boundary import Boundary, boundary_potential, parse_boundary
from fpkit.grids import (GridField, GridSpec, NumericalError, sample_field, sample_planes,
                         transform_grid)
from fpkit.kernels import simpson_weights
from fpkit.parallel import run_in_order
from fpkit.solutions import (GammaPoly, closed_w, closed_w_gamma, phi_lambda, phi_lambda_planes,
                             u_lambda)
from fpkit.transform import log_phi_xx
from fpkit.verify import (TOLERANCES, CheckResult, check_inequality,
                          check_vanishing_at_origin, product_spread, quadrature_match,
                          residual_backward, residual_forward, run_checks, zero_identity_gap)

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


def fine_grid_results(spec, n_workers=1):
    """run_checks' residual entries and form-preservation maximum on ``spec``."""
    _, residuals, diagnostics = run_checks(B_LIN, spec, SMALL_TSPEC, TOLERANCES, 0, 1.0, None,
                                           n_workers=n_workers)
    return residuals, diagnostics["form_preservation_max_abs"]


@pytest.mark.parametrize("nt, n_workers", [(47, 1), (5, 1), (47, 2), (5, 2)],
                         ids=["47", "5", "47-2workers", "5-2workers"])
def test_row_block_seams_change_no_report(monkeypatch, nt, n_workers):
    # 47 rows is prime, so every height > 1 leaves a short last block; at
    # nt = 5 a block of >= 5 rows holds both one-sided rows.  Covers the
    # real closed w, the float64 Phi at lam = 0 and the complex Phi at 1.5,
    # streamed, and the sampled real closed w and complex u at lam = 1.5.
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, nt, 61)
    w = sample_field(spec, lambda t, x: closed_w(B_LIN, t, x))
    u = sample_field(spec, lambda t, x: u_lambda(B_LIN, 1.5, t, x))
    assert u.values.dtype == np.complex128
    results = {}
    for height in (1, 2, 3, 5, nt):
        monkeypatch.setattr(verify, "BLOCK_NODES", height * spec.nx)
        results[height] = (fine_grid_results(spec, n_workers),
                           residual_backward(w, V_LIN, n_workers).to_json(),
                           residual_backward(u, V_LIN, n_workers).to_json())
    whole = results[nt]
    (residuals, form_max), field_rep, u_rep = whole
    assert set(residuals) == {"backward_closed_w", "forward_phi_lam0.0_re",
                              "forward_phi_lam1.5_re", "forward_phi_lam1.5_im",
                              "backward_transform_w"}
    assert field_rep == residuals["backward_closed_w"]
    assert form_max > 0.0 and u_rep["max_abs"] > 0.0
    for height, result in results.items():
        assert result == whole, height


def test_streamed_field_keeps_whole_field_dtype_rule(monkeypatch):
    # rows t < 0.3 are real (and positive), so with 1-row blocks some blocks
    # of this complex field are float64: their imaginary residual is 0, not
    # skipped, and the report matches the whole sampled field's
    spec = GridSpec(0.0, 0.8, 0.1, 2.5, 23, 41)

    def fn(t, x):
        phi = phi_lambda(B_LIN, 1.5, t, x)
        return np.where(t < 0.3, np.abs(phi), phi)

    def planes(t, x):
        values = fn(t, x)
        return values.real, values.imag

    field = sample_field(spec, fn)
    expected = ([residual_forward(GridField(spec, field.values.real), V_LIN),
                 residual_forward(GridField(spec, field.values.imag), V_LIN)],
                float(np.max(np.abs(log_phi_xx(field).values))))
    for height in (1, 4, spec.nt):
        monkeypatch.setattr(verify, "BLOCK_NODES", height * spec.nx)
        assert verify._stream_checks(spec, partial(sample_planes, spec, planes), V_LIN, +1.0,
                                     True) == expected


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


def test_max_modulus_is_the_largest_complex_abs():
    # the prefilter on re^2 + im^2 must not lose the largest |re + i im|:
    # near-ties on a circle, squares that overflow or underflow, zeros, NaN
    rng = np.random.default_rng(7)
    angle = rng.uniform(0.0, 2.0 * np.pi, 5000)
    cases = [rng.normal(size=(2, 40, 30))]
    for scale in (1.0, 1e-9, 1e200, 1e-170, 1e-320):
        radius = scale * (1.0 + rng.integers(-3, 4, angle.size) * np.finfo(float).eps)
        cases.append(np.stack([radius * np.cos(angle), radius * np.sin(angle)]))
    cases += [np.zeros((2, 3, 4)), np.array([[1.0, np.nan], [0.5, 2.0]]),
              np.array([[1e300, -1e300], [1e300, 1e-300]])]
    for re, im in cases:
        expected = np.max(np.abs(re + 1j * im))
        got = verify._max_modulus(re, im)
        assert got == expected or (np.isnan(got) and np.isnan(expected))


def test_complex_phi_pass_works_on_real_planes(monkeypatch):
    # the lam = 1.5 pass never unwraps, takes no cos, sin or hypot on more
    # nodes than one grid row, and holds no complex block: at one worker its
    # traced peak is 6.6 of its halo'd block planes (float64, and half as
    # tall as a real field's), where sampling and checking a complex128
    # block peaked at 9.1
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
    for name in ("cos", "sin", "hypot"):
        monkeypatch.setattr(np, name, at_most_a_row(name, getattr(np, name)))
    plane = (verify.BLOCK_NODES // (2 * spec.nx) + 4) * spec.nx * 8
    tracemalloc.start()
    try:
        reports, form_max = verify._stream_checks(
            spec, partial(sample_planes, spec, lambda t, x: phi_lambda_planes(B_LIN, 1.5, t, x)),
            V_LIN, +1.0, True, planes=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 2 and 0.0 < form_max < TOLERANCES["tol_form_preservation"]
    assert peak < 8 * plane


@pytest.mark.parametrize("seed", [7, 1, 123])
def test_zero_identity_draws_in_one_call_match_the_loop(seed):
    # run_checks draws its 200 zero-identity (t, x) pairs in one call.  The
    # worst gap is the loop's over zero_identity_gap at each pair bit for
    # bit, and the RNG state after it is the loop's, so the product-constancy
    # draws that follow, and their value, are unchanged
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
    for _ in range(20):
        lam = rng.uniform(-5.0, 5.0)
        prod_worst = max(prod_worst, product_spread(B_LIN, lam, rng.uniform(0.0, s, 50),
                                                    rng.uniform(-2.0, 2.0, 50)))
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
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    original = verify.sample_planes

    def failing(spec, fn, lo, hi):
        re, im = original(spec, fn, lo, hi)
        if spec.t_nodes()[lo] >= 0.5 and im is not None:
            raise NumericalError("injected block failure")
        return re, im

    argv = ["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast"]
    with monkeypatch.context() as patch:
        patch.setattr(verify, "sample_planes", failing)
        assert cli.main(argv + ["--out", str(tmp_path / "failed")]) == 3
    assert "injected block failure" in capsys.readouterr().err
    assert cli.main(argv + ["--out", str(tmp_path / "next")]) == 0
    assert "FAIL" not in capsys.readouterr().out


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

PROBES = [2.0 ** -k for k in range(1, 21)]


def test_vanishing_closed_w_passes():
    rep = check_vanishing_at_origin(lambda t, x: closed_w(B_LIN, t, x), 0.0, PROBES)
    assert rep.violation_count == 0


def test_vanishing_gamma_solution_passes():
    g = GammaPoly((0.0, 1.0))
    rep = check_vanishing_at_origin(lambda t, x: closed_w_gamma(B_LIN, g, t, x),
                                    0.0, PROBES)
    assert rep.violation_count == 0


def test_vanishing_constant_field_fails():
    rep = check_vanishing_at_origin(lambda t, x: 1.0, 0.0, PROBES)
    assert rep.violation_count > 0
    assert rep.worst_margin < 0.0


def test_vanishing_probe_validation():
    with pytest.raises(ValueError):
        check_vanishing_at_origin(lambda t, x: x, 0.0, [0.5, 0.25])  # too short
    with pytest.raises(ValueError):
        check_vanishing_at_origin(lambda t, x: x, 0.0, [0.5, 0.25, 0.125])  # > 1e-6
    with pytest.raises(ValueError):
        check_vanishing_at_origin(lambda t, x: x, 0.0, [0.25, 0.5, 1e-7])


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
