import json

import numpy as np
import pytest

from fpkit.boundary import Boundary, parse_boundary
from fpkit.grids import GridField, GridSpec, PotentialSpec, sample_field
from fpkit.kernels import simpson_weights
from fpkit.solutions import GammaPoly, closed_w, closed_w_gamma, phi_lambda, u_lambda
from fpkit.verify import (CheckResult, check_inequality, check_vanishing_at_origin,
                          quadrature_match, residual_backward, residual_forward)

B_LIN = parse_boundary("s=1; fprime=0.5,0.3")
B_CONST = parse_boundary("s=1; fprime=1")
V_LIN = PotentialSpec.from_boundary(B_LIN)

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
    assert residual_forward(phi2.real_part(), V_LIN).max_rel <= 1e-4
    assert residual_forward(phi2.imag_part(), V_LIN).max_rel <= 1e-4


def test_residual_time_stencil_exact_for_quartic():
    # w = c p(t) with p quartic solves -w_t + (p'/p) w = w_xx/2 (and
    # +w_t - (p'/p) w = w_xx/2); the five-point time stencils, central and
    # one-sided, differentiate quartics exactly, so the residual is roundoff
    # on every interior row including the first and last
    p = np.polynomial.Polynomial([1.0, 1.0, 1.0, 1.0, 1.0])
    dp = p.deriv()
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 11, 7)
    v_back = PotentialSpec(lambda t, x: dp(t) / p(t) + 0.0 * x)
    v_fwd = PotentialSpec(lambda t, x: -dp(t) / p(t) + 0.0 * x)
    for scale in (1.0, 1.0 - 2.0j):
        w = sample_field(spec, lambda t, x: scale * p(t) + 0.0 * x)
        assert residual_backward(w, v_back).max_rel <= 1e-12
        assert residual_forward(w, v_fwd).max_rel <= 1e-12


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
    assert rep.passed


def test_vanishing_gamma_solution_passes():
    g = GammaPoly((0.0, 1.0))
    rep = check_vanishing_at_origin(lambda t, x: closed_w_gamma(B_LIN, g, t, x),
                                    0.0, PROBES)
    assert rep.passed


def test_vanishing_constant_field_fails():
    rep = check_vanishing_at_origin(lambda t, x: 1.0, 0.0, PROBES)
    assert not rep.passed
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
