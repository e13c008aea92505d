import tracemalloc

import numpy as np
import pytest

from fpkit.boundary import Boundary, integral_fprime, parse_boundary
from fpkit.grids import NumericalError
from fpkit.kernels import derived_kernel, heat_kernel, simpson_weights
from fpkit.solutions import (GammaPoly, b2_first, b2_second, closed_w, closed_w2_terms,
                             closed_w_gamma, kappa, phi_lambda, phi_lambda_planes,
                             product_phi_u, u_lambda, w1_lambda, w2_lambda)

B_CONST = parse_boundary("s=1; fprime=1")
B_ZERO = parse_boundary("s=1; fprime=0")
B_LIN = parse_boundary("s=1; fprime=0.5,0.3")

# frozen from the lambda-quadrature oracle (Simpson, 160001 nodes)
CLOSED_W_CONST_HALF = 0.41510749742059466
CLOSED_WP_CONST_HALF = 1.0377687435514866


def random_boundary(rng, max_degree=4, s_range=(0.5, 2.0)):
    deg = int(rng.integers(0, max_degree + 1))
    coeffs = tuple(rng.uniform(-2.0, 2.0, deg + 1))
    return Boundary(coeffs, float(rng.uniform(*s_range)))


# ---------------------------------------------------------------- phi / u

def test_phi_trivial_cases():
    assert phi_lambda(B_ZERO, 0.0, 0.3, 1.7) == pytest.approx(1.0, abs=1e-15)
    assert phi_lambda(B_CONST, 0.0, 1.0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-14)
    # t = 0: empty integrals, exp{-x f'(0) - i lam x}
    lam, x = 0.8, 1.2
    expected = np.exp(-x * 1.0 - 1j * lam * x)
    assert phi_lambda(B_CONST, lam, 0.0, x) == pytest.approx(expected, rel=1e-14)


def test_u_trivial_cases():
    assert u_lambda(B_ZERO, 0.0, 0.254, -0.7) == pytest.approx(1.0, abs=1e-15)
    assert u_lambda(B_CONST, 0.0, 0.5, 1.0) == pytest.approx(np.exp(1.25), rel=1e-14)
    # t = s: exp{x f'(s) + i lam x}
    lam, x = -1.3, 0.6
    expected = np.exp(x + 1j * lam * x)
    assert u_lambda(B_CONST, lam, 1.0, x) == pytest.approx(expected, rel=1e-14)


def test_phi_lambda_is_its_planes_bit_for_bit():
    # one definition of Phi: the complex result is assembled from the planes
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, (40, 1))
    x = rng.uniform(-3.0, 3.0, (1, 50))
    for lam in (1.5, -0.7, 23.0):
        re, im = phi_lambda_planes(B_LIN, lam, t, x)
        phi = phi_lambda(B_LIN, lam, t, x)
        assert phi.dtype == np.complex128 and re.dtype == im.dtype == np.float64
        np.testing.assert_array_equal(phi, re + 1j * im)
        assert np.array_equal(phi.real, re) and np.array_equal(phi.imag, im)
        re_s, im_s = phi_lambda_planes(B_LIN, lam, 0.3, 1.2)
        assert phi_lambda(B_LIN, lam, 0.3, 1.2) == re_s + 1j * im_s
    re, im = phi_lambda_planes(B_LIN, 0.0, t, x)
    assert im is None
    assert np.array_equal(phi_lambda(B_LIN, 0.0, t, x), re)


@pytest.mark.parametrize("lam", [1.5, -0.7, 23.0])
def test_phi_planes_match_trig_of_the_whole_phase(lam):
    # the oracle takes cos and sin of the whole phase lam (int_0^t f' - x) at
    # each node.  With a = lam int_0^t f' and c = lam x, the two sides'
    # rounded phases differ by at most ~1.5 ulp of |a| + |c|, and cos, sin
    # and the joining formulas add ~4 ulp of 1: so each plane must lie
    # within (8 + 2 (|a| + |c|)) ulp of 1, times |Phi|, of the oracle's.
    # At lam = 23 the phase runs through ~30 wraps
    from fpkit.boundary import eval_fprime, integral_fprime_sq
    b = parse_boundary("s=2; fprime=0.5,0.3,0.2")
    t = np.linspace(0.0, 2.0, 41)[:, None]
    x = np.linspace(-3.0, 3.0, 301)[None, :]
    re, im = phi_lambda_planes(b, lam, t, x)
    a, c = lam * integral_fprime(b, 0.0, t), lam * x
    phase = lam * (integral_fprime(b, 0.0, t) - x)
    mag = np.exp(0.5 * integral_fprime_sq(b, 0.0, t) - x * eval_fprime(b, t)
                 - 0.5 * lam * lam * t)
    bound = (8.0 + 2.0 * (np.abs(a) + np.abs(c))) * np.finfo(float).eps * mag
    assert np.all(np.abs(re - mag * np.cos(phase)) <= bound)
    assert np.all(np.abs(im - mag * np.sin(phase)) <= bound)
    if lam == 23.0:
        assert np.ptp(phase) > 20 * 2 * np.pi


@pytest.mark.parametrize("fn, lam, x", [(phi_lambda, 1.5, -800.0), (u_lambda, 1.5, 800.0),
                                        (phi_lambda, 0.0, -800.0)],
                         ids=["phi-lam1.5", "u-lam1.5", "phi-lam0"])
def test_overflowing_magnitude_raises(fn, lam, x):
    # inf * cos(theta) could be NaN; a magnitude past float64 is refused,
    # for a scalar and inside an array alike
    with pytest.raises(NumericalError, match="finite"):
        fn(B_CONST, lam, 0.5, x)
    with pytest.raises(NumericalError, match="finite"):
        fn(B_CONST, lam, 0.5, np.array([0.0, x, 1.0]))


@pytest.mark.parametrize("fn, lam, x", [(phi_lambda, 1.5, 800.0), (u_lambda, 1.5, -800.0),
                                        (phi_lambda, 0.0, 800.0), (u_lambda, 0.0, -800.0)])
def test_underflowing_magnitude_gives_zero(fn, lam, x):
    assert fn(B_CONST, lam, 0.5, x) == 0.0
    vals = fn(B_CONST, lam, 0.5, np.array([x, 1.0]))
    assert vals[0] == 0.0 and np.all(np.isfinite(vals)) and vals[1] != 0.0


def test_t_range_enforced():
    with pytest.raises(ValueError):
        phi_lambda(B_CONST, 0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        u_lambda(B_CONST, 0.0, 1.2, 0.0)
    with pytest.raises(ValueError):
        w1_lambda(B_CONST, 0.0, 1.0, 0.0)


def test_product_examples():
    assert product_phi_u(B_ZERO, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert product_phi_u(B_CONST, 0.0) == pytest.approx(np.exp(0.5), rel=1e-14)


def test_product_equals_pointwise_product():
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = random_boundary(rng)
        lam = float(rng.uniform(-3.0, 3.0))
        ref = product_phi_u(b, lam)
        for _ in range(20):
            t = float(rng.uniform(0.0, b.horizon_s))
            x = float(rng.uniform(-2.0, 2.0))
            val = phi_lambda(b, lam, t, x) * u_lambda(b, lam, t, x)
            assert abs(val - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------- B2

def test_b2_first_examples():
    assert b2_first(B_LIN, 1.1, 0.0) == 0.0
    assert b2_first(B_CONST, 0.0, 0.5) == pytest.approx(-0.5 * np.exp(0.5), rel=1e-14)


def test_b2_second_examples():
    assert b2_second(B_LIN, 0.7, 1.0) == 0.0
    assert b2_second(B_CONST, 0.0, 0.5) == pytest.approx(0.5 * np.exp(0.5), rel=1e-14)


def test_b2_derivative_matches_slope():
    # central difference of both antiderivatives vs -(f'(t) + i lam) * product
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(8):
        b = random_boundary(rng)
        lam = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.1, b.horizon_s - 0.1))
        from fpkit.boundary import eval_fprime
        slope = -(eval_fprime(b, t) + 1j * lam) * product_phi_u(b, lam)
        for fn in (b2_first, b2_second):
            fd = (fn(b, lam, t + h) - fn(b, lam, t - h)) / (2 * h)
            assert abs(fd - slope) <= 1e-7 * (1 + abs(slope))


def test_b2_difference_constant_in_t():
    rng = np.random.default_rng(5)
    b = random_boundary(rng)
    lam = 1.7
    expected = ((integral_fprime(b, 0.0, b.horizon_s) + 1j * lam * b.horizon_s)
                * product_phi_u(b, lam))
    ts = rng.uniform(0.0, b.horizon_s, 10)
    diffs = np.array([b2_second(b, lam, t) - b2_first(b, lam, t) for t in ts])
    assert np.max(np.abs(diffs - expected)) <= 1e-12 * abs(expected)


# ---------------------------------------------------------------- w1 / w2

def test_w1_examples():
    x = 1.4
    assert w1_lambda(B_LIN, 0.9, 0.0, x) == pytest.approx(
        x * u_lambda(B_LIN, 0.9, 0.0, x), rel=1e-14)
    assert w1_lambda(B_CONST, 0.0, 0.5, 1.0) == pytest.approx(
        0.5 * np.exp(1.25), rel=1e-14)


def test_w1_matches_transformation_integral():
    # numeric x-integration of u*phi plus the first antiderivative, over phi
    rng = np.random.default_rng(17)
    n = 2001
    for _ in range(6):
        b = random_boundary(rng)
        lam = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, b.horizon_s - 0.1))
        x = float(rng.uniform(0.1, 2.0))
        xs = np.linspace(0.0, x, n)
        integrand = u_lambda(b, lam, t, xs) * phi_lambda(b, lam, t, xs)
        integral = np.sum(simpson_weights(n, xs[1] - xs[0]) * integrand)
        via_transform = (integral + b2_first(b, lam, t)) / phi_lambda(b, lam, t, x)
        direct = w1_lambda(b, lam, t, x)
        assert abs(via_transform - direct) <= 1e-10 * (1 + abs(direct))


def test_w2_examples():
    eps = 1e-6
    x = 0.8
    val = w2_lambda(B_ZERO, 0.0, 1.0 - eps, x)
    assert val == pytest.approx(x * u_lambda(B_ZERO, 0.0, 1.0 - eps, x), rel=1e-12)
    assert w2_lambda(B_CONST, 0.0, 0.5, 1.0) == pytest.approx(
        1.5 * np.exp(1.25), rel=1e-14)


def test_w2_minus_w1_identity():
    rng = np.random.default_rng(23)
    for _ in range(6):
        b = random_boundary(rng)
        lam = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, b.horizon_s - 0.1))
        x = float(rng.uniform(-1.0, 2.0))
        gap = w2_lambda(b, lam, t, x) - w1_lambda(b, lam, t, x)
        expected = ((integral_fprime(b, 0.0, b.horizon_s) + 1j * lam * b.horizon_s)
                    * u_lambda(b, lam, t, x))
        assert abs(gap - expected) <= 1e-12 * (1 + abs(expected))


# ---------------------------------------------------------------- closed forms

def test_closed_w_value():
    assert closed_w(B_CONST, 0.5, 1.0) == pytest.approx(CLOSED_W_CONST_HALF, rel=1e-12)


def test_closed_w_at_t0_display():
    # w(0, x) = A(0, x) * x * k(s, x + int_0^s f')
    from fpkit.boundary import eval_fprime, integral_fprime_sq
    rng = np.random.default_rng(29)
    for _ in range(5):
        b = random_boundary(rng)
        x = float(rng.uniform(0.0, 2.0))
        amp = np.exp(0.5 * integral_fprime_sq(b, 0.0, b.horizon_s)
                     + x * eval_fprime(b, 0.0))
        expected = amp * x * heat_kernel(b.horizon_s, x + integral_fprime(b, 0.0, b.horizon_s))
        assert closed_w(b, 0.0, x) == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_closed_w_zero_at_origin():
    assert closed_w(B_LIN, 0.0, 0.0) == 0.0
    g = GammaPoly((0.3, -1.2, 0.5))
    assert closed_w_gamma(B_LIN, g, 0.0, 0.0) == 0.0


def test_closed_w_underflow_gives_zero_and_overflow_raises():
    # A = exp(800.25) overflows alone, and k = exp(-640800) underflows: their
    # product is exp(-640000), 0 in float64, not inf * 0
    g = GammaPoly((0.3, 1.0))
    assert closed_w(B_CONST, 0.5, 800.0) == 0.0
    assert closed_w_gamma(B_CONST, g, 0.5, 800.0) == 0.0
    assert closed_w2_terms(B_CONST, 0.5, 800.0) == (0.0, 0.0)
    vals = closed_w(B_CONST, 0.5, np.array([800.0, 1.0]))
    assert vals[0] == 0.0 and vals[1] == pytest.approx(CLOSED_W_CONST_HALF, rel=1e-12)
    # f' = 70t peaks the summed exponent at 0.5 int_0^1 (70u)^2 du = 816.7 > 709.8
    # at t = 0, x = -35: a value past float64, refused, scalar or in an array
    steep = parse_boundary("s=1; fprime=0,70")
    for fn in (lambda t, x: closed_w(steep, t, x),
               lambda t, x: closed_w_gamma(steep, g, t, x),
               lambda t, x: closed_w2_terms(steep, t, x)[0]):
        with pytest.raises(NumericalError, match="finite"):
            fn(0.0, -35.0)
        with pytest.raises(NumericalError, match="finite"):
            fn(0.0, np.array([0.5, -35.0]))
        assert np.isfinite(fn(0.0, 0.5))


def test_closed_w_holds_fewer_than_four_grid_arrays():
    # closed_w builds in the buffers of its exponent, X and the drift: its
    # traced peak is 3.13 grid planes on 201 x 2951
    t = np.linspace(0.0, 0.9, 201)[:, None]
    x = np.linspace(0.05, 3.0, 2951)[None, :]
    tracemalloc.start()
    try:
        w = closed_w(B_LIN, t, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * w.nbytes


def test_closed_w_gamma_reductions():
    # Gamma = (1,) reduces to the base solution
    for t, x in ((0.0, 0.4), (0.3, 1.1), (0.7, 0.0)):
        assert closed_w_gamma(B_LIN, GammaPoly((1.0,)), t, x) == pytest.approx(
            closed_w(B_LIN, t, x), rel=1e-14, abs=1e-300)
    # Gamma = (0, 1): drift * h + t * (X^2/tau^2 - 1/tau) k
    assert closed_w_gamma(B_CONST, GammaPoly((0.0, 1.0)), 0.5, 1.0) == pytest.approx(
        CLOSED_WP_CONST_HALF, rel=1e-12)
    t, x = 0.3, 0.8
    tau = B_LIN.horizon_s - t
    shifted = x + integral_fprime(B_LIN, t, B_LIN.horizon_s)
    drift = x - integral_fprime(B_LIN, 0.0, t)
    from fpkit.boundary import eval_fprime, integral_fprime_sq
    amp = np.exp(0.5 * integral_fprime_sq(B_LIN, t, B_LIN.horizon_s) + x * eval_fprime(B_LIN, t))
    expected = amp * (drift * derived_kernel(tau, shifted)
                      + t * (shifted ** 2 / tau ** 2 - 1.0 / tau) * heat_kernel(tau, shifted))
    assert closed_w_gamma(B_LIN, GammaPoly((0.0, 1.0)), t, x) == pytest.approx(expected, rel=1e-13)


def test_closed_w_gamma_t0_display():
    # w'(0, x) = A(0, x) * x * h(s, x + int_0^s f')
    from fpkit.boundary import eval_fprime, integral_fprime_sq
    for x in (0.5, 1.0, 2.2):
        amp = np.exp(0.5 * integral_fprime_sq(B_LIN, 0.0, 1.0) + x * eval_fprime(B_LIN, 0.0))
        expected = amp * x * derived_kernel(1.0, x + integral_fprime(B_LIN, 0.0, 1.0))
        assert closed_w_gamma(B_LIN, GammaPoly((0.0, 1.0)), 0.0, x) == pytest.approx(
            expected, rel=1e-13)


def test_closed_w_gamma_linear_in_coefficients():
    rng = np.random.default_rng(31)
    for _ in range(5):
        b = random_boundary(rng)
        g1 = GammaPoly(tuple(rng.uniform(-1, 1, 4)))
        g2 = GammaPoly(tuple(rng.uniform(-1, 1, 4)))
        a1, a2 = rng.uniform(-2, 2, 2)
        combo = GammaPoly(tuple(a1 * c1 + a2 * c2 for c1, c2 in zip(g1.coeffs, g2.coeffs)))
        t = float(rng.uniform(0.0, b.horizon_s - 0.1))
        x = float(rng.uniform(0.0, 2.0))
        lhs = closed_w_gamma(b, combo, t, x)
        rhs = a1 * closed_w_gamma(b, g1, t, x) + a2 * closed_w_gamma(b, g2, t, x)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_gamma_degree_cap():
    with pytest.raises(ValueError):
        GammaPoly(tuple(range(13)))
    GammaPoly(tuple(range(12)))  # degree 11 allowed


def test_closed_w2_vanishes():
    # the second variant is the difference of its two equal terms
    def closed_w2(b, t, x):
        first, second = closed_w2_terms(b, t, x)
        return first - second

    assert closed_w2(B_ZERO, 0.5, 1.0) == 0.0
    rng = np.random.default_rng(37)
    for _ in range(50):
        b = random_boundary(rng)
        t = float(rng.uniform(0.0, b.horizon_s - 0.05))
        x = float(rng.uniform(0.0, 3.0))
        first, _ = closed_w2_terms(b, t, x)
        assert abs(closed_w2(b, t, x)) <= 1e-14 * max(abs(first), 1e-300)
    b = parse_boundary("s=2; fprime=0.5,0.3")
    first, _ = closed_w2_terms(b, 1.0, 0.7)
    assert abs(closed_w2(b, 1.0, 0.7)) <= 1e-14 * abs(first)


def test_kappa_examples():
    assert kappa(B_ZERO, 0.0) == 0.0
    assert kappa(B_ZERO, 1.0) == pytest.approx(0.24197072451914337, rel=1e-14)
    with pytest.raises(ValueError):
        kappa(B_ZERO, -0.5)


def test_kappa_over_h_equals_horizon_for_fixed_level():
    for s in (0.5, 1.0, 2.0):
        b = Boundary((0.0,), s)
        for x in np.linspace(0.05, 3.0, 20):
            ratio = kappa(b, float(x)) / derived_kernel(s, float(x))
            assert ratio == pytest.approx(s, rel=1e-12)


def test_product_and_b2_overflow_raises():
    # 0.5 int_0^1000 10^2 = 5e4 in the exponent: past float64, refused rather
    # than returned as inf - inf j, -inf + nan j or inf + nan j
    b = parse_boundary("s=1000; fprime=10")
    for fn in (lambda lam: product_phi_u(b, lam), lambda lam: b2_first(b, lam, 1.0),
               lambda lam: b2_second(b, lam, 1.0)):
        with pytest.raises(NumericalError, match="finite"):
            fn(0.5)
        with pytest.raises(NumericalError, match="finite"):
            fn(np.array([0.0, 0.5]))
