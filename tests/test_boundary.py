import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit.boundary import (Boundary, BoundaryFormatError, boundary_from_json,
                            eval_fprime, eval_fsecond, integral_fprime,
                            integral_fprime_sq, parse_boundary)

coeff_lists = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5)


def test_parse_constant_boundary():
    b = parse_boundary("s=1; fprime=0")
    assert b.deriv_coeffs == (0.0,)
    assert b.horizon_s == 1.0


def test_parse_linear_fprime():
    b = parse_boundary("s=1; fprime=0.5,0.3")
    assert b.deriv_coeffs == (0.5, 0.3)
    assert b.horizon_s == 1.0


def test_parse_whitespace_insensitive():
    b = parse_boundary("  s = 2.5 ;  fprime = 1 , -0.25 ")
    assert b.deriv_coeffs == (1.0, -0.25)
    assert b.horizon_s == 2.5


def test_parse_json_form():
    b = parse_boundary('{"s": 1.5, "fprime": [0.1, 0.2]}')
    assert b.deriv_coeffs == (0.1, 0.2)
    assert b.horizon_s == 1.5
    b2 = boundary_from_json({"s": 1.0, "fprime": 0.7})
    assert b2.deriv_coeffs == (0.7,)


def test_parse_nonpositive_horizon_rejected():
    with pytest.raises(BoundaryFormatError):
        parse_boundary("s=-1; fprime=1")
    with pytest.raises(BoundaryFormatError):
        parse_boundary("s=0; fprime=1")


def test_parse_malformed_rejected():
    for bad in ("fprime=1", "s=1", "s=1; fprime=", "s=1 fprime=2", "s=one; fprime=1",
                "s=1; fprime=0.5,nan", '{"s": 1, "fprime": [0.5'):
        with pytest.raises(BoundaryFormatError):
            parse_boundary(bad)


def test_degree_cap():
    with pytest.raises(BoundaryFormatError):
        Boundary(tuple(range(18)), 1.0)
    Boundary(tuple(range(17)), 1.0)  # degree 16 is allowed


def test_eval_fprime_examples():
    b = parse_boundary("s=1; fprime=0.5,0.3")
    assert eval_fprime(b, 1.0) == pytest.approx(0.8, abs=1e-15)
    assert eval_fprime(parse_boundary("s=1; fprime=0"), 0.37) == 0.0
    assert eval_fprime(parse_boundary("s=1; fprime=0,2"), 0.25) == pytest.approx(0.5)


def test_eval_fsecond_examples():
    assert eval_fsecond(parse_boundary("s=1; fprime=0.5,0.3"), 0.9) == pytest.approx(0.3)
    assert eval_fsecond(parse_boundary("s=1; fprime=4"), 0.1) == 0.0
    assert eval_fsecond(parse_boundary("s=3; fprime=0,0,1"), 2.0) == pytest.approx(4.0)


def test_integral_fprime_examples():
    assert integral_fprime(parse_boundary("s=1; fprime=0"), 0.0, 1.0) == 0.0
    assert integral_fprime(parse_boundary("s=1; fprime=0.5,0.3"), 0.0, 1.0) == pytest.approx(0.65)
    assert integral_fprime(parse_boundary("s=1; fprime=1"), 0.25, 0.75) == pytest.approx(0.5)


def test_integral_fprime_sq_examples():
    assert integral_fprime_sq(parse_boundary("s=1; fprime=0"), -1.0, 3.0) == 0.0
    assert integral_fprime_sq(parse_boundary("s=1; fprime=1"), 0.0, 1.0) == pytest.approx(1.0)
    assert integral_fprime_sq(parse_boundary("s=1; fprime=0,1"), 0.0, 1.0) == pytest.approx(1.0 / 3.0)


def test_vectorized_evaluation():
    b = parse_boundary("s=1; fprime=0.5,0.3")
    t = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(eval_fprime(b, t), 0.5 + 0.3 * t, rtol=1e-15)
    np.testing.assert_allclose(integral_fprime(b, 0.0, t), 0.5 * t + 0.15 * t * t, rtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_integral_additivity_and_antisymmetry(coeffs, a, c, e):
    b = Boundary(tuple(coeffs), 1.0)
    for integral in (integral_fprime, integral_fprime_sq):
        left = integral(b, a, c) + integral(b, c, e)
        assert left == pytest.approx(integral(b, a, e), abs=1e-12)
        assert integral(b, a, c) == pytest.approx(-integral(b, c, a), abs=1e-14)
        assert integral(b, a, a) == 0.0


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_squared_integral_nonnegative(coeffs, a, c):
    b = Boundary(tuple(coeffs), 1.0)
    lo, hi = min(a, c), max(a, c)
    # allow the cancellation roundoff of the antiderivative difference
    assert integral_fprime_sq(b, lo, hi) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.floats(0.0, 1.0), st.floats(0.05, 0.95))
def test_integral_derivative_matches_fprime(coeffs, a, c):
    b = Boundary(tuple(coeffs), 1.0)
    h = 1e-5
    fd = (integral_fprime(b, a, c + h) - integral_fprime(b, a, c - h)) / (2 * h)
    assert abs(fd - eval_fprime(b, c)) <= 1e-8 * (1 + abs(eval_fprime(b, c)))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.floats(0.05, 0.95))
def test_fsecond_matches_central_difference(coeffs, t):
    b = Boundary(tuple(coeffs), 1.0)
    h = 1e-4
    fd = (eval_fprime(b, t + h) - eval_fprime(b, t - h)) / (2 * h)
    assert abs(fd - eval_fsecond(b, t)) <= 1e-7


def test_boundary_json_needs_both_keys_and_numbers():
    for obj in ({"s": 1.0}, [1.0, 0.5]):
        with pytest.raises(BoundaryFormatError, match="needs keys"):
            boundary_from_json(obj)
    for obj in ({"s": "one", "fprime": [0.5]}, {"s": 1.0, "fprime": None}):
        with pytest.raises(BoundaryFormatError, match="bad boundary JSON"):
            boundary_from_json(obj)
