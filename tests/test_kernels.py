import numpy as np
import pytest

from fourier_oracle import fourier_quadrature_oracle
from fpkit.grids import NumericalError
from fpkit.kernels import (MAX_ORDER, default_half_width, derived_kernel, heat_kernel,
                           kernel_n, simpson_weights, symmetric_nodes, symmetric_simpson)

# frozen via the Fourier-quadrature oracle (160001 nodes, L = 40/sqrt(t)+|x|/t)
HEAT_HALF_1P5 = 0.0594651446120757
DERIVED_QUARTER_HALF = 0.9678828980751563


def test_heat_kernel_at_origin():
    assert heat_kernel(1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-16)


def test_heat_kernel_derived_value():
    assert heat_kernel(0.5, 1.5) == pytest.approx(HEAT_HALF_1P5, rel=1e-10)


def test_heat_kernel_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        heat_kernel(-1.0, 0.0)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 1.0)


def test_derived_kernel_odd_in_x():
    assert derived_kernel(1.0, 0.0) == 0.0
    assert derived_kernel(0.7, -1.2) == -derived_kernel(0.7, 1.2)


def test_derived_kernel_values():
    assert derived_kernel(1.0, 1.0) == pytest.approx(0.24197072451914337, rel=1e-14)
    assert derived_kernel(1.0, 1.0) == pytest.approx(heat_kernel(1.0, 1.0), rel=1e-15)
    assert derived_kernel(0.25, 0.5) == pytest.approx(DERIVED_QUARTER_HALF, rel=1e-10)
    # exact algebraic identity h = (x/t) k
    t, x = 0.37, 1.9
    assert derived_kernel(t, x) == (x / t) * heat_kernel(t, x)


def test_kernel_n_low_orders():
    assert kernel_n(0, 0.8, 1.1) == heat_kernel(0.8, 1.1)
    tt = np.linspace(0.05, 2.0, 50)[:, None]
    xx = np.linspace(-4.0, 4.0, 400)[None, :]
    k0 = kernel_n(0, tt, xx)
    assert k0.shape == (50, 400)
    assert k0.tobytes() == heat_kernel(tt, xx).tobytes()
    assert kernel_n(1, 1.0, 1.0) == pytest.approx(0.24197072451914337, rel=1e-14)
    assert kernel_n(2, 1.0, 0.0) == pytest.approx(-0.3989422804014327, rel=1e-14)
    # order 2 closed form (x^2/t^2 - 1/t) k
    t, x = 0.6, 0.9
    assert kernel_n(2, t, x) == pytest.approx(
        (x * x / t ** 2 - 1.0 / t) * heat_kernel(t, x), rel=1e-13)


def test_kernel_n_order_cap_and_time_check():
    with pytest.raises(ValueError):
        kernel_n(13, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernel_n(-1, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernel_n(2, 0.0, 0.0)


def test_kernel_parity():
    for n in range(9):
        v_plus = kernel_n(n, 0.45, 1.3)
        v_minus = kernel_n(n, 0.45, -1.3)
        assert v_minus == (-1.0) ** n * v_plus


def test_oracle_matches_closed_forms():
    assert fourier_quadrature_oracle(0, 1.0, 0.0, 40.0, 16001) == pytest.approx(
        0.3989422804014327, abs=1e-10)
    assert fourier_quadrature_oracle(1, 1.0, 1.0) == pytest.approx(
        derived_kernel(1.0, 1.0), abs=1e-10)
    assert fourier_quadrature_oracle(2, 1.0, 0.0) == pytest.approx(
        kernel_n(2, 1.0, 0.0), abs=1e-10)


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        fourier_quadrature_oracle(0, 1.0, 0.0, 40.0, 16000)  # even node count
    with pytest.raises(ValueError):
        fourier_quadrature_oracle(0, -1.0, 0.0)
    with pytest.raises(ValueError):
        fourier_quadrature_oracle(13, 1.0, 0.0)


def test_recurrence_consistency_with_oracle():
    # |kernel_n - oracle| <= 1e-9 (1 + |kernel_n|) across the family
    xs = np.linspace(-3.0, 3.0, 25)
    for t in (0.1, 0.5, 1.0, 2.0):
        for n in range(9):
            for x in xs:
                closed = kernel_n(n, t, float(x))
                oracle = fourier_quadrature_oracle(n, t, float(x))
                assert abs(closed - oracle) <= 1e-9 * (1.0 + abs(closed)), (n, t, x)


def test_heat_kernel_normalization():
    for t in (0.2, 1.0, 3.0):
        half = 10.0 * np.sqrt(t)
        xs = symmetric_nodes(half, 4001)
        mass = float(np.sum(simpson_weights(4001, xs[1] - xs[0]) * heat_kernel(t, xs)))
        assert mass == pytest.approx(1.0, abs=1e-10)


def test_symmetric_simpson_folds_and_scales():
    # a constant integrates to 2L / (2 pi); an odd imaginary part cancels pairwise
    assert symmetric_simpson(np.ones_like, 3.0, 61) == pytest.approx(3.0 / np.pi, rel=1e-14)
    val = symmetric_simpson(lambda lam: np.exp(-lam * lam) * (1.0 + 1j * lam), 8.0, 801)
    assert val.imag == 0.0
    assert val.real == pytest.approx(np.sqrt(np.pi) / (2.0 * np.pi), rel=1e-12)


def test_default_half_width_guideline():
    assert default_half_width(1.0, 0.0) == pytest.approx(40.0)
    assert default_half_width(0.25, 2.0) == pytest.approx(40.0 / 0.5 + 8.0)


def test_max_order_constant():
    assert MAX_ORDER == 12


def test_simpson_weights_need_an_odd_count_of_three_or_more():
    for n in (1, 2, 4):
        with pytest.raises(ValueError, match="odd node count"):
            simpson_weights(n, 0.1)


def test_kernel_overflow_raises():
    # g_12 ~ (x/t)^12 = 1e360 overflows while the Gaussian underflows: inf * 0
    # is refused, as a scalar and inside an array
    with pytest.raises(NumericalError, match="finite"):
        kernel_n(12, 1e-30, 1.0)
    with pytest.raises(NumericalError, match="finite"):
        kernel_n(12, 1e-30, np.array([0.0, 1.0]))
