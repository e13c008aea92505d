"""Closed-form solutions of the moving-boundary backward equation.

The backward equation -w_t + x f''(t) w = w_xx / 2 admits a family of
lambda-parameterized separable solutions.  ``phi_lambda`` solves the
adjoint (forward) equation, ``u_lambda`` the backward one; their product
is independent of (t, x), which makes the pair-transformation integral
exact and lets every lambda-integral collapse onto the kernel family.

``closed_w`` and ``closed_w_gamma`` are the contour-integrated real
solutions.  ``closed_w2_terms`` returns the two equal terms of the
second antiderivative variant and ``closed_w2`` their difference: its
identical vanishing is a tested artifact rather than an assumption.
``kappa`` is the resulting closed-form approximation to the first
hitting time density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (Boundary, eval_fprime, integral_fprime, integral_fprime_sq,
                       scalar_or_array)
from .grids import NumericalError
from .kernels import MAX_ORDER, heat_kernel

# largest Gamma polynomial degree: kernel order degree+1 must stay <= 12
MAX_GAMMA_DEGREE = MAX_ORDER - 1


@dataclass(frozen=True)
class GammaPoly:
    """Polynomial multiplier Gamma(lam) = sum_n coeffs[n] * (-i lam)^n."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            coeffs = (1.0,)
        if len(coeffs) - 1 > MAX_GAMMA_DEGREE:
            raise ValueError(
                f"Gamma degree {len(coeffs) - 1} exceeds cap {MAX_GAMMA_DEGREE}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(lam.shape, dtype=complex)
        for c in reversed(self.coeffs):
            out = out * (-1j * lam) + c
        return scalar_or_array(out)


def _check_t_range(b: Boundary, t, strict_upper: bool = False):
    t = np.asarray(t)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    if strict_upper:
        # the kernels blow up at t = s; keep a floor on the remaining time
        if np.any(b.horizon_s - t < 1e-9):
            raise ValueError(f"t must satisfy horizon - t >= 1e-9, horizon={b.horizon_s}")
    elif np.any(t > b.horizon_s):
        raise ValueError(f"t must be <= horizon {b.horizon_s}")


def _check_magnitude(log_mag) -> None:
    """Raise NumericalError when exp(log_mag) overflows float64 (or is NaN)
    at some node: one reduction.  A magnitude that underflows gives 0."""
    peak = np.max(log_mag, initial=-np.inf)
    with np.errstate(over="ignore"):
        if np.exp(peak) < np.inf:
            return
    raise NumericalError(f"magnitude exp({peak:.6g}) is not a finite float64")


def phi_lambda_planes(b: Boundary, lam, t, x):
    """``phi_lambda`` as the float64 planes (Re, Im): one real exp of the
    log-magnitude times the cos and sin of the phase a - c, with
    a = lam int_0^t f' and c = lam x.  The cos and sin of a and of c are
    taken at their own shapes (one per t, one per x) and joined by
    cos(a - c) = cos a cos c + sin a sin c and
    sin(a - c) = sin a cos c - cos a sin c, so no trig call runs per node
    of a (t, x) grid.  Im is None when lam is all zero, where Phi is real.
    """
    _check_t_range(b, t)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    log_mag = np.asarray(0.5 * integral_fprime_sq(b, 0.0, t) - x * eval_fprime(b, t)
                         - 0.5 * lam * lam * t)
    _check_magnitude(log_mag)
    mag = np.exp(log_mag, out=log_mag)
    if not np.any(lam):
        return mag, None
    a = lam * integral_fprime(b, 0.0, t)
    c = lam * x
    cos_a, sin_a, cos_c, sin_c = np.cos(a), np.sin(a), np.cos(c), np.sin(c)
    re = np.asarray(cos_a * cos_c)
    re += sin_a * sin_c
    re *= mag
    im = np.asarray(sin_a * cos_c)
    im -= cos_a * sin_c
    im *= mag
    return re, im


def phi_lambda(b: Boundary, lam, t, x):
    """Adjoint-equation solution; log is affine in x for every lam.

    exp{ int_0^t (f')^2/2 - x f'(t) - lam^2 t / 2 - i lam (x - int_0^t f') }

    When lam is all zero the exponent stays real, and so does the result.
    Built from ``phi_lambda_planes``; a magnitude that overflows raises
    NumericalError.
    """
    re, im = phi_lambda_planes(b, lam, t, x)
    if im is None:
        return scalar_or_array(re)
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return scalar_or_array(out)


def u_lambda(b: Boundary, lam, t, x):
    """Backward-equation solution paired with ``phi_lambda``.

    exp{ int_t^s (f')^2/2 + x f'(t) } *
    exp{ -lam^2 (s-t)/2 + i lam (x + int_t^s f') }

    Real, like ``phi_lambda``, when lam is all zero.  A magnitude that
    overflows raises NumericalError.
    """
    _check_t_range(b, t)
    s = b.horizon_s
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    expo = np.asarray(0.5 * integral_fprime_sq(b, t, s) + x * eval_fprime(b, t)
                      - 0.5 * lam * lam * (s - t))
    _check_magnitude(expo)
    if np.any(lam):
        wave = np.asarray(1j * lam * (x + integral_fprime(b, t, s)))
        expo = np.add(expo, wave, out=wave)
    return scalar_or_array(np.exp(expo, out=expo))


def product_phi_u(b: Boundary, lam):
    """phi_lambda * u_lambda, independent of (t, x)."""
    s = b.horizon_s
    lam = np.asarray(lam, dtype=float)
    expo = (0.5 * integral_fprime_sq(b, 0.0, s) - 0.5 * lam * lam * s
            + 1j * lam * integral_fprime(b, 0.0, s))
    out = np.exp(expo)
    return scalar_or_array(out)


def b2_first(b: Boundary, lam, t):
    """Antiderivative of -(f'(t) + i lam) * product, chosen to vanish at t = 0."""
    _check_t_range(b, t)
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = -(integral_fprime(b, 0.0, t) + 1j * lam * t) * product_phi_u(b, lam)
    return scalar_or_array(out)


def b2_second(b: Boundary, lam, t):
    """Same derivative as ``b2_first`` but vanishing at t = s."""
    _check_t_range(b, t)
    s = b.horizon_s
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = (integral_fprime(b, t, s) + 1j * lam * (s - t)) * product_phi_u(b, lam)
    return scalar_or_array(out)


def w1_lambda(b: Boundary, lam, t, x):
    """Lambda-space solution from the first antiderivative:
    ({x - int_0^t f'} - i lam t) * u_lambda."""
    _check_t_range(b, t, strict_upper=True)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = ((x - integral_fprime(b, 0.0, t)) - 1j * lam * t) * u_lambda(b, lam, t, x)
    return scalar_or_array(out)


def w2_lambda(b: Boundary, lam, t, x):
    """Lambda-space solution from the second antiderivative:
    ({x + int_t^s f'} + i lam (s-t)) * u_lambda."""
    _check_t_range(b, t, strict_upper=True)
    s = b.horizon_s
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = ((x + integral_fprime(b, t, s)) + 1j * lam * (s - t)) * u_lambda(b, lam, t, x)
    return scalar_or_array(out)


def _weighted_kernel(b: Boundary, t, x):
    """(A k(s-t, X), X, s-t) with X = x + int_t^s f'.  A = exp{int_t^s (f')^2/2
    + x f'(t)} and the heat kernel k(s-t, X) take one exp of their summed
    exponent, so a large A against a small k gives their finite product,
    not inf * 0."""
    s = b.horizon_s
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    st = s - t
    shifted = np.asarray(x + integral_fprime(b, t, s))  # kernel spatial argument
    expo = np.asarray(x * eval_fprime(b, t))
    expo += 0.5 * integral_fprime_sq(b, t, s)
    square = np.multiply(shifted, shifted)
    square /= 2.0 * st
    expo -= square
    with np.errstate(over="ignore"):
        weight = np.exp(expo, out=expo)
    weight /= np.sqrt(2.0 * np.pi * st)
    return weight, shifted, st


def _drift(b: Boundary, t, x):
    """x - int_0^t f', the factor in front of kernel_n."""
    return np.asarray(x, dtype=float) - integral_fprime(b, 0.0, t)


def _finite(out):
    """``out`` as ``scalar_or_array``; NumericalError when some value is not a
    finite float64 (the closed form overflows there)."""
    if not np.all(np.isfinite(out)):
        raise NumericalError("closed-form value is not a finite float64")
    return scalar_or_array(out)


def closed_w(b: Boundary, t, x):
    """Contour-integrated solution of the backward equation.

    A(t,x) * [ (x - int_0^t f') k(s-t, X) + t * (X/(s-t)) k(s-t, X) ]
    with X = x + int_t^s f' and A = exp{ int_t^s (f')^2/2 + x f'(t) }.
    A value that underflows gives 0; one that overflows raises
    NumericalError.
    """
    _check_t_range(b, t, strict_upper=True)
    weight, shifted, st = _weighted_kernel(b, t, x)
    t = np.asarray(t, dtype=float)
    # (drift + t * (shifted / st)) * A k, built in the buffers of shifted and
    # drift, so that no more than four grid-sized arrays live at once
    shifted /= st
    shifted *= t
    drift = _drift(b, t, x)
    drift += shifted
    with np.errstate(over="ignore", invalid="ignore"):
        drift *= weight
    return _finite(drift)


def closed_w_gamma(b: Boundary, g: GammaPoly, t, x):
    """Gamma-polynomial member of the solution family.

    A(t,x) * sum_n c_n [ (x - int_0^t f') kernel_n(n, s-t, X)
                         + t * kernel_n(n+1, s-t, X) ].
    Gamma = (1,) reduces to ``closed_w``.  kernel_n = g_n k, with g_n from
    ``kernel_n``'s recurrence and A k taken once, as in ``closed_w``.
    """
    _check_t_range(b, t, strict_upper=True)
    weight, shifted, st = _weighted_kernel(b, t, x)
    drift = _drift(b, t, x)
    t = np.asarray(t, dtype=float)
    total = np.zeros(np.broadcast(weight, drift, t).shape)
    h_prev, h = 0.0, 1.0  # g_{n-1} and g_n of kernel_n's recurrence
    for n, c in enumerate(g.coeffs):
        h_next = (shifted / st) * h - (n / st) * h_prev
        if c != 0.0:
            total = total + c * (drift * h + t * h_next)
        h_prev, h = h, h_next
    with np.errstate(over="ignore", invalid="ignore"):
        out = weight * total
    return _finite(out)


def closed_w2_terms(b: Boundary, t, x):
    """The two equal terms of the second contour-integrated variant.

    Both are A * X * k(s-t, X): one directly, one assembled through the
    derived kernel as (s-t) * (X/(s-t)) k.  A k is taken once, as in
    ``closed_w``: a term that underflows gives 0; one that overflows raises
    NumericalError.
    """
    _check_t_range(b, t, strict_upper=True)
    weight, shifted, st = _weighted_kernel(b, t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weight * shifted, weight * (st * (shifted / st))
    return tuple(_finite(term) for term in terms)


def closed_w2(b: Boundary, t, x):
    """Second contour-integrated variant: the difference of ``closed_w2_terms``.

    Returned as an explicit two-term difference so the cancellation itself
    is observable; it is zero up to floating cancellation of equal terms.
    """
    term_direct, term_via_h = closed_w2_terms(b, t, x)
    return term_direct - term_via_h


def kappa(b: Boundary, x):
    """Closed-form approximation to the first hitting time density at the horizon:
    x * k(s, x + int_0^s f').  Requires x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("kappa requires x >= 0")
    s = b.horizon_s
    out = x * heat_kernel(s, x + integral_fprime(b, 0.0, s))
    return scalar_or_array(out)
