"""Closed-form solutions of the moving-boundary backward equation.

The backward equation -w_t + x f''(t) w = w_xx / 2 admits a family of
lambda-parameterized separable solutions.  ``phi_lambda`` solves the
adjoint (forward) equation, ``u_lambda`` the backward one; their product
is independent of (t, x), which makes the pair-transformation integral
exact and lets every lambda-integral collapse onto the kernel family.

``closed_w`` and ``closed_w_gamma`` are the contour-integrated real
solutions.  ``closed_w2_terms`` returns the two equal terms of the
second antiderivative variant, whose difference vanishes identically: a
tested artifact rather than an assumption.  ``kappa`` is the resulting
closed-form approximation to the first hitting time density.

``_args`` checks t against the horizon and makes every argument a
float64 array.  Every public closed form returns through
``kernels.closed_form``: exponentials are taken with overflow ignored,
so a value that underflows gives 0, and one that is not a finite
float64 raises NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .boundary import (Boundary, eval_fprime, horner, integral_fprime, integral_fprime_sq,
                       scalar_or_array)
from .kernels import MAX_ORDER, closed_form, heat_kernel, hermite_factors

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
        return scalar_or_array(horner(self.coeffs, -1j * np.asarray(lam, dtype=float)))


def _args(b: Boundary, t, *args, strict_upper: bool = False):
    """t and then each of ``args`` as float64 arrays, once 0 <= t <= s holds,
    or 0 <= t <= s - 1e-9 with ``strict_upper`` (the kernels blow up at t = s)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    if strict_upper:
        if np.any(b.horizon_s - t < 1e-9):
            raise ValueError(f"t must satisfy horizon - t >= 1e-9, horizon={b.horizon_s}")
    elif np.any(t > b.horizon_s):
        raise ValueError(f"t must be <= horizon {b.horizon_s}")
    return (t, *(np.asarray(a, dtype=float) for a in args))


@closed_form
def phi_lambda_planes(b: Boundary, lam, t, x):
    """``phi_lambda`` as the float64 planes (Re, Im): one real exp of the
    log-magnitude times the cos and sin of the phase a - c, with
    a = lam int_0^t f' and c = lam x.  The cos and sin of a and of c are
    taken at their own shapes (one per t, one per x) and joined by
    cos(a - c) = cos a cos c + sin a sin c and
    sin(a - c) = sin a cos c - cos a sin c, so no trig call runs per node
    of a (t, x) grid.  Im is None when lam is all zero, where Phi is real.
    """
    t, x, lam = _args(b, t, x, lam)
    log_mag = np.asarray(0.5 * integral_fprime_sq(b, 0.0, t) - x * eval_fprime(b, t)
                         - 0.5 * lam * lam * t)
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


@closed_form
def phi_lambda(b: Boundary, lam, t, x):
    """Adjoint-equation solution; log is affine in x for every lam.

    exp{ int_0^t (f')^2/2 - x f'(t) - lam^2 t / 2 - i lam (x - int_0^t f') }

    When lam is all zero the exponent stays real, and so does the result.
    Built from ``phi_lambda_planes``.
    """
    re, im = phi_lambda_planes(b, lam, t, x)
    if im is None:
        return re
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


@closed_form
def u_lambda(b: Boundary, lam, t, x):
    """Backward-equation solution paired with ``phi_lambda``.

    exp{ int_t^s (f')^2/2 + x f'(t) } *
    exp{ -lam^2 (s-t)/2 + i lam (x + int_t^s f') }

    Real, like ``phi_lambda``, when lam is all zero.
    """
    t, x, lam = _args(b, t, x, lam)
    s = b.horizon_s
    expo = np.asarray(0.5 * integral_fprime_sq(b, t, s) + x * eval_fprime(b, t)
                      - 0.5 * lam * lam * (s - t))
    if np.any(lam):
        wave = np.asarray(1j * lam * (x + integral_fprime(b, t, s)))
        expo = np.add(expo, wave, out=wave)
    return np.exp(expo, out=expo)


@closed_form
def product_phi_u(b: Boundary, lam):
    """phi_lambda * u_lambda, independent of (t, x)."""
    s = b.horizon_s
    lam = np.asarray(lam, dtype=float)
    return np.exp(0.5 * integral_fprime_sq(b, 0.0, s) - 0.5 * lam * lam * s
                  + 1j * lam * integral_fprime(b, 0.0, s))


@closed_form
def b2_first(b: Boundary, lam, t):
    """Antiderivative of -(f'(t) + i lam) * product, chosen to vanish at t = 0."""
    t, lam = _args(b, t, lam)
    return -(integral_fprime(b, 0.0, t) + 1j * lam * t) * product_phi_u(b, lam)


@closed_form
def b2_second(b: Boundary, lam, t):
    """Same derivative as ``b2_first`` but vanishing at t = s."""
    t, lam = _args(b, t, lam)
    s = b.horizon_s
    return (integral_fprime(b, t, s) + 1j * lam * (s - t)) * product_phi_u(b, lam)


@closed_form
def w1_lambda(b: Boundary, lam, t, x):
    """Lambda-space solution from the first antiderivative:
    ({x - int_0^t f'} - i lam t) * u_lambda."""
    t, x, lam = _args(b, t, x, lam, strict_upper=True)
    return ((x - integral_fprime(b, 0.0, t)) - 1j * lam * t) * u_lambda(b, lam, t, x)


@closed_form
def w2_lambda(b: Boundary, lam, t, x):
    """Lambda-space solution from the second antiderivative:
    ({x + int_t^s f'} + i lam (s-t)) * u_lambda."""
    t, x, lam = _args(b, t, x, lam, strict_upper=True)
    s = b.horizon_s
    return ((x + integral_fprime(b, t, s)) + 1j * lam * (s - t)) * u_lambda(b, lam, t, x)


def _weighted_kernel(b: Boundary, t, x):
    """(t, x, A k(s-t, X), X, s-t) with t and x as ``_args`` gives them (t < s)
    and X = x + int_t^s f'.  A = exp{int_t^s (f')^2/2 + x f'(t)} and the heat
    kernel k(s-t, X) take one exp of their summed exponent, so a large A
    against a small k gives their finite product, not inf * 0.  Its callers
    are closed forms, so that exp runs with overflow ignored."""
    t, x = _args(b, t, x, strict_upper=True)
    s = b.horizon_s
    st = s - t
    shifted = np.asarray(x + integral_fprime(b, t, s))  # kernel spatial argument
    expo = np.asarray(x * eval_fprime(b, t))
    expo += 0.5 * integral_fprime_sq(b, t, s)
    square = np.multiply(shifted, shifted)
    square /= 2.0 * st
    expo -= square
    weight = np.exp(expo, out=expo)
    weight /= np.sqrt(2.0 * np.pi * st)
    return t, x, weight, shifted, st


@closed_form
def closed_w(b: Boundary, t, x):
    """Contour-integrated solution of the backward equation.

    A(t,x) * [ (x - int_0^t f') k(s-t, X) + t * (X/(s-t)) k(s-t, X) ]
    with X = x + int_t^s f' and A = exp{ int_t^s (f')^2/2 + x f'(t) }.
    """
    t, x, weight, shifted, st = _weighted_kernel(b, t, x)
    # (drift + t * (shifted / st)) * A k, built in the buffers of shifted and
    # drift, so that no more than four grid-sized arrays live at once
    shifted /= st
    shifted *= t
    drift = x - integral_fprime(b, 0.0, t)
    drift += shifted
    drift *= weight
    return drift


@closed_form
def closed_w_gamma(b: Boundary, g: GammaPoly, t, x):
    """Gamma-polynomial member of the solution family.

    A(t,x) * sum_n c_n [ (x - int_0^t f') kernel_n(n, s-t, X)
                         + t * kernel_n(n+1, s-t, X) ].
    Gamma = (1,) reduces to ``closed_w``.  kernel_n = g_n k, with g_n from
    ``hermite_factors`` and A k taken once, as in ``closed_w``.
    """
    t, x, weight, shifted, st = _weighted_kernel(b, t, x)
    drift = x - integral_fprime(b, 0.0, t)
    total = np.zeros(np.broadcast(weight, drift, t).shape)
    for c, (h, h_next) in zip(g.coeffs, pairwise(hermite_factors(st, shifted))):
        if c != 0.0:
            total = total + c * (drift * h + t * h_next)
    return weight * total


@closed_form
def closed_w2_terms(b: Boundary, t, x):
    """The two equal terms of the second contour-integrated variant.

    Both are A * X * k(s-t, X): one directly, one assembled through the
    derived kernel as (s-t) * (X/(s-t)) k.  A k is taken once, as in
    ``closed_w``.
    """
    _, _, weight, shifted, st = _weighted_kernel(b, t, x)
    return weight * shifted, weight * (st * (shifted / st))


@closed_form
def kappa(b: Boundary, x):
    """Closed-form approximation to the first hitting time density at the horizon:
    x * k(s, x + int_0^s f').  Requires x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("kappa requires x >= 0")
    s = b.horizon_s
    return x * heat_kernel(s, x + integral_fprime(b, 0.0, s))
