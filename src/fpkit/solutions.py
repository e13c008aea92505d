"""Closed-form solutions of the moving-boundary backward equation.

The backward equation -w_t + x f''(t) w = w_xx / 2 admits a family of
lambda-parameterized separable solutions.  ``phi_lambda`` solves the
adjoint (forward) equation, ``u_lambda`` the backward one; their product
is independent of (t, x), which makes the pair-transformation integral
exact and lets every lambda-integral collapse onto the kernel family.

``closed_w_gamma`` is the one formula for the contour-integrated real
solutions, built in the caller's planes: the Hermite recurrence
g_{n+1} = r g_n - (n/tau) g_{n-1} (r = X/tau, tau = s - t) folds each
member into A k [D sum c_n g_n - (t/tau) sum n c_n g_{n-1}], with
D = x - int_0^t f' + t r.  ``closed_w`` is its member Gamma = (1,), whose
sums are 1 and empty.  ``closed_w2_terms`` returns the two equal terms of the
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
        coeffs = tuple(float(c) for c in self.coeffs) or (1.0,)
        if len(coeffs) - 1 > MAX_GAMMA_DEGREE:
            raise ValueError(f"Gamma degree {len(coeffs) - 1} exceeds cap {MAX_GAMMA_DEGREE}")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, lam):
        return scalar_or_array(horner(self.coeffs, -1j * np.asarray(lam, dtype=float)))


#: Gamma = (1,), the family member that is ``closed_w``
UNIT_GAMMA = GammaPoly((1.0,))


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


def _planes(out, n: int, *args) -> list:
    """``out``, the float64 planes a closed form builds its value in, or ``n``
    new ones of the broadcast shape of ``args``."""
    if out is not None:
        return out
    shape = np.broadcast_shapes(*map(np.shape, args))
    return [np.empty(shape) for _ in range(n)]


@closed_form
def phi_lambda_planes(b: Boundary, lam, t, x, out=None):
    """``phi_lambda`` as the float64 planes (Re, Im): one real exp of the
    log-magnitude times the cos and sin of the phase a - c, with
    a = lam int_0^t f' and c = lam x.  The cos and sin of a and of c are
    taken at their own shapes (one per t, one per x) and joined by
    cos(a - c) = cos a cos c + sin a sin c and
    sin(a - c) = sin a cos c - cos a sin c, so no trig call runs per node
    of a (t, x) grid.  Im is None when lam is all zero, where Phi is real.

    ``out``, when given, holds planes of the broadcast shape that the value
    is built in: Re in out[0], and for a nonzero lam Im in out[1], with
    out[2] and out[3] as scratch.
    """
    t, x, lam = _args(b, t, x, lam)
    real = not np.any(lam)
    out = _planes(out, 1 if real else 4, t, x, lam)
    # 0.5 int_0^t f'^2 - x f'(t) - lam^2 t / 2, built in one plane
    log_mag = np.multiply(x, eval_fprime(b, t), out=out[0 if real else 2])
    np.subtract(0.5 * integral_fprime_sq(b, 0.0, t), log_mag, out=log_mag)
    log_mag -= 0.5 * lam * lam * t
    mag = np.exp(log_mag, out=log_mag)
    if real:
        return mag, None
    a = lam * integral_fprime(b, 0.0, t)
    c = lam * x
    cos_a, sin_a, cos_c, sin_c = np.cos(a), np.sin(a), np.cos(c), np.sin(c)
    re, im, _, term = out[:4]
    np.multiply(cos_a, cos_c, out=re)
    re += np.multiply(sin_a, sin_c, out=term)
    re *= mag
    np.multiply(sin_a, cos_c, out=im)
    im -= np.multiply(cos_a, sin_c, out=term)
    im *= mag
    return re, im


@closed_form
def phi_lambda(b: Boundary, lam, t, x, out=None):
    """Adjoint-equation solution; log is affine in x for every lam.

    exp{ int_0^t (f')^2/2 - x f'(t) - lam^2 t / 2 - i lam (x - int_0^t f') }

    When lam is all zero the exponent stays real, and so does the result.
    Built from ``phi_lambda_planes``, in its planes ``out`` when given (a
    real value is returned in out[0]).
    """
    re, im = phi_lambda_planes(b, lam, t, x, out=out)
    if im is None:
        return re
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


@closed_form
def u_lambda(b: Boundary, lam, t, x, out=None):
    """Backward-equation solution paired with ``phi_lambda``.

    exp{ int_t^s (f')^2/2 + x f'(t) } *
    exp{ -lam^2 (s-t)/2 + i lam (x + int_t^s f') }

    Real, like ``phi_lambda``, when lam is all zero.  ``out``, when given,
    holds one float64 plane of the broadcast shape that the real exponent is
    built in, and a real value returned in.
    """
    t, x, lam = _args(b, t, x, lam)
    s = b.horizon_s
    expo = _planes(out, 1, t, x, lam)[0]
    np.multiply(x, eval_fprime(b, t), out=expo)
    np.add(0.5 * integral_fprime_sq(b, t, s), expo, out=expo)
    expo -= 0.5 * lam * lam * (s - t)
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


def _weighted_kernel(b: Boundary, t, x, out=None):
    """(t, x, A k(s-t, X), X, s-t) with t and x as ``_args`` gives them (t < s)
    and X = x + int_t^s f'.  A = exp{int_t^s (f')^2/2 + x f'(t)} and the heat
    kernel k(s-t, X) take one exp of their summed exponent, so a large A
    against a small k gives their finite product, not inf * 0.  Its callers
    are closed forms, so that exp runs with overflow ignored.  X and A k are
    built in out[1] and out[2] of the planes ``out`` (three), out[0] holding
    X^2 on the way."""
    t, x = _args(b, t, x, strict_upper=True)
    s = b.horizon_s
    st = s - t
    square, shifted, expo = _planes(out, 3, t, x)[:3]
    np.add(x, integral_fprime(b, t, s), out=shifted)  # kernel spatial argument
    np.multiply(x, eval_fprime(b, t), out=expo)
    expo += 0.5 * integral_fprime_sq(b, t, s)
    np.multiply(shifted, shifted, out=square)
    square /= 2.0 * st
    expo -= square
    weight = np.exp(expo, out=expo)
    weight /= np.sqrt(2.0 * np.pi * st)
    return t, x, weight, shifted, st


@closed_form
def closed_w_gamma(b: Boundary, g: GammaPoly, t, x, out=None):
    """Gamma-polynomial member of the solution family,

    A sum_n c_n [(x - int_0^t f') kernel_n(n, s-t, X) + t kernel_n(n+1, s-t, X)]
    with X = x + int_t^s f' and A = exp{int_t^s (f')^2/2 + x f'(t)}.  As
    kernel_n = g_n k and g_{n+1} = r g_n - (n/tau) g_{n-1} (``hermite_factors``,
    r = X/tau, tau = s - t), it is A k [D sum c_n g_n - (t/tau) sum n c_n g_{n-1}]
    with D = x - int_0^t f' + t r.  Built in three float64 planes of the
    broadcast shape, ``out`` when given, the value in out[0]; only a Gamma of
    degree >= 1 makes its two sums besides.
    """
    out = _planes(out, 3, t, x)
    t, x, weight, shifted, st = _weighted_kernel(b, t, x, out)
    level, slope = g.coeffs[0], 0.0
    for n, (c, (h_prev, h)) in enumerate(
            zip(g.coeffs[1:], pairwise(hermite_factors(st, shifted))), 1):
        if c:
            # the first array term makes a new sum; += adds in place after
            level += c * h
            slope += n * c * h_prev
    # [D level - (t/tau) slope] A k, with D in the plane of X^2
    shifted /= st
    shifted *= t
    drift = np.subtract(x, integral_fprime(b, 0.0, t), out=out[0])
    drift += shifted
    if g != UNIT_GAMMA:
        drift *= level
        drift -= slope * (t / st)
    drift *= weight
    return drift


def closed_w(b: Boundary, t, x, out=None):
    """Contour-integrated solution A k(s-t, X) [x - int_0^t f' + t X/(s-t)]:
    ``closed_w_gamma`` at Gamma = (1,), in its planes ``out`` when given."""
    return closed_w_gamma(b, UNIT_GAMMA, t, x, out=out)


@closed_form
def closed_w2_terms(b: Boundary, t, x):
    """The two equal terms A X k(s-t, X) of the second contour-integrated
    variant: one directly, one through the derived kernel as (s-t) (X/(s-t)) k."""
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
