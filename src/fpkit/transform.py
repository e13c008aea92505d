"""Numerical pair-transformation engine.

Given sampled fields u (backward equation) and Phi (adjoint equation)
with potential V1, build

    w(t, x) = (1/Phi) [ integral_0^x u Phi dxi + B2(t) ],
    dB2/dt  = (Phi_x(t,0) u(t,0) - Phi(t,0) u_x(t,0)) / 2,

which solves the backward equation with potential
V2 = V1 - d^2/dx^2 log Phi.  When log Phi is affine in x the potential
is unchanged and the transformation maps solutions of the original
equation to new ones vanishing at (t=0, x=0).

Numerics: the per-row x-integral uses 4th-order cumulative Simpson (odd
nx required); B2 is integrated in t by the same one-step 4th-order
cumulative rule with B2(0) = 0; boundary x-derivatives at x = 0 use
one-sided 4-point stencils, whose leading error cancels between the
Phi_x u and Phi u_x terms.  d^2/dx^2 log Phi works on Phi's real and
imaginary planes (``log_planes_xx``).  Its real part is the residual
check's 3-point stencil ``second_difference_x`` of log|Phi|, taken as
0.5 log(re^2 + im^2), or as log(hypot(re, im)) when a square overflows.
Its imaginary part is the difference of consecutive x-steps of the phase
arctan2(im, re), over dx^2.  Only a step of size pi or more is
corrected, modulo 2 pi as np.unwrap would, so the phase itself is never
unwrapped along the row.
"""

from __future__ import annotations

import numpy as np

from .grids import GridField, NumericalError

#: minimum field magnitude before division / logarithm is refused
MIN_FIELD_MAGNITUDE = 1e-12


def cumulative_simpson(y: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """4th-order cumulative integral of uniformly sampled y; I[0] = 0.

    Even-index nodes accumulate full Simpson panels; odd-index nodes add
    the integral of the local quadratic over half a panel.  Works for
    any node count >= 3 (a trailing odd node uses the backward-facing
    quadratic).
    """
    y = np.asarray(y)
    y = np.moveaxis(y, axis, -1)
    n = y.shape[-1]
    if n < 3:
        raise ValueError("cumulative Simpson needs at least 3 nodes")
    out = np.zeros_like(y)
    # (h/3) (y[2k] + 4 y[2k+1] + y[2k+2]) and out[2k] + (h/12) (5 y[2k] +
    # 8 y[2k+1] - y[2k+2]) are built in place, in that order; swapping the
    # terms of a sum or the factors of a product leaves them bit for bit
    panels = np.multiply(y[..., 1:-1:2], 4.0)
    panels += y[..., 0:-2:2]
    panels += y[..., 2::2]
    panels *= h / 3.0
    np.cumsum(panels, axis=-1, out=out[..., 2::2])
    n_half = (n - 1) // 2 if n % 2 == 1 else (n - 2) // 2
    if n_half > 0:
        odd = np.multiply(y[..., 0:2 * n_half:2], 5.0, out=out[..., 1:2 * n_half:2])
        odd += 8.0 * y[..., 1:2 * n_half:2]
        odd -= y[..., 2:2 * n_half + 1:2]
        odd *= h / 12.0
        odd += out[..., 0:2 * n_half:2]
    if n % 2 == 0:
        out[..., -1] = out[..., -2] + (h / 12.0) * (
            -y[..., -3] + 8.0 * y[..., -2] + 5.0 * y[..., -1]
        )
    return np.moveaxis(out, -1, axis)


def one_sided_first_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """3rd-order one-sided d/dx at the leading edge of axis -1 (4 points)."""
    if y.shape[-1] < 4:
        raise ValueError("one-sided first derivative needs 4 nodes")
    return (-11.0 * y[..., 0] + 18.0 * y[..., 1]
            - 9.0 * y[..., 2] + 2.0 * y[..., 3]) / (6.0 * h)


def second_difference_x(a: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Central d^2/dx^2 along axis -1 at the interior columns (3 points),
    (a[j+1] - 2 a[j] + a[j-1]) / dx^2, built in ``out`` when given."""
    out = np.multiply(a[..., 1:-1], 2.0, out=out)
    np.subtract(a[..., 2:], out, out=out)
    out += a[..., :-2]
    out /= dx * dx
    return out


def _magnitudes(mags: np.ndarray) -> np.ndarray:
    """``mags``, refused when any is at or below MIN_FIELD_MAGNITUDE."""
    if mags.min() <= MIN_FIELD_MAGNITUDE:
        raise NumericalError(f"Phi magnitude {mags.min():.3e} at or below {MIN_FIELD_MAGNITUDE}")
    return mags


def _second_difference_rows(out: np.ndarray, a: np.ndarray, dx: float) -> None:
    """d^2/dx^2 of ``a`` along its rows into ``out``.  An edge column takes
    the stencil on its three nearest nodes summed from the edge, which on
    the right is the neighbour's value."""
    second_difference_x(a, dx, out[:, 1:-1])
    second_difference_x(a[:, 2::-1], dx, out[:, :1])
    out[:, -1] = out[:, -2]


def _unwrap_steps(steps: np.ndarray, scratch: np.ndarray) -> None:
    """Correct, in place and as np.unwrap would, the x-steps of a wrapped
    phase that reach pi in size, to their value modulo 2 pi in [-pi, pi].
    A step left within 1e-9 of pi is refused.  ``scratch`` is a float64
    buffer of ``steps``' shape."""
    limit = np.pi * (1.0 - 1e-9)
    flat = steps.reshape(-1)
    near = np.flatnonzero(np.abs(steps, out=scratch) >= limit)
    if near.size == 0:
        return
    step = flat[near]
    wrapped = np.mod(step + np.pi, 2.0 * np.pi) - np.pi
    wrapped[(wrapped == -np.pi) & (step > 0.0)] = np.pi
    step = np.where(np.abs(step) >= np.pi, wrapped, step)
    if np.abs(step).max() >= limit:
        raise NumericalError("phase jump of ~pi between adjacent x nodes; grid does not "
                             "resolve the field's oscillation (need |lam| * dx < pi)")
    flat[near] = step


def _log_modulus(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """log|re + i im| as 0.5 log(re^2 + im^2), refused as ``_magnitudes``
    refuses hypot(re, im).  When the largest square is not finite (it
    overflowed, or is NaN) the modulus is hypot(re, im) instead.

    The refusal stays the one on hypot: a node with hypot(re, im) <=
    MIN_FIELD_MAGNITUDE has re^2 + im^2 <= MIN_FIELD_MAGNITUDE^2 up to a
    few ulp, so every such node is among those whose square lies within
    a relative 1e-12 above that bound, and hypot is taken on those alone.
    """
    with np.errstate(over="ignore"):
        sq = np.multiply(re, re)
        sq += np.square(im)
    if not np.isfinite(sq.max()):
        return np.log(_magnitudes(np.hypot(re, im, out=sq)), out=sq)
    bound = MIN_FIELD_MAGNITUDE ** 2 * (1.0 + 1e-12)
    if sq.min() <= bound:
        near = sq <= bound
        _magnitudes(np.hypot(re[near], im[near]))
    np.log(sq, out=sq)
    sq *= 0.5
    return sq


def log_planes_xx(re: np.ndarray, im: np.ndarray | None, dx: float):
    """Second x-derivative of log Phi = log|Phi| + i * phase along the rows
    of Phi = re + i * im, given as float64 planes (``im`` None for a real
    Phi).  Returns its real and imaginary planes, the latter None for a
    real Phi.  A real Phi must keep its sign along each x-row; a complex
    Phi's phase must step by less than pi between x nodes.

    log|Phi| is log|re| for a real Phi and 0.5 log(re^2 + im^2) for a
    complex one (``_log_modulus``).  The phase's second difference is the
    difference of its x-steps, taken from arctan2(im, re); a step of size
    pi or more is corrected modulo 2 pi, as np.unwrap would.
    """
    if im is None:
        log_mag = _magnitudes(np.abs(re))
        if np.diff(np.signbit(re), axis=1).any():
            raise NumericalError("real Phi changes sign between adjacent x nodes")
        np.log(log_mag, out=log_mag)
    else:
        log_mag = _log_modulus(re, im)
    xx_re = np.empty(re.shape)
    _second_difference_rows(xx_re, log_mag, dx)
    if im is None:
        return xx_re, None
    steps = np.diff(np.arctan2(im, re, out=log_mag), axis=1)
    xx_im = log_mag  # the phase's buffer, free once its steps are taken
    _unwrap_steps(steps, xx_im[:, 1:])
    np.subtract(steps[:, 1:], steps[:, :-1], out=xx_im[:, 1:-1])
    xx_im[:, 1:-1] /= dx * dx
    xx_im[:, 0] = xx_im[:, 1]
    xx_im[:, -1] = xx_im[:, -2]
    return xx_re, xx_im


def log_phi_xx(phi: GridField) -> GridField:
    """``log_planes_xx`` of a sampled field, as a field."""
    values = phi.values
    xx_re, xx_im = log_planes_xx(values.real,
                                 values.imag if np.iscomplexobj(values) else None,
                                 phi.spec.dx)
    if xx_im is None:
        return GridField(phi.spec, xx_re)
    out = np.empty(values.shape, dtype=complex)
    out.real = xx_re
    out.imag = xx_im
    return GridField(phi.spec, out)


def bluman_shtelen_w(u: GridField, phi: GridField) -> GridField:
    """Construct w = (1/Phi)[ integral_0^x u Phi dxi + B2(t) ] from sampled fields.

    Requires u and Phi on a shared grid with x_min = 0 and odd nx.  B2
    is fixed by B2(0) = 0.
    """
    spec = u.spec
    if phi.spec != spec:
        raise ValueError("u and Phi must share a grid")
    if spec.x_min != 0.0:
        raise ValueError(f"transformation needs x_min = 0, got {spec.x_min}")
    if spec.nx % 2 == 0:
        raise ValueError(f"per-row Simpson integral needs odd nx, got {spec.nx}")
    _magnitudes(np.abs(phi.values))

    inner = cumulative_simpson(u.values * phi.values, spec.dx, axis=1)

    phi_x0 = one_sided_first_derivative(phi.values[:, :4], spec.dx)
    u_x0 = one_sided_first_derivative(u.values[:, :4], spec.dx)
    slope = 0.5 * (phi_x0 * u.values[:, 0] - phi.values[:, 0] * u_x0)
    b2 = cumulative_simpson(slope, spec.dt, axis=0)

    inner += b2[:, None]
    inner /= phi.values
    return GridField(spec, inner)
