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
Phi_x u and Phi u_x terms.  ``log_phi_xx`` takes d^2/dx^2 log Phi of a
sampled field: the residual check's 3-point stencil ``second_difference_x``
on log|Phi|, and the difference of the phase's x-steps, each wrapped into
[-pi, pi] as np.unwrap would, so the phase itself is never unwrapped.
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


def log_phi_xx(phi: GridField) -> GridField:
    """Second x-derivative of log Phi = log|Phi| + i * phase along the rows
    of a sampled field, at the interior columns, each edge column taking
    its neighbour's value.  Its real part is the 3-point stencil
    ``second_difference_x`` of log|Phi|; its imaginary part is the
    difference of consecutive x-steps of Phi's angle over dx^2, each step
    of size pi or more taken modulo 2 pi, as np.unwrap would.

    Refused: a magnitude at or below MIN_FIELD_MAGNITUDE, a real Phi that
    changes sign between x nodes, and a phase step within 1e-9 of pi in
    size, which the grid does not resolve.
    """
    values, dx = phi.values, phi.spec.dx
    log = _magnitudes(np.abs(values))
    np.log(log, out=log)
    out = np.empty(values.shape, dtype=values.dtype)
    second_difference_x(log, dx, out.real[:, 1:-1])
    if np.iscomplexobj(values):
        steps = np.diff(np.angle(values), axis=1)
        wrapped = np.abs(steps) >= np.pi
        steps[wrapped] = np.mod(steps[wrapped] + np.pi, 2.0 * np.pi) - np.pi
        if np.abs(steps).max() >= np.pi * (1.0 - 1e-9):
            raise NumericalError("phase jump of ~pi between adjacent x nodes; grid does not "
                                 "resolve the field's oscillation (need |lam| * dx < pi)")
        phase_xx = np.subtract(steps[:, 1:], steps[:, :-1], out=out.imag[:, 1:-1])
        phase_xx /= dx * dx
    elif np.diff(np.signbit(values), axis=1).any():
        raise NumericalError("real Phi changes sign between adjacent x nodes")
    out[:, 0] = out[:, 1]
    out[:, -1] = out[:, -2]
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
