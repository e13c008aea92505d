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
Phi_x u and Phi u_x terms.
"""

from __future__ import annotations

import numpy as np

from .grids import GridField, NumericalError, PotentialSpec

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
    panels = (h / 3.0) * (y[..., 0:-2:2] + 4.0 * y[..., 1:-1:2] + y[..., 2::2])
    out[..., 2::2] = np.cumsum(panels, axis=-1)
    n_half = (n - 1) // 2 if n % 2 == 1 else (n - 2) // 2
    if n_half > 0:
        k = np.arange(n_half)
        out[..., 2 * k + 1] = out[..., 2 * k] + (h / 12.0) * (
            5.0 * y[..., 2 * k] + 8.0 * y[..., 2 * k + 1] - y[..., 2 * k + 2]
        )
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


def one_sided_second_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """One-sided d^2/dx^2 at the leading edge of axis -1 (3 points).

    Exact for quadratics and carries the same roundoff amplification as
    the interior central stencil, which keeps edge columns of
    ``log_phi_xx`` at interior noise levels.
    """
    if y.shape[-1] < 3:
        raise ValueError("one-sided second derivative needs 3 nodes")
    return (y[..., 0] - 2.0 * y[..., 1] + y[..., 2]) / (h * h)


def _complex_log_rows(values: np.ndarray) -> np.ndarray:
    """log |Phi| + i * phase unwrapped along x-rows."""
    mags = np.abs(values)
    if mags.min() <= MIN_FIELD_MAGNITUDE:
        raise NumericalError(
            f"field magnitude {mags.min():.3e} at or below {MIN_FIELD_MAGNITUDE}; "
            "cannot take logarithms"
        )
    phase = np.unwrap(np.angle(values), axis=1)
    jumps = np.abs(np.diff(phase, axis=1))
    if jumps.size and jumps.max() >= np.pi * (1.0 - 1e-9):
        raise NumericalError(
            "phase jump of ~pi between adjacent x nodes; grid does not resolve "
            "the field's oscillation (need |lam| * dx < pi)"
        )
    return np.log(mags) + 1j * phase


def log_phi_xx(phi: GridField) -> GridField:
    """Second x-derivative of log Phi (central interior, one-sided edges)."""
    spec = phi.spec
    logf = _complex_log_rows(phi.values)
    dx = spec.dx
    out = np.empty_like(logf)
    out[:, 1:-1] = (logf[:, 2:] - 2.0 * logf[:, 1:-1] + logf[:, :-2]) / (dx * dx)
    out[:, 0] = one_sided_second_derivative(logf[:, :3], dx)
    out[:, -1] = one_sided_second_derivative(logf[:, ::-1][:, :3], dx)
    return GridField(spec, out)


def potential_v2(v1: PotentialSpec, phi: GridField) -> GridField:
    """Transformed potential V2 = V1 - d^2/dx^2 log Phi, sampled on phi's grid."""
    correction = log_phi_xx(phi)
    return GridField(phi.spec, v1.sample(phi.spec) - correction.values)


def bluman_shtelen_w(u: GridField, phi: GridField, b2_offset: complex = 0.0) -> GridField:
    """Construct w = (1/Phi)[ integral_0^x u Phi dxi + B2(t) ] from sampled fields.

    Requires u and Phi on a shared grid with x_min = 0 and odd nx.  B2
    is fixed by B2(0) = 0; ``b2_offset`` adds a constant for callers who
    want the alternative normalization (offset by the value of the
    second antiderivative at t = 0).
    """
    spec = u.spec
    if phi.spec != spec:
        raise ValueError("u and Phi must share a grid")
    if spec.x_min != 0.0:
        raise ValueError(f"transformation needs x_min = 0, got {spec.x_min}")
    if spec.nx % 2 == 0:
        raise ValueError(f"per-row Simpson integral needs odd nx, got {spec.nx}")
    mags = np.abs(phi.values)
    if mags.min() <= MIN_FIELD_MAGNITUDE:
        raise NumericalError(
            f"Phi magnitude {mags.min():.3e} at or below {MIN_FIELD_MAGNITUDE}"
        )

    integrand = u.values * phi.values
    inner = cumulative_simpson(integrand, spec.dx, axis=1)

    phi_x0 = one_sided_first_derivative(phi.values[:, :4], spec.dx)
    u_x0 = one_sided_first_derivative(u.values[:, :4], spec.dx)
    slope = 0.5 * (phi_x0 * u.values[:, 0] - phi.values[:, 0] * u_x0)
    b2 = cumulative_simpson(slope, spec.dt, axis=0)

    return GridField(spec, (inner + b2[:, None] + b2_offset) / phi.values)
