"""Numerical pair-transformation engine.

Given sampled fields u (backward equation) and Phi (adjoint equation)
with potential V1, build

    w(t, x) = (1/Phi) [ integral_0^x u Phi dxi + B2(t) ],
    dB2/dt  = (Phi_x(t,0) u(t,0) - Phi(t,0) u_x(t,0)) / 2,

which solves the backward equation with potential
V2 = V1 - d^2/dx^2 log Phi.  When log Phi is affine in x the potential
is unchanged and the transformation maps solutions of the original
equation to new ones vanishing at (t=0, x=0).

The engine is two steps.  Its B2 step, ``bluman_shtelen_b2``, reads u and
Phi on the grid's first four columns at every row and integrates B2 in t.
Its row form, ``bluman_shtelen_rows``, builds w on any set of whole rows
from their own u, Phi and B2 values, so a block of rows is the whole
field's rows bit for bit.  ``bluman_shtelen_w`` applies both to whole
fields (``fpkit transform``); ``verify``'s transform loop takes the B2
step once and the row form per row block.

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

from .grids import GridField, GridSpec, NumericalError

#: minimum field magnitude before division / logarithm is refused
MIN_FIELD_MAGNITUDE = 1e-12


def cumulative_simpson(y: np.ndarray, h: float, axis: int = -1,
                       out: np.ndarray | None = None) -> np.ndarray:
    """4th-order cumulative integral of uniformly sampled y; I[0] = 0.

    Even-index nodes accumulate full Simpson panels; odd-index nodes add
    the integral of the local quadratic over half a panel.  Works for
    any node count >= 3 (a trailing odd node uses the backward-facing
    quadratic).  Built in ``out`` when given (y's shape, not y itself),
    with no other temporary of y's size.
    """
    y = np.moveaxis(np.asarray(y), axis, -1)
    n = y.shape[-1]
    if n < 3:
        raise ValueError("cumulative Simpson needs at least 3 nodes")
    out = np.empty_like(y) if out is None else np.moveaxis(out, axis, -1)
    n_half = (n - 1) // 2 if n % 2 == 1 else (n - 2) // 2
    # (h/12) (5 y[2k] + 8 y[2k+1] - y[2k+2]) in the odd nodes, with 8 y[2k+1]
    # in the even ones, then (h/3) (y[2k] + 4 y[2k+1] + y[2k+2]) summed up
    # the even nodes; each is built in place, in that order, and swapping
    # the terms of a sum or the factors of a product leaves them bit for bit
    evens = out[..., 2::2]
    odd = np.multiply(y[..., 0:2 * n_half:2], 5.0, out=out[..., 1:2 * n_half:2])
    odd += np.multiply(y[..., 1:2 * n_half:2], 8.0, out=evens[..., :n_half])
    odd -= y[..., 2:2 * n_half + 1:2]
    odd *= h / 12.0
    panels = np.multiply(y[..., 1:-1:2], 4.0, out=evens)
    panels += y[..., 0:-2:2]
    panels += y[..., 2::2]
    panels *= h / 3.0
    np.cumsum(panels, axis=-1, out=panels)
    out[..., 0] = 0.0
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


def second_difference_x(a: np.ndarray, scale: float,
                        out: np.ndarray | None = None) -> np.ndarray:
    """The central 3-point x stencil along axis -1 at the interior columns,
    (a[j+1] - 2 a[j] + a[j-1]) * scale, built in ``out`` when given: d^2/dx^2
    at scale = 1/dx^2, and its multiples at the multiples of that."""
    out = np.multiply(a[..., 1:-1], 2.0, out=out)
    np.subtract(a[..., 2:], out, out=out)
    out += a[..., :-2]
    out *= scale
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
    second_difference_x(log, 1.0 / (dx * dx), out.real[:, 1:-1])
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


def bluman_shtelen_b2(spec: GridSpec, u_edge: np.ndarray, phi_edge: np.ndarray) -> np.ndarray:
    """The engine's B2 step: B2 at every t row of ``spec``, with B2(0) = 0, the
    cumulative Simpson in t of (Phi_x u - Phi u_x)/2 at x = 0, from u and Phi
    on the grid's first four columns (nt-by-4).

    Requires x_min = 0 and odd nx, as the row form's Simpson integral does.
    """
    if spec.x_min != 0.0:
        raise ValueError(f"transformation needs x_min = 0, got {spec.x_min}")
    if spec.nx % 2 == 0:
        raise ValueError(f"per-row Simpson integral needs odd nx, got {spec.nx}")
    phi_x0 = one_sided_first_derivative(phi_edge, spec.dx)
    u_x0 = one_sided_first_derivative(u_edge, spec.dx)
    slope = 0.5 * (phi_x0 * u_edge[:, 0] - phi_edge[:, 0] * u_x0)
    return cumulative_simpson(slope, spec.dt, axis=0)


def bluman_shtelen_rows(spec: GridSpec, u: np.ndarray, phi: np.ndarray, b2: np.ndarray,
                        out=None) -> np.ndarray:
    """The engine's row form: w = (1/Phi)[ integral_0^x u Phi dxi + B2 ] on
    whole rows of ``spec`` (u and Phi from x = 0), with ``b2`` the rows' B2
    values.  Each row depends on its own values alone.  ``out``, when given,
    is two float64 planes of the rows' shape, for real u and Phi: w is built
    in out[0], and out[1] holds u Phi.  Refuses |Phi| at or below
    MIN_FIELD_MAGNITUDE on these rows.
    """
    w, product = (None, None) if out is None else out
    _magnitudes(np.abs(phi, out=w))
    inner = cumulative_simpson(np.multiply(u, phi, out=product), spec.dx, axis=1, out=w)
    inner += b2[:, None]
    inner /= phi
    return inner


def bluman_shtelen_w(u: GridField, phi: GridField) -> GridField:
    """Construct w = (1/Phi)[ integral_0^x u Phi dxi + B2(t) ] from sampled fields:
    ``bluman_shtelen_b2`` on their first four columns, then
    ``bluman_shtelen_rows`` on every row.

    Requires u and Phi on a shared grid with x_min = 0 and odd nx.  B2
    is fixed by B2(0) = 0.
    """
    spec = u.spec
    if phi.spec != spec:
        raise ValueError("u and Phi must share a grid")
    b2 = bluman_shtelen_b2(spec, u.values[:, :4], phi.values[:, :4])
    return GridField(spec, bluman_shtelen_rows(spec, u.values, phi.values, b2))
