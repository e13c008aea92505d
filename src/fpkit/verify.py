"""Finite-difference residual verification and diagnostic checks.

Residuals of the backward equation (-w_t + V w - w_xx/2) and its
adjoint (+Phi_t + V Phi - Phi_xx/2) are evaluated at interior nodes.
The operator is 2nd-order in its convergence: w_xx uses the 3-point
central difference, while w_t uses five-point 4th-order stencils
(central on inner rows, one-sided on the first and last interior rows).
Parabolic solutions sampled with dt = dx have w_ttt far larger than
w_xxxx near the horizon, so a 3-point time difference would dominate the
truncation.  The relative figure normalizes by the field's maximum
magnitude (floored at 1e-12) because the solutions decay exponentially
in x and pointwise relative error is meaningless in the tail.

The bound 0 <= w <= h(s-t, x) is a diagnostic: it is reported, never
asserted, since derived closed forms can violate the bound (the
fixed-boundary case with s > 1 does).

``run_checks`` is the suite behind ``fpkit verify``; the acceptance tests
share its per-point measures (``transform_target``, ``zero_identity_gap``,
``product_spread``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .boundary import Boundary, integral_fprime
from .grids import GridField, GridSpec, PotentialSpec, sample_field
from .kernels import default_half_width, derived_kernel, symmetric_simpson
from .solutions import (GammaPoly, closed_w, closed_w2_terms, closed_w_gamma, phi_lambda,
                        product_phi_u, u_lambda)
from .transform import bluman_shtelen_w, log_phi_xx

RELATIVE_FLOOR = 1e-12

# Default tolerances, keyed by the dest of each --tol-* flag.  tol_backward is
# criterion 1's 1e-4 at dt = dx = 1e-3, where the closed form measures ~3.8e-5.
TOLERANCES = {
    "tol_backward": 1e-4,
    "tol_forward": 1e-4,
    "tol_form_preservation": 1e-8,
    "tol_transform": 1e-6,
    "tol_transform_residual": 1e-3,
    "tol_quadrature": 1e-8,
    "tol_zero_identity": 1e-14,
    "tol_product": 1e-12,
}


@dataclass(frozen=True)
class ResidualReport:
    """Extrema of a PDE residual over the interior of a grid."""

    max_abs: float
    max_rel: float
    t_at_max: float
    x_at_max: float
    grid: GridSpec

    def to_json(self) -> dict:
        return {
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "t_at_max": self.t_at_max,
            "x_at_max": self.x_at_max,
            "nt": self.grid.nt,
            "nx": self.grid.nx,
            "dt": self.grid.dt,
            "dx": self.grid.dx,
        }


@dataclass(frozen=True)
class DiagnosticReport:
    violation_count: int
    worst_margin: float
    total_points: int

    def __post_init__(self):
        if not 0 <= self.violation_count <= self.total_points:
            raise ValueError("violation count outside [0, total_points]")

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def to_json(self) -> dict:
        return {
            "violations": self.violation_count,
            "total": self.total_points,
            "worst_margin": self.worst_margin,
        }


def _residual_report(field: GridField, resid: np.ndarray) -> ResidualReport:
    spec = field.spec
    mags = np.abs(resid)
    flat = int(np.argmax(mags))
    i, j = np.unravel_index(flat, mags.shape)
    max_abs = float(mags[i, j])
    scale = max(float(np.max(np.abs(field.values))), RELATIVE_FLOOR)
    t_at = spec.t_min + (i + 1) * spec.dt
    x_at = spec.x_min + (j + 1) * spec.dx
    return ResidualReport(max_abs, max_abs / scale, float(t_at), float(x_at), spec)


def _time_derivative(w: np.ndarray, dt: float) -> np.ndarray:
    """4th-order w_t at interior rows 1..nt-2, columns 1..nx-2.

    Inner rows use the central five-point stencil; the first and last
    interior rows use the one-sided five-point form (-3, -10, 18, -6, 1)/12
    and its mirror, so no node outside the grid is read.
    """
    c = w[:, 1:-1]
    wt = np.empty((c.shape[0] - 2, c.shape[1]), dtype=c.dtype)
    inner = wt[1:-1]  # built in place: no grid-sized temporaries
    np.subtract(c[3:-1], c[1:-3], out=inner)
    inner *= 8.0
    inner -= c[4:]
    inner += c[:-4]
    wt[0] = -3.0 * c[0] - 10.0 * c[1] + 18.0 * c[2] - 6.0 * c[3] + c[4]
    wt[-1] = 3.0 * c[-1] + 10.0 * c[-2] - 18.0 * c[-3] + 6.0 * c[-4] - c[-5]
    wt /= 12.0 * dt
    return wt


def _central_residual(field: GridField, v: PotentialSpec, time_sign: float) -> np.ndarray:
    spec = field.spec
    if spec.nt < 5 or spec.nx < 5:
        raise ValueError(f"residual check needs nt, nx >= 5, got {spec.nt}x{spec.nx}")
    w = field.values
    vv = v.sample(spec)
    wt = _time_derivative(w, spec.dt)
    wxx = (w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]) / (spec.dx ** 2)
    return (time_sign * wt + vv[1:-1, 1:-1] * w[1:-1, 1:-1] - 0.5 * wxx)


def residual_backward(w: GridField, v: PotentialSpec) -> ResidualReport:
    """Residual of -w_t + V w - w_xx/2 at interior nodes."""
    return _residual_report(w, _central_residual(w, v, -1.0))


def residual_forward(phi: GridField, v: PotentialSpec) -> ResidualReport:
    """Residual of +Phi_t + V Phi - Phi_xx/2 at interior nodes."""
    return _residual_report(phi, _central_residual(phi, v, +1.0))


def check_inequality(w: GridField, s: float) -> DiagnosticReport:
    """Count grid nodes violating 0 <= w(t,x) <= h(s-t, x).

    Requires a real-valued field on a grid with t < s and x >= 0.  The
    worst margin is the most negative of (w, h - w) over the grid;
    negative values measure how far the bound is broken.
    """
    if np.iscomplexobj(w.values):
        raise ValueError("inequality check needs a real-valued field")
    spec = w.spec
    if spec.t_max >= s:
        raise ValueError(f"grid must satisfy t < s = {s}")
    if spec.x_min < 0.0:
        raise ValueError("grid must satisfy x >= 0")
    tt, xx = spec.mesh()
    bound = np.where(xx > 0.0, derived_kernel(s - tt, xx), 0.0)
    vals = w.values
    margin = np.minimum(vals, bound - vals)
    violations = int(np.count_nonzero(margin < 0.0))
    return DiagnosticReport(violations, float(margin.min()), vals.size)


def check_vanishing_at_origin(w_eval: Callable[[float, float], float], t: float,
                              x_probes: Sequence[float]) -> DiagnosticReport:
    """Probe |w(t, x)| on a decreasing sequence x_k -> 0.

    Linear decay is the pass criterion: every derived solution carries
    an explicit factor of x at t = 0.  The check requires (a) the
    magnitudes to be nonincreasing along the probes, and (b) the final
    slope |w|/x to stay below the bound set by the previous probe,
    |w(x_last)| <= tol * x_last with tol the observed slope
    |w(x_prev)|/x_prev times the geometric mean of the probe ratio.
    A field with a nonzero limit at 0 grows its slope by the full probe
    ratio per step and fails (b); linear or faster decay keeps the
    slope essentially constant and passes.
    """
    probes = np.asarray(list(x_probes), dtype=float)
    if probes.size < 3 or np.any(probes <= 0.0) or np.any(np.diff(probes) >= 0.0):
        raise ValueError("probes must be at least 3 positive decreasing values")
    if probes[-1] > 1e-6:
        raise ValueError("probe sequence must reach <= 1e-6")
    vals = np.array([abs(complex(w_eval(t, xk))) for xk in probes])
    slack = 1e-9
    decrease_viol = int(np.count_nonzero(vals[1:] > vals[:-1] * (1.0 + slack) + 1e-300))
    worst_decrease = float(np.min(vals[:-1] - vals[1:])) if vals.size > 1 else 0.0
    slope_prev = vals[-2] / probes[-2]
    slope_last = vals[-1] / probes[-1]
    slope_tol = slope_prev * np.sqrt(probes[-2] / probes[-1]) * (1.0 + slack)
    final_margin = float(slope_tol - slope_last + 1e-300)
    final_viol = int(final_margin < 0.0)
    worst = min(worst_decrease, final_margin)
    return DiagnosticReport(decrease_viol + final_viol, worst, probes.size)


def quadrature_match(b: Boundary, g: GammaPoly, t: float, x: float,
                     nodes: int = 16001) -> float:
    """Mismatch between the closed form and the direct lambda-quadrature.

    Integrates Gamma(lam) * w1_lambda over the symmetric window
    ``default_half_width(s - t, X)`` with ``symmetric_simpson`` and returns
    |closed - quadrature| / (1 + |closed|).  Requires s - t >= 0.05.
    """
    s = b.horizon_s
    if s - t < 0.05:
        raise ValueError(f"quadrature window calibrated for s - t >= 0.05, got {s - t}")
    half_width = default_half_width(s - t, x + integral_fprime(b, t, s))
    drift = x - integral_fprime(b, 0.0, t)
    quad = float(symmetric_simpson(
        lambda lam: g(lam) * (drift - 1j * lam * t) * u_lambda(b, lam, t, x),
        half_width, nodes).real)
    closed = closed_w_gamma(b, g, t, x)
    return abs(closed - quad) / (1.0 + abs(closed))


def transform_target(b: Boundary, t, x):
    """Analytic lambda = 0 target of the transformation loop: (x - int_0^t f') u_0."""
    return (np.asarray(x) - integral_fprime(b, 0.0, t)) * u_lambda(b, 0.0, t, x).real


def zero_identity_gap(b: Boundary, t: float, x: float) -> float:
    """|closed_w2| relative to its first term (floored at 1e-300)."""
    first, second = closed_w2_terms(b, t, x)
    return abs(first - second) / max(abs(first), 1e-300)


def product_spread(b: Boundary, lam: float, t, x) -> float:
    """Worst relative deviation of phi_lambda * u_lambda at (t, x) from product_phi_u."""
    ref = product_phi_u(b, lam)
    vals = phi_lambda(b, lam, t, x) * u_lambda(b, lam, t, x)
    return float(np.max(np.abs(vals - ref)) / abs(ref))


@dataclass(frozen=True)
class CheckResult:
    """A check passes when ``value`` <= ``tol``; ``label`` names the printed
    measure.  An int ``value`` is a violation count, printed without tol."""

    name: str
    label: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tol)

    def line(self) -> str:
        shown = (str(self.value) if isinstance(self.value, int)
                 else f"{self.value:.3e} tol={self.tol:.1e}")
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.label}={shown}"

    def to_json(self) -> dict:
        return {"name": self.name, "value": float(self.value), "tol": float(self.tol),
                "margin": float(self.tol - self.value), "passed": self.passed}


def run_checks(b: Boundary, spec: GridSpec, tspec: GridSpec, tols: dict, seed: int,
               grid_scale: float, field: GridField | None):
    """The verification suite: returns (checks, residuals, diagnostics).

    ``spec`` is the residual grid and ``tspec`` the transform grid (as
    built by ``transform_grid``); ``tols`` holds every ``TOLERANCES`` key.
    ``grid_scale`` multiplies the backward and forward tolerances of the
    fields sampled on ``spec`` only: an external ``field`` is judged at
    the unscaled ``tol_backward``.  One RNG stream from ``seed`` feeds, in
    order, 10 quadrature, 200 zero-identity and 20 product draws.
    """
    v1 = PotentialSpec.from_boundary(b)
    checks: list[CheckResult] = []
    residuals: dict = {}

    def residual_check(key, name, rep, tol):
        residuals[key] = rep.to_json()
        checks.append(CheckResult(name, "max_rel", rep.max_rel, tol))

    if field is not None:
        residual_check("external_field_backward", "external field residual",
                       residual_backward(field, v1), tols["tol_backward"])
    w_field = sample_field(spec, lambda t, x: closed_w(b, t, x))
    residual_check("backward_closed_w", "backward residual (closed w)",
                   residual_backward(w_field, v1), tols["tol_backward"] * grid_scale)
    form_pres_max = 0.0
    for lam in (0.0, 1.5):
        phi = sample_field(spec, lambda t, x: phi_lambda(b, lam, t, x))
        for part, name in ((phi.real_part(), "re"), (phi.imag_part(), "im")):
            residual_check(f"forward_phi_lam{lam}_{name}",
                           f"forward residual (phi, lam={lam}, {name})",
                           residual_forward(part, v1), tols["tol_forward"] * grid_scale)
        form_pres_max = max(form_pres_max, float(np.max(np.abs(log_phi_xx(phi).values))))
    checks.append(CheckResult("form preservation (d2/dx2 log phi)", "max_abs",
                              form_pres_max, tols["tol_form_preservation"]))

    u0 = sample_field(tspec, lambda t, x: u_lambda(b, 0.0, t, x))
    phi0 = sample_field(tspec, lambda t, x: phi_lambda(b, 0.0, t, x))
    w_engine = bluman_shtelen_w(u0, phi0)
    target = sample_field(tspec, lambda t, x: transform_target(b, t, x))
    dev = float(np.max(np.abs(w_engine.values - target.values))
                / max(float(np.max(np.abs(target.values))), RELATIVE_FLOOR))
    checks.append(CheckResult("transform loop vs analytic target", "max_rel_dev", dev,
                              tols["tol_transform"]))
    residual_check("backward_transform_w", "transform loop residual",
                   residual_backward(w_engine, v1), tols["tol_transform_residual"])

    rng = np.random.default_rng(seed)
    quad_worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.0, b.horizon_s - 0.05)
        x = rng.uniform(0.0, 2.0)
        g = GammaPoly(tuple(rng.uniform(-1.0, 1.0, rng.integers(1, 5))))
        quad_worst = max(quad_worst, quadrature_match(b, g, float(t), float(x)))
    checks.append(CheckResult("contour integration vs quadrature", "worst", quad_worst,
                              tols["tol_quadrature"]))
    zero_worst = 0.0
    for _ in range(200):
        t = rng.uniform(0.0, b.horizon_s - 0.05)
        x = rng.uniform(0.0, 3.0)
        zero_worst = max(zero_worst, zero_identity_gap(b, float(t), float(x)))
    checks.append(CheckResult("second solution vanishes", "worst", zero_worst,
                              tols["tol_zero_identity"]))
    prod_worst = 0.0
    for _ in range(20):
        lam = rng.uniform(-5.0, 5.0)
        ts = rng.uniform(0.0, b.horizon_s, 50)
        xs = rng.uniform(-2.0, 2.0, 50)
        prod_worst = max(prod_worst, product_spread(b, lam, ts, xs))
    checks.append(CheckResult("product constancy", "worst", prod_worst, tols["tol_product"]))

    probes = [2.0 ** -k for k in range(1, 21)]
    rep_v = check_vanishing_at_origin(lambda t, x: closed_w(b, t, x), 0.0, probes)
    checks.append(CheckResult("vanishing at origin (t=0)", "violations",
                              rep_v.violation_count, 0))

    ineq_spec = GridSpec(0.0, 0.5 * b.horizon_s, 0.0, 3.0, 9, 61)
    w_small = sample_field(ineq_spec, lambda t, x: closed_w(b, t, x))
    row_spec = GridSpec(0.0, min(1e-6, 0.4 * b.horizon_s), 0.0, 3.0, 3, 61)
    w_row = sample_field(row_spec, lambda t, x: closed_w(b, t, x))
    diagnostics = {
        "form_preservation_max_abs": form_pres_max,
        "transform_max_rel_deviation": dev,
        "quadrature_match_worst": quad_worst,
        "zero_identity_worst": zero_worst,
        "product_constancy_worst": prod_worst,
        "vanishing_at_origin": rep_v.to_json(),
        "inequality_full_grid": check_inequality(w_small, b.horizon_s).to_json(),
        "inequality_t0": check_inequality(w_row, b.horizon_s).to_json(),
    }
    return checks, residuals, diagnostics
