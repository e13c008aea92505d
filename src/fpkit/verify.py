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

Residuals are streamed through blocks of rows, ``BLOCK_NODES // nx``
rows high (half that for Phi at lam != 0, sampled as two planes),
so no grid-sized temporary is built.  A block carries a 2-row halo on
each side for the five-point time stencil.  The one-sided rows are used
only at the grid's first and last interior rows, never at a seam between
blocks.  Each block yields its own results: its largest
|residual| with its first row-major position, and its largest |w|.
They are reduced in block order, a later block taking the maximum only
when it is strictly greater, so the report is the whole-grid one bit for
bit.  One walker, ``_stream_checks``, takes every residual, reading each
block with its halo from a block source: the rows of a sampled field for
``residual_backward``/``residual_forward``, and for ``run_checks``' three
fine-grid fields (closed w, and Phi at lam = 0 and 1.5) the block sampled
afresh, so that no whole field is held.  A sampled block is two
contiguous float64 planes, Re and Im (``phi_lambda_planes``; Im is None
for a real field), and no complex block is built.  Each Phi block
feeds the residuals of its two planes and ``log_planes_xx`` on them,
whose own rows give the block's largest complex modulus of d2/dx2 log
Phi.  No cos, sin or hypot runs per node of a block: Phi's phase takes
them once per row and once per column, and log|Phi| is half the log of
re^2 + im^2.  A block whose Im plane is all zero counts as real, and the
imaginary entry exists when some block has a nonzero Im plane, the whole
field's dtype rule.

The blocks of a pass run on ``n_workers`` threads (``fpkit verify``
passes every core the process may run on) through the shared runner,
``parallel.run_in_order``, which returns their results in block order.
A block's results depend on its rows alone, so every output is bit for
bit the same for any worker count.  In-flight memory is n_workers times
one block.

The bound 0 <= w <= h(s-t, x) is a diagnostic: it is reported, never
asserted, since derived closed forms can violate the bound (the
fixed-boundary case with s > 1 does).

``run_checks`` is the suite behind ``fpkit verify``; the acceptance tests
share its per-point measures (``transform_target``, ``zero_identity_gap``,
``product_spread``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .boundary import Boundary, boundary_potential, integral_fprime
from .grids import GridField, GridSpec, sample_field, sample_planes, sample_potential
from .kernels import default_half_width, derived_kernel, symmetric_simpson
from .parallel import run_in_order
from .solutions import (GammaPoly, closed_w, closed_w2_terms, closed_w_gamma, phi_lambda,
                        phi_lambda_planes, product_phi_u, u_lambda, w1_lambda)
from .transform import bluman_shtelen_w, log_planes_xx, second_difference_x

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

    def to_json(self) -> dict:
        return {
            "violations": self.violation_count,
            "total": self.total_points,
            "worst_margin": self.worst_margin,
        }


#: Nodes per row block of a residual or fine-grid pass on a real field: 32
#: rows of the default 901x2951 grid.  The block height is this over nx, so
#: memory is flat in nt and nx; each worker holds one block's arrays at a
#: time.  A complex field's block, two planes per node, is half as tall, so
#: the blocks of every pass hold about the same bytes.
BLOCK_NODES = 96_000


def _row_blocks(spec: GridSpec, planes: int = 1):
    """Yield (lo, r0, r1, hi) per row block of a field of ``planes`` float64
    planes.  The own rows r0..r1-1 of the blocks partition the grid; rows
    lo..hi-1 add the 2-row halo that the time stencil reads, widened at the
    grid's first and last rows to the five rows of the one-sided stencils."""
    nt = spec.nt
    height = max(1, BLOCK_NODES // (planes * spec.nx))
    for r0 in range(0, nt, height):
        r1 = min(r0 + height, nt)
        yield max(0, min(r0 - 2, nt - 5)), r0, r1, min(nt, max(r1 + 2, 5))


def _check_residual_grid(spec: GridSpec) -> None:
    if spec.nt < 5 or spec.nx < 5:
        raise ValueError(f"residual check needs nt, nx >= 5, got {spec.nt}x{spec.nx}")


def _time_derivative(c: np.ndarray, lo: int, ra: int, rb: int, nt: int,
                     dt: float) -> np.ndarray:
    """4th-order w_t at grid rows ra..rb-1, from ``c`` holding rows lo.. .

    Inner rows use the central five-point stencil; the grid's first and
    last interior rows (1 and nt-2) use the one-sided five-point form
    (-3, -10, 18, -6, 1)/12 and its mirror, so no node outside the grid
    is read.
    """
    wt = np.empty((rb - ra, c.shape[1]), dtype=c.dtype)
    a, b = ra + (ra == 1), rb - (rb == nt - 1)  # the central rows a..b-1
    inner = wt[a - ra:b - ra]  # built in place: no block-sized temporaries
    k, n = a - lo, b - a
    np.subtract(c[k + 1:k + 1 + n], c[k - 1:k - 1 + n], out=inner)
    inner *= 8.0
    inner -= c[k + 2:k + 2 + n]
    inner += c[k - 2:k - 2 + n]
    if ra == 1:  # then lo == 0
        wt[0] = -3.0 * c[0] - 10.0 * c[1] + 18.0 * c[2] - 6.0 * c[3] + c[4]
    if rb == nt - 1:  # then c ends at the grid's last row
        wt[-1] = 3.0 * c[-1] + 10.0 * c[-2] - 18.0 * c[-3] + 6.0 * c[-4] - c[-5]
    wt /= 12.0 * dt
    return wt


def _abs(a: np.ndarray) -> np.ndarray:
    """|a|, written over ``a`` when it is real."""
    return np.abs(a, out=None if np.iscomplexobj(a) else a)


def _block_peaks(spec: GridSpec, time_sign: float, w: np.ndarray, vv: np.ndarray,
                 lo: int, r0: int, r1: int):
    """(scale, peak) of one residual, time_sign * w_t + V w - w_xx/2, over
    the row block whose own rows are r0..r1-1: the largest |w| on those
    rows, and (largest |residual|, interior i, j) at its first row-major
    position, or None when the block holds no interior row.  ``w`` and the
    potential ``vv`` hold grid rows lo.. ."""
    scale = float(np.max(np.abs(w[r0 - lo:r1 - lo])))
    ra, rb = max(r0, 1), min(r1, spec.nt - 1)
    if ra >= rb:
        return scale, None
    rows = w[ra - lo:rb - lo]
    # (time_sign * wt + V w) - 0.5 * wxx, in two buffers
    res = _time_derivative(w[:, 1:-1], lo, ra, rb, spec.nt, spec.dt)
    res *= time_sign
    term = np.multiply(vv[ra - lo:rb - lo, 1:-1], rows[:, 1:-1])
    res += term
    term = second_difference_x(rows, spec.dx, out=term)
    term *= 0.5
    res -= term
    mags = _abs(res)
    i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
    return scale, (float(mags[i, j]), ra - 1 + int(i), int(j))


def _zero_peaks(spec: GridSpec, r0: int, r1: int):
    """``_block_peaks`` of a block whose w is identically 0."""
    ra = max(r0, 1)
    return 0.0, ((0.0, ra - 1, 0) if ra < min(r1, spec.nt - 1) else None)


def _residual_report(spec: GridSpec, entries) -> ResidualReport:
    """The whole-grid report from the blocks' ``_block_peaks`` entries, in
    block order: np.argmax takes the first block holding the maximum (or a
    NaN), so the report does not depend on the block height."""
    peaks = [peak for _, peak in entries if peak is not None]
    max_abs, i, j = peaks[int(np.argmax([p[0] for p in peaks]))]
    scale = max(float(np.max([s for s, _ in entries])), RELATIVE_FLOOR)
    t_at = spec.t_min + (i + 1) * spec.dt
    x_at = spec.x_min + (j + 1) * spec.dx
    return ResidualReport(max_abs, max_abs / scale, float(t_at), float(x_at), spec)


def _max_modulus(re: np.ndarray, im: np.ndarray) -> float:
    """The largest |re + i im|, as np.abs takes a complex modulus, over only
    the nodes where re^2 + im^2 lies within a relative 1e-12 of its largest
    value.  A normal square errs by a few ulp, so the largest modulus is
    among them, and a square that overflows is inf and kept.  When the
    largest square is not a normal number, or is NaN, every node is taken."""
    with np.errstate(over="ignore"):
        sq = np.multiply(re, re)
        sq += im * im
    top = sq.max()
    if top >= np.finfo(float).tiny:
        keep = sq >= top * (1.0 - 1e-12)
        re, im = re[keep], im[keep]
    z = np.empty(re.shape, dtype=complex)
    z.real = re
    z.imag = im
    return np.max(np.abs(z))


def _stream_checks(spec: GridSpec, planes_of: Callable, v: Callable, time_sign: float,
                   form: bool, n_workers: int = 1, planes: int = 1):
    """Residual reports and, with ``form``, the largest |d2/dx2 log field|
    over ``spec``, one row block at a time: ``planes_of(lo, hi)`` gives the
    field's grid rows lo..hi-1 as (re, im).  ``im`` is None when ``re``
    holds the whole field, real or complex; a complex ``re`` gets one
    report, of complex moduli.  ``planes`` is 2 when the blocks hold two
    planes, which halves the block height.

    Returns (reports, form_max): one report for ``re`` and, when any block
    holds a nonzero ``im``, one for ``im``.
    """
    _check_residual_grid(spec)

    def block(rows):
        lo, r0, r1, hi = rows
        re, im = planes_of(lo, hi)
        vv = sample_potential(spec, v, lo, hi)
        if im is not None and not np.any(im):
            im = None
        re_peaks = _block_peaks(spec, time_sign, re, vv, lo, r0, r1)
        im_peaks = (_zero_peaks(spec, r0, r1) if im is None
                    else _block_peaks(spec, time_sign, im, vv, lo, r0, r1))
        form_max = None
        if form:
            xx_re, xx_im = log_planes_xx(re, im, spec.dx)
            own = slice(r0 - lo, r1 - lo)
            form_max = (np.max(_abs(xx_re[own])) if xx_im is None
                        else _max_modulus(xx_re[own], xx_im[own]))
        return re_peaks, im_peaks, im is not None, form_max

    results = run_in_order(block, list(_row_blocks(spec, planes)), n_workers)
    parts = [[re for re, _, _, _ in results]]
    if any(is_complex for _, _, is_complex, _ in results):
        parts.append([im for _, im, _, _ in results])
    reports = [_residual_report(spec, entries) for entries in parts]
    return reports, float(np.max([f for *_, f in results])) if form else None


def residual_backward(w: GridField, v: Callable, n_workers: int = 1) -> ResidualReport:
    """Residual of -w_t + V w - w_xx/2 at interior nodes; V is the (t, x)
    function ``v``.  The report is the same for any ``n_workers``."""
    (report,), _ = _stream_checks(w.spec, lambda lo, hi: (w.values[lo:hi], None), v, -1.0,
                                  False, n_workers)
    return report


def residual_forward(phi: GridField, v: Callable) -> ResidualReport:
    """Residual of +Phi_t + V Phi - Phi_xx/2 at interior nodes."""
    (report,), _ = _stream_checks(phi.spec, lambda lo, hi: (phi.values[lo:hi], None), v, +1.0,
                                  False)
    return report


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
    quad = float(symmetric_simpson(lambda lam: g(lam) * w1_lambda(b, lam, t, x),
                                   half_width, nodes).real)
    closed = closed_w_gamma(b, g, t, x)
    return abs(closed - quad) / (1.0 + abs(closed))


def transform_target(b: Boundary, t, x):
    """Analytic lambda = 0 target of the transformation loop: (x - int_0^t f') u_0."""
    u0 = u_lambda(b, 0.0, t, x)
    u0 *= np.asarray(x) - integral_fprime(b, 0.0, t)
    return u0


def zero_identity_gap(b: Boundary, t, x):
    """|first - second| of ``closed_w2_terms`` relative to the first term
    (floored at 1e-300), at each (t, x)."""
    first, second = closed_w2_terms(b, t, x)
    return np.abs(first - second) / np.maximum(np.abs(first), 1e-300)


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
               grid_scale: float, field: GridField | None, n_workers: int = 1):
    """The verification suite: returns (checks, residuals, diagnostics).

    ``spec`` is the residual grid and ``tspec`` the transform grid (as
    built by ``transform_grid``); ``tols`` holds every ``TOLERANCES`` key.
    ``grid_scale`` multiplies the backward and forward tolerances of the
    fields sampled on ``spec`` only: an external ``field`` is judged at
    the unscaled ``tol_backward``.  One RNG stream from ``seed`` feeds, in
    order, 10 quadrature, 200 zero-identity and 20 product draws; the 200
    zero-identity (t, x) pairs come from one call, which draws the numbers
    that 200 calls for t and then x would.
    Residual row blocks run ``n_workers`` at a time; the results do not
    depend on it.
    """
    v1 = boundary_potential(b)
    checks: list[CheckResult] = []
    residuals: dict = {}

    def residual_check(key, name, rep, tol):
        residuals[key] = rep.to_json()
        checks.append(CheckResult(name, "max_rel", rep.max_rel, tol))

    if field is not None:
        residual_check("external_field_backward", "external field residual",
                       residual_backward(field, v1, n_workers), tols["tol_backward"])
    w_rows = partial(sample_planes, spec, lambda t, x: (closed_w(b, t, x), None))
    (rep_w,), _ = _stream_checks(spec, w_rows, v1, -1.0, False, n_workers)
    residual_check("backward_closed_w", "backward residual (closed w)", rep_w,
                   tols["tol_backward"] * grid_scale)
    form_pres_max = 0.0
    for lam in (0.0, 1.5):
        phi_rows = partial(sample_planes, spec, lambda t, x: phi_lambda_planes(b, lam, t, x))
        reps, form_max = _stream_checks(spec, phi_rows, v1, +1.0, True, n_workers,
                                        2 if lam else 1)
        for name, rep in zip(("re", "im"), reps):
            residual_check(f"forward_phi_lam{lam}_{name}",
                           f"forward residual (phi, lam={lam}, {name})",
                           rep, tols["tol_forward"] * grid_scale)
        form_pres_max = max(form_pres_max, form_max)
    checks.append(CheckResult("form preservation (d2/dx2 log phi)", "max_abs",
                              form_pres_max, tols["tol_form_preservation"]))

    w_engine = bluman_shtelen_w(sample_field(tspec, lambda t, x: u_lambda(b, 0.0, t, x)),
                                sample_field(tspec, lambda t, x: phi_lambda(b, 0.0, t, x)))
    target = sample_field(tspec, lambda t, x: transform_target(b, t, x)).values
    dev = float(np.max(_abs(w_engine.values - target))
                / max(float(np.max(np.abs(target))), RELATIVE_FLOOR))
    checks.append(CheckResult("transform loop vs analytic target", "max_rel_dev", dev,
                              tols["tol_transform"]))
    residual_check("backward_transform_w", "transform loop residual",
                   residual_backward(w_engine, v1, n_workers), tols["tol_transform_residual"])

    rng = np.random.default_rng(seed)
    quad_worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.0, b.horizon_s - 0.05)
        x = rng.uniform(0.0, 2.0)
        g = GammaPoly(tuple(rng.uniform(-1.0, 1.0, rng.integers(1, 5))))
        quad_worst = max(quad_worst, quadrature_match(b, g, float(t), float(x)))
    checks.append(CheckResult("contour integration vs quadrature", "worst", quad_worst,
                              tols["tol_quadrature"]))
    t, x = rng.uniform([0.0, 0.0], [b.horizon_s - 0.05, 3.0], (200, 2)).T
    zero_worst = float(np.max(zero_identity_gap(b, t, x)))
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
