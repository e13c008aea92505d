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

No node is divided: the time stencils are scaled by one multiply by
time_sign / (12 dt), and the x stencil by one multiply by 0.5 / dx^2.
That x stencil is ``transform.second_difference_x``, the package's one,
which ``log_phi_xx`` takes at 1 / dx^2.  A real field's largest |w| is
max(max w, -min w), with no |w| plane written.

Residuals are streamed through blocks of rows, ``BLOCK_NODES // nx``
rows high, so no grid-sized temporary is built.  A block carries a 2-row
halo on each side for the five-point time stencil.  The one-sided rows
are used only at the grid's first and last interior rows, never at a
seam between blocks.  Each block yields its own results: its largest
|residual| with its first row-major position, and its largest |w|.
They are reduced in block order, a later block taking the maximum only
when it is strictly greater, so the report is the whole-grid one bit for
bit.  One walker, ``_walk``, runs every pass: per block it writes the
potential on the block's rows of the grid's nodes, built once per pass,
and hands the block to the pass.  ``_stream_checks`` takes residuals on
it, reading each block with its halo from one or more sources: the rows
of a sampled field for ``residual_backward``/``residual_forward``, and
for ``fine_grid_residuals``' three fields (closed w, and Phi at lam = 0
and 1.5) the closed forms called on the block's rows, so that no whole
field is held.  The three share one walk: each block takes the fields'
residuals in turn, building each field in the planes the previous one
used.  A block is two float64 planes, Re and Im (``phi_lambda_planes``;
Im is None for a real field), and no complex block is built.  No cos or
sin runs per node of a block: Phi's phase takes them once per row and
once per column.  A field with an Im plane gets an imaginary entry, also
where that plane is all zero.

The transformation loop (``transform_loop``) is walked too, on its own
grid: the Bluman-Shtelen B2 step takes u_0 and Phi_0 on the grid's first
four columns, and each block samples them on its rows, builds the
engine's rows of w there, and reduces its residual and its deviation
from the analytic target, so the loop holds no whole field either.

Each worker of a walk builds its blocks in one workspace of five float64
block planes (the potential and four more), made at its first block and
reused at every later one: the closed forms, ``bluman_shtelen_rows`` and
``_block_peaks`` take the planes as output buffers, with the arithmetic
they do without them, so after a worker's first block no block-sized
float64 array is allocated.

Form preservation (log Phi affine in x, so d2/dx2 log Phi = 0 and the
Bluman-Shtelen step keeps the potential) is taken once, before the
fine-grid passes, by ``form_preservation``: ``log_phi_xx`` of Phi at
lam = 0 and 1.5 sampled on the residual grid's t rows and x extents at
the x spacing nearest ``FORM_STENCIL_DX``.  A term c x^2 / 2 in log Phi
reads c at any stencil width, while the stencil's roundoff,
~eps |log Phi| / dx^2, would grow 4x per halving of the fine grid's dx;
so the check does not fail because the grid was refined.

The blocks of a pass run on ``n_workers`` threads (``fpkit verify``
passes every core the process may run on) through the shared runner,
``parallel.run_in_order``, which returns their results in block order.
A block's results depend on its rows alone, so every output is bit for
bit the same for any worker count.  In-flight memory is one workspace
per worker.

The bound 0 <= w <= h(s-t, x) is a diagnostic: it is reported, never
asserted, since derived closed forms can violate the bound (the
fixed-boundary case with s > 1 does).

``run_checks`` is the suite behind ``fpkit verify``; the acceptance tests
share its definitions: ``fine_grid_residuals``, ``observed_order`` (its
reports under nested grid halving, and their ratios),
``form_preservation``, ``transform_loop``, ``check_vanishing_at_origin``
(which takes its probes, ``vanishing_probes``, from the horizon) and the
per-point measures ``zero_identity_gap`` and ``product_spread``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .boundary import Boundary, boundary_potential, integral_fprime
from .grids import GridField, GridSpec, NumericalError, sample_field
from .kernels import HORIZON_MARGIN, default_half_width, derived_kernel, symmetric_simpson
from .parallel import run_in_order
from .solutions import (GammaPoly, closed_w, closed_w2_terms, closed_w_gamma, phi_lambda,
                        phi_lambda_planes, product_phi_u, u_lambda, w1_lambda)
from .transform import bluman_shtelen_b2, bluman_shtelen_rows, log_phi_xx, second_difference_x

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


#: Nodes per row block of a residual walk: 16 rows of the default 901x2951
#: grid.  The block height is this over nx, so memory is flat in nt and nx;
#: each worker holds one workspace of five block planes.
BLOCK_NODES = 48_000

#: x spacing of the form-preservation stencil, whatever the grid's dx: a
#: wide stencil keeps its roundoff floor, ~eps |log Phi| / dx^2, far below
#: tol_form_preservation (see the module docstring).
FORM_STENCIL_DX = 0.05


def _row_blocks(spec: GridSpec):
    """Yield (lo, r0, r1, hi) per row block of ``spec``.  The own rows
    r0..r1-1 of the blocks partition the grid; rows lo..hi-1 add the 2-row
    halo that the time stencil reads, widened at the grid's first and last
    rows to the five rows of the one-sided stencils."""
    nt = spec.nt
    height = max(1, BLOCK_NODES // spec.nx)
    for r0 in range(0, nt, height):
        r1 = min(r0 + height, nt)
        yield max(0, min(r0 - 2, nt - 5)), r0, r1, min(nt, max(r1 + 2, 5))


def _time_derivative(c: np.ndarray, lo: int, ra: int, rb: int, nt: int,
                     scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """The five-point time stencils at grid rows ra..rb-1 times ``scale``,
    from ``c`` holding rows lo.. , built in ``out`` when given: 4th-order
    w_t at scale = 1 / (12 dt), and its multiples at the multiples of that.

    Inner rows use the central stencil (-1, 8, 0, -8, 1); the grid's first
    and last interior rows (1 and nt-2) use the one-sided form
    (-3, -10, 18, -6, 1) and its mirror, so no node outside the grid is
    read.
    """
    wt = np.empty((rb - ra, c.shape[1]), dtype=c.dtype) if out is None else out
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
    wt *= scale
    return wt


def _abs(a: np.ndarray) -> np.ndarray:
    """|a|, written over ``a`` when it is real."""
    return np.abs(a, out=None if np.iscomplexobj(a) else a)


def _fit(plane: np.ndarray | None, shape) -> np.ndarray | None:
    """A C-contiguous array of ``shape`` over the start of a workspace plane."""
    return None if plane is None else plane.reshape(-1)[:np.prod(shape)].reshape(shape)


def _block_peaks(spec: GridSpec, time_sign: float, w: np.ndarray, vv: np.ndarray,
                 lo: int, r0: int, r1: int, out=(None, None)):
    """(scale, peak) of one residual, time_sign * w_t + V w - w_xx/2, over
    the row block whose own rows are r0..r1-1: the largest |w| on those
    rows, and (largest |residual|, interior i, j) at its first row-major
    position, or None when the block holds no interior row.  ``w`` and the
    potential ``vv`` hold grid rows lo.. .  For a real ``w`` the residual
    is built in ``out``, two float64 planes at least w's size."""
    own = w[r0 - lo:r1 - lo]
    if np.iscomplexobj(w):
        out = (None, None)
        scale = float(np.max(np.abs(own)))
    else:  # max |own| with no |own| plane: negation is exact
        scale = float(max(own.max(), -own.min()))
    ra, rb = max(r0, 1), min(r1, spec.nt - 1)
    if ra >= rb:
        return scale, None
    rows = w[ra - lo:rb - lo]
    shape = (rb - ra, spec.nx - 2)
    # (time_sign * wt + V w) - 0.5 * wxx in two buffers, each stencil scaled
    # by one multiply
    res = _time_derivative(w[:, 1:-1], lo, ra, rb, spec.nt, time_sign / (12.0 * spec.dt),
                           _fit(out[0], shape))
    term = np.multiply(vv[ra - lo:rb - lo, 1:-1], rows[:, 1:-1], out=_fit(out[1], shape))
    res += term
    res -= second_difference_x(rows, 0.5 / (spec.dx * spec.dx), out=term)
    mags = _abs(res)
    i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
    return scale, (float(mags[i, j]), ra - 1 + int(i), int(j))


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


def _walk(spec: GridSpec, v: Callable, measure: Callable, n_workers: int) -> list:
    """``measure(rows, vv, planes)`` on every row block of ``spec``, in block
    order: rows is the block's (lo, r0, r1, hi), vv the potential
    ``v(t, x, out)`` written on its rows of the grid's nodes, built once, and
    refused where it is not finite, and planes four float64 planes of the
    block's shape for ``measure`` to build in.  A block takes all five from
    a spare workspace, or makes one when none is spare, and hands it back
    when done; so the walk makes one workspace per worker at most, and no
    block-sized float64 array after each worker's first block.
    """
    if spec.nt < 5 or spec.nx < 5:
        raise ValueError(f"residual check needs nt, nx >= 5, got {spec.nt}x{spec.nx}")
    tt, xx = spec.mesh()
    blocks = list(_row_blocks(spec))
    size = max(hi - lo for lo, _, _, hi in blocks) * spec.nx
    spare = []

    def block(rows):
        lo, _, _, hi = rows
        try:
            workspace = spare.pop()  # atomic: no two blocks take the same one
        except IndexError:
            workspace = [np.empty(size) for _ in range(5)]
        vv, *planes = (p[:(hi - lo) * spec.nx].reshape(hi - lo, spec.nx) for p in workspace)
        v(tt[lo:hi], xx, out=vv)
        if not np.all(np.isfinite(vv)):
            raise NumericalError("potential is not finite on the grid")
        result = measure(rows, vv, planes)
        spare.append(workspace)
        return result

    return run_in_order(block, blocks, n_workers)


def _stream_checks(spec: GridSpec, sources, v: Callable,
                   n_workers: int = 1) -> list[list[ResidualReport]]:
    """Residual reports of every source over ``spec``, in one ``_walk`` of
    its row blocks.  A source is (planes_of, time_sign): ``planes_of(lo, hi,
    out)`` gives the field's grid rows lo..hi-1 as (re, im), built in the
    block's planes ``out`` (re in out[0], im in out[1], out[2:] scratch) or
    read from elsewhere.  ``im`` is None when ``re`` holds the whole field,
    real or complex; a complex ``re`` gets one report, of complex moduli.
    Each block takes the sources in turn, each in the same planes, their
    residuals built in out[2] and out[3].

    Returns, per source, one report for ``re`` and, when the source yields
    an ``im`` plane, one for ``im``.
    """
    def measure(rows, vv, planes):
        lo, r0, r1, hi = rows
        return [[_block_peaks(spec, time_sign, plane, vv, lo, r0, r1, planes[2:])
                 for plane in planes_of(lo, hi, planes) if plane is not None]
                for planes_of, time_sign in sources]

    results = _walk(spec, v, measure, n_workers)
    return [[_residual_report(spec, entries) for entries in zip(*per_block)]
            for per_block in zip(*results)]


def _writing(v: Callable) -> Callable:
    """The (t, x) function ``v`` as a walk's potential, which writes its
    value, broadcast, into ``out``."""
    def potential(t, x, out):
        out[...] = v(t, x)
        return out
    return potential


def fine_grid_residuals(b: Boundary, spec: GridSpec, n_workers: int = 1) -> dict:
    """ResidualReports of closed w (backward) and Phi at lam = 0 and 1.5
    (forward: Re, and Im where complex) on ``spec``, keyed as in
    ``residuals.json``, from one walk of its row blocks on nodes built once."""
    tt, xx = spec.mesh()
    sources = [(lambda lo, hi, out: (closed_w(b, tt[lo:hi], xx, out=out), None), -1.0)]
    sources += [(lambda lo, hi, out, lam=lam: phi_lambda_planes(b, lam, tt[lo:hi], xx, out=out),
                 +1.0) for lam in (0.0, 1.5)]
    (rep_w,), *phi_reps = _stream_checks(spec, sources, boundary_potential(b), n_workers)
    return {"backward_closed_w": rep_w,
            **{f"forward_phi_lam{lam}_{part}": rep for lam, reps in zip((0.0, 1.5), phi_reps)
               for part, rep in zip(("re", "im"), reps)}}


def observed_order(b: Boundary, spec: GridSpec, levels: int, n_workers: int = 1):
    """``fine_grid_residuals`` on ``spec`` and its ``levels - 1`` nested
    halvings, (nt, nx) -> (2 nt - 1, 2 nx - 1) on the same extents, so dt
    and dx halve exactly: (reports, ratios), one report dict per level and,
    per key, the levels - 1 ratios of successive max_rel, ~4 for the
    operator's 2nd order (Roache 1998)."""
    if levels < 1:
        raise ValueError(f"observed order needs levels >= 1, got {levels}")
    reports = [fine_grid_residuals(b, replace(spec, nt=2 ** k * (spec.nt - 1) + 1,
                                              nx=2 ** k * (spec.nx - 1) + 1), n_workers)
               for k in range(levels)]
    ratios = {key: tuple(coarse[key].max_rel / fine[key].max_rel
                         for coarse, fine in zip(reports, reports[1:]))
              for key in reports[0]}
    return reports, ratios


def residual_backward(w: GridField, v: Callable, n_workers: int = 1) -> ResidualReport:
    """Residual of -w_t + V w - w_xx/2 at interior nodes; V is the (t, x)
    function ``v``.  The report is the same for any ``n_workers``."""
    ((report,),) = _stream_checks(w.spec, [(lambda lo, hi, out: (w.values[lo:hi], None), -1.0)],
                                  _writing(v), n_workers)
    return report


def residual_forward(phi: GridField, v: Callable) -> ResidualReport:
    """Residual of +Phi_t + V Phi - Phi_xx/2 at interior nodes."""
    ((report,),) = _stream_checks(
        phi.spec, [(lambda lo, hi, out: (phi.values[lo:hi], None), +1.0)], _writing(v))
    return report


def form_preservation(b: Boundary, spec: GridSpec) -> float:
    """Largest |d2/dx2 log Phi| of ``phi_lambda`` at lam = 0 and 1.5, each
    Phi sampled on the t rows and x extents of ``spec`` at the x spacing
    nearest FORM_STENCIL_DX, with at least 3 columns."""
    nx = max(2, round((spec.x_max - spec.x_min) / FORM_STENCIL_DX)) + 1
    form_spec = replace(spec, nx=nx)
    worst = 0.0
    for lam in (0.0, 1.5):
        phi = sample_field(form_spec, lambda t, x: phi_lambda(b, lam, t, x))
        worst = max(worst, float(np.max(np.abs(log_phi_xx(phi).values))))
    return worst


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


def vanishing_probes(s: float) -> tuple[float, ...]:
    """x probes of the vanishing-at-origin check, sqrt(s) 2^-k for k = 1, 2, ...
    up to the first <= 1e-6 (2^-1 ... 2^-20 at s = 1): x k(s, x) peaks near
    sqrt(s), so the probes start where |w(0, x)| falls toward the origin."""
    probes = [float(np.sqrt(s)) / 2.0]
    while probes[-1] > 1e-6:
        probes.append(probes[-1] / 2.0)
    return tuple(probes)


def check_vanishing_at_origin(w0: Callable[[float], float], s: float) -> DiagnosticReport:
    """Probe |w(0, x)|, given as ``w0(x)``, on the decreasing probes
    ``vanishing_probes(s)`` of the horizon s.

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
    probes = np.array(vanishing_probes(s))
    vals = np.array([abs(complex(w0(xk))) for xk in probes])
    slack = 1e-9
    decrease_viol = int(np.count_nonzero(vals[1:] > vals[:-1] * (1.0 + slack) + 1e-300))
    worst_decrease = float(np.min(vals[:-1] - vals[1:]))
    slope_prev = vals[-2] / probes[-2]
    slope_last = vals[-1] / probes[-1]
    slope_tol = slope_prev * np.sqrt(probes[-2] / probes[-1]) * (1.0 + slack)
    final_margin = float(slope_tol - slope_last + 1e-300)
    final_viol = int(final_margin < 0.0)
    worst = min(worst_decrease, final_margin)
    return DiagnosticReport(decrease_viol + final_viol, worst, probes.size)


def quadrature_match(b: Boundary, g: GammaPoly, t: float, x: float) -> float:
    """Mismatch between the closed form and the direct lambda-quadrature.

    Integrates Gamma(lam) * w1_lambda over the symmetric window
    ``default_half_width(s - t, X)`` with ``symmetric_simpson`` on 16001
    nodes, which takes this Hermitian integrand on its 8001 nodes lam >= 0,
    and returns |closed - quadrature| / (1 + |closed|).  Requires
    s - t >= HORIZON_MARGIN.
    """
    s = b.horizon_s
    if s - t < HORIZON_MARGIN:
        raise ValueError(f"quadrature window calibrated for s - t >= {HORIZON_MARGIN}, "
                         f"got {s - t}")
    half_width = default_half_width(s - t, x + integral_fprime(b, t, s))
    quad = float(symmetric_simpson(lambda lam: g(lam) * w1_lambda(b, lam, t, x),
                                   half_width, 16001).real)
    closed = closed_w_gamma(b, g, t, x)
    return abs(closed - quad) / (1.0 + abs(closed))


def transform_loop(b: Boundary, tspec: GridSpec, n_workers: int = 1):
    """The transformation loop at lam = 0 on ``tspec``: (dev, report), with
    w_engine the Bluman-Shtelen w of u_0 and Phi_0 on ``tspec``, dev its
    largest deviation from the analytic target (x - int_0^t f') u_0 over the
    grid, relative to the target's largest magnitude (floored at 1e-12), and
    report its backward residual.

    The engine's B2 step takes u_0 and Phi_0 on the grid's first four
    columns; then one ``_walk`` of ``tspec``'s row blocks samples them on
    each block's rows, builds w_engine's rows there (``bluman_shtelen_rows``)
    and takes the block's residual peaks and the deviation's two maxima on
    its own rows.  Reduced in block order, they are the whole-field figures
    bit for bit, and no whole field is held.
    """
    tt, xx = tspec.mesh()
    b2 = bluman_shtelen_b2(tspec, u_lambda(b, 0.0, tt, xx[:, :4]),
                           phi_lambda(b, 0.0, tt, xx[:, :4]))
    drift = integral_fprime(b, 0.0, tt)

    def measure(rows, vv, planes):
        lo, r0, r1, hi = rows
        u0 = u_lambda(b, 0.0, tt[lo:hi], xx, out=planes[:1])
        phi0 = phi_lambda(b, 0.0, tt[lo:hi], xx, out=planes[1:2])
        w = bluman_shtelen_rows(tspec, u0, phi0, b2[lo:hi], out=planes[2:])
        peaks = _block_peaks(tspec, -1.0, w, vv, lo, r0, r1, (planes[1], planes[3]))
        own = slice(r0 - lo, r1 - lo)
        target = np.subtract(xx, drift[r0:r1], out=planes[3][own])
        target *= u0[own]
        gap = _abs(np.subtract(w[own], target, out=planes[1][own]))
        return peaks, float(np.max(gap)), float(np.max(_abs(target)))

    peaks, gaps, targets = zip(*_walk(tspec, boundary_potential(b), measure, n_workers))
    dev = float(np.max(gaps) / max(float(np.max(targets)), RELATIVE_FLOOR))
    return dev, _residual_report(tspec, peaks)


def zero_identity_gap(b: Boundary, t, x):
    """|first - second| of ``closed_w2_terms`` relative to the first term
    (floored at 1e-300), at each (t, x)."""
    first, second = closed_w2_terms(b, t, x)
    return np.abs(first - second) / np.maximum(np.abs(first), 1e-300)


def product_spread(b: Boundary, lam, t, x) -> float:
    """Worst relative deviation of phi_lambda * u_lambda from product_phi_u:
    for one lam at the 1-d (t, x), or for m lams at the m rows of 2-d
    (t, x), each row's largest deviation over its own lam's |product|, in
    one broadcast call.  That |product| is Python's abs of the complex
    value, which np.abs can miss by an ulp."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    refs = product_phi_u(b, lam)
    vals = phi_lambda(b, lam[:, None], t, x) * u_lambda(b, lam[:, None], t, x)
    gaps = np.max(np.abs(vals - refs[:, None]), axis=-1)
    return max(float(gap) / abs(complex(ref)) for gap, ref in zip(gaps, refs))


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
    that 200 calls for t and then x would, and the 20 product draws, each
    a lam and 50 t then 50 x, are taken in one broadcast ``product_spread``.  Form preservation is taken
    first, on its own small fields (``form_preservation``); closed w and
    Phi at lam = 0 and 1.5 then share one walk of ``spec``'s row blocks
    (``fine_grid_residuals``), and the transform loop walks ``tspec``'s.
    Row blocks run ``n_workers`` at a time; the results do not depend on
    it.
    """
    checks: list[CheckResult] = []
    residuals: dict = {}
    form_pres_max = form_preservation(b, spec)

    def residual_check(key, name, rep, tol):
        residuals[key] = rep.to_json()
        checks.append(CheckResult(name, "max_rel", rep.max_rel, tol))

    if field is not None:
        residual_check("external_field_backward", "external field residual",
                       residual_backward(field, boundary_potential(b), n_workers),
                       tols["tol_backward"])
    fine = fine_grid_residuals(b, spec, n_workers)
    residual_check("backward_closed_w", "backward residual (closed w)",
                   fine.pop("backward_closed_w"), tols["tol_backward"] * grid_scale)
    for key, rep in fine.items():
        lam, part = key.removeprefix("forward_phi_lam").split("_")
        residual_check(key, f"forward residual (phi, lam={lam}, {part})", rep,
                       tols["tol_forward"] * grid_scale)
    checks.append(CheckResult("form preservation (d2/dx2 log phi)", "max_abs",
                              form_pres_max, tols["tol_form_preservation"]))

    dev, rep_t = transform_loop(b, tspec, n_workers)
    checks.append(CheckResult("transform loop vs analytic target", "max_rel_dev", dev,
                              tols["tol_transform"]))
    residual_check("backward_transform_w", "transform loop residual", rep_t,
                   tols["tol_transform_residual"])

    rng = np.random.default_rng(seed)
    quad_worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.0, b.horizon_s - HORIZON_MARGIN)
        x = rng.uniform(0.0, 2.0)
        g = GammaPoly(tuple(rng.uniform(-1.0, 1.0, rng.integers(1, 5))))
        quad_worst = max(quad_worst, quadrature_match(b, g, float(t), float(x)))
    checks.append(CheckResult("contour integration vs quadrature", "worst", quad_worst,
                              tols["tol_quadrature"]))
    t, x = rng.uniform([0.0, 0.0], [b.horizon_s - HORIZON_MARGIN, 3.0], (200, 2)).T
    zero_worst = float(np.max(zero_identity_gap(b, t, x)))
    checks.append(CheckResult("second solution vanishes", "worst", zero_worst,
                              tols["tol_zero_identity"]))
    draws = [(rng.uniform(-5.0, 5.0), rng.uniform(0.0, b.horizon_s, 50),
              rng.uniform(-2.0, 2.0, 50)) for _ in range(20)]
    lams, ts, xs = map(np.array, zip(*draws))
    prod_worst = product_spread(b, lams, ts, xs)
    checks.append(CheckResult("product constancy", "worst", prod_worst, tols["tol_product"]))

    rep_v = check_vanishing_at_origin(lambda x: closed_w(b, 0.0, x), b.horizon_s)
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
