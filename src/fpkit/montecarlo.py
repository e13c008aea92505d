"""Stochastic cross-checks for the closed-form machinery.

Two estimators:

* ``first_passage_histogram`` -- first-passage times of standard
  Brownian motion to the moving level x0 + int_0^t f'.  Each step
  replaces the level by its chord; a path crosses inside a step with the
  Brownian-bridge probability exp(-2 d1 d2 / dt), and every crossing gets
  its exact time inside its step (``_hit_times``).  The sweep strides
  ``COARSE_CHORDS`` steps at a time on one normal per path, skips a path
  whose bridge over the stride meets the stride's lowest level node with
  chance below 2**-64, and fills in the steps of every other path by
  exact Brownian-bridge sampling (``_refine``).  The law is therefore
  exact against the chords whatever the bins, up to at most
  n_paths * n_strides * 2**-64 expected skipped crossings per run, and a
  level with constant f' -- its own chord -- takes one step over [0, s].

* ``bessel_bridge_fk`` -- Feynman-Kac estimate of
  E[exp(-int_0^s f''(u) R_u du)] where R is a three-dimensional Bessel
  bridge from x at time 0 to the origin at time s, realized as the
  modulus of a 3-D Brownian bridge (positivity is automatic),
  stepped on the radius alone, and averaged over mirrored path pairs.
  ``n_steps`` = n asks FK for max(2, ceil(n/2)) intervals of its own mesh,
  graded toward s, where the sweep takes n chords; each pair's mean
  integral is a control variate with an exact discrete mean, and the
  reported std_error is that control-variate estimator's.  A level with
  constant f' gives exactly 1 without stepping.
  Its normals and exponentials come from uniforms, ``FK_CHUNK`` steps at
  a time (``_draw_variates``): Box-Muller normals on a float64 radius
  uniform reach 8.57 sigma, and -log(1 - U) exponentials on a float64 U
  reach 36.7.  The radius steps in float32; the integral sums in float32
  within a chunk and in float64 across chunks.

Reproducibility contract: random streams belong to fixed 8,192-path
blocks, and block ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``.
Work is handed out in units of contiguous blocks, at most 65,536 paths
each, that are stepped as one vector, and the units run on the shared
runner (``parallel.run_in_order``), which returns their results in unit
order.  Every block fills its own slice of the unit's arrays, draws for
its own paths alone from its own stream -- a stride's refinement and the
crossing times included -- and reports its own partial result, and
partials are reduced in block order.  A block's draws and result are
therefore a pure function of (seed, block index, n_paths), and outputs
are bit for bit the same for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import Boundary, eval_fsecond, integral_fprime
from .kernels import derived_kernel, heat_kernel, simpson_weights
from .parallel import run_in_order

#: paths per RNG stream block; fixed so the block decomposition (and
#: therefore every random stream) does not depend on worker count
BLOCK_SIZE = 1 << 13
#: most paths in one work unit, the contiguous run of blocks one worker
#: steps as a single vector
MAX_UNIT_PATHS = 1 << 16
#: chords per stride of the first-passage sweep; one normal per path covers
#: a stride, and only paths within reach of the level see its chords
COARSE_CHORDS = 8
#: -log of the largest bridge-crossing chance that a stride may skip (2**-64)
SKIP_LOG_P = 64.0 * np.log(2.0)
#: steps of the FK estimator whose variates a block draws in one go; a fill
#: per block and step would cost more numpy calls than the stepping itself
FK_CHUNK = 8


@dataclass(frozen=True)
class MCConfig:
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")

    def to_json(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "n_paths": self.n_paths}


@dataclass(frozen=True)
class DensityHistogram:
    """Binned first-passage mass over [0, s]; non-crossing paths are the deficit."""

    bin_edges: np.ndarray
    masses: np.ndarray
    n_crossed: int
    n_total: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("bin edges must be increasing")
        if masses.size != edges.size - 1 or np.any(masses < 0.0):
            raise ValueError("masses must be nonnegative, one per bin")
        if masses.sum() > 1.0 + 1e-12:
            raise ValueError("masses sum above 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)


@dataclass(frozen=True)
class DensityComparison:
    """Per-bin table: empirical mass vs closed-form columns (report only)."""

    bin_edges: np.ndarray
    empirical: np.ndarray
    kappa_mass: np.ndarray
    reference_mass: np.ndarray
    z_scores: np.ndarray
    n_total: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )


def _units(n_paths: int, n_workers: int) -> list[range]:
    """Split the blocks into contiguous work units, one per worker or more
    so that none exceeds MAX_UNIT_PATHS; spare blocks go to the later units,
    which hold the short trailing block."""
    n_blocks = -(-n_paths // BLOCK_SIZE)
    n_units = min(n_blocks, max(n_workers, -(-n_blocks // (MAX_UNIT_PATHS // BLOCK_SIZE))))
    cuts = [k * n_blocks // n_units for k in range(n_units + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _run_blocks(worker, seed: int, n_paths: int, n_workers: int) -> list:
    """Per-block results of ``worker`` in block order, its units run on
    ``n_workers`` threads by ``run_in_order``.

    ``worker(streams, size)`` steps one work unit of ``size`` paths, where
    ``streams`` holds each block's (generator, slice of the unit), and
    returns one result per block.
    """
    def unit(blocks: range):
        size = min(blocks.stop * BLOCK_SIZE, n_paths) - blocks.start * BLOCK_SIZE
        streams = [(_block_rng(seed, block), slice(lo, min(lo + BLOCK_SIZE, size)))
                   for block, lo in zip(blocks, range(0, size, BLOCK_SIZE))]
        return worker(streams, size)

    per_unit = run_in_order(unit, _units(n_paths, n_workers), n_workers)
    return [r for results in per_unit for r in results]


def _hit_times(rng: np.random.Generator, a: np.ndarray, d2: np.ndarray,
               dt: float) -> np.ndarray:
    """Exact times, inside a step of length ``dt``, at which Brownian bridges
    first meet a straight level, given that they do; ``a`` >= 0 is each
    bridge's distance below the level at the start of the step and ``d2``
    at its end (``d2`` <= 0 is a direct hit).  Draws one normal and one
    uniform per bridge from ``rng``; the times lie in [0, dt].

    The time change u = r dt / (dt + r) maps the bridge onto Brownian motion
    against the line a + |d2| r / dt, so r is inverse Gaussian with mean
    a dt / |d2| and shape a^2 (Levy, a^2 / nu^2, when d2 = 0).  It is drawn
    as in Michael, Schucany & Haas (1976), in a form in which no subtraction
    cancels and no step divides by zero: with
    g = |nu| + sqrt(nu^2 + 4 a |d2| / dt), the smaller root is
    u = dt 4a^2 / (4a^2 + dt g^2), kept when U (dt g^2 + 4 a |d2|) <= dt g^2,
    and the larger root is u = dt dt g^2 / (dt g^2 + 4 d2^2).
    """
    a = np.asarray(a, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    nu = rng.standard_normal(a.size)
    uniform = rng.random(a.size)
    four_ad = 4.0 * a * np.abs(d2)
    g = np.abs(nu) + np.sqrt(nu * nu + four_ad / dt)
    big = dt * g * g
    small_root = uniform * (big + four_ad) <= big
    num = np.where(small_root, 4.0 * a * a, big)
    den = num + np.where(small_root, big, 4.0 * d2 * d2)
    # den = 0 needs a = nu = 0: the bridge starts on the level
    return dt * np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _refine(streams, idx: np.ndarray, start: np.ndarray, end: np.ndarray,
            level: np.ndarray, dt: float) -> tuple:
    """Chord-by-chord crossing test, over one stride of k = level.size - 1
    chords, of the paths ``idx`` (sorted) of a work unit, given each one's
    position ``start`` at the stride's first node and ``end`` at its last.

    Each block draws, from its own stream, k - 1 normals and then k
    exponentials for each of its paths in ``idx``.  The normals give the
    k - 1 interior nodes, drawn exactly from the Brownian bridge between
    ``start`` and ``end``: Levy's construction, node after node, sums in
    closed form to the pinned bridge (k - i) sum_{l <= i} z_l
    sqrt(dt / ((k - l)(k - l + 1))) at node i.  The exponentials give each
    chord the plain step's exp(-2 d1 d2 / dt) test.  Returns, for the paths
    that cross, their index, their first crossing chord (0 .. k-1), and
    their distances below the level at its two ends.
    """
    m, k = idx.size, level.size - 1
    normals = np.empty((m, k - 1), dtype=np.float32)
    expo = np.empty((m, k), dtype=np.float32)
    cuts = np.searchsorted(idx, [part.start for _, part in streams] + [streams[-1][1].stop])
    for (rng, _), lo, hi in zip(streams, cuts[:-1], cuts[1:]):
        rng.standard_normal(dtype=np.float32, out=normals[lo:hi])
        rng.standard_exponential(dtype=np.float32, out=expo[lo:hi])
    # chord-major from here on: one row per node or chord
    i = np.arange(1, k)[:, None]
    bridge = np.ascontiguousarray(normals.T)
    bridge *= np.sqrt(dt / ((k - i) * (k - i + 1))).astype(np.float32)
    for row in range(1, k - 1):
        bridge[row] += bridge[row - 1]
    bridge *= (k - i).astype(np.float32)
    # the level minus the path at the k + 1 nodes
    dist = np.empty((k + 1, m), dtype=np.float32)
    np.multiply((i / k).astype(np.float32), end - start, out=dist[1:k])
    dist[1:k] += start
    dist[1:k] += bridge
    np.subtract(level[1:k, None], dist[1:k], out=dist[1:k])
    np.subtract(level[0], start, out=dist[0])
    np.subtract(level[k], end, out=dist[k])
    expo = np.ascontiguousarray(expo.T)
    expo *= np.float32(0.5 * dt)
    crossing = expo > dist[:-1] * dist[1:]
    cols = np.flatnonzero(crossing.any(axis=0))
    chord = crossing[:, cols].argmax(axis=0)
    return idx[cols], chord, dist[chord, cols], dist[chord + 1, cols]


def first_passage_histogram(b: Boundary, x0: float, cfg: MCConfig,
                            n_bins: int, n_workers: int = 1) -> DensityHistogram:
    """Empirical first-passage histogram of Brownian motion to the moving level.

    Paths start at 0; the level at time t is x0 + int_0^t f'(u) du, taken
    as its chord over each of ``cfg.n_steps`` steps.  A path crosses when
    an Euler endpoint reaches the level or, between two endpoints below it,
    with the Brownian-bridge probability exp(-2 d1 d2 / dt); the crossing
    time inside the step is then drawn exactly (``_hit_times``).  A level
    with constant f' is its own chord, so it takes one step over [0, s]
    and its histogram is exact in law; a curved level errs only by the
    chords, however the bins sit against the steps.

    The sweep strides ``COARSE_CHORDS`` chords at a time, with one normal
    per path for its position at the stride's end.  The chords lie at or
    above the stride's lowest level node L, so a path's chance of meeting
    them is at most its bridge's chance of meeting L, exp(-2 d1 d2 / (k dt))
    over k chords when the path is below L at both ends.  A path for which
    that bound is below 2**-64 skips the stride; every other path that has
    not crossed gets its interior nodes and per-chord tests from
    ``_refine``.  The skipped crossings number at most
    n_paths * n_strides * 2**-64 in expectation.  A stride of one chord is
    the plain step: a normal and an exponential for every path.
    """
    if x0 <= 0.0:
        raise ValueError(f"x0 must be positive, got {x0}")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    s = b.horizon_s
    n_steps = cfg.n_steps if any(b.deriv_coeffs[1:]) else 1
    dt = s / n_steps
    t_nodes = np.linspace(0.0, s, n_steps + 1)
    level = (x0 + integral_fprime(b, 0.0, t_nodes)).astype(np.float32)
    edges = np.linspace(0.0, s, n_bins + 1)
    sqrt_dt = np.float32(np.sqrt(dt))
    half_dt = np.float32(0.5 * dt)

    def worker(streams, size: int):
        w = np.zeros(size, dtype=np.float32)
        alive = np.ones(size, dtype=bool)
        z = np.empty(size, dtype=np.float32)
        e = np.empty(size, dtype=np.float32)
        d1 = np.empty(size, dtype=np.float32)
        newly = np.empty(size, dtype=bool)
        # per stride: the paths first crossing in it, their steps, d1 and d2
        hits = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int32),
                 np.empty(0, dtype=np.float32), np.empty(0, dtype=np.float32))]
        for j in range(0, n_steps, COARSE_CHORDS):
            k = min(COARSE_CHORDS, n_steps - j)
            for rng, part in streams:
                rng.standard_normal(dtype=np.float32, out=z[part])
            if k == 1:
                for rng, part in streams:
                    rng.standard_exponential(dtype=np.float32, out=e[part])
                # exp(-2 d1 d2 / dt) bridge crossing collapses to one comparison:
                # u < exp(-q) iff Exp(1) * dt/2 > d1 * d2 (direct hits give q <= 0);
                # in place, z ends up holding q = d1 * d2
                np.subtract(level[j], w, out=d1)
                z *= sqrt_dt
                w += z
                np.subtract(level[j + 1], w, out=z)
                z *= d1
                e *= half_dt
                np.greater(e, z, out=newly)
                newly &= alive
                idx = np.flatnonzero(newly)
                hits.append((idx, np.full(idx.size, j, dtype=np.int32), d1[idx],
                             level[j + 1] - w[idx]))
            else:
                # z becomes the position at the stride's end and e the
                # product q = d1 * d2 of the distances below the lowest node
                # L; d1 is clamped at 0, so a path at or above L at either
                # end has q <= 0 and is refined
                low = level[j:j + k + 1].min()
                np.subtract(low, w, out=d1)
                np.maximum(d1, 0.0, out=d1)
                z *= np.float32(np.sqrt(k * dt))
                z += w
                np.subtract(low, z, out=e)
                e *= d1
                # q is rounded thrice in float32; the 2**-20 margin keeps
                # the skip on the safe side of the exact 2**-64
                np.less_equal(e, np.float32(0.5 * SKIP_LOG_P * k * dt * (1.0 + 2.0 ** -20)),
                              out=newly)
                newly &= alive
                idx = np.flatnonzero(newly)
                if idx.size:
                    idx, chord, a, d2 = _refine(streams, idx, w[idx], z[idx],
                                                level[j:j + k + 1], dt)
                    hits.append((idx, (j + chord).astype(np.int32), a, d2))
                w, z = z, w
            alive[idx] = False
        idx, step, a, d2 = (np.concatenate(column) for column in zip(*hits))
        results = []
        for rng, part in streams:
            mine = (idx >= part.start) & (idx < part.stop)
            times = t_nodes[step[mine]] + _hit_times(rng, a[mine], d2[mine], dt)
            # t_j + dt may round past s; the last bin is closed at s
            np.minimum(times, s, out=times)
            results.append((np.histogram(times, bins=edges)[0], int(np.count_nonzero(mine))))
        return results

    results = _run_blocks(worker, cfg.seed, cfg.n_paths, n_workers)
    counts = np.sum([r[0] for r in results], axis=0)
    n_crossed = int(sum(r[1] for r in results))
    return DensityHistogram(edges, counts / cfg.n_paths, n_crossed, cfg.n_paths)


def _time_density(density, t) -> np.ndarray:
    """density(t) at the times t > 0, and 0 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = density(t[pos])
    return out


def kappa_time_density(b: Boundary, x0: float, t) -> np.ndarray:
    """Closed-form hitting-density approximation as a density in time:
    x0 * k(t, x0 + int_0^t f')."""
    return _time_density(lambda tp: x0 * heat_kernel(tp, x0 + integral_fprime(b, 0.0, tp)), t)


def reference_time_density(b: Boundary, x0: float, t) -> np.ndarray:
    """Fixed-level tangent reference h(t, x0 + int_0^t f'); exact when f' = 0."""
    return _time_density(lambda tp: derived_kernel(tp, x0 + integral_fprime(b, 0.0, tp)), t)


def _bin_masses(fn, edges: np.ndarray, nodes_per_bin: int = 65) -> np.ndarray:
    """Composite-Simpson mass of the density ``fn`` in each bin of ``edges``,
    with one call of ``fn`` on every bin's nodes at once."""
    ts = np.linspace(edges[:-1], edges[1:], nodes_per_bin, axis=1)
    weights = simpson_weights(nodes_per_bin, ts[:, 1:2] - ts[:, :1])
    return np.sum(weights * fn(ts), axis=1)


def compare_density(b: Boundary, x0: float, hist: DensityHistogram) -> DensityComparison:
    """Per-bin comparison of the empirical mass in ``hist`` (a histogram of
    the level x0 + int_0^t f') against the closed-form columns.

    z is (empirical - kappa) in units of the empirical binomial standard
    error, its variance floored at one path's (1/n) so that an empty bin
    gets a finite z.  The table is a report: no pass/fail is attached.
    """
    edges = hist.bin_edges
    kappa_mass = _bin_masses(lambda t: kappa_time_density(b, x0, t), edges)
    ref_mass = _bin_masses(lambda t: reference_time_density(b, x0, t), edges)
    emp, n = hist.masses, hist.n_total
    se = np.sqrt(np.maximum(emp * (1.0 - emp), 1.0 / n) / n)
    z = (emp - kappa_mass) / se
    return DensityComparison(edges, emp, kappa_mass, ref_mass, z, n)


def _draw_variates(rng: np.random.Generator, z: np.ndarray, e: np.ndarray,
                   u: np.ndarray) -> None:
    """Fill ``z`` with standard normals and ``e`` with standard exponentials,
    both float32 of one shape (k, n), from the uniforms of ``rng``; ``u`` is
    flat float64 scratch of h n values, h = (k + 1) // 2.

    The normals come by Box & Muller (1958) from h rows of float64 uniforms
    U and then h rows of float32 ones V: pair i has the radius
    sqrt(-2 log(1 - U)), at most sqrt(106 ln 2) = 8.57 for U = 1 - 2**-53,
    and the angle 2 pi V; the cosines fill the leading h rows and the sines
    the rest.  The exponentials are -log(1 - U), at most 53 ln 2 = 36.7,
    from k further rows of float64 uniforms, h rows at a time.
    """
    k, n = z.shape
    h = (k + 1) // 2
    radius = u[:h * n].reshape(h, n)
    rng.random(out=radius)
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=z[:h])
    # the radii now sit in the cosine rows, and u is free for the angles
    angle = u.view(np.float32)[:h * n].reshape(h, n)
    rng.random(dtype=np.float32, out=angle)
    angle *= np.float32(2.0 * np.pi)
    np.sin(angle[:k - h], out=z[h:])
    z[h:] *= z[:k - h]
    np.cos(angle, out=angle)
    z[:h] *= angle
    for rows in (e[:h], e[h:]):
        expo = u[:rows.size].reshape(rows.shape)
        rng.random(out=expo)
        np.negative(expo, out=expo)
        np.log1p(expo, out=expo)
        np.negative(expo, out=rows)


def _radial_step(radius: np.ndarray, n_lead: int, shrink: float,
                 z: np.ndarray, e: np.ndarray) -> None:
    """One exact bridge step on the radius, in place.

    The 3-D step is pos' = shrink * pos + sqrt(var) * Z.  By rotational
    invariance only |pos| = radius matters: the component of Z along pos
    is one normal, and the two across it add z2^2 + z3^2, which is
    2 Exp(1) in law, so |pos'| = sqrt((shrink r + z)^2 + e) with
    ``z`` = sqrt(var) N(0, 1) and ``e`` = 2 var Exp(1), one per leading
    radius.  The first ``n_lead`` radii step with ``z``; the rest mirror
    the leading ones in order and step with -z and the same e.
    """
    radius *= shrink
    lead, trail = radius[:n_lead], radius[n_lead:]
    lead += z
    trail -= z[:trail.size]
    np.square(radius, out=radius)
    lead += e
    trail += e[:trail.size]
    np.sqrt(radius, out=radius)


def _graded_mesh(s: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """FK's time nodes u_j = s (1 - (1 - j/m)^2), j = 0 .. m, with
    m = max(2, ceil(n_steps / 2)), and the time s - u_j = s ((m - j) / m)^2
    left at each, free of cancellation.

    E[R_u] falls like sqrt(s - u) at the horizon, where a uniform mesh
    loses most of its accuracy.  These nodes crowd toward s: measured
    against the hitting-density oracle, the rule's bias at m graded
    intervals is no larger than at n_steps uniform ones.
    """
    m = max(2, -(-n_steps // 2))
    left = s * ((m - np.arange(m + 1)) / m) ** 2
    return s - left, left


def _bridge_radius_mean(x: float, s: float, u: np.ndarray, left: np.ndarray) -> np.ndarray:
    """E[R_u] at times 0 < u < s with s - u = ``left``.  R_u is
    |mu e1 + sigma Z|, Z ~ N(0, I_3), with mu = x (s - u) / s and
    sigma^2 = u (s - u) / s; its noncentral chi_3 mean is
    sigma sqrt(2/pi) exp(-a^2) + (mu + sigma^2 / mu) erf(a), a = mu / (sigma sqrt 2)."""
    mu = x * left / s
    sigma = np.sqrt(u * left / s)
    a = mu / (sigma * np.sqrt(2.0))
    erf = np.array([math.erf(v) for v in a])
    return sigma * np.sqrt(2.0 / np.pi) * np.exp(-a * a) + (mu + sigma * sigma / mu) * erf


def bessel_bridge_fk(b: Boundary, x: float, cfg: MCConfig,
                     n_workers: int = 1) -> MCEstimate:
    """Feynman-Kac estimate of E[exp(-int_0^s f''(u) R_u du)], R a 3-D
    Bessel bridge from x at time 0 to the origin at time s.

    The bridge is the modulus of a 3-D Brownian bridge from (x, 0, 0) to
    the origin, stepped by exact conditional sampling of the radius alone
    (``_radial_step``: one normal and one exponential per path-step).  The
    time integral I uses the trapezoid rule on FK's own graded mesh
    (``_graded_mesh``): ``cfg.n_steps`` = n asks for m = max(2, ceil(n/2))
    intervals, crowded toward s, where the first-passage sweep takes n
    chords.  Paths come in mirrored pairs within each 8,192-path block:
    the block draws for its first half, and its second half steps with the
    negated normals and the same exponentials; each pair is one sample (a
    block of odd size leaves one path unpaired).

    Each sample y = mean of exp(-I) over the pair carries the control
    variate c = mean of I over the pair, whose mean E[I_h] = sum_j coef_j
    E[R_{u_j}] is exact for the discrete rule (``_bridge_radius_mean``).
    The estimate is ybar - beta (cbar - E[I_h]), with beta = cov(y, c) /
    var(c) taken from the same samples; that costs a bias of O(1/count),
    about 0.005 std_error at 25,000 pairs on f' = 0.5 + 0.3t.  std_error
    is this estimator's: the residual variance over count - 2 degrees of
    freedom, over the sample count, so 1 or 2 paths give a single sample
    and a std_error of 0.0.  A level
    with constant f' has f'' = 0, so the estimate is exactly 1 with
    std_error 0.0, and no path is stepped.  Streams come per fixed block
    and blocks report their sums, reduced in block order, so the estimate
    is bit for bit the same for any ``n_workers``.

    Each block draws the variates of ``FK_CHUNK`` steps at a time from
    uniforms (``_draw_variates``): normals by Box-Muller, which reach
    8.57 sigma, and exponentials as -log(1 - U), which reach 36.7.  The
    radius steps in float32; the integral sums in float32 within a chunk
    and in float64 across chunks.
    """
    if x <= 0.0:
        raise ValueError(f"starting point must be positive, got {x}")
    if not any(b.deriv_coeffs[1:]):
        return MCEstimate(1.0, 0.0, cfg.n_paths)
    s = b.horizon_s
    nodes, left = _graded_mesh(s, cfg.n_steps)
    width = np.diff(nodes)
    # trapezoid weights folded with f''; the last node (R_s = 0) adds nothing
    coef = np.asarray(eval_fsecond(b, nodes), dtype=float)
    coef *= np.append(width, 0.0) + np.append(0.0, width)
    coef *= 0.5
    weight = coef[1:-1].astype(np.float32)
    # E[I_h] of the rule as the paths apply it, with the float32 weights;
    # samples are centred at it and at exp(-E[I_h]) before they are summed
    mean_integral = coef[0] * x + float(np.sum(
        weight * _bridge_radius_mean(x, s, nodes[1:-1], left[1:-1])))
    y_centre = math.exp(-mean_integral)
    # step j runs from u_j to u_{j+1}, over the time s - u_j left to the bridge
    n_moves = nodes.size - 2
    shrink = left[1:-1] / left[:-2]
    var = width[:-1] * shrink
    root_var = np.sqrt(var).astype(np.float32)[:, None]
    two_var = (2.0 * var).astype(np.float32)[:, None]
    shrink = shrink.astype(np.float32)

    def worker(streams, size: int):
        # the unit's radii hold every block's first half (the larger one
        # when its size is odd) in block order, then every block's second
        # half; BLOCK_SIZE is even, so only the unit's last block can be odd
        # and second-half path i mirrors first-half path i
        sizes = [part.stop - part.start for _, part in streams]
        lead_cuts = np.cumsum([0] + [(n + 1) // 2 for n in sizes])
        n_lead = lead_cuts[-1]
        n_pairs = size - n_lead
        radius = np.full(size, x, dtype=np.float32)
        integral = np.full(size, coef[0] * x)
        # step i's normals and exponentials side by side: once the step is
        # taken, their 2 n_lead >= size floats hold its term of the integral,
        # and the first step's hold the chunk's float32 sum
        variates = np.empty((FK_CHUNK, 2, n_lead), dtype=np.float32)
        z, e = variates[:, 0], variates[:, 1]
        terms = variates.reshape(FK_CHUNK, -1)[:, :size]
        chunk_sum = terms[0]
        scratch = np.empty((FK_CHUNK + 1) // 2 * ((max(sizes) + 1) // 2))
        draws = [(rng, slice(lo, hi)) for (rng, _), lo, hi
                 in zip(streams, lead_cuts[:-1], lead_cuts[1:])]
        for j0 in range(0, n_moves, FK_CHUNK):
            chunk = slice(j0, min(j0 + FK_CHUNK, n_moves))
            k = chunk.stop - j0
            for rng, part in draws:
                _draw_variates(rng, z[:k, part], e[:k, part], scratch)
            z[:k] *= root_var[chunk]
            e[:k] *= two_var[chunk]
            for i in range(k):
                _radial_step(radius, n_lead, shrink[j0 + i], z[i], e[i])
                np.multiply(radius, weight[j0 + i], out=terms[i])
                if i:
                    chunk_sum += terms[i]
            integral += chunk_sum
        # in place, in the spent variates, FK_CHUNK >= 3 float64 per lead
        # path: temporaries here would raise the estimator's peak memory.
        # Sample i pairs lead path i with path n_lead + i; with an odd last
        # block, the last lead path is alone
        samples = variates.reshape(-1).view(np.float64)
        c, y, product = (samples[r * n_lead:(r + 1) * n_lead] for r in range(3))

        def pair_means(out):
            np.add(integral[:n_pairs], integral[n_lead:], out=out[:n_pairs])
            out[:n_pairs] *= 0.5
            out[n_pairs:] = integral[n_pairs:n_lead]

        pair_means(c)
        np.exp(np.negative(integral, out=integral), out=integral)
        pair_means(y)
        c -= mean_integral
        y -= y_centre
        results = []
        for lo, hi in zip(lead_cuts[:-1], lead_cuts[1:]):
            block = slice(lo, hi)
            sums = [float(np.sum(y[block])), float(np.sum(c[block]))]
            for f, g in ((y, y), (c, c), (y, c)):
                sums.append(float(np.sum(np.multiply(f[block], g[block], out=product[block]))))
            results.append((int(hi - lo), *sums))
        return results

    results = _run_blocks(worker, cfg.seed, cfg.n_paths, n_workers)
    count, sum_y, sum_c, sum_yy, sum_cc, sum_yc = (sum(col) for col in zip(*results))
    # sums of squares and products about the sample means
    ss_y = sum_yy - sum_y * sum_y / count
    ss_c = sum_cc - sum_c * sum_c / count
    sp_yc = sum_yc - sum_y * sum_c / count
    beta = sp_yc / ss_c if ss_c > 0.0 else 0.0
    mean = y_centre + (sum_y - beta * sum_c) / count
    dof = count - 2 if beta else count - 1
    if dof > 0:
        std_error = math.sqrt(max(ss_y - beta * sp_yc, 0.0) / (dof * count))
    else:
        std_error = 0.0
    return MCEstimate(float(mean), std_error, cfg.n_paths)
