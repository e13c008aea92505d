"""Stochastic cross-checks for the closed-form machinery.

Two estimators:

* ``first_passage_histogram`` -- first-passage times of standard
  Brownian motion to the moving level x0 + int_0^t f'.  ``n_steps`` = n
  asks for min(n, max(MIN_STEPS, c)) uniform steps (``sweep_chords``),
  where c is the fewest chords that the level's sup |f''| keeps within
  CHORD_GAP of it at REFERENCE_PATHS paths, scaled by
  (n_paths / REFERENCE_PATHS)^(1/5); n only caps the count.
  Each step replaces the level by its chord; a path crosses inside a step
  with the Brownian-bridge probability exp(-2 d1 d2 / dt), and every
  crossing gets its exact time inside its step (``_hit_times``).  The
  sweep strides ``COARSE_CHORDS`` steps at a time on one normal per path.
  Every chord of a stride lies at or above its lowest level node L, and
  a path's bridge over the stride is tested against L in two stages:
  a path that meets L with chance below 2**-64 skips the stride with no
  draw, and every other path meets it or not by one exponential, exactly.
  Only the paths that meet L are refined, from the time they meet it
  (strong Markov): their steps are filled in by exact Brownian-bridge
  sampling and tested chord by chord (``_refine``).  The law is
  therefore exact against the chords whatever the bins, up to at most
  n_paths * n_strides * 2**-64 expected skipped crossings per run, and a
  level with constant f' -- its own chord -- takes one step over [0, s].

* ``bessel_bridge_fk`` -- Feynman-Kac estimate of
  E[exp(-int_0^s f''(u) R_u du)] where R is a three-dimensional Bessel
  bridge from x at time 0 to the origin at time s, realized as the
  modulus of a 3-D Brownian bridge (positivity is automatic),
  stepped on the radius alone, and averaged over mirrored path pairs.
  FK takes m = FK_INTERVALS max(1, s / x^2) (n_paths / REFERENCE_PATHS)^(1/8)
  intervals of its own mesh, graded toward s, rounded up to even, at
  least MIN_STEPS and at most FK_MAX_INTERVALS, whatever ``n_steps`` says
  (``fk_intervals``).  It returns the
  Richardson combination of the trapezoid rules at m and at m/2
  intervals, whose nodes are the even ones of the m mesh, so one path
  set serves both.  Each pair's mean of
  the same combination of the two integrals is a control variate with an
  exact discrete mean, and the reported std_error is that control-variate
  estimator's.  A level with constant f' gives exactly 1 without
  stepping.  Each block draws its float64 normals and exponentials step
  by step from numpy's Generator.

Both step rules hold their bias within a fixed share of the run's own
standard error.  A bias that falls like h^2 in the step h, against a
standard error that falls like n_paths^(-1/2), asks for steps that grow
like n_paths^(1/4) (Duffie & Glynn 1995).  The measured biases fall less
evenly, so the rules take smaller powers: the sweep 1/5, since its worst
bin also swings with where the chords fall against the bins, and FK
1/8, since its bias hardly falls from 16 to 24 intervals.  The bias
tables in CHANGES.md set each rule's constant at REFERENCE_PATHS paths,
where the scale is exactly 1, and its power at 50,000 to 262,144 paths.

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

from .boundary import Boundary, eval_fsecond, integral_fprime, sup_abs_fsecond
from .grids import NumericalError
from .kernels import derived_kernel, heat_kernel, simpson_weights
from .parallel import run_in_order

#: paths per RNG stream block; fixed so the block decomposition (and
#: therefore every random stream) does not depend on worker count
BLOCK_SIZE = 1 << 13
#: most paths in one work unit, the contiguous run of blocks one worker
#: steps as a single vector
MAX_UNIT_PATHS = 1 << 16
#: chords per stride of the first-passage sweep; one normal per path covers
#: a stride, and only paths that meet the stride's lowest level node see
#: its chords
COARSE_CHORDS = 8
#: most paths that one ``_refine`` call takes, which bounds the working
#: memory of a unit's refinement (~220 bytes a path at 8 chords, draws
#: included: ~1.8 MB a call); a call takes the paths of one or more whole
#: blocks, never part of one
REFINE_PATHS = BLOCK_SIZE
#: -log of the largest bridge-crossing chance that a stride may skip (2**-64)
SKIP_LOG_P = 64.0 * np.log(2.0)
#: path count at which the bias tables in CHANGES.md set both step rules;
#: a run of n_paths scales their counts by a power of n_paths / REFERENCE_PATHS,
#: which is exactly 1 here
REFERENCE_PATHS = 1_000_000
#: that power for FK's intervals.  A bias that falls like h^2 against a
#: standard error that falls like n_paths^(-1/2) asks for 1/4, but the FK
#: bias table in CHANGES.md reads FK's Richardson bias on the worst level
#: at 0.2 to 0.56 of a 1M-path standard error anywhere from 16 to 24
#: intervals, and 1/8 keeps every level within 0.1 of the run's own
FK_PATH_POWER = 0.125
#: that power for the sweep's chords: its worst bin swings by about +-20%
#: with where the chords fall against the bins, and the chord bias table in
#: CHANGES.md takes 1/5, not 1/4, to keep every level within 0.06 of the
#: run's own standard error
CHORD_PATH_POWER = 0.2
#: largest gap, sup |f''| h^2 / 8, between the level and a chord of width h
#: that ``sweep_chords`` lets a level's curvature ask for at REFERENCE_PATHS
#: paths; at the rule's chords, no level of the bias table in CHANGES.md
#: has a bin biased by 0.06 of the run's own standard error
CHORD_GAP = 2.5e-5
#: fewest chords the sweep takes of a curved level when ``n_steps`` allows
#: them, however gentle the level, and fewest intervals of FK's mesh; the
#: smallest count either bias table measured
MIN_STEPS = 16
#: intervals of FK's graded mesh per unit of s / x^2 at REFERENCE_PATHS
#: paths; at the rule's intervals, no level of the FK bias table in
#: CHANGES.md is biased by 0.1 of the run's own standard error
FK_INTERVALS = 32
#: most intervals of FK's graded mesh, which starts x below
#: sqrt(FK_INTERVALS s / FK_MAX_INTERVALS) take at REFERENCE_PATHS paths;
#: the table does not reach them
FK_MAX_INTERVALS = 4096


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


def sweep_chords(b: Boundary, n_steps: int, n_paths: int) -> int:
    """Uniform chords of the first-passage sweep of ``n_paths`` paths over
    [0, s] when ``n_steps`` = n are asked for: 1 for a level with constant
    f', which is its own chord, and otherwise min(n, max(MIN_STEPS, c)).
    At REFERENCE_PATHS paths c is the fewest chords of width h = s/c whose
    gap from the level, at most sup |f''| h^2 / 8, is within CHORD_GAP;
    other runs scale it by (n_paths / REFERENCE_PATHS)^CHORD_PATH_POWER,
    which holds the chords' bias within a fixed share of the run's own
    standard error.  n only caps the count."""
    if not any(b.deriv_coeffs[1:]):
        return 1
    # a sup |f''| past float64 (inf or NaN) asks for every step
    with np.errstate(over="ignore", invalid="ignore"):
        need = b.horizon_s * math.sqrt(sup_abs_fsecond(b) / (8.0 * CHORD_GAP))
    need *= (n_paths / REFERENCE_PATHS) ** CHORD_PATH_POWER
    if not need < n_steps:
        return n_steps
    return min(n_steps, max(MIN_STEPS, math.ceil(need)))


def fk_intervals(b: Boundary, x: float, n_paths: int) -> int:
    """Intervals m of the graded mesh that ``bessel_bridge_fk`` steps with
    ``n_paths`` paths from the start ``x`` on the level ``b``: 0 for a level
    with constant f', whose estimate is exactly 1 without stepping, and
    otherwise FK_INTERVALS max(1, s / x^2) scaled by
    (n_paths / REFERENCE_PATHS)^FK_PATH_POWER, rounded up to even, at least
    MIN_STEPS and at most FK_MAX_INTERVALS.  By Brownian scaling, FK from x
    over [0, s] is FK from 1 over [0, s / x^2] with f'' rescaled, and the
    bias table in CHANGES.md shows its bias growing with s / x^2.  At
    REFERENCE_PATHS paths the rule keeps the mesh's first interval, about
    2 s / m, within x^2 / 16; the n_paths scale holds the bias within a
    fixed share of the run's own standard error."""
    if not any(b.deriv_coeffs[1:]):
        return 0
    # a start that is subnormal or near it asks for the most: s / x / x is inf
    half = 0.5 * FK_INTERVALS * max(1.0, b.horizon_s / x / x)
    half *= (n_paths / REFERENCE_PATHS) ** FK_PATH_POWER
    return 2 * math.ceil(min(max(half, 0.5 * MIN_STEPS), 0.5 * FK_MAX_INTERVALS))


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


def _hit_times(nu: np.ndarray, uniform: np.ndarray, a: np.ndarray, d2: np.ndarray,
               dt) -> np.ndarray:
    """Exact times, inside a step of length ``dt``, at which Brownian bridges
    first meet a straight level, given that they do; ``a`` >= 0 is each
    bridge's distance below the level at the start of the step and ``d2``
    at its end (``d2`` <= 0 is a direct hit).  ``dt`` is one length or one
    per bridge.  Each bridge takes one standard normal ``nu`` and one
    uniform; the times lie in [0, dt].

    The time change u = r dt / (dt + r) maps the bridge onto Brownian motion
    against the line a + |d2| r / dt, so r is inverse Gaussian with mean
    a dt / |d2| and shape a^2 (Levy, a^2 / nu^2, when d2 = 0).  It is drawn
    as in Michael, Schucany & Haas (1976), in a form in which no subtraction
    cancels and no step divides by zero: with
    g = |nu| + sqrt(nu^2 + 4 a |d2| / dt), the smaller root is
    u = dt 4a^2 / (4a^2 + dt g^2), kept when U (dt g^2 + 4 a |d2|) <= dt g^2,
    and the larger root is u = dt dt g^2 / (dt g^2 + 4 d2^2).  A bridge of
    length 0 meets the level at 0: 4 a |d2| / dt is taken as 0 there.
    """
    a = np.asarray(a, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    four_ad = 4.0 * a * np.abs(d2)
    g = np.abs(nu) + np.sqrt(nu * nu + np.divide(four_ad, dt, out=np.zeros_like(four_ad),
                                                 where=np.greater(dt, 0.0)))
    big = dt * g * g
    small_root = uniform * (big + four_ad) <= big
    num = np.where(small_root, 4.0 * a * a, big)
    den = num + np.where(small_root, big, 4.0 * d2 * d2)
    # den = 0 needs a = nu = 0 (the bridge starts on the level) or dt = 0
    return dt * np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _bridge_nodes(tau: np.ndarray, start: np.ndarray, end: np.ndarray,
                  normals: np.ndarray, t: np.ndarray) -> tuple:
    """Brownian bridges, one per column, from ``start`` at time ``tau`` to
    ``end`` at t_k, sampled at the node times ``t`` = t_0 .. t_k (float32);
    0 <= ``tau`` <= t_k.

    Node i is taken at s_i = max(t_i, tau), and k - 1 rows of ``normals``
    give the interior nodes by the sequential bridge conditional: given
    node i - 1, node i is normal with mean x_{i-1} + f (end - x_{i-1}) and
    variance f (t_k - s_i), where f = (s_i - s_{i-1}) / (t_k - s_{i-1}).
    A node with s_i = s_{i-1} (every node at or before tau) has f = 0 and
    equals the node before it exactly, and f is 0 where t_k - s_{i-1} = 0,
    so no node divides by zero.  Returns s and the positions x, both
    (k + 1, m) float32.
    """
    k = t.size - 1
    s = np.maximum(t[:, None], tau)
    left = t[k] - s
    # f: s_i - s_{i-1} over t_k - s_{i-1}; it is 0 (not divided) where both are
    frac = s[1:k] - s[:k - 1]
    np.divide(frac, left[:k - 1], out=frac, where=left[:k - 1] > 0.0)
    # node i = (1 - f) node_{i-1} + (f end + its normal step), two
    # operations a row in the loop
    shift = np.sqrt(frac * left[1:k])
    shift *= normals
    shift += frac * end
    np.subtract(1.0, frac, out=frac)
    x = np.empty((k + 1, tau.size), dtype=np.float32)
    x[0], x[k] = start, end
    for i in range(1, k):
        np.multiply(frac[i - 1], x[i - 1], out=x[i])
        x[i] += shift[i - 1]
    return s, x


def _refine(tau: np.ndarray, start: np.ndarray, end: np.ndarray, normals: np.ndarray,
            expo: np.ndarray, level: np.ndarray, dt: float) -> tuple:
    """Chord-by-chord crossing test, over one stride of k = level.size - 1
    chords of width ``dt``, of paths that are Brownian bridges from
    ``start`` at the stride time ``tau`` to ``end`` at its last node: the
    paths that reached the stride's lowest level node, taken from the time
    at which they did (strong Markov), or from 0 if they started at or
    above it.

    ``normals`` (k - 1 rows) and ``expo`` (k rows of Exp(1)), one column
    per path, are the path's draws, all float32.  ``_bridge_nodes`` gives
    the nodes from tau on, and chord c, which holds the path from
    s_c = max(t_c, tau) to t_{c+1}, takes the plain step's test
    Exp(1) (t_{c+1} - s_c) / 2 >= d1 d2, with d1 the chord's level at s_c
    minus the path there and d2 at t_{c+1}.  A chord that ends at or
    before tau is behind the path and is not tested; the last chord is,
    even at width 0.  ``expo`` is overwritten.  Returns, for the paths that
    cross, their column, their first crossing chord (0 .. k-1), its start's
    offset s_c - t_c (0 unless the chord holds tau), and d1 (clamped at 0)
    and d2.
    """
    k = level.size - 1
    t = (np.arange(k + 1) * dt).astype(np.float32)
    s, x = _bridge_nodes(tau, start, end, normals, t)
    # chord-major: one row per chord, one column per path; chord c's level
    # at s_c is level_c + slope_c (s_c - t_c), level_c itself after tau
    offset = s[:k] - t[:k, None]
    d1 = offset * (np.diff(level) / np.float32(dt))[:, None]
    d1 += level[:k, None]
    d1 -= x[:k]
    # x is not read again
    d2 = np.subtract(level[1:, None], x[1:], out=x[1:])
    width = np.diff(s, axis=0)
    width *= np.float32(0.5)
    expo *= width
    crossing = expo >= d1 * d2
    crossing[:k - 1] &= t[1:k, None] > tau
    cols = np.flatnonzero(crossing.any(axis=0))
    chord = crossing[:, cols].argmax(axis=0)
    return (cols, chord, offset[chord, cols], np.maximum(d1[chord, cols], 0.0),
            d2[chord, cols])


def _block_runs(streams, idx: np.ndarray, size: int) -> list:
    """Each block's (generator, lo, hi), where lo:hi are the positions of its
    paths in ``idx``, sorted path indices of a unit of ``size`` paths;
    blocks with no path in ``idx`` are left out."""
    cuts = np.searchsorted(idx, [part.start for _, part in streams] + [size])
    return [(rng, lo, hi) for (rng, _), lo, hi in zip(streams, cuts[:-1], cuts[1:]) if hi > lo]


def _refine_runs(streams, idx: np.ndarray, size: int) -> list:
    """The ``_refine`` calls over the sorted path indices ``idx`` of a unit:
    each block's (generator, lo, hi) from ``_block_runs``, packed in order
    into runs of at most REFINE_PATHS paths.  A block draws for its own
    paths from its own stream, so the draws do not depend on the packing."""
    runs = []
    for piece in _block_runs(streams, idx, size):
        if runs and piece[2] - runs[-1][0][1] <= REFINE_PATHS:
            runs[-1].append(piece)
        else:
            runs.append([piece])
    return runs


def first_passage_histogram(b: Boundary, x0: float, cfg: MCConfig,
                            n_bins: int, n_workers: int = 1) -> DensityHistogram:
    """Empirical first-passage histogram of Brownian motion to the moving level.

    Paths start at 0; the level at time t is x0 + int_0^t f'(u) du, taken
    as its chord over each of ``sweep_chords(b, cfg.n_steps, cfg.n_paths)``
    uniform steps, at most ``cfg.n_steps``; the bias table in CHANGES.md,
    of the chords against the Volterra oracle, set CHORD_GAP at
    REFERENCE_PATHS paths and CHORD_PATH_POWER.  A path crosses
    when an Euler endpoint reaches the level or, between two endpoints
    below it, with the Brownian-bridge probability exp(-2 d1 d2 / dt); the
    crossing time inside the step is then drawn exactly (``_hit_times``).
    A level with constant f' is its own chord, so it takes one step over
    [0, s] and its histogram is exact in law; a curved level errs only by
    the chords, however the bins sit against the steps.

    The sweep strides ``COARSE_CHORDS`` chords at a time, with one normal
    per path for its position at the stride's end.  The chords lie at or
    above the stride's lowest level node L, so a path can meet them only
    if its bridge over the stride meets L, which it does with chance
    exp(-2 d1 d2 / (k dt)) over k chords when it is below L at both ends,
    and surely otherwise.  Stage 1: a path for which that chance is below
    2**-64 skips the stride with no draw; the skipped crossings number at
    most n_paths * n_strides * 2**-64 in expectation.  Stage 2: every
    other path that has not crossed draws one Exp(1) and meets L iff
    Exp(1) k dt / 2 >= d1 d2, the plain step's test at the stride's width;
    a path that does not is done with the stride.  A path that does meets
    L at a time tau drawn by ``_hit_times`` (tau = 0 from at or above L),
    and after tau it is a fresh bridge to its end (strong Markov), which
    ``_refine`` samples at the nodes and tests chord by chord.  A crossing
    is timed inside its chord from the chord's start or tau, whichever
    is later.  Each block draws for its own paths from its own stream, and
    the arithmetic runs once per unit and stride, at most REFINE_PATHS
    paths a call.  A stride of one chord is the plain step: a normal and
    an exponential for every path.
    """
    if not x0 > 0.0:
        raise ValueError(f"x0 must be positive, got {x0}")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    s = b.horizon_s
    n_chords = sweep_chords(b, cfg.n_steps, cfg.n_paths)
    dt = s / n_chords
    t_nodes = np.linspace(0.0, s, n_chords + 1)
    level = x0 + integral_fprime(b, 0.0, t_nodes)
    # the sweep's float32 products of two distances below the level, d1 d2,
    # stay finite (below 3.4e38) while |level| < 1e19
    peak = float(np.max(np.abs(level)))
    if not peak < 1e19:
        raise NumericalError(f"level x0 + int_0^t f' reaches {peak:.3g}; the float32 "
                             "sweep takes |level| < 1e19")
    level = level.astype(np.float32)
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
        # per plain step or ``_refine`` call: the paths first crossing in it
        # and their crossing times
        hits = [(np.empty(0, dtype=np.intp), np.empty(0))]
        for j in range(0, n_chords, COARSE_CHORDS):
            k = min(COARSE_CHORDS, n_chords - j)
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
                # each crossing's time inside the step, block by block, which
                # bounds the temporaries
                times = np.empty(idx.size)
                for rng, lo, hi in _block_runs(streams, idx, size):
                    mine = idx[lo:hi]
                    times[lo:hi] = _hit_times(rng.standard_normal(mine.size),
                                              rng.random(mine.size), d1[mine],
                                              level[j + 1] - w[mine], dt)
                times += t_nodes[j]
                hits.append((idx, times))
            else:
                # z becomes the position at the stride's end and e the
                # product q = d1 * d2 of the distances below the lowest node
                # L; d1 is clamped at 0, so a path at or above L at either
                # end has q <= 0
                stride = level[j:j + k + 1]
                low = stride.min()
                np.subtract(low, w, out=d1)
                np.maximum(d1, 0.0, out=d1)
                z *= np.float32(np.sqrt(k * dt))
                z += w
                np.subtract(low, z, out=e)
                e *= d1
                # stage 1, with no draw: a path whose bridge meets L with
                # chance below 2**-64 skips the stride; q is rounded thrice
                # in float32, and the 2**-20 margin keeps the skip on the
                # safe side of the exact 2**-64
                np.less_equal(e, np.float32(0.5 * SKIP_LOG_P * k * dt * (1.0 + 2.0 ** -20)),
                              out=newly)
                newly &= alive
                near = np.flatnonzero(newly)
                # stage 2, exact: one Exp(1) per near path, which meets L iff
                # Exp(1) * k dt / 2 >= q; every chord lies at or above L, so a
                # path that does not is done with the stride.  Once the near
                # paths' q are taken, e holds their exponentials
                q = e[near]
                expo = e[:near.size]
                for rng, lo, hi in _block_runs(streams, near, size):
                    rng.standard_exponential(dtype=np.float32, out=expo[lo:hi])
                expo *= np.float32(0.5 * k * dt)
                reach = near[expo >= q]
                crossed = [np.empty(0, dtype=np.intp)]
                for run in _refine_runs(streams, reach, size):
                    first, last = run[0][1], run[-1][2]
                    m = last - first
                    # per path, one (normal, uniform) pair for the time it
                    # meets L and one for its crossing time, if it crosses
                    nu, uniform = np.empty((m, 2)), np.empty((m, 2))
                    normals = np.empty((k - 1, m), dtype=np.float32)
                    chord_expo = np.empty((k, m), dtype=np.float32)
                    for rng, lo, hi in run:
                        lo, hi = lo - first, hi - first
                        rng.standard_normal(out=nu[lo:hi])
                        rng.random(out=uniform[lo:hi])
                        normals[:, lo:hi] = rng.standard_normal((k - 1, hi - lo),
                                                                dtype=np.float32)
                        chord_expo[:, lo:hi] = rng.standard_exponential((k, hi - lo),
                                                                        dtype=np.float32)
                    paths = reach[first:last]
                    # the time tau at which each path meets L: 0 from at or
                    # above it, and otherwise drawn inside the stride
                    tau = _hit_times(nu[:, 0], uniform[:, 0], d1[paths], low - z[paths], k * dt)
                    cols, chord, offset, a, d2 = _refine(
                        tau.astype(np.float32), np.maximum(w[paths], low), z[paths],
                        normals, chord_expo, stride, dt)
                    # timed inside the crossed chord from its start or tau
                    offset = offset.astype(np.float64)
                    times = t_nodes[j + chord] + offset + _hit_times(
                        nu[cols, 1], uniform[cols, 1], a, d2, np.maximum(dt - offset, 0.0))
                    crossed.append(paths[cols])
                    hits.append((crossed[-1], times))
                idx = np.concatenate(crossed)
                w, z = z, w
            alive[idx] = False
        idx, times = (np.concatenate(column) for column in zip(*hits))
        # t_j + dt may round past s; the last bin is closed at s
        np.minimum(times, s, out=times)
        results = []
        for _, part in streams:
            mine = times[(idx >= part.start) & (idx < part.stop)]
            results.append((np.histogram(mine, bins=edges)[0], mine.size))
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


#: Simpson nodes per histogram bin of the closed-form bin masses
BIN_NODES = 65


def _bin_masses(fn, edges: np.ndarray) -> np.ndarray:
    """Composite-Simpson mass of the density ``fn`` in each bin of ``edges``,
    with one call of ``fn`` on every bin's BIN_NODES nodes at once."""
    ts = np.linspace(edges[:-1], edges[1:], BIN_NODES, axis=1)
    weights = simpson_weights(BIN_NODES, ts[:, 1:2] - ts[:, :1])
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
    return DensityComparison(edges, emp, kappa_mass, ref_mass, z)


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


def _graded_mesh(s: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """FK's time nodes u_j = s (1 - (1 - j/m)^2), j = 0 .. m, and the time
    s - u_j = s ((m - j) / m)^2 left at each, free of cancellation.

    E[R_u] falls like sqrt(s - u) at the horizon, where a uniform mesh
    loses most of its accuracy, and these nodes crowd toward s.  For even
    m, node 2i is bit for bit node i of the m/2 mesh: (m - 2i)/m and
    (m/2 - i)/(m/2) are one rational, and each step rounds it alike.
    """
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


@np.errstate(all="ignore")
def bessel_bridge_fk(b: Boundary, x: float, cfg: MCConfig,
                     n_workers: int = 1) -> MCEstimate:
    """Feynman-Kac estimate of E[exp(-int_0^s f''(u) R_u du)], R a 3-D
    Bessel bridge from x at time 0 to the origin at time s.

    The bridge is the modulus of a 3-D Brownian bridge from (x, 0, 0) to
    the origin, stepped by exact conditional sampling of the radius alone
    (``_radial_step``: one normal and one exponential per path-step).  The
    time integral uses the trapezoid rule on FK's own graded mesh
    (``_graded_mesh``) of m = ``fk_intervals(b, x, cfg.n_paths)``
    intervals, crowded toward s: at REFERENCE_PATHS paths 32 while
    s <= x^2, and 32 s / x^2 beyond, scaled by
    (n_paths / REFERENCE_PATHS)^(1/8), rounded up to even, at least
    MIN_STEPS and at most FK_MAX_INTERVALS.  ``cfg.n_steps`` does not
    enter: the FK bias table in CHANGES.md, against the Volterra oracle,
    set m.
    Each path sums two integrals, I_m over every node and I_{m/2} over the
    even nodes, which are the m/2 mesh.  The rule's bias falls like m^-2,
    so the Richardson value
    y = (4 exp(-I_m) - exp(-I_{m/2})) / 3 cancels its leading term
    (Talay & Tubaro 1990).  Paths come in mirrored pairs within each
    8,192-path block: the block draws for its first half, and its second
    half steps with the negated normals and the same exponentials; each
    pair is one sample (a block of odd size leaves one path unpaired).

    Each sample, the pair's mean of y, carries the control variate c, the
    pair's mean of (4 I_m - I_{m/2}) / 3, whose mean is exact for the
    discrete rules: E[I] = sum_j coef_j E[R_{u_j}] on either mesh
    (``_bridge_radius_mean``).  The estimate is ybar - beta (cbar - E[c]),
    with beta = cov(y, c) / var(c) taken from the same samples; that costs
    a bias of O(1/count).  std_error is this estimator's: the residual
    variance over count - 2 degrees of freedom, over the sample count, so
    1 or 2 paths give a single sample and a std_error of 0.0.  A level with
    constant f' has f'' = 0, so the estimate is exactly 1 with std_error
    0.0, and no path is stepped.  Streams come per fixed block and blocks
    report their sums, reduced in block order, so the estimate is bit for
    bit the same for any ``n_workers``.

    At each step every block draws its float64 normals, then its
    exponentials, from its Generator (``standard_normal`` and
    ``standard_exponential``), and the radius and both integrals stay in
    float64.

    An estimate that is not a finite float64 raises NumericalError: from a
    start so far from the origin that the squared radius overflows, or so
    near it (subnormal) that E[R]'s closed form divides by an underflowed
    mean, or with weights exp(-I) past float64 where f'' < 0.  A centre
    exp(-E[c]) that is not finite is refused before any path steps; other
    such arithmetic runs on to inf or NaN, with numpy's floating-point
    warnings off, and is refused at the end.
    """
    if not x > 0.0:
        raise ValueError(f"starting point must be positive, got {x}")
    m = fk_intervals(b, x, cfg.n_paths)
    if not m:
        return MCEstimate(1.0, 0.0, cfg.n_paths)
    s = b.horizon_s
    # m is even, so that the m/2 mesh of the Richardson pair is its even nodes
    nodes, left = _graded_mesh(s, m)
    fsecond = np.asarray(eval_fsecond(b, nodes), dtype=float)
    # trapezoid weights folded with f'', on the m mesh and on its even nodes
    # (0 at the odd ones); the last node (R_s = 0) adds nothing
    coef = np.zeros((2, nodes.size))
    for row, stride in zip(coef, (1, 2)):
        gap = np.diff(nodes[::stride])
        row[::stride] = 0.5 * fsecond[::stride] * (np.append(gap, 0.0) + np.append(0.0, gap))
    weight = coef[:, 1:-1]
    # E[I_m] and E[I_{m/2}] of the discrete rules; samples are centred at
    # E[c] and at exp(-E[c]) before they are summed
    means = coef[:, 0] * x + np.sum(
        weight * _bridge_radius_mean(x, s, nodes[1:-1], left[1:-1]), axis=1)
    mean_integral = float(4.0 * means[0] - means[1]) / 3.0
    try:
        y_centre = math.exp(-mean_integral)
    except OverflowError:
        y_centre = math.inf
    # refused before stepping: a NaN or inf centre makes the estimate one too
    if not math.isfinite(y_centre):
        raise NumericalError(f"Feynman-Kac centre exp({-mean_integral:.3g}) is not a finite "
                             "float64")
    # step j runs from u_j to u_{j+1}, over the time s - u_j left to the bridge
    shrink = left[1:-1] / left[:-2]
    var = np.diff(nodes)[:-1] * shrink

    @np.errstate(all="ignore")
    def worker(streams, size: int):
        # the unit's radii hold every block's first half (the larger one
        # when its size is odd) in block order, then every block's second
        # half; BLOCK_SIZE is even, so only the unit's last block can be odd
        # and second-half path i mirrors first-half path i
        lead_cuts = np.cumsum([0] + [(part.stop - part.start + 1) // 2 for _, part in streams])
        n_lead = lead_cuts[-1]
        n_pairs = size - n_lead
        radius = np.full(size, x, dtype=np.float64)
        integral = np.repeat(coef[:, :1] * x, size, axis=1)
        term = np.empty(size)
        z = np.empty(n_lead)
        e = np.empty(n_lead)
        draws = [(rng, slice(lo, hi)) for (rng, _), lo, hi
                 in zip(streams, lead_cuts[:-1], lead_cuts[1:])]
        for j in range(nodes.size - 2):
            for rng, part in draws:
                rng.standard_normal(out=z[part])
                rng.standard_exponential(out=e[part])
            z *= math.sqrt(var[j])
            e *= 2.0 * var[j]
            _radial_step(radius, n_lead, shrink[j], z, e)
            for row, w in zip(integral, weight[:, j]):
                if w:
                    row += np.multiply(radius, w, out=term)
        # freed first, so that the samples' temporaries below take their place
        del radius, term, z, e

        def pair_means(v):
            # sample i pairs lead path i with path n_lead + i; with an odd
            # last block, the last lead path is alone and is its own sample
            return np.append(0.5 * (v[:n_pairs] + v[n_lead:]), v[n_pairs:n_lead])

        c = pair_means((4.0 * integral[0] - integral[1]) / 3.0) - mean_integral
        y = pair_means((4.0 * np.exp(-integral[0]) - np.exp(-integral[1])) / 3.0) - y_centre
        blocks = [(y[lo:hi], c[lo:hi]) for lo, hi in zip(lead_cuts[:-1], lead_cuts[1:])]
        return [(yb.size, *(float(np.sum(v)) for v in (yb, cb, yb * yb, cb * cb, yb * cb)))
                for yb, cb in blocks]

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
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise NumericalError(f"Feynman-Kac estimate from x = {x} is not a finite float64")
    return MCEstimate(float(mean), std_error, cfg.n_paths)
