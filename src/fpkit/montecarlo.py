"""Stochastic cross-checks for the closed-form machinery.

Two estimators:

* ``first_passage_histogram`` -- first-passage times of standard
  Brownian motion to the moving level x0 + int_0^t f'.  Each step
  replaces the level by its chord; a path crosses inside a step with the
  Brownian-bridge probability exp(-2 d1 d2 / dt), and every crossing gets
  its exact time inside its step (``_hit_times``).  The law is therefore
  exact against the chords whatever the bins, and a level with constant
  f' -- its own chord -- takes one step over [0, s].

* ``bessel_bridge_fk`` -- Feynman-Kac estimate of
  E[exp(-int_0^s f''(u) R_u du)] where R is a three-dimensional Bessel
  bridge from x at time 0 to the origin at time s, realized as the
  modulus of a 3-D Brownian bridge (positivity is automatic),
  stepped on the radius alone, and averaged over mirrored path pairs.

Reproducibility contract: random streams belong to fixed 8,192-path
blocks, and block ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``.
Work is handed out in units of contiguous blocks, at most 65,536 paths
each, that are stepped as one vector; every block fills its own slice of
the unit's arrays, draws anything drawn after the stepping from its own
stream, and reports its own partial result, and partials are reduced in
block order.  A path's stream is therefore a pure function of
(seed, path index), and outputs are bit for bit the same for any thread
count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boundary import Boundary, eval_fsecond, integral_fprime
from .kernels import derived_kernel, heat_kernel, simpson_weights

#: paths per RNG stream block; fixed so the block decomposition (and
#: therefore every random stream) does not depend on worker count
BLOCK_SIZE = 1 << 13
#: most paths in one work unit, the contiguous run of blocks one worker
#: steps as a single vector
MAX_UNIT_PATHS = 1 << 16


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


@functools.cache
def _pool(n_workers: int) -> ThreadPoolExecutor:
    """One executor per worker count for the life of the process; a fresh
    pool per call churns thread arenas, and peak memory creeps with calls."""
    return ThreadPoolExecutor(max_workers=n_workers)


def _run_blocks(worker, seed: int, n_paths: int, n_workers: int) -> list:
    """Per-block results of ``worker`` in block order.

    ``worker(streams, size)`` steps one work unit of ``size`` paths, where
    ``streams`` holds each block's (generator, slice of the unit), and
    returns one result per block.
    """
    def unit(blocks: range):
        size = min(blocks.stop * BLOCK_SIZE, n_paths) - blocks.start * BLOCK_SIZE
        streams = [(_block_rng(seed, block), slice(lo, min(lo + BLOCK_SIZE, size)))
                   for block, lo in zip(blocks, range(0, size, BLOCK_SIZE))]
        return worker(streams, size)

    units = _units(n_paths, n_workers)
    if n_workers <= 1 or len(units) == 1:
        per_unit = [unit(u) for u in units]
    else:
        per_unit = list(_pool(n_workers).map(unit, units))
    return [r for results in per_unit for r in results]


def _mirrored(draw, out: np.ndarray, mirror) -> None:
    """``draw`` into the first half of ``out`` (the larger one when its size
    is odd) and ``mirror`` of its leading values into the second half."""
    half = (out.size + 1) // 2
    draw(out=out[:half])
    mirror(out[:out.size - half], out=out[half:])


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
        crossed = np.zeros(size, dtype=bool)
        z = np.empty(size, dtype=np.float32)
        e = np.empty(size, dtype=np.float32)
        d1 = np.empty(size, dtype=np.float32)
        newly = np.empty(size, dtype=bool)
        draws = [(rng, z[part], e[part]) for rng, part in streams]
        hits = []  # per step: the paths first crossing in it, with d1 and d2
        for j in range(n_steps):
            for rng, z_part, e_part in draws:
                rng.standard_normal(dtype=np.float32, out=z_part)
                rng.standard_exponential(dtype=np.float32, out=e_part)
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
            newly &= ~crossed
            crossed |= newly
            idx = np.flatnonzero(newly)
            hits.append((idx, d1[idx], level[j + 1] - w[idx]))
        step = np.repeat(np.arange(n_steps), [hit[0].size for hit in hits])
        idx, a, d2 = (np.concatenate(column) for column in zip(*hits))
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


def kappa_time_density(b: Boundary, x0: float, t) -> np.ndarray:
    """Closed-form hitting-density approximation as a density in time:
    x0 * k(t, x0 + int_0^t f')."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    tp = t[pos]
    out[pos] = x0 * heat_kernel(tp, x0 + integral_fprime(b, 0.0, tp))
    return out


def reference_time_density(b: Boundary, x0: float, t) -> np.ndarray:
    """Fixed-level tangent reference h(t, x0 + int_0^t f'); exact when f' = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    tp = t[pos]
    out[pos] = derived_kernel(tp, x0 + integral_fprime(b, 0.0, tp))
    return out


def _bin_masses(fn, edges: np.ndarray, nodes_per_bin: int = 65) -> np.ndarray:
    out = np.empty(edges.size - 1)
    for i in range(edges.size - 1):
        ts = np.linspace(edges[i], edges[i + 1], nodes_per_bin)
        out[i] = float(np.sum(simpson_weights(nodes_per_bin, ts[1] - ts[0]) * fn(ts)))
    return out


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


def _radial_step(radius: np.ndarray, shrink: float, var: float,
                 z: np.ndarray, e: np.ndarray) -> None:
    """One exact bridge step on the radius, in place; overwrites ``z`` and ``e``.

    The 3-D step is pos' = shrink * pos + sqrt(var) * Z.  By rotational
    invariance only |pos| = radius matters: the component of Z along pos
    is one normal ``z``, and the two across it add z2^2 + z3^2, which is
    2 Exp(1) in law, so |pos'| = sqrt((shrink r + sqrt(var) z)^2 + 2 var e)
    with ``e`` ~ Exp(1).
    """
    radius *= shrink
    z *= np.sqrt(var)
    radius += z
    np.square(radius, out=radius)
    e *= 2.0 * var
    radius += e
    np.sqrt(radius, out=radius)


def bessel_bridge_fk(b: Boundary, x: float, cfg: MCConfig,
                     n_workers: int = 1) -> MCEstimate:
    """Feynman-Kac estimate of E[exp(-int_0^s f''(u) R_u du)], R a 3-D
    Bessel bridge from x at time 0 to the origin at time s.

    The bridge is the modulus of a 3-D Brownian bridge from (x, 0, 0) to
    the origin, stepped by exact conditional sampling of the radius alone
    (``_radial_step``: one normal and one exponential per path-step); the
    time integral uses the trapezoid rule on the step grid.  Paths come in
    mirrored pairs within each 8,192-path block: the second half of a
    block negates the first half's normals and shares its exponentials,
    and each pair is averaged into one sample (a block of odd size leaves
    one path unpaired).  std_error reflects the count of these samples, so
    1 or 2 paths give a single sample and a std_error of 0.0.  Streams come
    per fixed block, so the estimate is bit for bit the same for any
    ``n_workers``.
    """
    if x <= 0.0:
        raise ValueError(f"starting point must be positive, got {x}")
    s = b.horizon_s
    n_steps = cfg.n_steps
    dt = s / n_steps
    t_nodes = np.linspace(0.0, s, n_steps + 1)
    # trapezoid weights folded with f''; the last node (R_s = 0) adds nothing
    coef = dt * np.asarray(eval_fsecond(b, t_nodes), dtype=float)
    coef[0] *= 0.5

    def worker(streams, size: int):
        radius = np.full(size, x)
        integral = np.full(size, coef[0] * x)
        z = np.empty(size)
        e = np.empty(size)
        draws = [(rng, z[part], e[part]) for rng, part in streams]
        for j in range(n_steps - 1):
            tau = s - t_nodes[j]
            shrink = (tau - dt) / tau
            for rng, z_part, e_part in draws:
                _mirrored(rng.standard_normal, z_part, np.negative)
                _mirrored(rng.standard_exponential, e_part, np.positive)
            _radial_step(radius, shrink, dt * shrink, z, e)
            np.multiply(radius, coef[j + 1], out=z)
            integral += z
        vals = np.exp(-integral)
        results = []
        for _, part in streams:
            v = vals[part]
            # path i < n - half is mirrored into path half + i; with an odd
            # n, path n - half (the last drawn one) stays unpaired
            half = (v.size + 1) // 2
            n_pairs = v.size - half
            v = np.append(0.5 * (v[:n_pairs] + v[half:]), v[n_pairs:half])
            results.append((float(np.sum(v)), float(np.sum(v * v)), v.size))
        return results

    results = _run_blocks(worker, cfg.seed, cfg.n_paths, n_workers)
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    count = sum(r[2] for r in results)
    mean = total / count
    if count > 1:
        var = max((total_sq - count * mean * mean) / (count - 1), 0.0)
        std_error = float(np.sqrt(var / count))
    else:
        std_error = 0.0
    return MCEstimate(float(mean), std_error, cfg.n_paths)
