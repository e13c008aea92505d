"""Stochastic cross-checks for the closed-form machinery.

Two estimators:

* ``first_passage_histogram`` -- empirical first-passage times of
  standard Brownian motion to the moving level x0 + int_0^t f', with
  the intra-step Brownian-bridge correction exp(-2 d1 d2 / dt) so the
  discrete scheme does not undercount crossings.  For a fixed level the
  corrected scheme samples the exact crossing-step distribution.

* ``bessel_bridge_fk`` -- Feynman-Kac estimate of
  E[exp(-int_0^s f''(u) R_u du)] where R is a three-dimensional Bessel
  bridge from x at time 0 to the origin at time s, realized as the
  modulus of a 3-D Brownian bridge (positivity is automatic) and
  stepped on the radius alone.

Reproducibility contract: random streams belong to fixed 8,192-path
blocks, and block ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``.
Work is handed out in units of contiguous blocks, at most 65,536 paths
each, that are stepped as one vector; every block fills its own slice of
the unit's arrays and reports its own partial result, and partials are
reduced in block order.  A path's stream is therefore a pure function of
(seed, path index), and outputs are bit for bit the same for any thread
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

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
    antithetic: bool = False

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
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            per_unit = list(pool.map(unit, units))
    return [r for results in per_unit for r in results]


def _fill(draw, out: np.ndarray, antithetic: bool, mirror=np.negative) -> None:
    """``draw`` into ``out``; antithetic: the second half is ``mirror`` of the first."""
    if antithetic:
        half = (out.size + 1) // 2
        draw(dtype=out.dtype, out=out[:half])
        mirror(out[:out.size - half], out=out[half:])
    else:
        draw(dtype=out.dtype, out=out)


def first_passage_histogram(b: Boundary, x0: float, cfg: MCConfig,
                            n_bins: int, n_workers: int = 1) -> DensityHistogram:
    """Empirical first-passage histogram of Brownian motion to the moving level.

    Paths start at 0; the level at time t is x0 + int_0^t f'(u) du.  A
    crossing is recorded when an Euler endpoint reaches the level or,
    between two endpoints below it, with the Brownian-bridge probability
    exp(-2 d1 d2 / dt) against the locally linearized level.  Crossing
    times are attributed to step midpoints.
    """
    if x0 <= 0.0:
        raise ValueError(f"x0 must be positive, got {x0}")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    s = b.horizon_s
    n_steps = cfg.n_steps
    dt = s / n_steps
    t_nodes = np.linspace(0.0, s, n_steps + 1)
    level = (x0 + integral_fprime(b, 0.0, t_nodes)).astype(np.float32)
    edges = np.linspace(0.0, s, n_bins + 1)
    sqrt_dt = np.float32(np.sqrt(dt))
    half_dt = np.float32(0.5 * dt)

    def worker(streams, size: int):
        w = np.zeros(size, dtype=np.float32)
        crossed = np.zeros(size, dtype=bool)
        cross_step = np.zeros(size, dtype=np.int32)
        z = np.empty(size, dtype=np.float32)
        e = np.empty(size, dtype=np.float32)
        d1 = np.empty(size, dtype=np.float32)
        newly = np.empty(size, dtype=bool)
        draws = [(rng, z[part], e[part]) for rng, part in streams]
        for j in range(n_steps):
            for rng, z_part, e_part in draws:
                _fill(rng.standard_normal, z_part, cfg.antithetic)
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
            np.copyto(cross_step, j, where=newly)
            crossed |= newly
        results = []
        for _, part in streams:
            hit = crossed[part]
            times = (cross_step[part][hit].astype(np.float64) + 0.5) * dt
            results.append((np.histogram(times, bins=edges)[0], int(np.count_nonzero(hit))))
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


def compare_density(b: Boundary, x0: float, cfg: MCConfig, n_bins: int = 20,
                    n_workers: int = 1,
                    hist: DensityHistogram | None = None) -> DensityComparison:
    """Per-bin comparison of empirical mass against the closed-form columns.

    z is (empirical - kappa) in units of the empirical binomial standard
    error.  The table is a report: no pass/fail is attached.  Pass a
    precomputed ``hist`` (same boundary/x0/cfg) to skip the path sweep.
    """
    if hist is None:
        hist = first_passage_histogram(b, x0, cfg, n_bins, n_workers)
    edges = hist.bin_edges
    kappa_mass = _bin_masses(lambda t: kappa_time_density(b, x0, t), edges)
    ref_mass = _bin_masses(lambda t: reference_time_density(b, x0, t), edges)
    emp = hist.masses
    se = np.sqrt(np.maximum(emp * (1.0 - emp), 1e-300) / hist.n_total)
    z = (emp - kappa_mass) / se
    return DensityComparison(edges, emp, kappa_mass, ref_mass, z, hist.n_total)


def chi_square_vs_reference(hist: DensityHistogram, expected_masses: np.ndarray):
    """Multinomial chi-square of binned counts against expected masses.

    The never-crossed remainder is included as an extra cell, so the
    statistic has (n_bins + 1) - 1 degrees of freedom.  Returns
    (statistic, p_value).
    """
    expected_masses = np.asarray(expected_masses, dtype=float)
    observed = np.append(hist.masses, 1.0 - hist.masses.sum()) * hist.n_total
    expected = np.append(expected_masses, 1.0 - expected_masses.sum()) * hist.n_total
    if np.any(expected <= 0.0):
        raise ValueError("expected counts must be positive in every cell")
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = hist.masses.size
    return stat, float(chi2.sf(stat, dof))


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
    time integral uses the trapezoid rule on the step grid.  With
    antithetic sampling the normals are negated pairwise, the exponentials
    shared, and the estimator averages within pairs (std_error then
    reflects the pair count).  Streams come per fixed 8,192-path block,
    so the estimate is bit for bit the same for any ``n_workers``.
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
                _fill(rng.standard_normal, z_part, cfg.antithetic)
                _fill(rng.standard_exponential, e_part, cfg.antithetic, np.positive)
            _radial_step(radius, shrink, dt * shrink, z, e)
            np.multiply(radius, coef[j + 1], out=z)
            integral += z
        vals = np.exp(-integral)
        results = []
        for _, part in streams:
            v = vals[part]
            if cfg.antithetic:
                # _fill mirrors path i < n - half into path half + i; with an
                # odd n, path n - half (the last drawn one) stays unpaired
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
