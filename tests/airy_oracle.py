"""Exact hitting density of a level whose f' is linear with f'' > 0, by its
Airy series: an oracle for the Volterra oracle, independent of it.

Take f' = alpha + 2 beta t with beta > 0.  Girsanov's theorem, then
integration by parts of int f' dB, turn Brownian motion from 0 against
the level x0 + int_0^t f' into Brownian motion from x0, killed at 0 and
weighted by exp(-2 beta int R).  The killed operator 1/2 d^2 - 2 beta x
has the Dirichlet eigenfunctions Ai(c x + a_k), with c = (4 beta)^(1/3)
and a_k the zeros of Ai, so that

    p(t) = exp(-f'(t) x0 - 1/2 int_0^t f'^2 + 2 beta x0 t)
           sum_k (c^2 / 2) Ai(c x0 + a_k) / Ai'(a_k) exp(c^2 a_k t / 2)

(Salminen 1988; Groeneboom 1989; Martin-Lof 1998).  The terms fall like
exp(-c^2 |a_k| t / 2), so the zeros needed grow like t^(-3/2).  Where
exp(-x0^2 / 2t) is below EARLY_CUT the density is taken as 0, which
bounds the zeros that a time needs from a given start.  From x0 = 1 on
levels with beta >= 0.15 no time needs more than MAX_ZEROS; from smaller
starts, or on flatter levels, the earliest times do and are refused.
"""

import math
from functools import cache

import numpy as np
from scipy.special import ai_zeros, airy

from fpkit.boundary import eval_fprime, integral_fprime_sq

#: exp(-x0^2 / 2t) below which the density is taken as 0
EARLY_CUT = 1e-14
#: size of the last term kept at any time, against exp(0)
TAIL = 1e-16
#: most zeros of Ai that a time may ask for; an earlier time is refused
MAX_ZEROS = 1 << 18
#: times per block of the series, which bounds its working memory
BLOCK_TIMES = 16
#: Gauss-Legendre nodes per bin of ``hitting_bin_masses``
BIN_NODES = 64


@cache
def _zeros(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` zeros a_k of Ai and Ai'(a_k), ai_zeros' first and
    fourth outputs."""
    a, _, _, ai_prime_at_a = ai_zeros(count)
    return a, ai_prime_at_a


def _curvature(b) -> float:
    """beta of f' = alpha + 2 beta t, refused unless f' is such a line."""
    coeffs = b.deriv_coeffs
    if len(coeffs) != 2 or not coeffs[1] > 0.0:
        raise ValueError(f"the Airy series needs f' = alpha + 2 beta t with beta > 0, "
                         f"got coefficients {coeffs}")
    return 0.5 * coeffs[1]


def _zero_count(rate_t: float) -> int:
    """Zeros whose terms exp(rate t a_k) reach down to TAIL, as a power of
    2; a_k ~ -(3 pi (4k - 1) / 8)^(2/3)."""
    reach = -math.log(TAIL) / rate_t
    count = 1 << math.ceil(math.log2((8.0 * reach ** 1.5 / (3.0 * math.pi) + 1.0) / 4.0 + 1.0))
    if count > MAX_ZEROS:
        raise ValueError(f"the Airy series at rate x t = {rate_t:.3g} needs {count} zeros "
                         f"of Ai, more than {MAX_ZEROS}")
    return count


def hitting_density(b, x0: float, t) -> np.ndarray:
    """p at the times ``t``, 0 where exp(-x0^2 / 2t) < EARLY_CUT."""
    beta = _curvature(b)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    c = (4.0 * beta) ** (1.0 / 3.0)
    rate = 0.5 * c * c
    out = np.zeros_like(t)
    kept = np.flatnonzero(x0 * x0 < -2.0 * math.log(EARLY_CUT) * t)
    for lo in range(0, kept.size, BLOCK_TIMES):
        block = kept[lo:lo + BLOCK_TIMES]
        tk = t[block]
        a, ai_prime_at_a = _zeros(_zero_count(rate * tk.min()))
        series = np.exp(np.multiply.outer(tk, rate * a)) @ (rate * airy(c * x0 + a)[0]
                                                            / ai_prime_at_a)
        out[block] = series * np.exp(-eval_fprime(b, tk) * x0
                                     - 0.5 * integral_fprime_sq(b, 0.0, tk)
                                     + 2.0 * beta * x0 * tk)
    return out


def hitting_bin_masses(b, x0: float, edges) -> np.ndarray:
    """First-passage mass between successive ``edges``, by BIN_NODES-point
    Gauss-Legendre on each bin."""
    edges = np.asarray(edges, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(BIN_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    t = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    return np.sum(half * weights * hitting_density(b, x0, t.ravel()).reshape(t.shape), axis=1)
