"""Heat source kernel, derived kernel, and the higher-derivative family.

``kernel_n(n, t, x)`` is the inverse Fourier transform of
``(-i lam)^n exp(-lam^2 t / 2)``, i.e. ``(-1)^n`` times the n-th spatial
derivative of the Gaussian heat kernel.  It is ``g_n`` times the
Gaussian, with ``g_n`` from the Hermite-style recurrence

    g_{-1} = 0,  g_0 = 1,  g_{n+1} = (x/t) g_n - (n/t) g_{n-1},

which ``hermite_factors`` generates.  ``kernel_n`` holds the package's one
Gaussian expression: ``heat_kernel`` and ``derived_kernel`` are its
orders 0 and 1.  ``closed_form`` is the return path of every closed form
here and in ``solutions``: a value that underflows gives 0, and one that
is not a finite float64 raises NumericalError, so no closed form returns
NaN or inf.
``symmetric_simpson`` is the mirrored-node Simpson rule of the
lambda-quadratures.
"""

from __future__ import annotations

import functools
from itertools import count, islice

import numpy as np

from .boundary import scalar_or_array
from .grids import NumericalError

# Above this order the double-precision recurrence loses the 1e-9
# agreement with the quadrature oracle at small t.
MAX_ORDER = 12


def _check_t(t):
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError(f"kernel time must be positive, got {t!r}")


def _finite(out):
    """``out`` (None passes) as ``scalar_or_array``; NumericalError when some
    value is not a finite float64 (the closed form overflows there)."""
    if out is None:
        return None
    if not np.isfinite(out).all():
        raise NumericalError("closed-form value is not a finite float64")
    return scalar_or_array(np.asarray(out))


def closed_form(fn):
    """The return path of every closed form: ``fn`` runs with float overflow
    and invalid operations ignored, so a value that underflows gives 0, and
    its value, or each value of a returned tuple, goes through ``_finite``."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(*args, **kwargs)
        return tuple(map(_finite, out)) if isinstance(out, tuple) else _finite(out)
    return checked


def hermite_factors(t, x):
    """g_0, g_1, ... of g_{n+1} = (x/t) g_n - (n/t) g_{n-1}, with g_{-1} = 0
    and g_0 = 1: kernel_n(n, t, x) = g_n * heat_kernel(t, x)."""
    yield 1.0
    # g_1 is x/t itself: (x/t) * 1 - (0/t) * 0 gives the same bits
    ratio = x / t
    g_prev, g = 1.0, ratio
    for n in count(1):
        yield g
        g_prev, g = g, ratio * g - (n / t) * g_prev


@closed_form
def kernel_n(n: int, t, x):
    """n-th derived kernel: (1/2pi) integral of (-i lam)^n e^{-lam^2 t/2 + i lam x}.

    n = 0 is the heat kernel, n = 1 the derived kernel.  0 <= n <= 12,
    t > 0.  The package's one Gaussian, g_n * exp(-x^2/(2t)) / sqrt(2 pi t),
    taken left to right.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"kernel order must be in [0, {MAX_ORDER}], got {n}")
    _check_t(t)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    g = next(islice(hermite_factors(t, x), n, None))
    return g * np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)


def heat_kernel(t, x):
    """Gaussian heat kernel (2*pi*t)^(-1/2) * exp(-x^2 / (2t)); requires t > 0."""
    return kernel_n(0, t, x)


def derived_kernel(t, x):
    """x * (2*pi*t^3)^(-1/2) * exp(-x^2/(2t)), identically (x/t) * heat_kernel.

    For fixed x > 0 this is the density of the first hitting time of
    standard Brownian motion to the level x.
    """
    return kernel_n(1, t, x)


def default_half_width(t: float, x: float) -> float:
    """Truncation guideline: Gaussian tail beyond L is < 1e-300 for t >= 0.05."""
    return 40.0 / np.sqrt(t) + abs(x) / t


def simpson_weights(n: int, h) -> np.ndarray:
    """Composite Simpson weights for n (odd) uniformly spaced nodes; an
    (m, 1) array of spacings ``h`` gives one row of weights per spacing."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson needs an odd node count >= 3, got {n}")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def symmetric_nodes(half_width: float, nodes: int) -> np.ndarray:
    """Nodes on [-L, L] built as an exact mirror image around 0."""
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError(f"node count must be odd and >= 3, got {nodes}")
    half = np.linspace(0.0, half_width, (nodes + 1) // 2)
    return np.concatenate([-half[:0:-1], half])


def symmetric_simpson(f, half_width: float, nodes: int) -> complex:
    """(1/2pi) * composite-Simpson integral of f over [-L, L].

    The nodes are an exact mirror image around 0 and each pair
    f(lam) + f(-lam) is summed before weighting, so an integrand with
    f(-lam) = conj(f(lam)) cancels its odd imaginary part pairwise.
    """
    lam = symmetric_nodes(half_width, nodes)
    w = simpson_weights(nodes, lam[1] - lam[0])
    vals = f(lam)
    m = nodes // 2
    folded = w[m] * vals[m] + np.sum(w[m + 1:] * (vals[m + 1:] + vals[m - 1::-1]))
    return folded / (2.0 * np.pi)
