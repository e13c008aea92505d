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
lambda-quadratures, whose Hermitian integrands it evaluates on lam >= 0.
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
    """The return path of every closed form: ``fn`` runs with float overflow,
    division by zero and invalid operations ignored, so a value that
    underflows gives 0, and its value, or each value of a returned tuple,
    goes through ``_finite``."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    taken left to right; where that is not finite, or is 0 while g_n is
    not, it is taken again once, in log space, with the scale of g_n and
    1/sqrt(2 pi t) moved into the exponent, so a kernel that is finite or 0
    in float64 is returned even when g_n alone overflows or the Gaussian
    alone underflows.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"kernel order must be in [0, {MAX_ORDER}], got {n}")
    _check_t(t)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    g = next(islice(hermite_factors(t, x), n, None))
    value = g * np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    redo = ~np.isfinite(value) | ((value == 0.0) & (g != 0.0))
    if not redo.any():
        return value
    # g_n (or a g_k before it) overflowed where the Gaussian may vanish, or
    # the Gaussian underflowed before g_n could scale it up.
    # g_n = sigma^n h_n with sigma = max(|x|/t, 1/sqrt(t)), and h_n follows
    # the same recurrence at t sigma^2 and x sigma, whose coefficients
    # x / (t sigma) in [-1, 1] and k / (t sigma^2) <= k keep it in range;
    # h_n's log, sigma^n and the Gaussian's factors all join one exponent.
    # Past the cap, t sigma^2 = x^2/t makes the Gaussian 0
    far = x * x > t
    tau = np.minimum(x * x / t, np.finfo(float).max)
    h = next(islice(hermite_factors(np.where(far, tau, 1.0),
                                    np.where(far, np.copysign(tau, x), x / np.sqrt(t))),
                    n, None))
    log_sigma = np.where(far, np.log(np.abs(x)) - np.log(t), -0.5 * np.log(t))
    log_k = (np.log(np.abs(h)) + n * log_sigma - 0.5 * np.log(2.0 * np.pi * t)
             - x * x / (2.0 * t))
    return np.where(redo, np.sign(h) * np.exp(log_k), value)


def heat_kernel(t, x):
    """Gaussian heat kernel (2*pi*t)^(-1/2) * exp(-x^2 / (2t)); requires t > 0."""
    return kernel_n(0, t, x)


def derived_kernel(t, x):
    """x * (2*pi*t^3)^(-1/2) * exp(-x^2/(2t)), identically (x/t) * heat_kernel.

    For fixed x > 0 this is the density of the first hitting time of
    standard Brownian motion to the level x.
    """
    return kernel_n(1, t, x)


#: Least time to the horizon, s - t, that ``default_half_width`` is
#: calibrated for; grids and quadrature points keep t <= s - HORIZON_MARGIN.
HORIZON_MARGIN = 0.05


def default_half_width(t: float, x: float) -> float:
    """Truncation guideline: Gaussian tail beyond L is < 1e-300 for
    t >= HORIZON_MARGIN."""
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


def symmetric_simpson(f, half_width: float, nodes: int) -> complex:
    """(1/2pi) * composite-Simpson integral over [-L, L] of a Hermitian f,
    f(-lam) = conj(f(lam)), on ``nodes`` (odd) nodes mirrored around 0.

    f is evaluated on the nodes lam >= 0 alone, and each pair
    f(lam) + f(-lam) is taken as f(lam) + conj(f(lam)) before weighting,
    so the odd imaginary part cancels pairwise; for an f whose value at
    -lam is bitwise the conjugate of its value at lam, this is the
    full-node rule bit for bit.
    """
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError(f"node count must be odd and >= 3, got {nodes}")
    lam = np.linspace(0.0, half_width, (nodes + 1) // 2)
    w = simpson_weights(nodes, lam[-1] - lam[-2])[nodes // 2:]
    vals = f(lam)
    pos = vals[1:]
    folded = w[0] * vals[0] + np.sum(w[1:] * (pos + np.conj(pos)))
    return folded / (2.0 * np.pi)
