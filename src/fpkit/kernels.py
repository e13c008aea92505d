"""Heat source kernel, derived kernel, and the higher-derivative family.

``kernel_n(n, t, x)`` is the inverse Fourier transform of
``(-i lam)^n exp(-lam^2 t / 2)``, i.e. ``(-1)^n`` times the n-th spatial
derivative of the Gaussian heat kernel.  It is evaluated through the
Hermite-style recurrence

    g_{-1} = 0,  g_0 = 1,  g_{n+1} = (x/t) g_n - (n/t) g_{n-1},

with ``kernel_n = g_n * heat_kernel``.  ``fourier_quadrature_oracle``
integrates the Fourier representation directly with composite Simpson
and serves as the independent numeric check for the whole family.
"""

from __future__ import annotations

import numpy as np

from .boundary import scalar_or_array

# Above this order the double-precision recurrence loses the 1e-9
# agreement with the quadrature oracle at small t.
MAX_ORDER = 12


def _check_t(t):
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError(f"kernel time must be positive, got {t!r}")


def heat_kernel(t, x):
    """Gaussian heat kernel (2*pi*t)^(-1/2) * exp(-x^2 / (2t)); requires t > 0."""
    _check_t(t)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    return scalar_or_array(out)


def derived_kernel(t, x):
    """x * (2*pi*t^3)^(-1/2) * exp(-x^2/(2t)), identically (x/t) * heat_kernel.

    For fixed x > 0 this is the density of the first hitting time of
    standard Brownian motion to the level x.
    """
    _check_t(t)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = (x / t) * np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    return scalar_or_array(out)


def kernel_n(n: int, t, x):
    """n-th derived kernel: (1/2pi) integral of (-i lam)^n e^{-lam^2 t/2 + i lam x}.

    n = 0 is the heat kernel, n = 1 the derived kernel.  0 <= n <= 12.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"kernel order must be in [0, {MAX_ORDER}], got {n}")
    _check_t(t)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    k = np.exp(-x * x / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    g_prev, g = 0.0, 1.0
    for m in range(n):
        g_prev, g = g, (x / t) * g - (m / t) * g_prev
    return scalar_or_array(g * k)


def default_half_width(t: float, x: float) -> float:
    """Truncation guideline: Gaussian tail beyond L is < 1e-300 for t >= 0.05."""
    return 40.0 / np.sqrt(t) + abs(x) / t


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n (odd) uniformly spaced nodes."""
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


def fourier_quadrature_oracle(n: int, t: float, x: float,
                              half_width_L: float | None = None,
                              nodes: int = 16001) -> float:
    """Composite-Simpson value of the Fourier representation of kernel_n.

    Independent of the recurrence: evaluates
    (1/2pi) * integral_{-L}^{L} (-i lam)^n exp(-lam^2 t / 2 + i lam x) d lam
    with ``symmetric_simpson``: f(-lam) is the exact conjugate of f(lam), so
    the real part is returned and the imaginary part asserted below 1e-12.

    Callers should keep t >= 1e-6; the default half width follows
    ``default_half_width``.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"kernel order must be in [0, {MAX_ORDER}], got {n}")
    _check_t(t)
    if half_width_L is None:
        half_width_L = default_half_width(t, x)
    if half_width_L <= 0:
        raise ValueError("half width must be positive")
    val = symmetric_simpson(
        lambda lam: (-1j * lam) ** n * np.exp(-0.5 * lam * lam * t + 1j * lam * x),
        half_width_L, nodes)
    if abs(val.imag) >= 1e-12:
        raise AssertionError(f"quadrature imaginary part {val.imag!r} not negligible")
    return float(val.real)
