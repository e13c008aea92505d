"""Fourier-quadrature oracle for the kernel family, shared by the tests
that hold ``kernel_n``'s recurrence against an independent quadrature."""

import numpy as np

from fpkit.kernels import MAX_ORDER, _check_t, default_half_width, symmetric_simpson


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
