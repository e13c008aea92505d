"""Fourier-quadrature oracle for the kernel family, shared by the tests
that hold ``kernel_n``'s recurrence against an independent quadrature, and
the full-node fold that ``symmetric_simpson``'s half-node fold is held
against, with the bitwise Hermitian check it rests on."""

import numpy as np

from fpkit.kernels import (MAX_ORDER, _check_t, default_half_width, simpson_weights,
                           symmetric_simpson)


def mirrored_simpson(f, half_width: float, nodes: int) -> complex:
    """(1/2pi) * composite Simpson of f over [-L, L] on ``nodes`` nodes mirrored
    around 0, f taken on all of them and each pair f(lam) + f(-lam) summed
    before weighting: ``symmetric_simpson`` as it was before it took f on
    lam >= 0 alone."""
    half = np.linspace(0.0, half_width, (nodes + 1) // 2)
    lam = np.concatenate([-half[:0:-1], half])
    w = simpson_weights(nodes, lam[1] - lam[0])
    vals = f(lam)
    m = nodes // 2
    folded = w[m] * vals[m] + np.sum(w[m + 1:] * (vals[m + 1:] + vals[m - 1::-1]))
    return folded / (2.0 * np.pi)


def assert_hermitian_fold(f, half_width: float, nodes: int = 16001) -> None:
    """f(-lam) equals conj(f(lam)) on every node of ``symmetric_simpson``'s
    rule, bitwise but for the sign of a zero, which no sum of the fold sees,
    and its half-node fold is ``mirrored_simpson``'s value."""
    half = np.linspace(0.0, half_width, (nodes + 1) // 2)
    lam = np.concatenate([-half[:0:-1], half])
    assert np.array_equal(f(-lam), np.conj(f(lam)))
    halved, full = symmetric_simpson(f, half_width, nodes), mirrored_simpson(f, half_width, nodes)
    assert halved == full


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
