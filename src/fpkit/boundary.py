"""Moving boundary represented through its derivative.

The boundary level f enters every formula in this package only through
f'(t), f''(t), and the definite integrals of f' and (f')^2, so the
boundary is stored as the polynomial coefficients of f'.  All integrals
are evaluated from the exact antiderivative, keeping quadrature error
out of the closed-form solutions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

# Polynomials above this degree are rejected at parse time: coefficient
# growth in the squared integrand becomes numerically meaningless.
MAX_DEGREE = 16


class BoundaryFormatError(ValueError):
    """Raised when a boundary spec string or JSON object cannot be parsed."""


@dataclass(frozen=True)
class Boundary:
    """Moving boundary with f'(t) = sum_j deriv_coeffs[j] * t**j.

    ``horizon_s`` is the terminal time s > 0 of the problem.  Instances
    are immutable and safe to share across threads.
    """

    deriv_coeffs: tuple[float, ...]
    horizon_s: float

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.deriv_coeffs) or (0.0,)
        if len(coeffs) - 1 > MAX_DEGREE:
            raise BoundaryFormatError(f"f' degree {len(coeffs) - 1} exceeds cap {MAX_DEGREE}")
        if not all(np.isfinite(c) for c in coeffs):
            raise BoundaryFormatError("non-finite f' coefficient")
        object.__setattr__(self, "deriv_coeffs", coeffs)
        s = float(self.horizon_s)
        if not np.isfinite(s) or s <= 0.0:
            raise BoundaryFormatError(f"horizon must be positive, got {s!r}")
        object.__setattr__(self, "horizon_s", s)


def parse_boundary(text: str) -> Boundary:
    """Parse ``s=<real>; fprime=<c0>,<c1>,...`` (or the JSON object form).

    Whitespace is ignored.  A JSON object ``{"s": real, "fprime": [reals]}``
    is accepted as well, which is the form used inside config files.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise BoundaryFormatError(f"bad boundary JSON: {exc}") from exc
        return boundary_from_json(obj)

    compact = re.sub(r"\s+", "", stripped)
    m = re.fullmatch(r"s=([^;]+);fprime=([^;]+);?", compact)
    if m is None:
        raise BoundaryFormatError(
            f"boundary spec must look like 's=<real>; fprime=<c0>,<c1>,...', got {text!r}"
        )
    try:
        s = float(m.group(1))
        coeffs = tuple(float(tok) for tok in m.group(2).split(","))
    except ValueError as exc:
        raise BoundaryFormatError(f"bad number in boundary spec {text!r}") from exc
    return Boundary(coeffs, s)


def boundary_from_json(obj: dict) -> Boundary:
    """Build a Boundary from ``{"s": real, "fprime": [reals]}``."""
    if not isinstance(obj, dict) or "s" not in obj or "fprime" not in obj:
        raise BoundaryFormatError(f"boundary JSON needs keys 's' and 'fprime', got {obj!r}")
    fp = obj["fprime"]
    if isinstance(fp, (int, float)):
        fp = [fp]
    try:
        return Boundary(tuple(float(c) for c in fp), float(obj["s"]))
    except (TypeError, ValueError) as exc:
        raise BoundaryFormatError(f"bad boundary JSON {obj!r}") from exc


def scalar_or_array(out):
    """``out`` unchanged, or as a Python float/complex when it is 0-d."""
    return out if out.ndim else out.item()


def horner(coeffs, z):
    """sum_j coeffs[j] * z**j by Horner's rule, from zeros of z's shape and
    dtype (an array, or a 0-d one for a scalar z)."""
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def eval_fprime(b: Boundary, t):
    """f'(t); accepts scalars or arrays."""
    return scalar_or_array(horner(b.deriv_coeffs, np.asarray(t, dtype=float)))


def eval_fsecond(b: Boundary, t):
    """f''(t), the derivative of the f' polynomial."""
    coeffs = [j * c for j, c in enumerate(b.deriv_coeffs)][1:]
    return scalar_or_array(horner(coeffs, np.asarray(t, dtype=float)))


def sup_abs_fsecond(b: Boundary) -> float:
    """max |f''| over [0, s], taken at the ends and at the real parts, clipped
    to [0, s], of the roots of f''' (every extremum of f'' inside is one)."""
    third = np.trim_zeros([j * (j - 1) * c for j, c in enumerate(b.deriv_coeffs)][2:], "b")
    roots = np.polynomial.polynomial.polyroots(third) if len(third) > 1 else np.empty(0)
    t = np.concatenate([[0.0, b.horizon_s], np.clip(roots.real, 0.0, b.horizon_s)])
    return float(np.max(np.abs(eval_fsecond(b, t))))


def boundary_potential(b: Boundary):
    """The moving-boundary potential V1(t, x) = x f''(t), as a (t, x) function
    that writes its value into the array ``out`` when one is given."""
    return lambda t, x, out=None: np.multiply(x, eval_fsecond(b, t), out=out)


def _antideriv_diff(coeffs, a, c):
    # exact integral of sum c_j u^j over [a, c]
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    weights = [cj / (j + 1) for j, cj in enumerate(coeffs)]
    return scalar_or_array(horner(weights, c) * c - horner(weights, a) * a)


def integral_fprime(b: Boundary, a, c):
    """Exact definite integral of f' over [a, c] (antisymmetric in (a, c))."""
    return _antideriv_diff(b.deriv_coeffs, a, c)


def integral_fprime_sq(b: Boundary, a, c):
    """Exact definite integral of (f')^2 over [a, c]."""
    sq = np.convolve(b.deriv_coeffs, b.deriv_coeffs)
    return _antideriv_diff(tuple(sq), a, c)
