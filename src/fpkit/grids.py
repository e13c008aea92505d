"""Rectangular (t, x) grids and sampled fields.

A field's values are an nt-by-nx array, float64 when every imaginary
part is zero and complex128 otherwise: the dtype alone says whether a
field is real.  The ``GridField`` constructor is the one place that
chooses it.  ``sample_field`` is the one sampler (``verify``'s residual
walk calls the closed forms on nodes it builds once per pass), and
``write_csv`` the one CSV writer: LF, 17 significant digits, so values
round-trip bit-exactly.  A field CSV has the header ``t,x,re,im``,
row-major by t; a float64 field writes 0 in its ``im`` column.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """Numerical failure (zero field magnitude, unresolvable phase, ...)."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular sampling of [t_min, t_max] x [x_min, x_max], with
    finite, increasing extents and at least 3 nodes on each axis."""

    t_min: float
    t_max: float
    x_min: float
    x_max: float
    nt: int
    nx: int

    def __post_init__(self):
        if self.nt < 3 or self.nx < 3:
            raise ValueError(f"grid needs nt, nx >= 3, got {self.nt}x{self.nx}")
        if not np.all(np.isfinite([self.t_min, self.t_max, self.x_min, self.x_max])):
            raise ValueError("grid extents must be finite")
        if not (self.t_max > self.t_min and self.x_max > self.x_min):
            raise ValueError("grid extents must be increasing")

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def mesh(self):
        """(nt, 1) and (1, nx) arrays for broadcasting."""
        return self.t_nodes()[:, None], self.x_nodes()[None, :]


def transform_grid(t_min, t_max, x_max, nt, nx) -> GridSpec:
    """Grid for the pair-transformation engine: x starts at 0, nx odd.

    The per-row Simpson integral needs an odd node count; an even nx is
    rounded up and the adjustment logged.
    """
    if nx % 2 == 0:
        logger.warning("transform grid nx=%d rounded up to %d (Simpson needs odd)",
                       nx, nx + 1)
        nx += 1
    return GridSpec(t_min, t_max, 0.0, x_max, nt, nx)


@dataclass(frozen=True)
class GridField:
    """Sampled field over a GridSpec: writable, C-contiguous nt-by-nx values,
    stored as float64 when every imaginary part is zero and as complex128
    otherwise.  Values that already meet all of this are kept, not copied.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.spec.nt, self.spec.nx):
            raise ValueError(
                f"field shape {v.shape} does not match grid {self.spec.nt}x{self.spec.nx}"
            )
        if np.iscomplexobj(v) and not np.any(v.imag):
            v = v.real
        dtype = complex if np.iscomplexobj(v) else float
        object.__setattr__(self, "values", np.require(v, dtype, "CW"))


def sample_field(spec: GridSpec, fn: Callable) -> GridField:
    """Evaluate fn(t, x) on the grid via broadcasting; the field holds one copy."""
    return GridField(spec, np.broadcast_to(fn(*spec.mesh()), (spec.nt, spec.nx)))


def write_csv(path, header: str, rows) -> None:
    """LF CSV: ``header``, then one line per row of numbers at 17
    significant digits, so every float64 round-trips bit-exactly."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def write_field_csv(path, field: GridField) -> None:
    """Serialize a field: header t,x,re,im, row-major by t, 17 digits, LF."""
    x = field.spec.x_nodes()
    write_csv(path, "t,x,re,im", ((ti, xj, v.real, v.imag)
                                  for ti, row in zip(field.spec.t_nodes(), field.values)
                                  for xj, v in zip(x, row)))


def read_field_csv(path) -> GridField:
    """Deserialize a field CSV of finite values, uniformly spaced within 1e-12."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError(f"field CSV must have columns t,x,re,im, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("field CSV holds a value that is not finite")
    t_col, x_col = data[:, 0], data[:, 1]
    t_vals = np.unique(t_col)
    x_vals = np.unique(x_col)
    nt, nx = t_vals.size, x_vals.size
    if nt * nx != data.shape[0]:
        raise ValueError("field CSV rows do not form a complete lattice")
    for name, vals in (("t", t_vals), ("x", x_vals)):
        d = np.diff(vals)
        if vals.size < 3 or np.max(np.abs(d - d[0])) > 1e-12 * max(1.0, np.max(np.abs(vals))):
            raise ValueError(f"{name} nodes are not uniformly spaced within 1e-12")
    spec = GridSpec(t_vals[0], t_vals[-1], x_vals[0], x_vals[-1], nt, nx)
    # row-major by t: verify ordering rather than assume it
    if not (np.allclose(t_col.reshape(nt, nx), t_vals[:, None])
            and np.allclose(x_col.reshape(nt, nx), x_vals[None, :])):
        raise ValueError("field CSV is not row-major by t")
    return GridField(spec, (data[:, 2] + 1j * data[:, 3]).reshape(nt, nx))
