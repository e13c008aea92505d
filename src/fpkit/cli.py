"""Command-line front end.

Commands: ``kernels``, ``solution``, ``verify``, ``transform``,
``simulate``, ``compare``.  Every command resolves its settings from an
optional JSON config file plus flags (flags win), writes CSV/JSON
artifacts into the output directory, and embeds the resolved config as
a ``config.json`` sidecar so each run is reproducible from its outputs.

Exit codes: 0 success, 1 usage/config error, 2 assertion failure
(a verified tolerance was missed), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import montecarlo as mc
from .boundary import Boundary, BoundaryFormatError, boundary_from_json, parse_boundary
from .grids import (GridSpec, NumericalError, PotentialSpec, read_field_csv, sample_field,
                    transform_grid, write_field_csv)
from .kernels import MAX_ORDER, kernel_n
from .solutions import GammaPoly, closed_w_gamma, kappa, phi_lambda, u_lambda
from .transform import bluman_shtelen_w
from .verify import TOLERANCES, residual_backward, run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Bad flags or config-file contents."""


class AssertionFailure(RuntimeError):
    """A verified tolerance was missed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_range(text: str) -> np.ndarray:
    """``a:b:step`` inclusive range, or a single value."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) != 3:
        raise ConfigError(f"range must be 'a:b:step' or a single value, got {text!r}")
    a, b, step = (float(p) for p in parts)
    if step <= 0 or b < a:
        raise ConfigError(f"bad range {text!r}")
    n = int(round((b - a) / step)) + 1
    return a + step * np.arange(n)


def _parse_grid(text: str, b: Boundary, engine: bool = False) -> GridSpec:
    """``tmin:tmax:nt,xmin:xmax:nx`` whose times keep s - t >= 0.05.

    ``engine`` makes it the transformation engine's grid (``transform_grid``).
    """
    try:
        t_part, x_part = text.split(",")
        t_min, t_max, nt = t_part.split(":")
        x_min, x_max, nx = x_part.split(":")
        spec = GridSpec(float(t_min), float(t_max), float(x_min), float(x_max),
                        int(nt), int(nx))
    except (AttributeError, ValueError, TypeError) as exc:
        raise ConfigError(f"grid must be 'tmin:tmax:nt,xmin:xmax:nx', got {text!r}") from exc
    if engine:
        spec = transform_grid(spec.t_min, spec.t_max, spec.x_max, spec.nt, spec.nx)
    if spec.t_max > b.horizon_s - 0.05:
        raise ConfigError(f"grid {text!r} must keep s - t >= 0.05 (s = {b.horizon_s})")
    return spec


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


def _resolve(args, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if args.config_data and key in args.config_data:
        return args.config_data[key]
    return default


def _resolve_boundary(args) -> Boundary:
    spec = _resolve(args, "boundary")
    if spec is None:
        raise ConfigError("a boundary spec is required (--boundary or config)")
    try:
        if isinstance(spec, dict):
            return boundary_from_json(spec)
        return parse_boundary(str(spec))
    except BoundaryFormatError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_gamma(args) -> GammaPoly:
    g = _resolve(args, "gamma", [1.0])
    if isinstance(g, str):
        g = [float(tok) for tok in g.split(",")]
    try:
        return GammaPoly(tuple(float(c) for c in g))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> str:
    out = _resolve(args, "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _sidecar(out: str, command: str, resolved: dict) -> None:
    _write_json(os.path.join(out, "config.json"), {"command": command, **resolved})


def cmd_kernels(args) -> int:
    t_vals = _parse_range(str(_resolve(args, "t", "1")))
    x_vals = _parse_range(str(_resolve(args, "x", "-3:3:0.1")))
    orders = _resolve(args, "n", "0,1")
    if isinstance(orders, str):
        orders = [int(tok) for tok in orders.split(",")]
    if np.any(t_vals <= 0.0):
        raise ConfigError("kernel times must be positive (t = 0 is singular)")
    for n in orders:
        if not 0 <= n <= MAX_ORDER:
            raise ConfigError(f"kernel order {n} outside [0, {MAX_ORDER}]")
    out = _out_dir(args)
    rows = []
    for t in t_vals:
        for n in orders:
            vals = kernel_n(n, float(t), x_vals)
            rows.extend((t, x, n, v) for x, v in zip(x_vals, np.atleast_1d(vals)))
    _write_csv(os.path.join(out, "kernels.csv"), "t,x,n,value", rows)
    _sidecar(out, "kernels", {
        "t": _resolve(args, "t"), "x": _resolve(args, "x"),
        "n": list(map(int, orders)),
    })
    return EXIT_OK


def cmd_solution(args) -> int:
    b = _resolve_boundary(args)
    g = _resolve_gamma(args)
    upper = max(0.9 * (b.horizon_s - 0.05), 1e-3)
    spec = _parse_grid(_resolve(args, "grid", f"0:{upper!r}:10,0:3:31"), b)
    out = _out_dir(args)
    tt, xx = spec.mesh()
    w = closed_w_gamma(b, g, tt, xx)
    rows = [(t, x, w[i, j]) for i, t in enumerate(spec.t_nodes())
            for j, x in enumerate(spec.x_nodes())]
    _write_csv(os.path.join(out, "w.csv"), "t,x,value", rows)
    x_nodes = spec.x_nodes()
    x_nonneg = x_nodes[x_nodes >= 0.0]
    kap = kappa(b, x_nonneg)
    _write_csv(os.path.join(out, "kappa.csv"), "x,value",
               list(zip(x_nonneg, np.atleast_1d(kap))))
    _sidecar(out, "solution", {
        "boundary": _resolve(args, "boundary"), "gamma": list(g.coeffs),
        "grid": _resolve(args, "grid"),
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    b = _resolve_boundary(args)
    fast = bool(_resolve(args, "fast", False))
    grid_text = _resolve(args, "grid")
    # --fast's 4x coarser grid relaxes the residual tolerances on it by 20
    scale = 20.0 if fast and grid_text is None else 1.0
    if grid_text is None:
        grid_text = "0:0.9:226,0.05:3:739" if fast else "0:0.9:901,0.05:3:2951"
    spec = _parse_grid(grid_text, b)
    tspec = _parse_grid(_resolve(args, "transform_grid", "0:0.9:901,0:3:301"), b, engine=True)
    tols = {name: float(_resolve(args, name, tol)) for name, tol in TOLERANCES.items()}
    field_path = _resolve(args, "field")
    try:
        field = None if field_path is None else read_field_csv(field_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field CSV {field_path}: {exc}") from exc
    out = _out_dir(args)
    checks, residuals, diagnostics = run_checks(
        b, spec, tspec, tols, int(_resolve(args, "seed", 20240501)), scale, field)
    _write_json(os.path.join(out, "residuals.json"), residuals)
    _write_json(os.path.join(out, "diagnostics.json"), diagnostics)
    _write_json(os.path.join(out, "checks.json"), [c.to_json() for c in checks])
    _sidecar(out, "verify", {"boundary": _resolve(args, "boundary"), "grid": grid_text,
                             "fast": fast})
    for c in checks:
        print(c.line())
    failed = sum(not c.passed for c in checks)
    if failed:
        raise AssertionFailure(f"{failed} verification check(s) failed")
    return EXIT_OK


def cmd_transform(args) -> int:
    b = _resolve_boundary(args)
    lam = float(_resolve(args, "lam", 0.0))
    grid_text = _resolve(args, "grid", "0:0.9:91,0:3:61")
    spec = _parse_grid(grid_text, b, engine=True)
    out = _out_dir(args)
    u = sample_field(spec, lambda t, x: u_lambda(b, lam, t, x))
    phi = sample_field(spec, lambda t, x: phi_lambda(b, lam, t, x))
    w = bluman_shtelen_w(u, phi)
    write_field_csv(os.path.join(out, "w_transform.csv"), w)
    rep = residual_backward(w, PotentialSpec.from_boundary(b))
    _write_json(os.path.join(out, "residuals.json"),
                {"backward_transform_w": rep.to_json()})
    _sidecar(out, "transform", {
        "boundary": _resolve(args, "boundary"), "lam": lam,
        "grid": grid_text,
    })
    return EXIT_OK


def _mc_command(body):
    """A simulate/compare command: the shared setup and sidecar around ``body``.

    ``body(b, x0, cfg, n_bins, threads, out)`` runs the MC and writes its
    own outputs; the sidecar is written after it, under ``args.command``.
    Bad MCConfig values raise ValueError, which ``main`` reports as exit 1.
    """
    def command(args) -> int:
        b = _resolve_boundary(args)
        cfg = mc.MCConfig(n_paths=int(_resolve(args, "paths", 100000)),
                          n_steps=int(_resolve(args, "steps", 2000)),
                          seed=int(_resolve(args, "seed", 42)),
                          antithetic=bool(_resolve(args, "antithetic", False)))
        x0 = float(_resolve(args, "x0", 1.0))
        n_bins = int(_resolve(args, "bins", 20))
        threads = int(_resolve(args, "threads", 1))
        if threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        if x0 <= 0.0:
            raise ConfigError("x0 must be positive")
        out = _out_dir(args)
        body(b, x0, cfg, n_bins, threads, out)
        _sidecar(out, args.command, {
            "boundary": _resolve(args, "boundary"), "x0": x0, "paths": cfg.n_paths,
            "steps": cfg.n_steps, "seed": cfg.seed, "antithetic": cfg.antithetic,
            "bins": n_bins, "threads": threads,
        })
        return EXIT_OK
    return command


def _write_comparison(out: str, table: mc.DensityComparison) -> None:
    _write_csv(os.path.join(out, "comparison.csv"),
               "bin_lo,bin_hi,empirical,kappa,reference,z",
               [(table.bin_edges[i], table.bin_edges[i + 1], table.empirical[i],
                 table.kappa_mass[i], table.reference_mass[i], table.z_scores[i])
                for i in range(table.empirical.size)])


@_mc_command
def cmd_simulate(b, x0, cfg, n_bins, threads, out) -> None:
    hist = mc.first_passage_histogram(b, x0, cfg, n_bins, threads)
    _write_csv(os.path.join(out, "fpt_histogram.csv"), "bin_lo,bin_hi,mass",
               [(hist.bin_edges[i], hist.bin_edges[i + 1], hist.masses[i])
                for i in range(n_bins)])
    _write_comparison(out, mc.compare_density(b, x0, cfg, n_bins, threads, hist=hist))
    fk = mc.bessel_bridge_fk(b, x0, cfg, threads)
    _write_json(os.path.join(out, "feynman_kac.json"),
                {**fk.to_json(), "n_steps": cfg.n_steps, "seed": cfg.seed})


@_mc_command
def cmd_compare(b, x0, cfg, n_bins, threads, out) -> None:
    _write_comparison(out, mc.compare_density(b, x0, cfg, n_bins, threads))


def build_parser() -> _Parser:
    parser = _Parser(prog="fpkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--boundary", help="'s=<real>; fprime=<c0>,<c1>,...'")

    p = sub.add_parser("kernels", help="tabulate the kernel family")
    common(p)
    p.add_argument("--t", help="time value or range a:b:step")
    p.add_argument("--x", help="space value or range a:b:step")
    p.add_argument("--n", help="comma list of kernel orders")
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("solution", help="tabulate closed-form solutions and kappa")
    common(p)
    p.add_argument("--gamma", help="Gamma polynomial coefficients c0,c1,...")
    p.add_argument("--grid", help="tmin:tmax:nt,xmin:xmax:nx")
    p.set_defaults(fn=cmd_solution)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--grid", help="residual grid tmin:tmax:nt,xmin:xmax:nx")
    p.add_argument("--transform-grid", dest="transform_grid")
    p.add_argument("--field", help="externally produced field CSV to check")
    p.add_argument("--fast", action="store_true", default=None,
                   help="coarser grid with proportionally relaxed tolerances")
    p.add_argument("--seed", type=int)
    for name in TOLERANCES:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transform", help="run the pair-transformation engine")
    common(p)
    p.add_argument("--lam", type=float, help="lambda parameter of the input pair")
    p.add_argument("--grid", help="tmin:tmax:nt,xmin:xmax:nx (x_min forced to 0)")
    p.set_defaults(fn=cmd_transform)

    for name, fn, help_text in (
        ("simulate", cmd_simulate, "first-passage + Feynman-Kac Monte Carlo"),
        ("compare", cmd_compare, "empirical vs closed-form density table"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--x0", type=float, help="initial distance to the level")
        p.add_argument("--paths", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--bins", type=int)
        p.add_argument("--antithetic", action="store_true", default=None)
        p.add_argument("--threads", type=int)
        p.set_defaults(fn=fn)

    return parser


def _merge_negative_values(argv):
    """Join flags with values that start with '-' (e.g. --x -3:3:0.1)."""
    value_flags = {"--x", "--t", "--gamma", "--n"}
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in value_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        args.config_data = _load_config(args.config) if args.config else {}
        return args.fn(args)
    except (ConfigError, BoundaryFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # precondition violations from the numeric layer (bad grids, ranges)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
