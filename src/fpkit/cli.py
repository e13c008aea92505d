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
from .grids import (FieldKind, GridSpec, NumericalError, PotentialSpec,
                    read_field_csv, sample_field, transform_grid, write_field_csv)
from .kernels import MAX_ORDER, kernel_n
from .solutions import (GammaPoly, closed_w, closed_w2_terms, closed_w_gamma, kappa,
                        phi_lambda, product_phi_u, u_lambda)
from .transform import bluman_shtelen_w, log_phi_xx
from .verify import (check_inequality, check_vanishing_at_origin, quadrature_match,
                     residual_backward, residual_forward)

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


def _parse_grid(text: str) -> GridSpec:
    """``tmin:tmax:nt,xmin:xmax:nx``."""
    try:
        t_part, x_part = text.split(",")
        t_min, t_max, nt = t_part.split(":")
        x_min, x_max, nx = x_part.split(":")
        return GridSpec(float(t_min), float(t_max), float(x_min), float(x_max),
                        int(nt), int(nx))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"grid must be 'tmin:tmax:nt,xmin:xmax:nx', got {text!r}") from exc


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
    grid_text = _resolve(args, "grid")
    if grid_text is None:
        upper = 0.9 * (b.horizon_s - 0.05)
        spec = GridSpec(0.0, max(upper, 1e-3), 0.0, 3.0, 10, 31)
    else:
        spec = _parse_grid(grid_text)
    if spec.t_max > b.horizon_s - 0.05:
        raise ConfigError(
            f"t grid must stay within [0, s - 0.05] = [0, {b.horizon_s - 0.05}]")
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
        "grid": grid_text,
    })
    return EXIT_OK


# The backward tolerance follows the measured 2nd-order truncation of the
# closed-form solution on the default grid (max_rel ~ 1.2e-3 at dt = dx =
# 1e-3, dominated by the time derivative near s - t = 0.1) with headroom.
_VERIFY_DEFAULTS = {
    "grid": "0:0.9:901,0.05:3:2951",
    "transform_grid": "0:0.9:901,0:3:301",
    "tol_backward": 2e-3,
    "tol_forward": 1e-4,
    "tol_form_preservation": 1e-8,
    "tol_transform": 1e-6,
    "tol_transform_residual": 1e-3,
    "tol_quadrature": 1e-8,
    "tol_zero_identity": 1e-14,
    "tol_product": 1e-12,
}


def cmd_verify(args) -> int:
    b = _resolve_boundary(args)
    fast = bool(_resolve(args, "fast", False))
    grid_text = _resolve(args, "grid")
    if grid_text is None:
        grid_text = "0:0.9:226,0.05:3:739" if fast else _VERIFY_DEFAULTS["grid"]
    spec = _parse_grid(grid_text)
    scale = 20.0 if fast and _resolve(args, "grid") is None else 1.0
    tol_backward = float(_resolve(args, "tol_backward", _VERIFY_DEFAULTS["tol_backward"])) * scale
    tol_forward = float(_resolve(args, "tol_forward", _VERIFY_DEFAULTS["tol_forward"])) * scale
    out = _out_dir(args)
    if spec.t_max > b.horizon_s - 0.05:
        raise ConfigError(f"verification grid must keep s - t >= 0.05 (s = {b.horizon_s})")

    v1 = PotentialSpec.from_boundary(b)
    residuals: dict = {}
    checks: list[tuple[str, bool, str]] = []

    field_path = _resolve(args, "field")
    if field_path is not None:
        try:
            ext_field = read_field_csv(field_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read field CSV {field_path}: {exc}") from exc
        rep = residual_backward(ext_field, v1)
        residuals["external_field_backward"] = rep.to_json()
        checks.append(("external field residual", rep.max_rel <= tol_backward,
                       f"max_rel={rep.max_rel:.3e} tol={tol_backward:.1e}"))

    w_field = sample_field(spec, lambda t, x: closed_w(b, t, x))
    rep_w = residual_backward(w_field, v1)
    residuals["backward_closed_w"] = rep_w.to_json()
    checks.append(("backward residual (closed w)", rep_w.max_rel <= tol_backward,
                   f"max_rel={rep_w.max_rel:.3e} tol={tol_backward:.1e}"))

    form_pres_max = 0.0
    for lam in (0.0, 1.5):
        phi = sample_field(spec, lambda t, x: phi_lambda(b, lam, t, x))
        for part, name in ((phi.real_part(), "re"), (phi.imag_part(), "im")):
            rep = residual_forward(part, v1)
            residuals[f"forward_phi_lam{lam}_{name}"] = rep.to_json()
            checks.append((f"forward residual (phi, lam={lam}, {name})",
                           rep.max_rel <= tol_forward,
                           f"max_rel={rep.max_rel:.3e} tol={tol_forward:.1e}"))
        form_pres_max = max(form_pres_max, float(np.max(np.abs(log_phi_xx(phi).values))))
    tol_fp = float(_resolve(args, "tol_form_preservation",
                            _VERIFY_DEFAULTS["tol_form_preservation"]))
    checks.append(("form preservation (d2/dx2 log phi)", form_pres_max <= tol_fp,
                   f"max_abs={form_pres_max:.3e} tol={tol_fp:.1e}"))

    tspec = _parse_grid(_resolve(args, "transform_grid", _VERIFY_DEFAULTS["transform_grid"]))
    tspec = transform_grid(tspec.t_min, tspec.t_max, tspec.x_max, tspec.nt, tspec.nx)
    u0 = sample_field(tspec, lambda t, x: u_lambda(b, 0.0, t, x))
    phi0 = sample_field(tspec, lambda t, x: phi_lambda(b, 0.0, t, x))
    w_engine = bluman_shtelen_w(u0, phi0)
    target = sample_field(tspec, lambda t, x: np.real(w1_target(b, t, x)))
    dev = float(np.max(np.abs(w_engine.values - target.values))
                / max(float(np.max(np.abs(target.values))), 1e-12))
    tol_tr = float(_resolve(args, "tol_transform", _VERIFY_DEFAULTS["tol_transform"]))
    checks.append(("transform loop vs analytic target", dev <= tol_tr,
                   f"max_rel_dev={dev:.3e} tol={tol_tr:.1e}"))
    rep_tr = residual_backward(w_engine, v1)
    residuals["backward_transform_w"] = rep_tr.to_json()
    tol_trr = float(_resolve(args, "tol_transform_residual",
                             _VERIFY_DEFAULTS["tol_transform_residual"]))
    checks.append(("transform loop residual", rep_tr.max_rel <= tol_trr,
                   f"max_rel={rep_tr.max_rel:.3e} tol={tol_trr:.1e}"))

    rng = np.random.default_rng(int(_resolve(args, "seed", 20240501)))
    tol_q = float(_resolve(args, "tol_quadrature", _VERIFY_DEFAULTS["tol_quadrature"]))
    quad_worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.0, b.horizon_s - 0.05)
        x = rng.uniform(0.0, 2.0)
        g = GammaPoly(tuple(rng.uniform(-1.0, 1.0, rng.integers(1, 5))))
        quad_worst = max(quad_worst, quadrature_match(b, g, float(t), float(x)))
    checks.append(("contour integration vs quadrature", quad_worst <= tol_q,
                   f"worst={quad_worst:.3e} tol={tol_q:.1e}"))

    tol_zero = float(_resolve(args, "tol_zero_identity",
                              _VERIFY_DEFAULTS["tol_zero_identity"]))
    zero_worst = 0.0
    for _ in range(200):
        t = rng.uniform(0.0, b.horizon_s - 0.05)
        x = rng.uniform(0.0, 3.0)
        first, second = closed_w2_terms(b, float(t), float(x))
        mag = max(abs(first), 1e-300)
        zero_worst = max(zero_worst, abs(first - second) / mag)
    checks.append(("second solution vanishes", zero_worst <= tol_zero,
                   f"worst={zero_worst:.3e} tol={tol_zero:.1e}"))

    tol_p = float(_resolve(args, "tol_product", _VERIFY_DEFAULTS["tol_product"]))
    prod_worst = 0.0
    for _ in range(20):
        lam = rng.uniform(-5.0, 5.0)
        ref = product_phi_u(b, lam)
        ts = rng.uniform(0.0, b.horizon_s, 50)
        xs = rng.uniform(-2.0, 2.0, 50)
        vals = phi_lambda(b, lam, ts, xs) * u_lambda(b, lam, ts, xs)
        prod_worst = max(prod_worst, float(np.max(np.abs(vals - ref)) / abs(ref)))
    checks.append(("product constancy", prod_worst <= tol_p,
                   f"worst={prod_worst:.3e} tol={tol_p:.1e}"))

    probes = [2.0 ** -k for k in range(1, 21)]
    rep_v = check_vanishing_at_origin(lambda t, x: closed_w(b, t, x), 0.0, probes)
    checks.append(("vanishing at origin (t=0)", rep_v.passed,
                   f"violations={rep_v.violation_count}"))

    diagnostics = {
        "form_preservation_max_abs": form_pres_max,
        "transform_max_rel_deviation": dev,
        "quadrature_match_worst": quad_worst,
        "zero_identity_worst": zero_worst,
        "product_constancy_worst": prod_worst,
        "vanishing_at_origin": rep_v.to_json(),
    }
    ineq_spec = GridSpec(0.0, 0.5 * b.horizon_s, 0.0, 3.0, 9, 61)
    w_small = sample_field(ineq_spec, lambda t, x: closed_w(b, t, x), FieldKind.REAL)
    ineq = check_inequality(w_small, b.horizon_s)
    diagnostics["inequality_full_grid"] = ineq.to_json()
    row_spec = GridSpec(0.0, min(1e-6, 0.4 * b.horizon_s), 0.0, 3.0, 3, 61)
    w_row = sample_field(row_spec, lambda t, x: closed_w(b, t, x), FieldKind.REAL)
    diagnostics["inequality_t0"] = check_inequality(w_row, b.horizon_s).to_json()

    _write_json(os.path.join(out, "residuals.json"), residuals)
    _write_json(os.path.join(out, "diagnostics.json"), diagnostics)
    _sidecar(out, "verify", {
        "boundary": _resolve(args, "boundary"), "grid": grid_text,
        "fast": fast,
    })
    failed = [(name, msg) for name, ok, msg in checks if not ok]
    for name, ok, msg in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {msg}")
    if failed:
        raise AssertionFailure(f"{len(failed)} verification check(s) failed")
    return EXIT_OK


def w1_target(b: Boundary, t, x):
    """Analytic lambda=0 target of the transformation loop: (x - int_0^t f') u."""
    from .boundary import integral_fprime
    return (np.asarray(x) - integral_fprime(b, 0.0, t)) * u_lambda(b, 0.0, t, x)


def cmd_transform(args) -> int:
    b = _resolve_boundary(args)
    lam = float(_resolve(args, "lam", 0.0))
    grid_text = _resolve(args, "grid", "0:0.9:91,0:3:61")
    spec = _parse_grid(grid_text)
    spec = transform_grid(spec.t_min, spec.t_max, spec.x_max, spec.nt, spec.nx)
    if spec.t_max > b.horizon_s - 0.05:
        raise ConfigError("transform grid must keep s - t >= 0.05")
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


def _mc_config(args) -> mc.MCConfig:
    try:
        return mc.MCConfig(
            n_paths=int(_resolve(args, "paths", 100000)),
            n_steps=int(_resolve(args, "steps", 2000)),
            seed=int(_resolve(args, "seed", 42)),
            antithetic=bool(_resolve(args, "antithetic", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mc_threads(args) -> int:
    threads = int(_resolve(args, "threads", 1))
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    return threads


def _comparison_rows(cmp_table: mc.DensityComparison):
    return [
        (cmp_table.bin_edges[i], cmp_table.bin_edges[i + 1], cmp_table.empirical[i],
         cmp_table.kappa_mass[i], cmp_table.reference_mass[i], cmp_table.z_scores[i])
        for i in range(cmp_table.empirical.size)
    ]


def cmd_simulate(args) -> int:
    b = _resolve_boundary(args)
    cfg = _mc_config(args)
    x0 = float(_resolve(args, "x0", 1.0))
    n_bins = int(_resolve(args, "bins", 20))
    threads = _mc_threads(args)
    if x0 <= 0.0:
        raise ConfigError("x0 must be positive")
    out = _out_dir(args)
    hist = mc.first_passage_histogram(b, x0, cfg, n_bins, threads)
    _write_csv(os.path.join(out, "fpt_histogram.csv"), "bin_lo,bin_hi,mass",
               [(hist.bin_edges[i], hist.bin_edges[i + 1], hist.masses[i])
                for i in range(n_bins)])
    cmp_table = mc.compare_density(b, x0, cfg, n_bins, threads, hist=hist)
    _write_csv(os.path.join(out, "comparison.csv"),
               "bin_lo,bin_hi,empirical,kappa,reference,z", _comparison_rows(cmp_table))
    fk = mc.bessel_bridge_fk(b, x0, cfg, threads)
    _write_json(os.path.join(out, "feynman_kac.json"),
                {**fk.to_json(), "n_steps": cfg.n_steps, "seed": cfg.seed})
    _sidecar(out, "simulate", {
        "boundary": _resolve(args, "boundary"), "x0": x0, "paths": cfg.n_paths,
        "steps": cfg.n_steps, "seed": cfg.seed, "antithetic": cfg.antithetic,
        "bins": n_bins, "threads": threads,
    })
    return EXIT_OK


def cmd_compare(args) -> int:
    b = _resolve_boundary(args)
    cfg = _mc_config(args)
    x0 = float(_resolve(args, "x0", 1.0))
    n_bins = int(_resolve(args, "bins", 20))
    threads = _mc_threads(args)
    if x0 <= 0.0:
        raise ConfigError("x0 must be positive")
    out = _out_dir(args)
    cmp_table = mc.compare_density(b, x0, cfg, n_bins, threads)
    _write_csv(os.path.join(out, "comparison.csv"),
               "bin_lo,bin_hi,empirical,kappa,reference,z", _comparison_rows(cmp_table))
    _sidecar(out, "compare", {
        "boundary": _resolve(args, "boundary"), "x0": x0, "paths": cfg.n_paths,
        "steps": cfg.n_steps, "seed": cfg.seed, "antithetic": cfg.antithetic,
        "bins": n_bins, "threads": threads,
    })
    return EXIT_OK


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
    for name in ("tol_backward", "tol_forward", "tol_form_preservation",
                 "tol_transform", "tol_transform_residual", "tol_quadrature",
                 "tol_zero_identity", "tol_product"):
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
