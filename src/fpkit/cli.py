"""Command-line front end.

Commands: ``kernels``, ``solution``, ``verify``, ``transform``,
``simulate``, ``compare``.  One table, ``OPTIONS``, holds every flag with
the commands that take it, its converter, default and help; the parser is
built from it.  Each option is resolved once, before the command runs:
the flag, else the value in the ``--config`` JSON file (``null`` counts
as absent), else the table default.  A config key that no option of the
command reads is an error, and so is a config value that its option's
converter rejects or would change (a switch takes only true/false).  A
command writes CSV/JSON artifacts into ``--out`` and returns how many
checks it failed; then ``main``, on exit 0 or 2 only, writes a
``config.json`` sidecar with every option the command read, so rerunning
with ``--config`` on that sidecar reproduces its outputs.

Exit codes: 0 success, 1 usage/config error, 2 assertion failure
(a verified tolerance was missed), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import montecarlo as mc
from .boundary import Boundary, boundary_from_json, boundary_potential, parse_boundary
from .grids import (GridSpec, NumericalError, read_field_csv, sample_field, transform_grid,
                    write_csv, write_field_csv)
from .kernels import HORIZON_MARGIN, kernel_n
from .parallel import usable_cores
from .solutions import GammaPoly, closed_w_gamma, kappa, phi_lambda, u_lambda
from .transform import bluman_shtelen_w
from .verify import TOLERANCES, residual_backward, run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Bad flags or config-file contents."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _write_json(out: str, name: str, obj) -> None:
    with open(os.path.join(out, name), "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_range(text: str) -> np.ndarray:
    """``a:b:step``, the nodes a + k step not past b in the decimals written
    (so only rounding puts one past b), or a single value; all finite."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"range must be 'a:b:step' or a single value, got {text!r}")
    values = [float(p) for p in parts]
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"range {text!r} must be finite")
    if len(values) == 1:
        return np.array(values)
    a, b, step = values
    if step <= 0 or b < a:
        raise ConfigError(f"bad range {text!r}")
    from fractions import Fraction  # imported here: it loads decimal, which no other command uses
    lo, hi, exact_step = map(Fraction, parts)
    return a + step * np.arange((hi - lo) // exact_step + 1)


def _parse_grid(text: str, b: Boundary, engine: bool = False,
                flag: str | None = None) -> GridSpec:
    """``tmin:tmax:nt,xmin:xmax:nx`` whose times keep s - t >= HORIZON_MARGIN.

    ``engine`` makes it the transformation engine's grid (``transform_grid``).
    A ``flag`` names the option of a grid that residual checks will read,
    which then needs at least 5 x 5 nodes.  A grid that ``GridSpec`` refuses
    is reported with the flag (or "grid") and the refusal's cause.
    """
    try:
        t_part, x_part = text.split(",")
        t_min, t_max, nt = t_part.split(":")
        x_min, x_max, nx = x_part.split(":")
        numbers = float(t_min), float(t_max), float(x_min), float(x_max), int(nt), int(nx)
    except (AttributeError, ValueError, TypeError) as exc:
        raise ConfigError(f"grid must be 'tmin:tmax:nt,xmin:xmax:nx', got {text!r}") from exc
    try:
        spec = GridSpec(*numbers)
        if engine:
            spec = transform_grid(spec.t_min, spec.t_max, spec.x_max, spec.nt, spec.nx)
    except ValueError as exc:
        raise ConfigError(f"{flag or 'grid'} {text!r}: {exc}") from exc
    if flag is not None and min(spec.nt, spec.nx) < 5:
        raise ConfigError(f"{flag} needs at least 5 x 5 nodes, got {spec.nt}x{spec.nx}")
    if spec.t_max > b.horizon_s - HORIZON_MARGIN:
        raise ConfigError(f"grid {text!r} must keep s - t >= {HORIZON_MARGIN} "
                          f"(s = {b.horizon_s})")
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


def _numbers(kind):
    """Converter for a comma list of numbers, given as text or as a JSON list."""
    def convert(value) -> list:
        return [kind(tok) for tok in (value.split(",") if isinstance(value, str) else value)]
    convert.__name__ = f"{kind.__name__} list"
    return convert


class Option(NamedTuple):
    """A flag.  ``convert`` None keeps the value as given and ``bool`` makes a
    switch; a ``None`` default is one the command works out itself."""
    flag: str
    commands: tuple[str, ...]
    convert: Callable | None
    default: object
    help: str

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


_MC = ("simulate", "compare")
_BOUNDED = ("solution", "verify", "transform") + _MC
_ALL = ("kernels",) + _BOUNDED

OPTIONS = (
    Option("--config", _ALL, str, None, "JSON config file (flags override)"),
    Option("--out", _ALL, str, ".", "output directory"),
    Option("--boundary", _BOUNDED, None, None, "'s=<real>; fprime=<c0>,<c1>,...'"),
    Option("--t", ("kernels",), str, "1", "time value or range a:b:step"),
    Option("--x", ("kernels",), str, "-3:3:0.1", "space value or range a:b:step"),
    Option("--n", ("kernels",), _numbers(int), "0,1", "comma list of kernel orders"),
    Option("--gamma", ("solution",), _numbers(float), "1", "Gamma coefficients c0,c1,..."),
    Option("--grid", ("solution",), None, None, "tmin:tmax:nt,xmin:xmax:nx (default from s)"),
    Option("--grid", ("verify",), None, None, "residual grid (default set by --fast)"),
    Option("--transform-grid", ("verify",), None, "0:0.9:901,0:3:301",
           "transform engine grid; x_min is forced to 0 and an even nx rounded up"),
    Option("--field", ("verify",), str, None, "externally produced field CSV to check"),
    Option("--fast", ("verify",), bool, False, "coarser grid, relaxed residual tolerances"),
    Option("--seed", ("verify",), int, 20240501, "seed of the random check points"),
    *(Option(f"--{name.replace('_', '-')}", ("verify",), float, tol, f"default {tol:g}")
      for name, tol in TOLERANCES.items()),
    Option("--lam", ("transform",), float, 0.0, "lambda parameter of the input pair"),
    Option("--grid", ("transform",), None, "0:0.9:91,0:3:61", "x_min is forced to 0"),
    Option("--x0", _MC, float, 1.0, "initial distance to the level"),
    Option("--paths", _MC, int, 100000, "number of paths"),
    Option("--steps", _MC, int, 2000,
           "cap n on the sweep's uniform chords: it takes min(n, "
           f"max({mc.MIN_STEPS}, c)), c the fewest within {mc.CHORD_GAP:g} of the level "
           "by its sup |f''| times (paths/1e6)^(1/5); simulate's Feynman-Kac takes "
           f"its own {mc.FK_INTERVALS} max(1, s/x0^2) (paths/1e6)^(1/8) intervals "
           f"graded toward s, even, at least {mc.MIN_STEPS} and at most "
           f"{mc.FK_MAX_INTERVALS}, whatever n is. Both counts are set at "
           f"{mc.REFERENCE_PATHS:,} paths and scale so that bias stays within a fixed "
           "share of the run's own standard error (constant f' takes one chord and "
           "no Feynman-Kac step)"),
    Option("--seed", _MC, int, 42, "seed of the random streams"),
    Option("--bins", _MC, int, 20, "histogram bins on [0, s]"),
    Option("--threads", _MC, int, 1, "worker threads (outputs do not depend on it)"),
)


def _options(command: str) -> list[Option]:
    return [o for o in OPTIONS if command in o.commands]


def _from_config(o: Option, value):
    """A config value through its option's converter, which must neither
    reject nor change it; only a switch takes (and needs) true/false."""
    bad = ConfigError(f"config key {o.key}: {json.dumps(value)} is not a valid "
                      f"{o.convert.__name__} value")
    try:
        converted = o.convert(value)
    except (TypeError, ValueError) as exc:
        raise bad from exc
    items = value if isinstance(value, list) else [value]
    if converted != value or any(isinstance(v, bool) != (o.convert is bool) for v in items):
        raise bad
    return converted


def _resolve(args) -> None:
    """Set every option of ``args.command`` on ``args``: the flag, else the
    config value, else the table default.  A JSON ``null`` counts as absent."""
    config = _load_config(args.config) if args.config else {}
    options = [o for o in _options(args.command) if o.key != "config"]
    unknown = sorted(set(config) - {o.key for o in options} - {"command"})
    if unknown:
        raise ConfigError(f"config key(s) {', '.join(unknown)} name no {args.command} option")
    for o in options:
        if getattr(args, o.key) is not None:
            continue
        value = config.get(o.key)
        if value is None:
            value = o.default if o.default is None or o.convert is None else o.convert(o.default)
        elif o.convert is not None:
            value = _from_config(o, value)
        setattr(args, o.key, value)


def _boundary(args) -> Boundary:
    if args.boundary is None:
        raise ConfigError("a boundary spec is required (--boundary or config)")
    if isinstance(args.boundary, dict):
        return boundary_from_json(args.boundary)
    return parse_boundary(str(args.boundary))


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _sidecar(args) -> None:
    """``config.json``: the command and every option it reads (``args`` holds
    exactly those), so rerunning with ``--config`` on it reproduces the run."""
    _write_json(args.out, "config.json",
                {k: v for k, v in vars(args).items() if k not in ("config", "out")})


def cmd_kernels(args) -> int:
    t_vals = _parse_range(args.t)
    x_vals = _parse_range(args.x)
    values = [(t, n, np.atleast_1d(kernel_n(n, float(t), x_vals)))
              for t in t_vals for n in args.n]
    # --out is made only once kernel_n has taken every t and n; the rows are
    # made as they are written, so only the value arrays are held
    write_csv(os.path.join(_out_dir(args), "kernels.csv"), "t,x,n,value",
              ((t, x, n, v) for t, n, vals in values for x, v in zip(x_vals, vals)))
    return 0


def cmd_solution(args) -> int:
    b = _boundary(args)
    g = GammaPoly(tuple(args.gamma))
    upper = max(0.9 * (b.horizon_s - HORIZON_MARGIN), 1e-3)
    spec = _parse_grid(f"0:{upper!r}:10,0:3:31" if args.grid is None else args.grid, b)
    tt, xx = spec.mesh()
    w = closed_w_gamma(b, g, tt, xx)
    x_nodes = spec.x_nodes()
    x_nonneg = x_nodes[x_nodes >= 0.0]
    kap = kappa(b, x_nonneg)
    out = _out_dir(args)
    rows = [(t, x, w[i, j]) for i, t in enumerate(spec.t_nodes())
            for j, x in enumerate(x_nodes)]
    write_csv(os.path.join(out, "w.csv"), "t,x,value", rows)
    write_csv(os.path.join(out, "kappa.csv"), "x,value", zip(x_nonneg, np.atleast_1d(kap)))
    return 0


def cmd_verify(args) -> int:
    b = _boundary(args)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # --fast's 4x coarser grid relaxes the residual tolerances on it by 20
    scale = 20.0 if args.fast and args.grid is None else 1.0
    default_grid = "0:0.9:226,0.05:3:739" if args.fast else "0:0.9:901,0.05:3:2951"
    spec = _parse_grid(default_grid if args.grid is None else args.grid, b, flag="--grid")
    tspec = _parse_grid(args.transform_grid, b, engine=True, flag="--transform-grid")
    tols = {name: getattr(args, name) for name in TOLERANCES}
    try:
        field = None if args.field is None else read_field_csv(args.field)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field CSV {args.field}: {exc}") from exc
    checks, residuals, diagnostics = run_checks(b, spec, tspec, tols, args.seed, scale, field,
                                                n_workers=usable_cores())
    out = _out_dir(args)
    _write_json(out, "residuals.json", residuals)
    _write_json(out, "diagnostics.json", diagnostics)
    _write_json(out, "checks.json", [c.to_json() for c in checks])
    for c in checks:
        print(c.line())
    return sum(not c.passed for c in checks)


def cmd_transform(args) -> int:
    b = _boundary(args)
    spec = _parse_grid(args.grid, b, engine=True, flag="--grid")
    u = sample_field(spec, lambda t, x: u_lambda(b, args.lam, t, x))
    phi = sample_field(spec, lambda t, x: phi_lambda(b, args.lam, t, x))
    w = bluman_shtelen_w(u, phi)
    rep = residual_backward(w, boundary_potential(b))
    # --out is made only once nothing numerical is left to fail
    out = _out_dir(args)
    write_field_csv(os.path.join(out, "w_transform.csv"), w)
    _write_json(out, "residuals.json", {"backward_transform_w": rep.to_json()})
    return 0


def _mc_setup(args):
    """Boundary and MCConfig of simulate/compare; bad MCConfig values, like
    the x0 that ``first_passage_histogram`` refuses, raise ValueError, which
    ``main`` reports as exit 1."""
    b = _boundary(args)
    cfg = mc.MCConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    return b, cfg


def _write_comparison(out: str, table: mc.DensityComparison) -> None:
    edges = table.bin_edges
    write_csv(os.path.join(out, "comparison.csv"), "bin_lo,bin_hi,empirical,kappa,reference,z",
              zip(edges[:-1], edges[1:], table.empirical, table.kappa_mass,
                  table.reference_mass, table.z_scores))


def cmd_simulate(args) -> int:
    b, cfg = _mc_setup(args)
    hist = mc.first_passage_histogram(b, args.x0, cfg, args.bins, args.threads)
    table = mc.compare_density(b, args.x0, hist)
    fk = mc.bessel_bridge_fk(b, args.x0, cfg, args.threads)
    # --out is made only once nothing numerical is left to fail
    out = _out_dir(args)
    write_csv(os.path.join(out, "fpt_histogram.csv"), "bin_lo,bin_hi,mass",
              zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.masses))
    _write_comparison(out, table)
    _write_json(out, "feynman_kac.json",
                {**fk.to_json(), "n_steps": cfg.n_steps,
                 "intervals": mc.fk_intervals(b, args.x0, cfg.n_paths), "seed": cfg.seed})
    return 0


def cmd_compare(args) -> int:
    b, cfg = _mc_setup(args)
    hist = mc.first_passage_histogram(b, args.x0, cfg, args.bins, args.threads)
    table = mc.compare_density(b, args.x0, hist)
    _write_comparison(_out_dir(args), table)
    return 0


COMMANDS = {
    "kernels": (cmd_kernels, "tabulate the kernel family"),
    "solution": (cmd_solution, "tabulate closed-form solutions and kappa"),
    "verify": (cmd_verify, "run the verification suite"),
    "transform": (cmd_transform, "run the pair-transformation engine"),
    "simulate": (cmd_simulate, "first-passage + Feynman-Kac Monte Carlo"),
    "compare": (cmd_compare, "empirical vs closed-form density table"),
}


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="fpkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for o in _options(name):
            kind = {"action": "store_true"} if o.convert is bool else {"type": o.convert}
            p.add_argument(o.flag, default=None, help=o.help, **kind)
    return parser


def _merge_negative_values(argv):
    """Join value-taking flags with values that start with '-' (--x -3:3:0.1)."""
    value_flags = {o.flag for o in OPTIONS if o.convert is not bool}
    out = []
    for tok in argv:
        if out and out[-1] in value_flags and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _merge_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
        _resolve(args)
        failed = COMMANDS[args.command][0](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, MemoryError) as exc:
        # ConfigError, BoundaryFormatError, the numeric layer's refused
        # preconditions (bad grids, ranges, x0) and arrays past memory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _sidecar(args)
    if failed:
        print(f"assertion failure: {failed} verification check(s) failed", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
