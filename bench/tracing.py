"""Spans around fpkit's public functions, recorded from outside the package.

``instrument`` replaces, inside this process only, every fpkit module
attribute that refers to one of the functions in ``TRACED`` with a wrapper
that records a span (name, start, end, parent, attrs).  Because the CLI
and the package look these functions up as module globals (for example
``fpkit.cli.closed_w`` or ``fpkit.montecarlo.first_passage_histogram``),
the wrappers see every call the commands make.  No package file changes.

``boundary`` and ``kernels`` are not traced: the CLI never calls them
directly, so their time falls inside the ``solutions`` and ``montecarlo``
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TRACED = {
    "solutions": ("closed_w", "closed_w_gamma", "closed_w2_terms", "phi_lambda",
                  "u_lambda", "product_phi_u", "kappa"),
    "grids": ("sample_field",),
    "verify": ("residual_backward", "residual_forward", "quadrature_match",
               "check_inequality", "check_vanishing_at_origin"),
    "transform": ("log_phi_xx", "bluman_shtelen_w"),
    "montecarlo": ("first_passage_histogram", "compare_density", "bessel_bridge_fk"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Keeps spans, and the RNG blocks MC workers draw, in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.blocks: list[tuple[float, int]] = []  # (time, thread id)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(len(self.spans), name, stack[-1] if stack else None,
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def record_block(self) -> None:
        with self._lock:
            self.blocks.append((time.perf_counter(), threading.get_ident()))

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start - t0, "end": s.end - t0, "attrs": s.attrs}
                for s in self.spans]


def _grid_size(args: dict) -> int:
    shapes = [np.shape(args[k]) for k in ("lam", "t", "x") if k in args]
    return int(np.prod(np.broadcast_shapes(*shapes))) if shapes else 1


def _field_nodes(args: dict) -> int:
    spec = next(iter(args.values())).spec
    return (spec.nt - 2) * (spec.nx - 2)


def _sweep_counts(args: dict, hist) -> dict:
    cfg = args["cfg"]
    path_steps = cfg.n_paths * cfg.n_steps
    edges = hist.bin_edges
    mids = 0.5 * (edges[:-1] + edges[1:])
    # a path that crossed in a bin keeps stepping until the horizon
    dead_share = float(np.sum(hist.masses * (edges[-1] - mids) / edges[-1]))
    return {"path_steps": path_steps, "crossed": hist.n_crossed,
            "paths": hist.n_total, "dead_steps": dead_share * path_steps}


def _measure(layer: str, name: str):
    """attrs recorded for one call, from its bound arguments and result."""
    if layer == "solutions":
        return lambda args, result: {"nodes": _grid_size(args)}
    if name == "sample_field":
        return lambda args, result: {"bytes": int(result.values.nbytes)}
    if name.startswith("residual_"):
        return lambda args, result: {"nodes": _field_nodes(args)}
    if name == "first_passage_histogram":
        return _sweep_counts
    if name == "bessel_bridge_fk":
        return lambda args, result: {"path_steps": args["cfg"].n_paths * args["cfg"].n_steps}
    return lambda args, result: {}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    signature = inspect.signature(fn)
    measure = _measure(layer, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(f"{layer}.{name}") as span:
            result = fn(*args, **kwargs)
        span.attrs = measure(signature.bind(*args, **kwargs).arguments, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route fpkit's traced functions (and its per-block RNG factory, to
    count blocks and the threads that drew them) through ``tracer``."""
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "fpkit" or n.startswith("fpkit.")]
    patched = []

    def patch(original, replacement):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    patched.append((ns, attr, original))

    try:
        for layer, names in TRACED.items():
            module = importlib.import_module(f"fpkit.{layer}")
            for name in names:
                original = getattr(module, name)
                patch(original, _wrap(tracer, layer, name, original))
        block_rng = getattr(importlib.import_module("fpkit.montecarlo"), "_block_rng", None)
        if block_rng is not None:
            @functools.wraps(block_rng)
            def counted_block_rng(*args, **kwargs):
                tracer.record_block()
                return block_rng(*args, **kwargs)
            patch(block_rng, counted_block_rng)
        yield tracer
    finally:
        for ns, attr, original in reversed(patched):
            setattr(ns, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def layer_metrics(tracer: Tracer, root: Span) -> dict:
    """Per-layer numbers for the op whose command span is ``root``.

    Times are inclusive and count a call made inside another call of the
    same group once (a solutions call inside a solutions call, say);
    ``*_self_s`` subtract the time covered by child spans.
    """
    spans = [s for s in tracer.spans if s.id >= root.id and s.end <= root.end]
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def outermost(s: Span, names) -> bool:
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name in names:
                return False
            p = by_id[p].parent
        return True

    def outer(names) -> list[Span]:
        return [s for s in spans if s.name in names and outermost(s, names)]

    def total(names, key=None):
        chosen = outer(names)
        if key is None:
            return sum(s.duration for s in chosen)
        return sum(s.attrs.get(key, 0) for s in chosen)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    def self_total(name):
        return sum(self_time(s, children.get(s.id, [])) for s in spans if s.name == name)

    sol = outer({f"solutions.{name}" for name in TRACED["solutions"]})
    grid = [s for s in sol if s.attrs["nodes"] > 1]
    scalar = [s for s in sol if s.attrs["nodes"] == 1]
    grid_s = sum(s.duration for s in grid)
    residual = {"verify.residual_backward", "verify.residual_forward"}
    residual_s = total(residual)
    sweep = {"montecarlo.first_passage_histogram"}
    sweep_steps = total(sweep, "path_steps")
    busy = max((len({tid for t, tid in tracer.blocks if s.start <= t <= s.end})
                for s in spans if s.layer == "montecarlo"), default=0)
    return {
        "cli.self_s": self_time(root, children.get(root.id, [])),
        "solutions.grid_s": grid_s,
        "solutions.grid_nodes_per_s": ratio(sum(s.attrs["nodes"] for s in grid), grid_s),
        "solutions.scalar_s": sum(s.duration for s in scalar),
        "solutions.scalar_calls": len(scalar),
        "grids.sample_field_self_s": self_total("grids.sample_field"),
        "grids.field_bytes": total({"grids.sample_field"}, "bytes"),
        "verify.residual_s": residual_s,
        "verify.residual_nodes_per_s": ratio(total(residual, "nodes"), residual_s),
        "verify.residual_calls": len(outer(residual)),
        "verify.quadrature_s": total({"verify.quadrature_match"}),
        "verify.diagnostics_s": total({"verify.check_inequality",
                                       "verify.check_vanishing_at_origin"}),
        "transform.log_phi_xx_s": total({"transform.log_phi_xx"}),
        "transform.bluman_shtelen_s": total({"transform.bluman_shtelen_w"}),
        "montecarlo.fpt_s": total(sweep),
        "montecarlo.fpt_crossed_share": ratio(total(sweep, "crossed"), total(sweep, "paths")),
        "montecarlo.fpt_dead_step_share": ratio(total(sweep, "dead_steps"), sweep_steps),
        "montecarlo.fk_s": total({"montecarlo.bessel_bridge_fk"}),
        "montecarlo.compare_self_s": self_total("montecarlo.compare_density"),
        "montecarlo.blocks": sum(1 for t, _ in tracer.blocks if root.start <= t <= root.end),
        "montecarlo.busy_workers": busy,
    }
