"""fpkit benchmark.

Runs one workload's fpkit CLI command in-process through ``fpkit.cli.main``:
one warm-up op, then ops back to back (a closed loop, one client) for
``--seconds``.  Every op's outputs go through the workload's gates outside
the timed region.  Prints a report, then one JSON line with the metrics
named in ``BENCHMARK.json``::

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and gives the per-layer metrics, including the
tracing overhead; for MC workloads it also times the estimators directly
at 1 and 2 workers.  ``--smoke`` runs tiny sizes for the smoke test.

Run it from the root of an fpkit checkout: it imports fpkit from ``src``
and writes outputs and spans under ``.bench_out``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from setup_probe import import_split, setup_seconds
from tracing import Tracer, instrument, layer_metrics
from workloads import WORKLOADS, OpOutput, gate, mc_inputs

SETUP_PROBES = 5
IMPORT_PROBES = 3
MIN_OPS = 3
#: bin count the CLI uses when --bins is not given
CLI_BINS = 20


def derive_seed(seed: int) -> int:
    """The seed passed to fpkit, derived from the benchmark seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


class Runner:
    """Runs one CLI command in this process and collects what it wrote."""

    def __init__(self, cli, argv: list[str], out: Path):
        self.cli, self.argv, self.out = cli, argv, out

    def op(self, tracer: Tracer | None = None):
        """(wall seconds, CPU seconds, outputs, command span or None)."""
        buf = io.StringIO()
        root = None
        with instrument(tracer) if tracer is not None else nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with redirect_stdout(buf):
                    if tracer is None:
                        rc = self.cli.main(self.argv)
                    else:
                        with tracer.span("cli.main") as root:
                            rc = self.cli.main(self.argv)
            except Exception:
                traceback.print_exc()
                rc = None
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir()) if p.is_file()}
        return wall, cpu, OpOutput(rc, buf.getvalue(), files), root


def direct_mc(workload, inputs: dict | None, seed: int) -> dict:
    """Path-steps/s of the MC estimators the workload runs, at 1 and 2 workers;
    zero for an estimator the workload does not run."""
    from fpkit.boundary import parse_boundary
    from fpkit.montecarlo import MCConfig, bessel_bridge_fk, first_passage_histogram

    calls = {}
    if inputs is not None:
        b = parse_boundary(workload.boundary)
        cfg = MCConfig(inputs["paths"], inputs["steps"], seed)
        calls["fpt"] = lambda w: first_passage_histogram(b, inputs["x0"], cfg, CLI_BINS, w)
        if workload.command == "simulate":
            calls["fk"] = lambda w: bessel_bridge_fk(b, inputs["x0"], cfg, w)
    out = {}
    for key in ("fpt", "fk"):
        rates = {1: 0.0, 2: 0.0}
        if key in calls:
            for workers in rates:
                t0 = time.perf_counter()
                calls[key](workers)
                rates[workers] = cfg.n_paths * cfg.n_steps / (time.perf_counter() - t0)
        out[f"montecarlo.{key}_path_steps_per_s_w1"] = rates[1]
        out[f"montecarlo.{key}_path_steps_per_s_w2"] = rates[2]
        out[f"montecarlo.{key}_scaling_eff"] = rates[2] / (2 * rates[1]) if rates[1] else 0.0
    return out


def fk_half_steps(workload, inputs: dict, seed: int) -> tuple[float, float]:
    """FK estimate at half the workload's steps, on the same random streams."""
    from fpkit.boundary import parse_boundary
    from fpkit.montecarlo import MCConfig, bessel_bridge_fk

    cfg = MCConfig(inputs["paths"], inputs["steps"] // 2, seed)
    est = bessel_bridge_fk(parse_boundary(workload.boundary), inputs["x0"], cfg,
                           inputs["threads"])
    return est.mean, est.std_error


@dataclass
class OpStats:
    attempted: int = 0
    failed: int = 0
    untraced: list = field(default_factory=list)  # wall seconds
    traced: list = field(default_factory=list)
    cpu_util: list = field(default_factory=list)  # of the untraced ops
    per_op: list = field(default_factory=list)  # layer metrics of the traced ops

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            print(f"op {self.attempted} failed: {problem}", file=sys.stderr)


def run_ops(runner: Runner, workload, context: dict, seconds: float,
            tracer: Tracer | None) -> OpStats:
    """One warm-up op, then ops until ``seconds`` have passed and each kind
    has MIN_OPS samples; with a tracer, untraced and traced ops alternate.
    Every op, the warm-up included, is gated against the warm-up's outputs."""
    stats = OpStats()
    _, _, first, _ = runner.op()
    stats.count(gate(workload, first, first, context))
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(stats.untraced) < MIN_OPS or (
            tracer is not None and len(stats.traced) < MIN_OPS):
        use_tracer = tracer if len(stats.traced) < len(stats.untraced) else None
        wall, cpu, output, span = runner.op(use_tracer)
        stats.count(gate(workload, output, first, context))
        if span is None:
            stats.untraced.append(wall)
            stats.cpu_util.append(cpu / wall)
        else:
            stats.traced.append(wall)
            stats.per_op.append({**layer_metrics(tracer, span),
                                 "cli.output_bytes": output.nbytes})
    return stats


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    return next((p for p in (99.9, 99.0, 95.0, 90.0, 50.0) if n * (1 - p / 100) >= 10), None)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "fpkit" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of an fpkit checkout "
              "(needs src/fpkit and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fpkit.cli as cli
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: fpkit imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = derive_seed(args.seed)
    out_root = root / ".bench_out"
    op_dir = out_root / workload.name
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    argv = workload.argv(seed, str(op_dir.relative_to(root)), args.smoke)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name}: fpkit {' '.join(argv)}")

    metrics: dict[str, float] = {}
    probes = 1 if args.smoke else (IMPORT_PROBES if args.trace else SETUP_PROBES)
    if args.trace:
        splits = [import_split(src) for _ in range(probes)]
        metrics.update({k: statistics.median(s[k] for s in splits) for k in splits[0]})
    else:
        metrics["setup_s"] = statistics.median(setup_seconds(src) for _ in range(probes))

    context: dict = {}
    inputs = mc_inputs(workload, args.smoke) if workload.is_mc else None
    if inputs is not None:
        context["paths"] = inputs["paths"]
        if workload.command == "simulate":
            context["fk_half"] = fk_half_steps(workload, inputs, seed)

    tracer = Tracer() if args.trace else None
    ops = run_ops(Runner(cli, argv, op_dir), workload, context, args.seconds, tracer)
    untraced, traced = ops.untraced, ops.traced
    # op_s is the fastest timed op.  On a shared host, contention from other
    # tenants comes in phases of tens of seconds that slow every op in them
    # by up to ~1.5x, so the median of a run moves with the share of the run
    # that falls in such a phase; the fastest op barely does.  The median and
    # the tail are printed with it.
    op_s = min(untraced)
    if args.trace:
        metrics.update({k: statistics.median(op[k] for op in ops.per_op)
                        for k in ops.per_op[0]})
        metrics["proc.cpu_util"] = statistics.median(ops.cpu_util)
        metrics["trace.overhead_s"] = min(traced) - op_s
        metrics.update(direct_mc(workload, inputs, seed))
        spans_path = out_root / f"{workload.name}-spans.json"
        spans_path.write_text(json.dumps(tracer.to_json()) + "\n")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(root)}")
        print(f"fastest traced op {min(traced):.4f} s of {len(traced)}; "
              f"fastest untraced op {op_s:.4f} s of {len(untraced)}")
    else:
        metrics["op_s"] = op_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail = tail_percentile(len(untraced))
        tail_note = (f"p{tail:g} {np.percentile(untraced, tail):.4f} s" if tail
                     else "under 20 ops: no percentile has 10 samples beyond it")
        print(f"op times: {len(untraced)} timed ops after 1 warm-up; fastest {op_s:.4f} s, "
              f"median {statistics.median(untraced):.4f} s; {tail_note}")
        print("op times (s): " + " ".join(f"{w:.3f}" for w in untraced))
    attempted, failed = ops.attempted, ops.failed
    print(f"failed_share {failed / attempted:g} ({failed} of {attempted} ops, warm-up included)")

    missing, extra = set(units) - set(metrics), set(metrics) - set(units)
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                           f"unlisted {sorted(extra)}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
