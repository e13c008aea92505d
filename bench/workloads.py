"""The benchmark's workloads: which fpkit command each runs, at what size,
and the output gates that decide whether an op succeeded.

Every op of a run uses the same derived seed, so the outputs of all ops in
a run must be byte-identical; a gate compares each op against the first.
Gates run outside the timed region.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

CURVED = "s=1; fprime=0.5,0.3"
FIXED = "s=1; fprime=0"

#: lower bound on the chi-square p-value of the fixed-level sweep
CHI2_P_MIN = 1e-3
#: FK mean at N steps must lie within this many combined sigmas of N/2 steps
FK_SIGMAS = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    boundary: str
    flags: tuple[tuple[str, str], ...]  # "" marks a flag without a value
    smoke_flags: tuple[tuple[str, str], ...]  # overrides for --smoke

    def sized_flags(self, smoke: bool) -> dict[str, str]:
        flags = dict(self.flags)
        if smoke:
            flags.update(self.smoke_flags)
        return flags

    def argv(self, seed: int, out: str, smoke: bool) -> list[str]:
        argv = [self.command, "--boundary", self.boundary]
        for flag, value in self.sized_flags(smoke).items():
            argv += [flag] if value == "" else [flag, value]
        return argv + ["--seed", str(seed), "--out", out]

    @property
    def is_mc(self) -> bool:
        return self.command in ("compare", "simulate")


# verify exercises the closed forms, sample_field, residual stencils, the
# transform engine and quadrature, and never runs MC.  fpt and simulate use
# the same MC layer in opposite ways: fpt is the fixed-level sweep on two
# 65,536-path RNG blocks (both workers busy, exact oracle), simulate is
# FK-dominated on a curved level with one block (the second worker idles),
# so a block-size or FK change that helps one and costs the other shows.
WORKLOADS = {w.name: w for w in (
    Workload(
        "verify", "verify", CURVED, (),
        (("--fast", ""), ("--transform-grid", "0:0.9:226,0:3:151"))),
    Workload(
        "fpt", "compare", FIXED,
        (("--x0", "1"), ("--paths", "131072"), ("--steps", "2000"), ("--threads", "2")),
        (("--paths", "4096"), ("--steps", "200"))),
    Workload(
        "simulate", "simulate", CURVED,
        (("--x0", "1"), ("--paths", "50000"), ("--steps", "800"), ("--threads", "2")),
        (("--paths", "2000"), ("--steps", "80"))),
)}


#: output files each workload's gate reads
REQUIRED = {
    "verify": ("residuals.json", "diagnostics.json", "config.json"),
    "fpt": ("comparison.csv", "config.json"),
    "simulate": ("fpt_histogram.csv", "comparison.csv", "feynman_kac.json", "config.json"),
}


def mc_inputs(workload: Workload, smoke: bool) -> dict:
    """x0, paths, steps, threads of an MC workload, as the CLI reads them."""
    flags = workload.sized_flags(smoke)
    return {"x0": float(flags["--x0"]), "paths": int(flags["--paths"]),
            "steps": int(flags["--steps"]), "threads": int(flags["--threads"])}


@dataclass
class OpOutput:
    rc: int | None
    stdout: str
    files: dict[str, bytes]

    @property
    def nbytes(self) -> int:
        return len(self.stdout.encode()) + sum(len(b) for b in self.files.values())


def chi2_p_value(comparison_csv: bytes, n_paths: int) -> float:
    """Multinomial chi-square p-value of the empirical column against the
    exact reference column; the never-crossed mass is one more cell."""
    rows = np.loadtxt(io.BytesIO(comparison_csv), delimiter=",", skiprows=1, ndmin=2)
    empirical, reference = rows[:, 2], rows[:, 4]
    observed = np.append(empirical, 1.0 - empirical.sum()) * n_paths
    expected = np.append(reference, 1.0 - reference.sum()) * n_paths
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(chi2.sf(stat, empirical.size))


def fk_gap_problem(fk_json: bytes, half_mean: float, half_se: float) -> str | None:
    """None when the FK mean is finite and within FK_SIGMAS combined standard
    errors of the half-step estimate, else a description of the miss."""
    fk = json.loads(fk_json)
    mean, se = float(fk["mean"]), float(fk["std_error"])
    if not (math.isfinite(mean) and math.isfinite(half_mean)):
        return f"FK mean not finite: {mean} (half steps: {half_mean})"
    gap, combined = abs(mean - half_mean), math.hypot(se, half_se)
    if gap > FK_SIGMAS * combined:
        return f"FK N-vs-N/2 gap {gap:.3e} > {FK_SIGMAS:g} x {combined:.3e}"
    return None


def gate(workload: Workload, op: OpOutput, first: OpOutput, context: dict) -> list[str]:
    """Problems with one op's outputs; an empty list means the op succeeded.

    ``context`` carries run-level inputs: ``paths`` for the chi-square and
    ``fk_half`` = (mean, std_error) of the half-step FK run for simulate.
    """
    if op.rc != 0:
        return [f"exit code {op.rc}"]
    missing = [name for name in REQUIRED[workload.name] if name not in op.files]
    if missing:
        return [f"missing outputs {missing}"]
    problems = [f"{name} differs from the first op"
                for name in sorted(set(first.files) | set(op.files))
                if op.files.get(name) != first.files.get(name)]
    if workload.name == "verify":
        lines = op.stdout.splitlines()
        if not lines or any(not line.startswith("PASS ") for line in lines):
            problems.append("not every verification check printed PASS")
    elif workload.name == "fpt":
        p = chi2_p_value(op.files["comparison.csv"], context["paths"])
        if not p > CHI2_P_MIN:
            problems.append(f"chi-square p = {p:.3g} <= {CHI2_P_MIN:g}")
    elif workload.name == "simulate":
        problem = fk_gap_problem(op.files["feynman_kac.json"], *context["fk_half"])
        if problem:
            problems.append(problem)
    return problems
