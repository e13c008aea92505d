import csv
import json

import numpy as np
import pytest

from fpkit.cli import build_parser, main
from fpkit.grids import read_field_csv
from fpkit.verify import TOLERANCES


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_kernels_row_count(tmp_path):
    rc = main(["kernels", "--t", "1", "--x", "-3:3:0.1", "--n", "0,1,2",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "kernels.csv")
    assert len(rows) == 183  # 61 x-values times 3 orders
    assert (tmp_path / "config.json").exists()


def test_kernels_rejects_singular_time(tmp_path):
    assert main(["kernels", "--t", "0", "--out", str(tmp_path)]) == 1


def test_kernels_rejects_order_cap(tmp_path):
    assert main(["kernels", "--t", "1", "--n", "13", "--out", str(tmp_path)]) == 1


def test_solution_outputs(tmp_path):
    rc = main(["solution", "--boundary", "s=1; fprime=0", "--out", str(tmp_path)])
    assert rc == 0
    kappa_rows = {float(r["x"]): float(r["value"]) for r in read_csv(tmp_path / "kappa.csv")}
    x_close = min(kappa_rows, key=lambda x: abs(x - 1.0))
    assert x_close == pytest.approx(1.0, abs=1e-12)
    assert kappa_rows[x_close] == pytest.approx(0.2419707245, rel=1e-9)
    assert (tmp_path / "w.csv").exists()


def test_solution_gamma_table(tmp_path):
    rc = main(["solution", "--boundary", "s=1; fprime=0.5,0.3", "--gamma", "0,1",
               "--grid", "0:0.9:4,0:2:5", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "w.csv")
    assert len(rows) == 20
    from fpkit.boundary import parse_boundary
    from fpkit.solutions import GammaPoly, closed_w_gamma
    b = parse_boundary("s=1; fprime=0.5,0.3")
    r = rows[7]
    assert float(r["value"]) == pytest.approx(
        closed_w_gamma(b, GammaPoly((0.0, 1.0)), float(r["t"]), float(r["x"])), rel=1e-15)


def test_solution_requires_boundary(tmp_path):
    assert main(["solution", "--out", str(tmp_path)]) == 1


def test_solution_grid_must_respect_horizon(tmp_path):
    rc = main(["solution", "--boundary", "s=1; fprime=0", "--grid", "0:0.99:5,0:2:5",
               "--out", str(tmp_path)])
    assert rc == 1


def test_verify_fast_exit_zero(tmp_path, capsys):
    rc = main(["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    residuals = json.loads((tmp_path / "residuals.json").read_text())
    assert residuals["backward_closed_w"]["max_rel"] > 0
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    assert "inequality_t0" in diagnostics


def test_verify_rejects_tiny_grid(tmp_path):
    rc = main(["verify", "--boundary", "s=1; fprime=0.5,0.3",
               "--grid", "0:0.9:3,0.05:3:8", "--out", str(tmp_path)])
    assert rc == 1  # residual preconditions need nt, nx >= 5


@pytest.mark.parametrize("argv", [
    ["verify", "--boundary", "s=1; fprime=0", "--grid", "0:0.99:10,0.05:3:10"],
    # a valid residual grid, but the default transform grid reaches t = 0.9 > s
    ["verify", "--boundary", "s=0.6; fprime=0", "--grid", "0:0.5:10,0.05:3:10"],
    ["verify", "--boundary", "s=1; fprime=0", "--transform-grid", "0:0.96:10,0:3:11"],
    ["verify", "--boundary", "s=1; fprime=0", "--field", "missing.csv"],
    ["transform", "--boundary", "s=1; fprime=0", "--grid", "0:0.99:10,0:3:11"],
    ["solution", "--boundary", "s=1; fprime=0", "--grid", "0:0.99:10,0:3:11"],
    ["solution", "--boundary", "s=1; fprime=0", "--config", "grid_number.json"],
])
def test_rejected_run_creates_no_out_dir(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid_number.json").write_text('{"grid": 5}')
    assert main(argv + ["--out", "out"]) == 1
    assert not (tmp_path / "out").exists()


def test_verify_corrupted_field_fails_with_report(tmp_path):
    out1 = tmp_path / "good"
    rc = main(["transform", "--boundary", "s=1; fprime=0.5,0.3",
               "--grid", "0:0.9:46,0:3:39", "--out", str(out1)])
    assert rc == 0
    field = read_field_csv(out1 / "w_transform.csv")
    corrupted = field.values.copy()
    corrupted[field.spec.nt // 2, field.spec.nx // 2] *= 3.0
    from fpkit.grids import GridField, write_field_csv
    bad_path = tmp_path / "bad.csv"
    write_field_csv(bad_path, GridField(field.spec, corrupted))
    out2 = tmp_path / "check"
    rc = main(["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast",
               "--field", str(bad_path), "--out", str(out2)])
    assert rc == 2
    residuals = json.loads((out2 / "residuals.json").read_text())
    assert residuals["external_field_backward"]["max_rel"] > 1e-2


def test_verify_fast_judges_external_field_at_unscaled_tolerance(tmp_path, capsys):
    # the uncorrupted transform field measures max_rel ~2.6e-4: inside the 20x
    # --fast tolerance of the sampled grid, outside tol_backward = 1e-4
    src = tmp_path / "good"
    assert main(["transform", "--boundary", "s=1; fprime=0.5,0.3",
                 "--grid", "0:0.9:46,0:3:39", "--out", str(src)]) == 0
    capsys.readouterr()
    out = tmp_path / "check"
    rc = main(["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast",
               "--field", str(src / "w_transform.csv"), "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL external field residual: max_rel=")
    assert failed[0].endswith(" tol=1.0e-04")
    checks = json.loads((out / "checks.json").read_text())
    assert [c["name"] for c in checks] == [line.split(" ", 1)[1].split(":")[0]
                                           for line in lines]
    assert [c["passed"] for c in checks] == [line.startswith("PASS ") for line in lines]
    for c in checks:
        assert c["margin"] == c["tol"] - c["value"]


def test_verify_fast_outputs_byte_identical(tmp_path):
    args = ["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["checks.json", "config.json", "diagnostics.json", "residuals.json"]
    assert sorted(p.name for p in out2.iterdir()) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_tolerance_flags_match_table():
    args = build_parser().parse_args(["verify"])
    assert [k for k in vars(args) if k.startswith("tol_")] == list(TOLERANCES)


def test_transform_writes_field_and_residual(tmp_path):
    rc = main(["transform", "--boundary", "s=1; fprime=1", "--lam", "0",
               "--grid", "0:0.9:46,0:3:39", "--out", str(tmp_path)])
    assert rc == 0
    field = read_field_csv(tmp_path / "w_transform.csv")
    assert field.spec.nx % 2 == 1
    residuals = json.loads((tmp_path / "residuals.json").read_text())
    assert residuals["backward_transform_w"]["max_rel"] <= 1e-3


def test_simulate_deterministic_outputs(tmp_path):
    args = ["simulate", "--boundary", "s=1; fprime=0", "--x0", "1",
            "--paths", "30000", "--steps", "120", "--seed", "42", "--threads", "1"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("fpt_histogram.csv", "comparison.csv", "feynman_kac.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _outputs_per_thread_count(tmp_path, argv, names):
    outs = {}
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}"
        assert main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
        outs[threads] = [(out / name).read_bytes() for name in names]
    return outs


def test_simulate_threads_do_not_change_outputs(tmp_path):
    # 30000 paths: four 8,192-path stream blocks, the last one short
    base = ["simulate", "--boundary", "s=1; fprime=0.5,0.3", "--x0", "1",
            "--paths", "30000", "--steps", "80", "--seed", "6"]
    outs = _outputs_per_thread_count(
        tmp_path, base, ("fpt_histogram.csv", "comparison.csv", "feynman_kac.json"))
    assert outs[1] == outs[2] == outs[3]


def test_compare_threads_do_not_change_outputs(tmp_path):
    base = ["compare", "--boundary", "s=1; fprime=0", "--x0", "1",
            "--paths", "20001", "--steps", "60", "--seed", "8", "--antithetic"]
    outs = _outputs_per_thread_count(tmp_path, base, ("comparison.csv",))
    assert outs[1] == outs[2] == outs[3]


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_mc_rejects_nonpositive_threads(tmp_path, command, threads):
    rc = main([command, "--boundary", "s=1; fprime=0", "--paths", "100", "--steps", "10",
               "--threads", threads, "--out", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / "config.json").exists()


def test_simulate_rejects_zero_paths(tmp_path):
    rc = main(["simulate", "--boundary", "s=1; fprime=0", "--paths", "0",
               "--out", str(tmp_path)])
    assert rc == 1


def test_compare_fixed_level_columns(tmp_path):
    rc = main(["compare", "--boundary", "s=1; fprime=0", "--x0", "1",
               "--paths", "20000", "--steps", "100", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "comparison.csv")
    assert len(rows) == 20
    # fixed level: the kappa density is t * h(t, x0), strictly below the
    # reference density h on [0, 1); cross-check each bin mass against an
    # independent trapezoid integration
    from fpkit.kernels import derived_kernel
    for r in rows:
        kap, ref = float(r["kappa"]), float(r["reference"])
        assert kap < ref
        ts = np.linspace(max(float(r["bin_lo"]), 1e-9), float(r["bin_hi"]), 2001)
        oracle = np.trapezoid(ts * derived_kernel(ts, 1.0), ts)
        assert kap == pytest.approx(oracle, rel=1e-5, abs=1e-12)


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "boundary": {"s": 1.0, "fprime": [0.0]},
        "paths": 5000, "steps": 80, "seed": 9, "x0": 1.0, "bins": 10,
    }))
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(cfg_path), "--seed", "10", "--out", str(out)])
    assert rc == 0
    sidecar = json.loads((out / "config.json").read_text())
    assert sidecar["seed"] == 10  # flag wins
    assert sidecar["paths"] == 5000


def test_unknown_bad_config_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["compare", "--config", str(bad), "--out", str(tmp_path)]) == 1
