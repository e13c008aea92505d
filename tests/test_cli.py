import csv
import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("argv", [
    ["verify", "--boundary", "s=1; fprime=0", "--grid", "0:0.99:10,0.05:3:10"],
    # a valid residual grid, but the default transform grid reaches t = 0.9 > s
    ["verify", "--boundary", "s=0.6; fprime=0", "--grid", "0:0.5:10,0.05:3:10"],
    ["verify", "--boundary", "s=1; fprime=0", "--transform-grid", "0:0.96:10,0:3:11"],
    ["verify", "--boundary", "s=1; fprime=0", "--field", "missing.csv"],
    ["transform", "--boundary", "s=1; fprime=0", "--grid", "0:0.99:10,0:3:11"],
    ["solution", "--boundary", "s=1; fprime=0", "--grid", "0:0.99:10,0:3:11"],
    ["solution", "--boundary", "s=1; fprime=0", "--config", "grid_number.json"],
    # passes _parse_grid; the residual preconditions need nt, nx >= 5
    ["verify", "--boundary", "s=1; fprime=0", "--grid", "0:0.9:3,0.05:3:8"],
    ["verify", "--boundary", "s=1; fprime=0", "--field", "three_columns.csv"],
    ["kernels", "--t", "1:2"],
    ["kernels", "--x", "3:-3:0.1"],
    ["kernels", "--x", "-3:3:0"],
    ["kernels", "--x", "inf", "--n", "0"],
    ["kernels", "--config", "list.json"],
    ["solution", "--boundary", '{"s": 1, "fprime": [0.5'],
    ["solution", "--boundary", "s=1; fprime=0.5,nan"],
    ["simulate", "--boundary", "s=1; fprime=0", "--paths", "10", "--steps", "10",
     "--bins", "0"],
])
def test_rejected_run_creates_no_out_dir(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid_number.json").write_text('{"grid": 5}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "three_columns.csv").write_text("t,x,re\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n")
    assert main(argv + ["--out", "out"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    # u at x = 800 overflows float64
    ["transform", "--boundary", "s=1; fprime=1", "--lam", "1.5", "--grid", "0:0.5:5,0:800:11"],
    # closed w at t = 0, x = -35 on f' = 70t is ~exp(816)
    ["solution", "--boundary", "s=1; fprime=0,70", "--grid", "0:0.5:5,-35:0:8"],
    # g_12 ~ (x/t)^12 = 1e360 against a Gaussian of exp(-5e29)
    ["kernels", "--t", "1e-30", "--x", "1", "--n", "12"],
], ids=["transform", "solution", "kernels"])
def test_numerical_failure_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert "not a finite float64" in capsys.readouterr().err
    assert not out.exists()


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
            "--paths", "20001", "--steps", "60", "--seed", "8"]
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


@pytest.mark.parametrize("argv", [
    ["kernels"],
    ["solution", "--boundary", "s=1; fprime=0.5,0.3"],
    ["verify", "--boundary", "s=1; fprime=0.5,0.3", "--fast", "--seed", "7",
     "--transform-grid", "0:0.9:226,0:3:151", "--tol-quadrature", "0.5"],
    ["transform", "--boundary", "s=1; fprime=0.5,0.3", "--lam", "1.5"],
    ["simulate", "--boundary", "s=1; fprime=0.5,0.3", "--paths", "3001", "--steps", "40",
     "--threads", "2"],
    ["compare", "--boundary", "s=1; fprime=0", "--paths", "3001", "--steps", "40",
     "--threads", "2"],
], ids=lambda argv: argv[0])
def test_sidecar_replays_the_run(tmp_path, capsys, argv):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(argv + ["--out", str(first)]) == 0
    stdout = capsys.readouterr().out
    assert main([argv[0], "--config", str(first / "config.json"), "--out", str(replay)]) == 0
    assert capsys.readouterr().out == stdout
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in replay.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (replay / name).read_bytes(), name


def test_config_null_takes_the_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t": None, "x": "0:1:0.5", "n": None}))
    out = tmp_path / "out"
    assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
    sidecar = json.loads((out / "config.json").read_text())
    assert sidecar == {"command": "kernels", "t": "1", "x": "0:1:0.5", "n": [0, 1]}
    assert len(read_csv(out / "kernels.csv")) == 6


def test_flag_values_may_start_with_minus(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["transform", "--boundary", "s=1; fprime=0", "--lam", "-1e-3",
                 "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["lam"] == -0.001
    capsys.readouterr()
    assert main(["simulate", "--boundary", "s=1; fprime=0", "--x0", "-1e-2",
                 "--out", str(tmp_path / "m")]) == 1
    assert "x0 must be positive" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command, config, key", [
    ("compare", {"boundary": {"s": 1.0, "fprime": [0.0]}, "path": 500}, "path"),
    ("kernels", {"boundary": "s=1; fprime=0", "t": "1"}, "boundary"),
    ("simulate", {"command": "simulate", "boundary": "s=1; fprime=0", "paths": 3000,
                  "antithetic": False}, "antithetic"),  # a sidecar holding the removed switch
], ids=["compare-path", "kernels-boundary", "simulate-antithetic"])
def test_config_key_that_no_option_reads_is_rejected(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"config key(s) {key} name no {command} option" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config", [
    ("solution", {"gamma": 1.0}),
    ("compare", {"paths": [1]}),
    ("verify", {"fast": "false"}),
    ("compare", {"paths": 3000.7}),
], ids=["gamma-number", "paths-list", "fast-string", "paths-fraction"])
def test_config_value_its_converter_rejects_or_changes_is_rejected(tmp_path, capsys,
                                                                   command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"boundary": "s=1; fprime=0", **config}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    (key,) = config
    assert f"error: config key {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_value_preserving_config_values_run(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"boundary": "s=1; fprime=0", "seed": 7.0, "x0": 1,
                               "paths": 3000, "steps": 40}))
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    sidecar = json.loads((tmp_path / "out" / "config.json").read_text())
    assert (sidecar["seed"], sidecar["x0"]) == (7, 1.0)


def test_commands_never_load_scipy(tmp_path):
    # a fresh interpreter: the test process itself may have loaded scipy
    probe = (
        "import sys, fpkit, fpkit.cli\n"
        "rc = fpkit.cli.main(['compare', '--boundary', 's=1; fprime=0', '--paths', '3000',\n"
        "                     '--steps', '40', '--out', sys.argv[1]])\n"
        "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"


def test_unknown_bad_config_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["compare", "--config", str(bad), "--out", str(tmp_path)]) == 1
