import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpkit.cli as cli
from fpkit import montecarlo as mc
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


def test_kernels_ranges_stop_at_their_end(tmp_path):
    # a step that does not divide b - a stops at the last node before b: 0:1:0.6
    # is 0 and 0.6, not 1.2, and 0.5:1:0.3 is 0.5 and 0.8, not 1.1
    assert main(["kernels", "--t", "0.5:1:0.3", "--x", "0:1:0.6", "--n", "0",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "kernels.csv")
    assert [(float(r["t"]), float(r["x"])) for r in rows] == [
        (0.5, 0.0), (0.5, 0.6), (0.8, 0.0), (0.8, 0.6)]
    assert cli._parse_range("-3:3:0.1").size == 61


@pytest.mark.parametrize("flags, t, x, orders", [
    ([], "1", "-3:3:0.1", (0, 1)),
    (["--t", "0.5:1:0.25", "--x", "-1:1:0.5", "--n", "0,2"], "0.5:1:0.25", "-1:1:0.5", (0, 2)),
], ids=["defaults", "multi-t"])
def test_kernels_csv_is_the_row_list_file_written_from_an_iterator(tmp_path, monkeypatch,
                                                                   flags, t, x, orders):
    # kernels.csv holds the bytes that a list of (t, x, n, value) rows, built
    # from each kernel_n call, wrote; write_csv receives the rows as an
    # iterator, so they are made as they are written and never held
    from fpkit.grids import write_csv
    from fpkit.kernels import kernel_n
    received = []

    def recording(path, header, rows):
        received.append(rows)
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", recording)
    assert main(["kernels", *flags, "--out", str(tmp_path / "k")]) == 0
    assert len(received) == 1 and iter(received[0]) is received[0]
    rows, x_vals = [], cli._parse_range(x)
    for t_val in cli._parse_range(t):
        for n in orders:
            vals = np.atleast_1d(kernel_n(n, float(t_val), x_vals))
            rows.extend((t_val, x_val, n, v) for x_val, v in zip(x_vals, vals))
    write_csv(tmp_path / "rows.csv", "t,x,n,value", rows)
    assert (tmp_path / "k" / "kernels.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_array_past_memory_is_one_error_line(tmp_path, capsys):
    # 0:1:1e-15 asks numpy for 10^15 + 1 nodes, 7.11 PiB: no address space
    # holds them, so the allocation fails at once
    out = tmp_path / "k"
    assert main(["kernels", "--x", "0:1:1e-15", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_kernels_rejects_singular_time(tmp_path, capsys):
    # kernel_n's own refusals; the CSV is written only after every t and n
    out = tmp_path / "k"
    assert main(["kernels", "--t", "0", "--out", str(out)]) == 1
    assert "kernel time must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_kernels_rejects_order_cap(tmp_path, capsys):
    out = tmp_path / "k"  # order 0 is taken before 13 is refused
    assert main(["kernels", "--t", "1", "--n", "0,13", "--out", str(out)]) == 1
    assert "kernel order must be in [0, 12]" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_solution_streams_w_csv_below_55mb(tmp_path):
    # the child reads its own high-water mark, VmHWM.  A list of every
    # (t, x, value) row of this 301 x 1001 grid peaked at 73 MB; rows made
    # as they are written hold w alone, 43 MB
    probe = (
        "import sys\n"
        "from fpkit.cli import main\n"
        "rc = main(['solution', '--boundary', 's=1; fprime=0.5,0.3', '--gamma', '0,1',\n"
        "           '--grid', '0:0.8:301,0:3:1001', '--out', sys.argv[1]])\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(rc, hwm)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True)
    rc, max_rss_kb = map(int, run.stdout.splitlines()[-1].split())
    assert rc == 0
    assert max_rss_kb / 1024 < 55.0


@pytest.mark.parametrize("argv", [
    ["solution", "--gamma", "nan"],
    ["solution", "--gamma", "0,inf"],
    ["transform", "--lam", "nan"],
    ["transform", "--lam", "inf"],
    ["transform", "--lam", "-inf"],
], ids=["gamma-nan", "gamma-inf", "lam-nan", "lam-inf", "lam-minus-inf"])
def test_non_finite_gamma_or_lam_is_a_usage_error(tmp_path, capsys, argv):
    # refused before anything is sampled, not as a closed form's exit 3
    out = tmp_path / "o"
    assert main([*argv, "--boundary", "s=1; fprime=0.5,0.3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


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
    ["simulate", "--boundary", "s=1; fprime=0.5,0.3", "--paths", "10", "--steps", "10",
     "--x0", "nan"],
    ["compare", "--boundary", "s=1; fprime=0.5,0.3", "--paths", "10", "--steps", "10",
     "--x0", "nan"],
])
def test_rejected_run_creates_no_out_dir(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid_number.json").write_text('{"grid": 5}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "three_columns.csv").write_text("t,x,re\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n")
    assert main(argv + ["--out", "out"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--seed", "-3"], "--seed"),
    (["verify", "--grid", "0:0.9:4,0.05:3:61"], "--grid"),
    (["verify", "--transform-grid", "0:0.9:91,0:3:3"], "--transform-grid"),
    (["transform", "--grid", "0:0.9:91,0:3:3"], "--grid"),
], ids=["verify-seed", "verify-grid", "verify-transform-grid", "transform-grid"])
def test_bad_verify_and_transform_inputs_fail_before_sampling(tmp_path, monkeypatch, capsys,
                                                              argv, flag):
    # rejected with the flag's name before any field is sampled, where numpy's
    # or the stencil's own error would name neither
    def never(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(cli, "run_checks", never)
    monkeypatch.setattr(cli, "sample_field", never)
    out = tmp_path / "out"
    argv = argv[:1] + ["--boundary", "s=1; fprime=0.5,0.3"] + argv[1:] + ["--out", str(out)]
    assert main(argv) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, cause", [
    (["verify", "--grid", "0:0.9:2,0.05:3:61"], "--grid", "nt, nx >= 3, got 2x61"),
    (["verify", "--grid", "0:0.9:91,3:0.05:61"], "--grid", "extents must be increasing"),
    (["transform", "--grid", "0:0.9:91,0:3:2"], "--grid", "nt, nx >= 3, got 91x2"),
    (["solution", "--grid", "0:0.9:91,3:0.05:61"], "grid", "extents must be increasing"),
    (["verify", "--grid", "0:0.9:91,0.05:inf:61"], "--grid", "extents must be finite"),
    (["verify", "--grid", "0:0.9:91,-inf:3:61"], "--grid", "extents must be finite"),
    (["verify", "--grid", "0:nan:91,0.05:3:61"], "--grid", "extents must be finite"),
    (["transform", "--grid", "0:0.9:91,0:inf:61"], "--grid", "extents must be finite"),
    (["solution", "--grid", "0:0.9:11,0:inf:31"], "grid", "extents must be finite"),
], ids=["verify-nt", "verify-extents", "transform-nx", "solution-extents", "verify-inf",
        "verify-minus-inf", "verify-nan", "transform-inf", "solution-inf"])
def test_grid_refused_by_gridspec_names_the_flag_and_cause(tmp_path, capsys, argv, flag,
                                                           cause):
    # a grid that parses but that GridSpec refuses is reported with its own
    # cause, not as a malformed 'tmin:tmax:nt,xmin:xmax:nx'
    out = tmp_path / "out"
    argv = argv[:1] + ["--boundary", "s=1; fprime=0.5,0.3"] + argv[1:] + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} '{argv[4]}': ")
    assert cause in err and "tmin:tmax:nt" not in err
    assert not out.exists()


def test_verify_takes_large_seeds(tmp_path, monkeypatch):
    seeds = []

    def record(b, spec, tspec, tols, seed, *args, **kwargs):
        seeds.append(seed)
        return [], {}, {}

    monkeypatch.setattr(cli, "run_checks", record)
    assert main(["verify", "--boundary", "s=1; fprime=0", "--seed", str(2 ** 70),
                 "--out", str(tmp_path)]) == 0
    assert seeds == [2 ** 70]


@pytest.mark.parametrize("argv", [
    # u at x = 800 overflows float64
    ["transform", "--boundary", "s=1; fprime=1", "--lam", "1.5", "--grid", "0:0.5:5,0:800:11"],
    # closed w at t = 0, x = -35 on f' = 70t is ~exp(816)
    ["solution", "--boundary", "s=1; fprime=0,70", "--grid", "0:0.5:5,-35:0:8"],
    # at x = 0, g_12 = 10395 / t^6 = 1e292 against a Gaussian of 4e23
    ["kernels", "--t", "1e-48", "--x", "0", "--n", "12"],
    # the sweep runs; FK's weights exp(-int f'' R) are ~exp(1.5e9)
    ["simulate", "--boundary", "s=1; fprime=0.5,-0.3", "--x0", "1e10", "--paths", "1000",
     "--steps", "10"],
    # closed w on the residual grid, as for solution
    ["verify", "--boundary", "s=1; fprime=0,70", "--grid", "0:0.5:5,-35:0:8",
     "--transform-grid", "0:0.5:5,0:3:5"],
], ids=["transform", "solution", "kernels", "simulate", "verify"])
def test_numerical_failure_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert "not a finite float64" in capsys.readouterr().err
    assert not out.exists()


def test_kernels_that_are_zero_in_float64_give_zero(tmp_path):
    # g_12 ~ (x/t)^12 = 1e360, or x/t itself, overflows while the Gaussian
    # is 0: the kernel is 0, not refused
    from fpkit.kernels import derived_kernel, kernel_n

    assert kernel_n(12, 1e-30, 1.0) == 0.0
    assert derived_kernel(5e-324, 1.0) == 0.0
    assert main(["kernels", "--t", "1e-30", "--x", "1", "--n", "12",
                 "--out", str(tmp_path)]) == 0
    assert [float(row["value"]) for row in read_csv(tmp_path / "kernels.csv")] == [0.0]


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


def test_verify_refuses_a_field_with_a_nan(tmp_path, capsys):
    # read in, the NaN would reach checks.json as "value": NaN, which is not JSON
    path = tmp_path / "nan.csv"
    path.write_text("t,x,re,im\n" + "".join(
        f"{t / 10},{x / 2},{'nan' if t == x == 2 else 1},0\n" for t in range(5) for x in range(5)))
    out = tmp_path / "check"
    assert main(["verify", "--boundary", "s=1; fprime=0", "--fast", "--field", str(path),
                 "--out", str(out)]) == 1
    assert "cannot read field CSV" in capsys.readouterr().err
    assert not out.exists()


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


def test_simulate_records_the_requested_steps(tmp_path):
    # at 200 paths the sweep takes one 8-chord stride of 400 on the curved
    # level and FK 16 intervals, the rules' floors, but config.json keeps
    # the --steps that was asked for, and feynman_kac.json, which holds FK's
    # estimate alone, the intervals that FK took (none for a constant f')
    for boundary, intervals in (("s=1; fprime=0.5,0.3", 16), ("s=1; fprime=0.5", 0)):
        out = tmp_path / str(intervals)
        assert main(["simulate", "--boundary", boundary, "--paths", "200",
                     "--steps", "400", "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["steps"] == 400
        fk = json.loads((out / "feynman_kac.json").read_text())
        assert set(fk) == {"mean", "std_error", "n_paths", "intervals", "seed"}
        assert (fk["n_paths"], fk["intervals"], fk["seed"]) == (200, intervals, 42)


@pytest.mark.parametrize("paths, intervals", [(50000, 24), (1000000, 32)])
def test_simulate_records_the_intervals_that_fk_stepped(paths, intervals, tmp_path,
                                                        monkeypatch):
    # feynman_kac.json's intervals must be the mesh that FK took f'' on,
    # which follows --paths; each estimator steps only the first block's
    # paths, so the 1M-path run stays cheap while both rules see --paths
    seen = []
    original_mesh, original_blocks = mc._graded_mesh, mc._run_blocks

    def mesh(s, m):
        seen.append(m)
        return original_mesh(s, m)

    def first_block(worker, seed, n_paths, n_workers):
        return original_blocks(worker, seed, min(n_paths, mc.BLOCK_SIZE), n_workers)

    monkeypatch.setattr(mc, "_graded_mesh", mesh)
    monkeypatch.setattr(mc, "_run_blocks", first_block)
    assert main(["simulate", "--boundary", "s=1; fprime=0.5,0.3", "--paths", str(paths),
                 "--steps", "800", "--out", str(tmp_path)]) == 0
    fk = json.loads((tmp_path / "feynman_kac.json").read_text())
    assert seen == [fk["intervals"]] == [intervals]


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


def test_simulate_far_start_exits_3_without_output(tmp_path, capsys):
    # at x0 = 1e200 the sweep's float32 level and FK's squared radius both
    # overflow: the run is refused before --out is made, so no NaN is written
    out = tmp_path / "out"
    assert main(["simulate", "--boundary", "s=1; fprime=0.5,0.3", "--x0", "1e200",
                 "--paths", "1000", "--steps", "10", "--out", str(out)]) == 3
    assert "float32 sweep" in capsys.readouterr().err
    assert not out.exists()


def test_compare_far_start_exits_3_without_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "--boundary", "s=1; fprime=0.5,0.3", "--x0", "1e200",
                 "--paths", "1000", "--steps", "10", "--out", str(out)]) == 3
    assert "float32 sweep" in capsys.readouterr().err
    assert not out.exists()


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


def test_failed_verify_sidecar_replays_with_exit_2(tmp_path, capsys):
    # a run that misses a tolerance still writes config.json, after its outputs
    first, replay = tmp_path / "first", tmp_path / "replay"
    argv = ["verify", "--boundary", "s=1; fprime=0.5,0.3", "--grid", "0:0.9:47,0.05:3:61",
            "--transform-grid", "0:0.9:91,0:3:61"]
    assert main(argv + ["--out", str(first)]) == 2
    run = capsys.readouterr()
    assert "FAIL " in run.out
    assert run.err.startswith("assertion failure: ")
    assert main(["verify", "--config", str(first / "config.json"), "--out", str(replay)]) == 2
    assert capsys.readouterr() == run
    names = sorted(p.name for p in first.iterdir())
    assert names == ["checks.json", "config.json", "diagnostics.json", "residuals.json"]
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
