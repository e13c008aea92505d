"""Property tests: every public closed form returns finite values only, or
refuses its input with NumericalError or its documented ValueError, on
wide inputs; and fuzzed ``kernels`` and ``solution`` configs exit 0, 1 or
3 and write no NaN or inf.  One fixed, derandomized profile keeps the
suite deterministic."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpkit.boundary import Boundary
from fpkit.cli import main
from fpkit.grids import NumericalError
from fpkit.kernels import MAX_ORDER, derived_kernel, heat_kernel, kernel_n
from fpkit.solutions import (MAX_GAMMA_DEGREE, GammaPoly, b2_first, b2_second, closed_w,
                             closed_w2_terms, closed_w_gamma, kappa, phi_lambda,
                             phi_lambda_planes, product_phi_u, u_lambda, w1_lambda, w2_lambda)

PROFILE = settings(derandomize=True, deadline=None, database=None, max_examples=80,
                   suppress_health_check=[HealthCheck.too_slow])

wide = st.floats(-1e3, 1e3)
horizons = st.floats(1e-3, 1e3)
fprimes = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5)  # degree <= 4
gammas = st.lists(wide, min_size=1, max_size=MAX_GAMMA_DEGREE + 1)
spaces = st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=3)


def finite_or_refused(fn, *args, documented=False):
    """fn(*args) is finite everywhere, or raises NumericalError, or raises
    ValueError where ``documented`` says the input is outside its domain."""
    try:
        out = fn(*args)
    except NumericalError:
        return
    except ValueError:
        assert documented, f"{fn.__name__}{args!r} raised an undocumented ValueError"
        return
    assert not documented, f"{fn.__name__}{args!r} accepted an input outside its domain"
    for value in out if isinstance(out, tuple) else (out,):
        assert value is None or np.all(np.isfinite(value)), f"{fn.__name__}{args!r} -> {out!r}"


@PROFILE
@given(st.integers(0, MAX_ORDER), st.floats(0.0, 1e3), spaces)
def test_kernels_are_finite_or_refused(n, t, xs):
    for x in (xs[0], np.array(xs)):
        finite_or_refused(kernel_n, n, t, x, documented=t == 0.0)
        for fn in (heat_kernel, derived_kernel):
            finite_or_refused(fn, t, x, documented=t == 0.0)


@PROFILE
@given(horizons, fprimes, st.floats(0.0, 1.0), spaces, wide, gammas)
def test_closed_forms_are_finite_or_refused(s, coeffs, share, xs, lam, gamma):
    b = Boundary(tuple(coeffs), s)
    t = min(share * s, s)
    near_horizon = s - t < 1e-9  # the kernels' t <= s - 1e-9 of w, w1, w2
    g = GammaPoly(tuple(gamma))
    for x in (xs[0], np.array(xs)):
        for fn in (phi_lambda, phi_lambda_planes, u_lambda, w1_lambda, w2_lambda):
            finite_or_refused(fn, b, lam, t, x,
                              documented=near_horizon and fn in (w1_lambda, w2_lambda))
        for fn in (closed_w, closed_w2_terms):
            finite_or_refused(fn, b, t, x, documented=near_horizon)
        finite_or_refused(closed_w_gamma, b, g, t, x, documented=near_horizon)
        finite_or_refused(kappa, b, np.abs(x))
        finite_or_refused(kappa, b, x, documented=bool(np.any(np.asarray(x) < 0.0)))
    finite_or_refused(product_phi_u, b, lam)
    for fn in (b2_first, b2_second):
        finite_or_refused(fn, b, lam, t)


def _run(command: str, config: dict) -> None:
    """``command`` on ``config``: exit 0, 1 or 3, and only finite CSV values."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1, 3), rc
        for csv in out.glob("*.csv"):
            text = csv.read_text()
            assert "nan" not in text and "inf" not in text, f"{csv.name} of {config!r}"


JUNK = st.sampled_from([None, "", "x", "1:2", "-1", "nan", "inf", "0:1:0", "3:1:1", 7,
                        [1, 2], {"a": 1}])


@st.composite
def ranges(draw, lo, hi, max_nodes):
    """``a:b:step`` (or one value) of at most ``max_nodes`` nodes in [lo, hi]."""
    a = draw(st.floats(lo, hi))
    nodes = draw(st.integers(1, max_nodes))
    if nodes == 1:
        return repr(a)
    step = draw(st.floats(1e-3, max((hi - a) / (nodes - 1), 1e-3)))
    return f"{a!r}:{a + step * (nodes - 1)!r}:{step!r}"


@PROFILE
@given(st.one_of(ranges(1e-40, 1e3, 3), JUNK), st.one_of(ranges(-1e3, 1e3, 4), JUNK),
       st.one_of(st.lists(st.integers(-1, MAX_ORDER + 1), min_size=1, max_size=3), JUNK))
def test_fuzzed_kernels_configs(t, x, n):
    _run("kernels", {"t": t, "x": x, "n": n})


@st.composite
def boundaries(draw):
    s, coeffs = draw(horizons), draw(fprimes)
    if draw(st.booleans()):
        return {"s": s, "fprime": coeffs}
    return f"s={s!r}; fprime={','.join(map(repr, coeffs))}"


@st.composite
def grids(draw):
    t_max = draw(st.floats(1e-3, 1e3))
    x_min = draw(st.floats(-1e3, 1e3))
    x_max = x_min + draw(st.floats(1e-3, 1e3))
    nt, nx = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    return f"0:{t_max!r}:{nt},{x_min!r}:{x_max!r}:{nx}"


@PROFILE
@given(st.one_of(boundaries(), JUNK), st.one_of(gammas, JUNK), st.one_of(grids(), st.none()))
def test_fuzzed_solution_configs(boundary, gamma, grid):
    _run("solution", {"boundary": boundary, "gamma": gamma, "grid": grid})
