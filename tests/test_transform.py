import tracemalloc

import numpy as np
import pytest

import fpkit.transform as transform
from fpkit.boundary import boundary_potential, integral_fprime, parse_boundary
from fpkit.grids import (GridField, GridSpec, NumericalError, read_field_csv, sample_field,
                         sample_potential, transform_grid, write_field_csv)
from fpkit.solutions import closed_w, phi_lambda, phi_lambda_planes, u_lambda
from fpkit.transform import (bluman_shtelen_w, cumulative_simpson, log_phi_xx, log_planes_xx,
                             one_sided_first_derivative)
from fpkit.verify import residual_backward

B_LIN = parse_boundary("s=1; fprime=0.5,0.3")
B_CONST = parse_boundary("s=1; fprime=1")


# ---------------------------------------------------------------- grids

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 2, 10)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 0, 1, 5, 5)
    spec = GridSpec(0.0, 0.9, 0.0, 3.0, 10, 31)
    assert spec.dt == pytest.approx(0.1)
    assert spec.dx == pytest.approx(0.1)


def test_transform_grid_rounds_nx_up_to_odd():
    spec = transform_grid(0.0, 0.9, 3.0, 10, 30)
    assert spec.nx == 31
    assert spec.x_min == 0.0
    assert transform_grid(0.0, 0.9, 3.0, 10, 31).nx == 31


def test_grid_field_shape_and_kind_checks():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        GridField(spec, np.zeros((3, 4)))
    # zero imaginary parts narrow to float64; any nonzero one keeps complex128
    narrowed = GridField(spec, np.full((3, 3), 2.0 + 0j))
    assert narrowed.values.dtype == np.float64
    assert np.all(narrowed.values == 2.0)
    mixed = np.zeros((3, 3), dtype=complex)
    mixed[1, 2] = 1e-300j
    assert GridField(spec, mixed).values.dtype == np.complex128
    assert GridField(spec, np.ones((3, 3), dtype=int)).values.dtype == np.float64


def test_sampled_fields_store_real_values_as_float64():
    spec = GridSpec(0.0, 0.9, 0.0, 3.0, 10, 31)
    w = sample_field(spec, lambda t, x: closed_w(B_LIN, t, x))
    assert w.values.dtype == np.float64
    assert w.values.nbytes == 8 * spec.nt * spec.nx
    for fn in (u_lambda, phi_lambda):
        assert sample_field(spec, lambda t, x: fn(B_LIN, 0.0, t, x)).values.dtype == np.float64
        assert sample_field(spec, lambda t, x: fn(B_LIN, 1.5, t, x)).values.dtype == np.complex128
    phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, 1.5, t, x))
    assert GridField(spec, phi.values.real).values.dtype == np.float64
    assert GridField(spec, phi.values.imag).values.dtype == np.float64


def test_real_field_csv_round_trip_is_byte_identical(tmp_path):
    spec = GridSpec(0.0, 0.5, 0.0, 2.0, 4, 5)
    field = sample_field(spec, lambda t, x: closed_w(B_LIN, t, x))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(first, field)
    back = read_field_csv(first)
    assert back.values.dtype == np.float64
    np.testing.assert_array_equal(back.values, field.values)
    write_field_csv(second, back)
    assert first.read_bytes() == second.read_bytes()


def test_field_csv_round_trip(tmp_path):
    spec = GridSpec(0.0, 0.5, 0.0, 2.0, 4, 5)
    field = sample_field(spec, lambda t, x: np.exp(1j * x) * (1 + t))
    path = tmp_path / "field.csv"
    write_field_csv(path, field)
    back = read_field_csv(path)
    assert back.spec == spec
    np.testing.assert_array_equal(back.values, field.values)
    with open(path) as fh:
        assert fh.readline().strip() == "t,x,re,im"


def test_field_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["t,x,re,im"]
    for t in (0.0, 0.1, 0.35):  # uneven t spacing
        for x in (0.0, 0.5, 1.0):
            rows.append(f"{t},{x},1.0,0.0")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


# ------------------------------------------------------- cumulative simpson

def test_cumulative_simpson_cubic_accuracy():
    # full panels (even nodes) are cubic-exact; odd nodes carry the local
    # quadratic's O(h^4) half-panel error
    xs = np.linspace(0.0, 2.0, 9)
    h = xs[1] - xs[0]
    got = cumulative_simpson(xs ** 3 - 2 * xs, h)
    expected = xs ** 4 / 4 - xs ** 2
    np.testing.assert_allclose(got[::2], expected[::2], atol=1e-14)
    np.testing.assert_allclose(got, expected, atol=h ** 4)


@pytest.mark.parametrize("n", [9, 10, 101])
def test_cumulative_simpson_fourth_order(n):
    xs = np.linspace(0.0, 1.0, n)
    got = cumulative_simpson(np.exp(xs), xs[1] - xs[0])
    err = np.max(np.abs(got - (np.exp(xs) - 1.0)))
    assert err <= 5.0 * (xs[1] - xs[0]) ** 4


def test_cumulative_simpson_convergence_rate():
    def worst(n):
        xs = np.linspace(0.0, 1.0, n)
        return np.max(np.abs(cumulative_simpson(np.sin(3 * xs), xs[1] - xs[0])
                             - (1 - np.cos(3 * xs)) / 3))
    assert worst(41) / worst(81) > 12.0  # 4th order gives ~16


def test_one_sided_first_derivative_order():
    xs = np.linspace(0.0, 0.3, 4)
    val = one_sided_first_derivative(np.exp(xs), xs[1] - xs[0])
    assert val == pytest.approx(1.0, abs=5e-4)


# ---------------------------------------------------------------- log_phi_xx

def test_log_phi_xx_affine_field_is_zero():
    spec = GridSpec(0.0, 0.9, 0.0, 3.0, 21, 61)
    for lam in (0.0, 1.5, -2.3):
        phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, lam, t, x))
        out = log_phi_xx(phi)
        assert np.max(np.abs(out.values)) <= 1e-8


def test_log_phi_xx_quadratic_log():
    spec = GridSpec(0.0, 1.0, -1.0, 1.0, 5, 41)
    phi = sample_field(spec, lambda t, x: np.exp(x * x) + 0 * t)
    out = log_phi_xx(phi)
    np.testing.assert_allclose(out.values.real, 2.0, atol=1e-9)


def test_log_phi_xx_constant_field():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 4, 7)
    phi = sample_field(spec, lambda t, x: np.ones(np.broadcast(t, x).shape))
    out = log_phi_xx(phi)
    assert np.all(out.values == 0.0)


def test_log_phi_xx_rejects_zero_crossing():
    spec = GridSpec(0.0, 1.0, -1.0, 1.0, 4, 21)
    phi = sample_field(spec, lambda t, x: x + 0 * t + 0.0)  # crosses 0
    with pytest.raises(NumericalError):
        log_phi_xx(phi)


def test_log_phi_xx_rejects_sign_change_between_nodes():
    # no node at x = 0, so every |Phi| clears the magnitude guard
    spec = GridSpec(0.0, 1.0, -1.0, 1.0, 4, 20)
    phi = sample_field(spec, lambda t, x: x + 0 * t)
    assert phi.values.dtype == np.float64
    assert np.abs(phi.values).min() > 0.05
    with pytest.raises(NumericalError, match="changes sign"):
        log_phi_xx(phi)


def test_log_phi_xx_real_field_allocates_no_complex_temporaries():
    # one complex128 copy of log Phi alone would take 2x the field's bytes
    spec = GridSpec(0.0, 0.9, 0.0, 3.0, 201, 301)
    phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, 0.0, t, x))
    assert phi.values.dtype == np.float64
    tracemalloc.start()
    try:
        log_phi_xx(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * phi.values.nbytes


def unwrap_oracle_log_phi_xx(values: np.ndarray, dx: float) -> np.ndarray:
    """d2/dx2 log Phi by np.unwrap: the 3-point stencil of the complex
    log|Phi| + i * unwrap(angle(Phi)), the edge columns taking their
    neighbours' values."""
    log = np.log(np.abs(values)) + 1j * np.unwrap(np.angle(values), axis=1)
    out = np.empty(values.shape, dtype=complex)
    out[:, 1:-1] = (log[:, 2:] - 2.0 * log[:, 1:-1] + log[:, :-2]) / (dx * dx)
    out[:, 0] = out[:, 1]
    out[:, -1] = out[:, -2]
    return out


# The largest gap measured to the oracle on the fields below is 1.1e-11, in
# the imaginary part of the rows stepping by just under pi: the oracle's
# unwrapped phase reaches ~190 there, and its stencil rounds at
# ~eps * 190 * 4 / dx^2 = 6.7e-11.  The tolerance is that gap times ~3.
ORACLE_ATOL = 3e-11


@pytest.mark.parametrize("lam", [20.0, -23.0])
def test_log_phi_xx_matches_unwrap_oracle_through_many_wraps(lam):
    # lam * dx = 1.0 and -1.15: the wrapped phase jumps by 2 pi 9 to 11
    # times in every row, in either direction
    spec = GridSpec(0.0, 0.05, 0.0, 3.0, 5, 61)
    phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, lam, t, x))
    wraps = np.sum(np.abs(np.diff(np.angle(phi.values), axis=1)) >= np.pi, axis=1)
    assert wraps.min() >= 9
    np.testing.assert_allclose(log_phi_xx(phi).values,
                               unwrap_oracle_log_phi_xx(phi.values, spec.dx),
                               rtol=0.0, atol=ORACLE_ATOL)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_log_phi_xx_matches_unwrap_oracle_at_a_step_just_under_pi(sign):
    # every x step of the phase is pi (1 - 1e-8), just below the refusal
    # limit pi (1 - 1e-9).  The wrapped phase's raw steps alternate between
    # that and it minus 2 pi, which is corrected; none is refused.
    # log|Phi| = 0.3 x^2 has second derivative 0.6, and the phase's is 0
    spec = GridSpec(0.0, 1.0, 0.0, 3.0, 3, 61)
    wave = sign * np.pi * (1.0 - 1e-8) / spec.dx
    phi = sample_field(spec, lambda t, x: np.exp(1j * wave * x + 0.3 * x * x) + 0 * t)
    out = log_phi_xx(phi).values
    np.testing.assert_allclose(out, unwrap_oracle_log_phi_xx(phi.values, spec.dx),
                               rtol=0.0, atol=ORACLE_ATOL)
    np.testing.assert_allclose(out, 0.6, rtol=0.0, atol=ORACLE_ATOL)


def test_log_planes_xx_memory_is_a_few_planes():
    # the plane routine holds log|Phi| (later the phase, then the phase's
    # second difference), the real output and the phase's x-steps: measured
    # 3.13-3.40 planes' bytes from 201x301 up to 901x2951.  The complex
    # routine it replaced peaked at ~7 planes (3.5 complex fields).
    spec = GridSpec(0.0, 0.9, 0.0, 3.0, 201, 301)
    tt, xx = spec.mesh()
    re, im = phi_lambda_planes(B_LIN, 1.5, tt, xx)
    tracemalloc.start()
    try:
        log_planes_xx(re, im, spec.dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * re.nbytes


def test_log_modulus_matches_log_hypot():
    # 0.5 log(re^2 + im^2) against log(hypot(re, im)): the square errs by
    # ~1.5 ulp, hypot by 1, and each log by 1 ulp of its size, so 4 ulp of
    # max(1, |log|Phi||) bounds the gap.  On near-ties |re| ~ |im| too
    rng = np.random.default_rng(11)
    angle = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 4000),
                            np.pi / 4 + rng.integers(-4, 5, 1000) * 1e-16])
    eps = np.finfo(float).eps
    for scale in (1.0, 3e-10, 1e-5, 1e5, 1e150):
        radius = scale * np.exp(rng.uniform(-3.0, 3.0, angle.size))
        re, im = radius * np.cos(angle), radius * np.sin(angle)
        expected = np.log(np.hypot(re, im))
        got = transform._log_modulus(re, im)
        assert np.all(np.abs(got - expected) <= 4 * eps * np.maximum(1.0, np.abs(expected)))


def test_log_modulus_falls_back_to_hypot_when_a_square_overflows():
    # one square past float64, or a NaN, sends the whole plane to hypot: the
    # result is log(hypot(re, im)) bit for bit, with no overflow warning
    rng = np.random.default_rng(12)
    re, im = rng.normal(size=(2, 5, 7))
    for big in (1e155, 1e200, 1.7e308, np.nan):
        re_big, im_big = re.copy(), im.copy()
        re_big[2, 3], im_big[4, 0] = big, -big
        np.testing.assert_array_equal(transform._log_modulus(re_big, im_big),
                                      np.log(np.hypot(re_big, im_big)))


def test_log_modulus_refuses_as_hypot_does_at_the_magnitude_floor():
    # radii within a few ulp of MIN_FIELD_MAGNITUDE, at angles off the axes:
    # refused exactly when hypot(re, im) <= MIN_FIELD_MAGNITUDE, with the
    # smallest hypot in the message; squares that underflow are refused too
    floor = transform.MIN_FIELD_MAGNITUDE
    eps = np.finfo(float).eps
    outcomes = set()
    for k in range(-6, 7):
        for angle in (0.0, 0.3, np.pi / 4, 1.2):
            radius = floor * (1.0 + k * eps)
            re = np.array([[radius * np.cos(angle), 1.0, 2.0]])
            im = np.array([[radius * np.sin(angle), 0.5, 0.0]])
            smallest = np.hypot(re, im).min()
            refused = smallest <= floor
            outcomes.add(refused)
            if refused:
                with pytest.raises(NumericalError, match=f"magnitude {smallest:.3e} at or"):
                    log_planes_xx(re, im, 0.1)
            else:
                log_planes_xx(re, im, 0.1)
    assert outcomes == {True, False}
    for tiny in (0.0, 1e-170, 5e-324):
        with pytest.raises(NumericalError, match="at or below"):
            log_planes_xx(np.array([[tiny, 1.0, 1.0]]), np.array([[tiny, 0.0, 0.0]]), 0.1)


def test_log_phi_xx_rejects_unresolved_phase():
    # lam * dx = pi: the per-node phase step hits the unwrap ambiguity
    spec = GridSpec(0.0, 1.0, 0.0, 3.0, 4, 4)
    lam = np.pi  # dx = 1
    phi = sample_field(spec, lambda t, x: np.exp(1j * lam * x) + 0 * t)
    with pytest.raises(NumericalError):
        log_phi_xx(phi)


# ---------------------------------------------------------------- V2 = V1 - (log Phi)_xx

def test_potential_v2_preserves_v1_for_affine_log():
    spec = GridSpec(0.0, 0.9, 0.0, 3.0, 21, 61)
    v1 = boundary_potential(B_LIN)
    phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, 0.7, t, x))
    v2 = sample_potential(spec, v1) - log_phi_xx(phi).values
    np.testing.assert_allclose(v2, sample_potential(spec, v1), atol=1e-8)
    # V1 = x f'' with f'' = 0.3
    tt, xx = spec.mesh()
    np.testing.assert_allclose(v2.real, 0.3 * np.broadcast_to(xx, v2.shape), atol=1e-8)


def test_potential_v2_zero_for_trivial_inputs():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 5, 7)
    phi = sample_field(spec, lambda t, x: np.ones(np.broadcast(t, x).shape))
    v2 = sample_potential(spec, lambda t, x: 0.0) - log_phi_xx(phi).values
    assert np.all(v2 == 0.0)


# ---------------------------------------------------------------- the engine

def engine_fields(b, lam, spec):
    u = sample_field(spec, lambda t, x: u_lambda(b, lam, t, x))
    phi = sample_field(spec, lambda t, x: phi_lambda(b, lam, t, x))
    return u, phi


def test_engine_matches_analytic_target():
    spec = transform_grid(0.0, 0.9, 3.0, 181, 121)
    u, phi = engine_fields(B_CONST, 0.0, spec)
    w = bluman_shtelen_w(u, phi)
    tt, xx = spec.mesh()
    target = (xx - tt) * u_lambda(B_CONST, 0.0, tt, xx).real
    dev = np.abs(w.values.real - target) / np.max(np.abs(target))
    assert dev.max() <= 1e-6
    assert w.values.dtype == np.float64
    # a complex input pair keeps a complex result
    u15, phi15 = engine_fields(B_CONST, 1.5, spec)
    assert bluman_shtelen_w(u15, phi15).values.dtype == np.complex128


def test_engine_zero_input_gives_zero():
    spec = transform_grid(0.0, 0.5, 2.0, 11, 21)
    u = sample_field(spec, lambda t, x: np.zeros(np.broadcast(t, x).shape))
    phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, 0.0, t, x))
    w = bluman_shtelen_w(u, phi)
    assert np.all(w.values == 0.0)


def test_engine_t0_row_identity():
    # at t = 0: w(0, x) Phi(0, x) = int_0^x u Phi, so w(0, 0) = 0 exactly
    spec = transform_grid(0.0, 0.9, 3.0, 61, 61)
    u, phi = engine_fields(B_LIN, 0.0, spec)
    w = bluman_shtelen_w(u, phi)
    assert w.values[0, 0] == 0.0
    xs = spec.x_nodes()
    lhs = w.values[0] * phi.values[0]
    rhs = cumulative_simpson(u.values[0] * phi.values[0], spec.dx)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_engine_requires_shared_grid_x0_and_odd_nx():
    spec = transform_grid(0.0, 0.5, 2.0, 11, 21)
    u, phi = engine_fields(B_LIN, 0.0, spec)
    other = GridSpec(0.0, 0.5, 0.0, 2.0, 11, 23)
    phi_other = sample_field(other, lambda t, x: phi_lambda(B_LIN, 0.0, t, x))
    with pytest.raises(ValueError):
        bluman_shtelen_w(u, phi_other)
    offset_spec = GridSpec(0.0, 0.5, 0.1, 2.0, 11, 21)
    u2 = sample_field(offset_spec, lambda t, x: u_lambda(B_LIN, 0.0, t, x))
    phi2 = sample_field(offset_spec, lambda t, x: phi_lambda(B_LIN, 0.0, t, x))
    with pytest.raises(ValueError):
        bluman_shtelen_w(u2, phi2)
    even_spec = GridSpec(0.0, 0.5, 0.0, 2.0, 11, 20)
    u3 = sample_field(even_spec, lambda t, x: u_lambda(B_LIN, 0.0, t, x))
    phi3 = sample_field(even_spec, lambda t, x: phi_lambda(B_LIN, 0.0, t, x))
    with pytest.raises(ValueError):
        bluman_shtelen_w(u3, phi3)


def test_engine_b2_offset_reproduces_second_normalization():
    from fpkit.solutions import b2_first, b2_second
    spec = transform_grid(0.0, 0.9, 3.0, 61, 61)
    u, phi = engine_fields(B_CONST, 0.0, spec)
    offset = complex(b2_second(B_CONST, 0.0, 0.0) - b2_first(B_CONST, 0.0, 0.0))
    w = bluman_shtelen_w(u, phi).values + offset / phi.values
    tt, xx = spec.mesh()
    target = (xx + integral_fprime(B_CONST, tt, 1.0)) * u_lambda(B_CONST, 0.0, tt, xx).real
    dev = np.abs(w - target) / np.max(np.abs(target))
    assert dev.max() <= 1e-6


def test_engine_output_vanishes_linearly_at_origin():
    spec = transform_grid(0.0, 0.9, 3.0, 61, 121)
    u, phi = engine_fields(B_LIN, 0.0, spec)
    w = bluman_shtelen_w(u, phi)
    xs = spec.x_nodes()
    first_row = np.abs(w.values[0, :5].real)
    assert first_row[0] == 0.0
    ratios = first_row[1:] / xs[1:5]
    assert np.all(ratios <= ratios[-1] * 1.05 + 1e-12)


def test_engine_residual_closes_loop():
    # mixed-lambda pair: the integrand oscillates in x, exercising the
    # Simpson machinery; w must still solve the backward equation with
    # V2 = V1 (log Phi affine in x)
    spec = transform_grid(0.0, 0.9, 3.0, 181, 181)
    u = sample_field(spec, lambda t, x: u_lambda(B_LIN, 1.3, t, x))
    phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, 0.7, t, x))
    w = bluman_shtelen_w(u, phi)
    v1 = boundary_potential(B_LIN)
    rep = residual_backward(w, v1)
    assert rep.max_rel <= 1e2 * (spec.dx ** 2 + spec.dt ** 2)
    v2 = sample_potential(spec, v1) - log_phi_xx(phi).values  # V2 = V1 - (log Phi)_xx
    rep2 = residual_backward(w, lambda t, x: v2.real)
    assert abs(rep2.max_rel - rep.max_rel) <= 1e2 * (spec.dx ** 2 + spec.dt ** 2)


def test_engine_grid_refinement_convergence():
    def deviation(nt, nx):
        spec = transform_grid(0.0, 0.9, 3.0, nt, nx)
        u, phi = engine_fields(B_LIN, 0.0, spec)
        w = bluman_shtelen_w(u, phi)
        tt, xx = spec.mesh()
        target = (xx - integral_fprime(B_LIN, 0.0, tt)) * u_lambda(B_LIN, 0.0, tt, xx).real
        return np.max(np.abs(w.values.real - target)) / np.max(np.abs(target))

    coarse = deviation(46, 39)
    fine = deviation(91, 77)
    assert coarse / fine >= 3.5


def test_field_csv_rejects_bad_columns_lattice_and_order(tmp_path):
    nodes = [(t, x) for t in (0.0, 0.1, 0.2) for x in (0.0, 0.5, 1.0)]
    cases = {
        "columns": ["t,x,re"] + [f"{t},{x},1.0" for t, x in nodes],
        "lattice": ["t,x,re,im"] + [f"{t},{x},1.0,0.0" for t, x in nodes[:-1]],
        "row-major": ["t,x,re,im"] + [f"{t},{x},1.0,0.0" for x, t in nodes],
    }
    for name, match in (("columns", "columns t,x,re,im"), ("lattice", "complete lattice"),
                        ("row-major", "row-major")):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(cases[name]) + "\n")
        with pytest.raises(ValueError, match=match):
            read_field_csv(path)


def test_non_finite_potential_raises():
    spec = GridSpec(0.0, 0.5, 0.0, 1.0, 5, 5)
    with pytest.raises(NumericalError, match="not finite"):
        sample_potential(spec, lambda t, x: np.where(x > 0.5, np.inf, 0.0))


def test_stencils_need_their_node_counts():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        cumulative_simpson(np.ones(2), 0.1)
    with pytest.raises(ValueError, match="4 nodes"):
        one_sided_first_derivative(np.ones((2, 3)), 0.1)
