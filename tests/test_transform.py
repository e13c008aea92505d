import numpy as np
import pytest

from fpkit.boundary import integral_fprime, parse_boundary
from fpkit.grids import (GridField, GridSpec, NumericalError, PotentialSpec,
                         read_field_csv, sample_field, transform_grid,
                         write_field_csv)
from fpkit.solutions import closed_w, phi_lambda, u_lambda
from fpkit.transform import (bluman_shtelen_w, cumulative_simpson, log_phi_xx,
                             one_sided_first_derivative, potential_v2)
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
    assert phi.real_part().values.dtype == np.float64
    assert phi.imag_part().values.dtype == np.float64


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


def test_log_phi_xx_rejects_unresolved_phase():
    # lam * dx = pi: the per-node phase step hits the unwrap ambiguity
    spec = GridSpec(0.0, 1.0, 0.0, 3.0, 4, 4)
    lam = np.pi  # dx = 1
    phi = sample_field(spec, lambda t, x: np.exp(1j * lam * x) + 0 * t)
    with pytest.raises(NumericalError):
        log_phi_xx(phi)


# ---------------------------------------------------------------- potential_v2

def test_potential_v2_preserves_v1_for_affine_log():
    spec = GridSpec(0.0, 0.9, 0.0, 3.0, 21, 61)
    v1 = PotentialSpec.from_boundary(B_LIN)
    phi = sample_field(spec, lambda t, x: phi_lambda(B_LIN, 0.7, t, x))
    v2 = potential_v2(v1, phi)
    np.testing.assert_allclose(v2.values, v1.sample(spec), atol=1e-8)
    # V1 = x f'' with f'' = 0.3
    tt, xx = spec.mesh()
    np.testing.assert_allclose(v2.values.real, 0.3 * np.broadcast_to(xx, v2.values.shape),
                               atol=1e-8)


def test_potential_v2_zero_for_trivial_inputs():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 5, 7)
    v1 = PotentialSpec.constant(0.0)
    phi = sample_field(spec, lambda t, x: np.ones(np.broadcast(t, x).shape))
    v2 = potential_v2(v1, phi)
    assert np.all(v2.values == 0.0)


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
    w = bluman_shtelen_w(u, phi, b2_offset=offset)
    tt, xx = spec.mesh()
    target = (xx + integral_fprime(B_CONST, tt, 1.0)) * u_lambda(B_CONST, 0.0, tt, xx).real
    dev = np.abs(w.values - target) / np.max(np.abs(target))
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
    v1 = PotentialSpec.from_boundary(B_LIN)
    rep = residual_backward(w, v1)
    assert rep.max_rel <= 1e2 * (spec.dx ** 2 + spec.dt ** 2)
    v2 = potential_v2(v1, phi)
    rep2 = residual_backward(w, PotentialSpec(lambda t, x: v2.values.real))
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
