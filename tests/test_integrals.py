import numpy as np
import numpy.testing as npt
import pytest

from phialg.algebra import complex_algebra
from phialg.calculus import phi_derivative, phi_polynomial, phi_reciprocal_power
from phialg.catalog import embed_xy0_map, section31_algebra, swap_map
from phialg.errors import PhialgError
from phialg.integrals import (
    Path,
    antiderivative,
    closed_loop_check,
    conservative_fields,
    line_integral,
)
from phialg.maps import SmoothMap


def test_segment_integral_of_unit_is_displacement():
    c = complex_algebra()
    ident = SmoothMap.identity(2)
    f = SmoothMap.constant(c.unit, k=2)
    u0, u1 = np.array([0.2, -0.4]), np.array([1.3, 0.9])
    value = line_integral(f, ident, c, Path.segment(u0, u1))
    npt.assert_allclose(value, u1 - u0, atol=1e-13)


def test_circle_integral_of_identity_vanishes():
    c = complex_algebra()
    ident = SmoothMap.identity(2)
    f = phi_polynomial([c.zero(), c.unit], ident, c)
    value = line_integral(f, ident, c, Path.circle(), segments=256)
    npt.assert_allclose(value, np.zeros(2), atol=1e-12)


def test_residue_control():
    c = complex_algebra()
    ident = SmoothMap.identity(2)
    f = phi_reciprocal_power(ident, c, 1)
    value = line_integral(f, ident, c, Path.circle(), segments=512)
    npt.assert_allclose(value, [0.0, 2.0 * np.pi], atol=1e-8)


def test_closed_loop_quadratic_over_complex():
    c = complex_algebra()
    phi = swap_map()
    f = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c)
    report = closed_loop_check(f, phi, c, Path.circle())
    assert report.final_magnitude <= 1e-10
    assert report.passes(1e-8)


def test_closed_loop_unit_element_any_phi():
    c = complex_algebra()
    phi = SmoothMap.linear([[0.3, 1.1], [-0.7, 0.2]])
    f = SmoothMap.constant(c.unit, k=2)
    report = closed_loop_check(f, phi, c, Path.circle(center=(0.5, -0.2), radius=0.8))
    assert report.final_magnitude <= 1e-12


def test_closed_loop_threedim_reciprocal():
    alg = section31_algebra()
    phi = embed_xy0_map()
    f = phi_reciprocal_power(phi, alg, 1)
    # loop stays inside x > 0, x + 2y > 0 where phi's image is regular
    report = closed_loop_check(f, phi, alg, Path.circle(center=(3.0, 1.0), radius=0.5))
    assert report.final_magnitude <= 1e-8
    assert report.passes(1e-8)


def test_closed_loop_requires_closed_path():
    c = complex_algebra()
    f = SmoothMap.constant(c.unit, k=2)
    with pytest.raises(ValueError):
        closed_loop_check(f, SmoothMap.identity(2), c, Path.segment([0, 0], [1, 0]))
    with pytest.raises(ValueError):
        Path(lambda t: np.array([t, 0.0]), 1.0, closed=True)
    with pytest.raises(ValueError, match="gap is nan"):  # a nan gap is no closed loop
        Path(lambda t: np.array([np.nan, 0.0]), 1.0, closed=True)


def test_path_independence(rng):
    c = complex_algebra()
    phi = swap_map()
    f = phi_polynomial([0.3 * c.unit, c.zero(), c.unit], phi, c)
    u0, u1 = np.array([0.1, 0.2]), np.array([1.0, -0.6])
    straight = line_integral(f, phi, c, Path.segment(u0, u1, segments=512))

    def arc(t):
        base = u0 + t * (u1 - u0)
        bump = np.sin(np.pi * t)
        return base + bump * np.array([0.4, 0.7])

    value = line_integral(f, phi, c, Path(arc, 1.0, segments=512))
    npt.assert_allclose(value, straight, atol=1e-8)


def test_conservative_fields_unit_gives_gradients(rng):
    alg = section31_algebra()
    phi = SmoothMap.linear(rng.uniform(-1, 1, (3, 2)))
    f = SmoothMap.constant(alg.unit, k=2)
    fields = conservative_fields(f, phi, alg)
    u = rng.uniform(-1, 1, 2)
    for q in range(3):
        npt.assert_allclose(fields[q](u), phi.matrix[q], atol=1e-13)


def test_conservative_fields_worked_example():
    alg = section31_algebra()
    phi = embed_xy0_map()
    f = phi_reciprocal_power(phi, alg, 1)
    fields = conservative_fields(f, phi, alg)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(1.0, 3.0)
        y = rng.uniform(-0.2, 0.8)
        u = np.array([x, y])
        den = x ** 3 + 2 * x ** 2 * y
        npt.assert_allclose(fields[0](u), [1.0 / x, 0.0], atol=1e-10)
        npt.assert_allclose(fields[1](u),
                            [(-x * y - y * y) / den, (x + y) / (x * x + 2 * x * y)],
                            atol=1e-10)
        npt.assert_allclose(fields[2](u), [y * y / den, -x * y / den], atol=1e-10)


def test_conservative_fields_curl_free(rng, families):
    h = 1e-5
    for fam in families[:5]:
        f = fam.functions["cubic"]
        fields = conservative_fields(f, fam.phi, fam.algebra)
        if fam.phi.k != 2:
            continue
        for _ in range(20):
            u = fam.sample(rng)
            for field in fields:
                dy_of_gx = (field(u + [0, h])[0] - field(u - [0, h])[0]) / (2 * h)
                dx_of_gy = (field(u + [h, 0])[1] - field(u - [h, 0])[1]) / (2 * h)
                assert abs(dy_of_gx - dx_of_gy) <= 1e-5 * (1 + abs(dy_of_gx))


def test_antiderivative_of_unit_is_phi_shift():
    c = complex_algebra()
    phi = swap_map()
    f = SmoothMap.constant(c.unit, k=2)
    u0 = np.array([0.3, -0.5])
    F = antiderivative(f, phi, c, u0)
    u = np.array([1.1, 0.8])
    npt.assert_allclose(F(u), phi(u) - phi(u0), atol=1e-12)


@pytest.mark.parametrize("offset", [1e-5, 1e-6, 1e-9])
def test_antiderivative_has_no_jump_at_the_base_point(offset):
    c = complex_algebra()
    ident = SmoothMap.identity(2)
    u0 = np.array([1.0, 1.0])
    F = antiderivative(SmoothMap.constant(c.unit, k=2), ident, c, u0)
    npt.assert_allclose(F(u0), [0.0, 0.0], atol=0.0)
    u = u0 + np.array([offset, 0.0])
    npt.assert_allclose(F(u), u - u0, rtol=1e-9, atol=1e-20)


@pytest.mark.parametrize("segments", [0, -4])
def test_segment_count_below_one_is_rejected(segments):
    c = complex_algebra()
    ident = SmoothMap.identity(2)
    with pytest.raises(PhialgError):
        Path.circle(segments=segments)
    with pytest.raises(PhialgError):
        line_integral(ident, ident, c, Path.circle(), segments=segments)


def test_antiderivative_power_rules():
    c = complex_algebra()
    phi = swap_map()
    u0 = np.array([0.5, 0.3])
    u = np.array([1.2, -0.4])

    f1 = phi_polynomial([c.zero(), c.unit], phi, c)
    F1 = antiderivative(f1, phi, c, u0, segments=512)
    expected = (c.power(phi(u), 2) - c.power(phi(u0), 2)) / 2.0
    npt.assert_allclose(F1(u), expected, atol=1e-8)

    f2 = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c)
    F2 = antiderivative(f2, phi, c, u0, segments=512)
    expected = (c.power(phi(u), 3) - c.power(phi(u0), 3)) / 3.0
    npt.assert_allclose(F2(u), expected, atol=1e-8)


def test_antiderivative_derivative_recovers_integrand(rng, families):
    for fam in families[:4]:
        if fam.phi.k != 2:
            continue
        f = fam.functions["phi^2"]
        u0 = fam.sample(rng)
        F = antiderivative(f, fam.phi, fam.algebra, u0)
        for _ in range(5):
            u = fam.sample(rng)
            report = phi_derivative(F, fam.phi, fam.algebra, u)
            if not report.unique:
                continue
            scale = max(1.0, float(np.abs(f(u)).max()))
            npt.assert_allclose(report.derivative, f(u), atol=1e-6 * scale)
