import warnings

import numpy as np
import numpy.testing as npt
import pytest

from phialg.algebra import algebra_a3_1, complex_algebra
from phialg.calculus import (
    cre_residual,
    factor_through_phi,
    find_regular_direction,
    phi_derivative,
    phi_polynomial,
    phi_rational,
    phi_reciprocal_power,
)
from phialg.catalog import swap_map
from phialg.errors import DimensionMismatch, PhiNotInvertible
from phialg.maps import SmoothMap, compose, fd_jacobian, jacobian_consistency


def test_reference_map_derivative_is_unit(rng, families):
    for fam in families:
        f = fam.functions["phi"]
        for _ in range(10):
            u = fam.sample(rng)
            report = phi_derivative(f, fam.phi, fam.algebra, u)
            assert report.residual <= 1e-8
            if report.unique:
                npt.assert_allclose(report.derivative, fam.algebra.unit, atol=1e-8)


def test_constant_function_derivative_zero():
    c = complex_algebra()
    phi = swap_map()
    f = SmoothMap.constant([0.7, -0.3], k=2)
    report = phi_derivative(f, phi, c, np.array([0.4, 1.2]))
    assert report.unique
    npt.assert_allclose(report.derivative, np.zeros(2), atol=1e-12)
    assert report.residual <= 1e-12


def test_power_rule_value():
    c = complex_algebra()
    phi = swap_map()
    f = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c)
    report = phi_derivative(f, phi, c, np.array([1.0, 2.0]))
    npt.assert_allclose(report.derivative, [4.0, 2.0], atol=1e-10)  # 2*phi(1,2)


def test_dimension_mismatch():
    c = complex_algebra()
    f = SmoothMap.identity(3)
    with pytest.raises(DimensionMismatch):
        phi_derivative(f, swap_map(), c, np.zeros(2))


def test_cre_residual_classic_pair():
    c = complex_algebra()
    phi = swap_map()
    f = SmoothMap(2, 2, lambda u: np.array([u[1] ** 2 - u[0] ** 2, 2 * u[0] * u[1]]),
                  jac=lambda u: np.array([[-2 * u[0], 2 * u[1]], [2 * u[1], 2 * u[0]]]))
    for u in [np.array([0.3, 0.9]), np.array([-1.2, 0.4])]:
        assert cre_residual(f, phi, c, u) <= 1e-13
    const = SmoothMap.constant(c.unit, k=2)
    assert cre_residual(const, phi, c, np.array([0.5, 0.5])) == 0.0


def test_cre_residual_is_non_finite_when_an_equation_is():
    c = complex_algebra()
    f = SmoothMap(2, 2, lambda u: np.zeros(2), jac=lambda u: np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with np.errstate(invalid="ignore"):
        assert np.isnan(cre_residual(f, SmoothMap.identity(2), c, np.array([0.5, 0.5])))


def test_counterexample_cre_zero_but_not_differentiable():
    degenerate = algebra_a3_1((0.0,) * 6)
    phi = SmoothMap.linear([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    f = SmoothMap.linear([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    u = np.array([0.2, -0.6])
    assert cre_residual(f, phi, degenerate, u) <= 1e-13
    report = phi_derivative(f, phi, degenerate, u)
    assert report.residual > 1e-2
    assert not report.unique


def test_find_regular_direction(rng):
    c = complex_algebra()
    xi = find_regular_direction(SmoothMap.identity(2), c, np.zeros(2), rng=rng)
    assert xi is not None and abs(np.linalg.norm(xi) - 1.0) < 1e-12

    fold = SmoothMap.linear([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    xi = find_regular_direction(fold, c, np.zeros(3), rng=rng)
    npt.assert_allclose(fold.matrix @ xi, fold.matrix @ xi)  # evaluable
    assert c.is_regular(fold.matrix @ xi)

    degenerate = algebra_a3_1((0.0,) * 6)
    phi = SmoothMap.linear([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert find_regular_direction(phi, degenerate, np.zeros(2), rng=rng) is None


def test_find_regular_direction_on_a_non_finite_jacobian_is_none_without_a_warning():
    for bad in (np.nan, np.inf):
        phi = SmoothMap.linear(np.full((2, 2), bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_regular_direction(phi, complex_algebra(), np.zeros(2), tries=4) is None


def test_phi_polynomial_matches_component_formula(rng):
    c = complex_algebra()
    fold = SmoothMap.linear([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    f = phi_polynomial([c.zero(), c.zero(), c.unit], fold, c)
    for _ in range(10):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        expected = np.array([x * x + z * z + 2 * x * z - y * y, 2 * x * y + 2 * y * z])
        npt.assert_allclose(f(np.array([x, y, z])), expected, atol=1e-12)
    assert jacobian_consistency(f, [rng.uniform(-1, 1, 3) for _ in range(5)]) <= 1e-4


def test_squared_map_component_formulas(rng):
    # the three planar reference maps and the printed components of their squares
    c = complex_algebra()
    cases = [
        (swap_map(), lambda x, y: (y * y - x * x, 2 * x * y)),
        (SmoothMap.linear([[0.0, 1.0], [0.0, 0.0]]), lambda x, y: (y * y, 0.0)),
        (SmoothMap.linear([[0.0, 1.0], [1.0, 1.0]]),
         lambda x, y: (-x * x - 2 * x * y, 2 * x * y + 2 * y * y)),
    ]
    for phi, closed_form in cases:
        f = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c)
        for _ in range(10):
            x, y = rng.uniform(-1.5, 1.5, 2)
            npt.assert_allclose(f(np.array([x, y])), closed_form(x, y), atol=1e-12)


def test_reciprocal_square_derivative_rule(rng):
    # derivative of e/phi^2 is -2/phi^3
    c = complex_algebra()
    phi = swap_map()
    f = phi_reciprocal_power(phi, c, 2)
    for _ in range(10):
        u = np.array([1.0, 0.5]) + rng.uniform(-0.3, 0.3, 2)
        report = phi_derivative(f, phi, c, u)
        expected = -2.0 * c.inverse(c.power(phi(u), 3))
        npt.assert_allclose(report.derivative, expected, atol=1e-6)


def test_rational_function_and_singularity():
    c = complex_algebra()
    phi = SmoothMap.identity(2)
    f = phi_rational([c.unit], [c.zero(), c.unit], phi, c)
    u = np.array([0.5, 0.5])
    npt.assert_allclose(f(u), c.inverse(u))
    from phialg.errors import SingularElement

    with pytest.raises(SingularElement):
        f(np.zeros(2))


def test_product_rule(rng, families):
    for fam in families[:6]:
        alg, phi = fam.algebra, fam.phi
        zero, unit = alg.zero(), alg.unit
        f = phi_polynomial([0.2 * unit, unit], phi, alg)
        g = phi_polynomial([zero, zero, unit], phi, alg)

        def product_fn(u):
            return alg.product(f(u), g(u))

        fg = SmoothMap(phi.k, alg.dim, product_fn)
        for _ in range(5):
            u = fam.sample(rng)
            lhs = phi_derivative(fg, phi, alg, u)
            if not lhs.unique:
                continue
            df = phi_derivative(f, phi, alg, u).derivative
            dg = phi_derivative(g, phi, alg, u).derivative
            rhs = alg.product(df, g(u)) + alg.product(f(u), dg)
            scale = max(1.0, float(np.abs(rhs).max()))
            npt.assert_allclose(lhs.derivative, rhs, atol=1e-6 * scale)


def test_linearity_of_derivative(rng):
    c = complex_algebra()
    phi = swap_map()
    f = phi_polynomial([c.zero(), c.unit], phi, c)
    g = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c)
    c1 = np.array([0.3, -1.1])
    c2 = np.array([0.8, 0.4])

    def combo(u):
        return c.product(c1, f(u)) + c.product(c2, g(u))

    h = SmoothMap(2, 2, combo)
    for _ in range(10):
        u = rng.uniform(-1, 1, 2)
        dh = phi_derivative(h, phi, c, u).derivative
        expected = c.product(c1, phi_derivative(f, phi, c, u).derivative) \
            + c.product(c2, phi_derivative(g, phi, c, u).derivative)
        npt.assert_allclose(dh, expected, atol=1e-8 * max(1.0, np.abs(expected).max()))


def test_chain_rule_outer(rng):
    # g algebra-differentiable (g(w) = w^2), f = phi: (g o f)'_phi = (g' o f) f'_phi
    c = complex_algebra()
    phi = swap_map()

    def g_func(w):
        return c.product(w, w)

    def g_jac(w):
        return c.rep(2.0 * w)

    g = SmoothMap(2, 2, g_func, jac=g_jac)
    gf = compose(g, phi)
    for _ in range(10):
        u = rng.uniform(-1.5, 1.5, 2)
        lhs = phi_derivative(gf, phi, c, u).derivative
        npt.assert_allclose(lhs, 2.0 * phi(u), atol=1e-8)

    ident = compose(SmoothMap.identity(2), phi)
    u = np.array([0.4, -0.9])
    npt.assert_allclose(phi_derivative(ident, phi, c, u).derivative,
                        phi_derivative(phi, phi, c, u).derivative, atol=1e-10)


def test_chain_rule_inner_linear(rng):
    # h = f o g with linear inner g: h is differentiable relative to phi o g
    # and its derivative at v equals f's derivative at g(v)
    c = complex_algebra()
    phi = swap_map()
    f = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c)
    g = SmoothMap.linear([[0.7, -0.2], [0.4, 1.1]])
    h = compose(f, g)
    phi_g = compose(phi, g)
    for _ in range(20):
        v = rng.uniform(-1.2, 1.2, 2)
        lhs = phi_derivative(h, phi_g, c, v).derivative
        rhs = phi_derivative(f, phi, c, g(v)).derivative
        npt.assert_allclose(lhs, rhs, atol=1e-6 * max(1.0, np.abs(rhs).max()))


def test_factor_through_phi_identity_and_square(rng):
    c = complex_algebra()
    phi = swap_map()
    pts = [rng.uniform(0.4, 1.4, 2) for _ in range(5)]

    f = phi_polynomial([c.zero(), c.unit], phi, c)
    report = factor_through_phi(f, phi, c, pts)
    assert report.membership_distance <= 1e-10
    w = np.array([0.9, 0.3])
    npt.assert_allclose(report.g(w), w, atol=1e-9)

    f2 = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c)
    report2 = factor_through_phi(f2, phi, c, pts)
    assert report2.membership_distance <= 1e-10
    npt.assert_allclose(report2.g(w), c.product(w, w), atol=1e-9)


def test_factor_through_phi_negative_control(rng):
    c = complex_algebra()
    ident = SmoothMap.identity(2)
    f = SmoothMap.linear([[1.0, 0.0], [0.0, 2.0]])
    report = factor_through_phi(f, ident, c, [rng.uniform(-1, 1, 2) for _ in range(4)])
    assert report.membership_distance > 0.1


def test_factor_through_phi_singular_jacobian():
    c = complex_algebra()
    fold = SmoothMap(2, 2, lambda u: np.array([u[0] ** 2, u[1]]),
                     jac=lambda u: np.array([[2 * u[0], 0.0], [0.0, 1.0]]))
    f = SmoothMap.identity(2)
    with pytest.raises(PhiNotInvertible):
        factor_through_phi(f, fold, c, [np.array([0.0, 0.5])])


def test_catalog_jacobians_consistent_with_evaluations(rng, families):
    for fam in families:
        pts = [fam.sample(rng) for _ in range(5)]
        assert jacobian_consistency(fam.phi, pts) <= 1e-4, fam.name
        for name, fn in fam.function_items():
            assert jacobian_consistency(fn, pts) <= 1e-4, (fam.name, name)


def test_fd_jacobian_against_analytic(rng):
    def func(u):
        return np.array([np.sin(u[0]) * u[1], np.cos(u[1]) + u[0] ** 2])

    u = rng.uniform(-1, 1, 2)
    jac = fd_jacobian(func, u)
    expected = np.array([[np.cos(u[0]) * u[1], np.sin(u[0])],
                         [2 * u[0], -np.sin(u[1])]])
    npt.assert_allclose(jac, expected, atol=1e-7)
