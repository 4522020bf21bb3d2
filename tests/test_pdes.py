import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from phialg.algebra import algebra_a2_1
from phialg.calculus import phi_polynomial, phi_reciprocal_power
from phialg.errors import (B1Zero, ConditionViolated, DegenerateParameters,
                           DeltaZeroInconsistent, PhialgError)
from phialg.maps import SmoothMap, fd_partial, fd_step, worst_of
from phialg.pdes import (
    FIRST_ORDER_STEP,
    SECOND_ORDER_STEP,
    FirstOrderPDE,
    System451Solution,
    HeatProblem,
    SecondOrderPDE,
    first_order_phi,
    heat_b_closed_form,
    heat_delta,
    heat_solution,
    heat_system_matrix,
    pde_residual,
    second_order_solution,
    system_451_solutions,
)


def _points(rng, count=20, dim=2, lo=-1.0, hi=1.0):
    return [rng.uniform(lo, hi, dim) for _ in range(count)]


# -- residual engine -------------------------------------------------------------


def test_pde_residual_zero_solution(rng):
    terms = [(1.0, 0, (2, 0)), (1.0, 0, (0, 2))]
    assert pde_residual(terms, lambda pt: 0.0, _points(rng)) == 0.0


def test_pde_residual_heat_kernel_1d(rng):
    def kernel(pt):
        t, x = pt[0] + 2.0, pt[1]  # keep t positive
        return math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)

    terms = [(1.0, 0, (0, 2)), (-1.0, 0, (1, 0))]
    assert pde_residual(terms, kernel, _points(rng)) <= 1e-5


def test_pde_residual_known_defect(rng):
    # u = x^2 in the Laplace operator leaves residual 2 (relative to max term)
    terms = [(1.0, 0, (2, 0)), (1.0, 0, (0, 2))]
    value = pde_residual(terms, lambda pt: pt[0] ** 2, _points(rng))
    npt.assert_allclose(value, 1.0, atol=1e-4)  # |2 + 0| / max(1, 2)

    value_abs = pde_residual(terms, lambda pt: 3.0 * pt[0] ** 2, _points(rng))
    npt.assert_allclose(value_abs, 1.0, atol=1e-4)


def test_pde_residual_is_non_finite_when_a_point_is():
    terms = [(1.0, 0, (2, 0)), (1.0, 0, (0, 2))]
    points = [np.array([-0.5, 0.2]), np.array([0.5, 0.2]), np.array([-0.3, -0.4])]
    value = pde_residual(terms, lambda pt: math.nan if pt[0] > 0 else 0.0, points)
    assert math.isnan(value)


def _naive_pde_residual(terms, fields, points, h=None):
    """The residual as it was first written: every term rebuilds its component
    closure and calls ``fields`` afresh at each of its stencil points."""

    def component(comp):
        def func(pt):
            val = fields(pt)
            return float(np.atleast_1d(val)[comp])

        return func

    second_order = any(sum(orders) >= 2 for _, _, orders in terms)
    base = SECOND_ORDER_STEP if second_order else FIRST_ORDER_STEP
    residuals = []
    for pt in points:
        pt = np.asarray(pt, dtype=float)
        step = h if h is not None else fd_step(pt, base)
        vals = [coeff * fd_partial(component(comp), pt, orders, step)
                for coeff, comp, orders in terms]
        scale = max(1.0, max(abs(v) for v in vals))
        residuals.append(abs(sum(vals)) / scale)
    return worst_of(residuals)


def _outcome(residual, *args, **kwargs):
    """The residual's bits, or the type of the exception it raises."""
    try:
        return float.hex(residual(*args, **kwargs))
    except (ArithmeticError, ValueError, PhialgError) as exc:
        return type(exc).__name__


_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
_coeff = st.floats(-3.0, 3.0, allow_nan=False)
_term = st.tuples(_coeff, st.integers(0, 1), st.sampled_from(_ORDERS))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(terms=st.lists(_term, min_size=1, max_size=6),
       params=st.lists(_coeff, min_size=4, max_size=4),
       seed=st.integers(0, 2**16),
       h=st.sampled_from([None, 1e-3, 1e-5]))
def test_pde_residual_equals_the_term_by_term_reference_bit_for_bit(terms, params, seed, h):
    a, b, c, d = params

    def fields(pt):
        x, y = pt
        return (math.exp(a * x) * math.cos(b * y), math.sin(c * x * y) + d * x * x)

    points = _points(np.random.default_rng(seed), count=4)
    assert (_outcome(pde_residual, terms, fields, points, h=h)
            == _outcome(_naive_pde_residual, terms, fields, points, h=h))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(params=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       family=st.sampled_from(["trig", "hyperbolic"]),
       seed=st.integers(0, 2**16))
def test_system451_residual_equals_both_reference_equations_bit_for_bit(params, family, seed):
    a1, a2, b1, b2, c1, c2 = params
    try:
        sol = system_451_solutions(a1, a2, b1, b2, family, c1, c2)
    except DegenerateParameters:
        return
    points = _points(np.random.default_rng(seed), count=4)
    terms_1 = [(a1, 0, (1, 0)), (1.0, 0, (0, 1)), (b1, 0, (0, 0)), (-b1, 1, (0, 0))]
    terms_2 = [(-a2, 1, (1, 0)), (1.0, 1, (0, 1)), (-b2, 0, (0, 0)), (b2, 1, (0, 0))]

    def reference():
        return worst_of([_naive_pde_residual(terms_1, sol.fields, points),
                         _naive_pde_residual(terms_2, sol.fields, points)])

    assert _outcome(sol.residual, a1, a2, b1, b2, points) == _outcome(reference)


def _counting(func, calls):
    def counted(pt):
        calls.append(np.array(pt))
        return func(pt)

    return counted


def test_fields_are_evaluated_once_per_distinct_stencil_point(rng):
    pts = _points(rng, count=7)
    calls = []
    fields = _counting(lambda pt: (math.sin(pt[0]), math.cos(pt[1])), calls)
    FirstOrderPDE(a=1.3, b=-0.7, c=0.4, d=2.1).residual(fields, pts)
    assert len(calls) == 4 * len(pts)  # pt +- h e_x, pt +- h e_y; not 8 (terms x sides)

    sol = system_451_solutions(1.0, 1.0, 1.0, 1.0, "trig", 1.0, 0.0)
    calls = []
    sol.y = _counting(sol.y, calls)  # sol.fields calls y exactly once
    sol.residual(1.0, 1.0, 1.0, 1.0, pts)
    assert len(calls) == 5 * len(pts)  # both equations share pt and its four neighbours


def _counting_map(func, calls, broadcasts):
    """A SmoothMap R^2 -> R^2 that records the points each evaluation gets."""
    def counted(u):
        calls.append(np.array(u))
        return func(u)

    return SmoothMap(2, 2, counted, name="counted", broadcasts=broadcasts)


@pytest.mark.parametrize("count", [1, 7, 20])
def test_broadcasting_fields_take_one_batch_call_per_stencil_offset(count):
    alg = algebra_a2_1(0.3, -0.2)
    pde = FirstOrderPDE(a=1.3, b=-0.7, c=0.4, d=2.1)
    fn = phi_polynomial([alg.zero(), alg.zero(), alg.unit], first_order_phi(pde, 0.3, -0.2), alg)
    pts = _points(np.random.default_rng(count), count=count)
    calls = []
    pde.residual(_counting_map(fn, calls, broadcasts=True), pts)
    assert [c.shape for c in calls] == [(count, 2)] * 4  # pt +- h e_x, pt +- h e_y

    calls = []
    pde.residual(_counting_map(fn, calls, broadcasts=False), pts)
    assert len(calls) == 4 * count and all(c.shape == (2,) for c in calls)


def test_system451_residual_is_nan_when_only_the_second_equation_is():
    # y = 0 everywhere and z = 0 at the point itself, so the first equation
    # reads 0; the second differentiates z, which is nan at the neighbours
    point = np.array([0.5, 0.25])
    sol = System451Solution(y=lambda pt: 0.0,
                            z=lambda pt: 0.0 if np.array_equal(pt, point) else math.nan,
                            family="trig", h1=None, h2=None)
    assert math.isnan(sol.residual(1.0, 1.0, 1.0, 1.0, [point]))


# -- first order ------------------------------------------------------------------


def test_first_order_phi_zero_parameters_closed_form():
    pde = FirstOrderPDE(a=1.3, b=-0.7, c=0.4, d=2.1)
    phi = first_order_phi(pde, 0.0, 0.0)
    expected = np.array([[pde.d, pde.b], [pde.c - pde.d, pde.a - pde.b]])
    npt.assert_allclose(phi.matrix, expected, atol=1e-14)


def test_first_order_phi_itself_solves(rng):
    pde = FirstOrderPDE(a=0.9, b=1.4, c=-0.6, d=0.8)
    phi = first_order_phi(pde, 0.0, 0.0)
    fields = lambda pt: phi(pt)
    assert pde.residual(fields, _points(rng)) <= 1e-8


def test_first_order_phi_square_closed_form(rng):
    a, b, c, d = 1.1, -0.4, 0.7, 1.6
    pde = FirstOrderPDE(a=a, b=b, c=c, d=d)
    phi = first_order_phi(pde, 0.0, 0.0)
    alg = algebra_a2_1(0.0, 0.0)
    f = phi_polynomial([alg.zero(), alg.zero(), alg.unit], phi, alg)
    for _ in range(10):
        x, y = rng.uniform(-1.5, 1.5, 2)
        u_exp = d * d * x * x + 2 * b * d * x * y + b * b * y * y
        v_exp = (2 * (c * d - d * d) * x * x + 2 * (a * d + b * c - 2 * b * d) * x * y
                 + 2 * (a * b - b * b) * y * y)
        npt.assert_allclose(f(np.array([x, y])), [u_exp, v_exp], atol=1e-12)
    assert pde.residual(f, _points(rng)) <= 1e-6


def test_first_order_degenerate_parameters():
    with pytest.raises(DegenerateParameters):
        first_order_phi(FirstOrderPDE(1, 1, 1, 1), 0.5, 0.5)


def test_first_order_random_sweep(rng):
    for _ in range(50):
        pde = FirstOrderPDE(*rng.uniform(-2, 2, 4))
        alpha, beta = rng.uniform(-1.5, 1.5, 2)
        if abs(alpha + beta - 1.0) < 0.1:
            alpha += 0.5
        phi = first_order_phi(pde, alpha, beta)
        alg = algebra_a2_1(alpha, beta)
        zero, unit = alg.zero(), alg.unit
        functions = [
            phi_polynomial([zero, unit], phi, alg),
            phi_polynomial([zero, zero, unit], phi, alg),
            phi_polynomial([0.4 * unit, unit, -0.3 * unit, 0.2 * unit], phi, alg),
            SmoothMap(2, 2, lambda u, P=phi, A=alg: A.exp(P(u)),
                      jac=lambda u, P=phi, A=alg: A.rep(A.exp(P(u))) @ P.jacobian(u)),
            SmoothMap.constant(rng.uniform(-1, 1, 2), k=2),
        ]
        pts = _points(rng, count=4, lo=-0.8, hi=0.8)
        for fn in functions:
            assert pde.residual(fn, pts) <= 1e-6


# -- coupled system ---------------------------------------------------------------


def test_system451_zero_solution(rng):
    sol = system_451_solutions(1.0, 1.0, 1.0, 1.0, "trig", 0.0, 0.0)
    for pt in _points(rng, count=5):
        assert sol.y(pt) == 0.0 and sol.z(pt) == 0.0


def test_system451_unit_parameters(rng):
    pts = _points(rng)
    sol = system_451_solutions(1.0, 1.0, 1.0, 1.0, "trig", 1.0, 0.0)
    assert sol.residual(1.0, 1.0, 1.0, 1.0, pts) <= 1e-6
    solh = system_451_solutions(1.0, 1.0, 1.0, 1.0, "hyperbolic", 1.0, 0.0)
    assert solh.residual(1.0, 1.0, 1.0, 1.0, pts) <= 1e-6


def test_system451_random_sweep(rng):
    for _ in range(20):
        a1, a2, b1, b2 = rng.uniform(-1.5, 1.5, 4)
        if abs(a1 + a2) < 0.2:
            a1 += 0.5
        c1, c2 = rng.uniform(-1, 1, 2)
        family = "trig" if rng.random() < 0.5 else "hyperbolic"
        sol = system_451_solutions(a1, a2, b1, b2, family, c1, c2)
        assert sol.residual(a1, a2, b1, b2, _points(rng, count=6)) <= 1e-6


def test_system451_degenerate():
    with pytest.raises(DegenerateParameters):
        system_451_solutions(1.0, -1.0, 0.3, 0.4, "trig", 1.0, 0.0)
    with pytest.raises(ValueError):
        system_451_solutions(1.0, 1.0, 0.3, 0.4, "nope", 1.0, 0.0)


# -- second order -----------------------------------------------------------------


def test_second_order_requires_first_order_term():
    with pytest.raises(ConditionViolated):
        second_order_solution(SecondOrderPDE(A=1, B=0, C=1, D=0, E=0), 1.0, 1.0)


def test_second_order_spec_instance():
    sol = second_order_solution(SecondOrderPDE(A=1, B=0, C=1, D=1, E=1), 1.0, 1.0)
    assert sol.branch == "delta_nonzero"
    npt.assert_allclose([sol.a, sol.b], [-1.0, -1.0], atol=1e-14)
    assert sol.residual <= 1e-6
    assert not sol.flagged


def test_second_order_branch_selection_scale_invariant():
    pde = SecondOrderPDE(A=1, B=0, C=1, D=1, E=1)
    s1 = second_order_solution(pde, 1.0, 1.0)
    s2 = second_order_solution(pde, 2.0, 2.0)
    assert s1.branch == s2.branch
    npt.assert_allclose([s1.a, s1.b], [s2.a, s2.b], atol=1e-14)


def test_second_order_condition_violated():
    pde = SecondOrderPDE(A=1, B=0, C=1, D=1, E=1)
    with pytest.raises(ConditionViolated):
        second_order_solution(pde, 1.0, 3.0)  # alpha != beta breaks the proportionality


def test_second_order_delta_zero_branch():
    # A C + p1^2 = 0 with AE = p1 D
    pde = SecondOrderPDE(A=1.0, B=0.0, C=-1.0, D=1.0, E=1.0, p1=1.0, p2=0.0)
    sol = second_order_solution(pde, 1.0, 2.0)
    assert sol.branch == "delta_zero"
    npt.assert_allclose([sol.a, sol.b], [1.0, 2.0], atol=1e-12)
    assert sol.residual <= 1e-6
    with pytest.raises(ConditionViolated):
        second_order_solution(SecondOrderPDE(A=1.0, B=0.0, C=-1.0, D=1.0, E=2.0, p1=1.0),
                              1.0, 2.0)


def test_second_order_random_residuals_recorded(rng):
    flagged = []
    for _ in range(20):
        A, B, C, D, E = rng.uniform(-1.5, 1.5, 5)
        if abs(D) + abs(E) < 0.2:
            D += 0.5
        p1, p2 = rng.uniform(-1, 1, 2)
        pde = SecondOrderPDE(A=A, B=B, C=C, D=D, E=E, p1=p1, p2=p2)
        m = p1 + p2 * B
        # choose (alpha, beta) on the required proportionality line
        alpha = 2.0 * B * E - C * D - m * E
        beta = -A * E + m * D
        if abs(alpha) < 1e-8 and abs(beta) < 1e-8:
            continue
        try:
            sol = second_order_solution(pde, alpha, beta)
        except (ConditionViolated, DegenerateParameters):
            continue
        if sol.flagged:
            flagged.append((A, B, C, D, E, p1, p2, sol.residual))
    assert not flagged, f"unexpected residual flags: {flagged}"


# -- heat equation ----------------------------------------------------------------


def test_heat_all_zero_parameters_inconsistent():
    with pytest.raises(DeltaZeroInconsistent):
        heat_solution(HeatProblem(alpha=1.0, p=(0.0,) * 6))


def test_heat_spec_instance():
    hp = HeatProblem(alpha=1.0, p=(1, 0, 0, 0, 0, 1))
    sol = heat_solution(hp)
    npt.assert_allclose(sol.delta, 2.0)
    npt.assert_allclose(sol.b, [1.0, -1.0, 0.0, 0.0], atol=1e-12)
    matrix = heat_system_matrix(1.0, (1, 0, 0, 0, 0, 1))
    npt.assert_allclose(matrix @ sol.b, [1, 0, 0, 0], atol=1e-12)
    assert sol.residual <= 1e-6
    assert abs(sol.diagnostic) <= 1e-12


def test_heat_formula_solves_system_random(rng):
    checked = 0
    while checked < 30:
        alpha = rng.uniform(-2, 2)
        p = tuple(rng.uniform(-1.5, 1.5, 6))
        delta = heat_delta(alpha, p)
        if abs(delta) < 1e-3:
            continue
        matrix = heat_system_matrix(alpha, p)
        npt.assert_allclose(np.linalg.det(matrix), delta, atol=1e-10 * max(1, abs(delta)))
        b = heat_b_closed_form(alpha, p)
        npt.assert_allclose(matrix @ b, [1, 0, 0, 0], atol=1e-10)
        checked += 1


def test_heat_solution_residual_and_diagnostic(rng):
    for _ in range(10):
        alpha = rng.uniform(0.2, 2)
        p = tuple(rng.uniform(-1.5, 1.5, 6))
        if abs(heat_delta(alpha, p)) < 1e-3:
            continue
        sol = heat_solution(HeatProblem(alpha=alpha, p=p, amplitude=0.7))
        assert abs(sol.diagnostic) <= 1e-10
        assert sol.residual <= 1e-4
        assert not sol.flagged


def test_heat_b1_zero():
    # alpha = 0 makes the first exponent vanish while the system stays solvable
    with pytest.raises(B1Zero):
        heat_solution(HeatProblem(alpha=0.0, p=(1, 0, 0, 0, 0, 1)))


@pytest.mark.parametrize("build", [
    lambda: heat_solution(HeatProblem(alpha=math.nan, p=(1, 0, 0, 0, 0, 1))),
    lambda: HeatProblem(alpha=1.0, p=(1, 0, math.inf, 0, 0, 1)),
    lambda: HeatProblem(alpha=1.0, p=(1, 0, 0, 0, 0, 1), amplitude=-math.inf),
    lambda: FirstOrderPDE(a=1.0, b=math.nan, c=0.0, d=1.0),
    lambda: SecondOrderPDE(A=1.0, B=0.0, C=1.0, D=math.inf, E=1.0),
    lambda: SecondOrderPDE(A=1.0, B=0.0, C=1.0, D=1.0, E=1.0, p1=math.nan),
    lambda: system_451_solutions(1.0, 1.0, math.nan, 1.0, "trig", 1.0, 0.0),
    lambda: system_451_solutions(1.0, 1.0, 1.0, 1.0, "hyperbolic", math.inf, 0.0),
])
def test_non_finite_parameters_are_rejected_before_lapack(build, capfd):
    with pytest.raises(DegenerateParameters):
        build()
    assert capfd.readouterr().err == ""
