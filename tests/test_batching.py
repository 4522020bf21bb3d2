"""Batched quadrature and batched verifiers give the bits of the per-node and
per-point loops they replaced.

Each reference below evaluates one node at a time, the way the integrand was
evaluated before the node stack was batched: ``f(u)``, ``phi.jacobian(u) @
path.velocity(t)`` and ``algebra.product`` per node, then the Simpson weights.
The stencil references difference one point at a time, as the ODE, PDE and
billiards verifiers did before their points were stacked.  Every comparison is
``np.array_equal`` or ``float.hex``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from phialg import paper_examples
from phialg.algebra import algebra_a2_1, algebra_a2_12, complex_algebra
from phialg.calculus import (UNIQUE_RTOL, _poly_eval, phi_derivative, phi_polynomial,
                             phi_reciprocal_power, poly_derivative_coeffs)
from phialg.catalog import PHI_BUILDERS
from phialg.errors import DegenerateParameters, SingularElement
from phialg.integrals import Path, closed_loop_check, line_integral
from phialg.maps import SmoothMap, compose, each, fd_jacobian, fd_partial, fd_step, worst_of
from phialg.odes import (_cumulative_integral, picard, separable_solve, solution_residual,
                         solve_exponential, solve_phi_rhs, solve_square_rhs)
from phialg.pdes import (FIRST_ORDER_STEP, SECOND_ORDER_STEP, FirstOrderPDE, HeatProblem,
                         SecondOrderPDE, first_order_phi)
from phialg.quadratic import (_COMPLEX_GRID, billiards_field, billiards_parameters,
                              verify_billiards_algebrization)

LADDER = (16, 32, 64)


def reference_integral(f, phi, algebra, path, segments):
    n = segments + segments % 2
    ts = np.linspace(0.0, path.t1, n + 1)
    values = np.stack([algebra.product(f(path.point(t)),
                                       phi.jacobian(path.point(t)) @ path.velocity(t))
                       for t in ts])
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = path.t1 / n
    return (h / 3.0) * np.tensordot(weights, values, axes=(0, 0))


def reference_cumulative(values, h):
    out = np.zeros_like(values)
    for idx in range(2, values.shape[0], 2):
        out[idx] = out[idx - 2] + (h / 3.0) * (values[idx - 2] + 4.0 * values[idx - 1] + values[idx])
    for idx in range(1, values.shape[0], 2):
        out[idx] = out[idx - 1] + (h / 12.0) * (
            5.0 * values[idx - 1] + 8.0 * values[idx] - values[idx + 1])
    return out


def reference_picard(F, phi, algebra, w0, path, tol=1e-10, max_iter=60):
    n = path.segments + path.segments % 2
    ts = np.linspace(0.0, path.t1, n + 1)
    points = np.stack([path.point(t) for t in ts])
    dphi = np.stack([phi.jacobian(p) @ path.velocity(t) for p, t in zip(points, ts)])
    current = np.tile(w0, (len(ts), 1)).astype(np.result_type(w0, dphi))
    history = []
    for _ in range(max_iter):
        integrand = np.stack([algebra.product(F(w), d) for w, d in zip(current, dphi)])
        nxt = w0 + reference_cumulative(integrand, path.t1 / n)
        history.append(float(np.abs(nxt - current).max()))
        current = nxt
        if history[-1] <= tol:
            return points, current, history
    raise AssertionError("reference Picard iteration did not converge")


def embedded_circle(center, radius, basis):
    """A closed path with a plain scalar gamma: evaluated node by node."""
    e1, e2 = basis

    def gamma(t):
        return center + radius * (np.cos(t) * e1 + np.sin(t) * e2)

    def velocity(t):
        return radius * (-np.sin(t) * e1 + np.cos(t) * e2)

    return Path(gamma, 2.0 * np.pi, derivative=velocity, closed=True)


def loop_cases(families):
    rng = np.random.default_rng(11)
    for fam in families:
        center = fam.sample(rng)
        if fam.phi.k == 2:
            path = Path.circle(center=tuple(center), radius=0.1)
        else:
            basis = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
            path = embedded_circle(center, 0.1, basis)
        for name, f in fam.function_items():
            yield fam, name, f, path


def test_line_integral_and_loop_check_match_the_node_loop(families):
    count = 0
    for fam, name, f, path in loop_cases(families):
        label = f"{fam.name} {name}"
        got = line_integral(f, fam.phi, fam.algebra, path, segments=64)
        want = reference_integral(f, fam.phi, fam.algebra, path, 64)
        assert np.array_equal(got, want), label
        report = closed_loop_check(f, fam.phi, fam.algebra, path, ladder=LADDER)
        mags = [float(np.linalg.norm(reference_integral(f, fam.phi, fam.algebra, path, n)))
                for n in LADDER]
        assert report.magnitudes == mags, label
        count += 1
    assert count == sum(len(fam.functions) for fam in families)


def per_level_magnitudes(f, phi, algebra, path, ladder):
    """Each ladder level evaluated on its own, as before levels shared their nodes."""
    return [float(np.linalg.norm(line_integral(f, phi, algebra, path, segments=n)))
            for n in ladder]


@pytest.mark.parametrize("ladder", [
    (64, 128, 256, 512),   # the default: each level adds the nodes between the last one's
    (12, 25, 50, 100),     # the CLI's N // 8 ladder for N = 100: only 100 shares nodes
    (7, 14, 28),           # odd counts bumped to even: 8 and 14 whole, 28 shares 14's
    (9, 48, 18, 5, 16),    # unsorted: 6 is a slice of 48, while 16 (a third) is whole
])
def test_loop_ladder_matches_each_level_on_its_own(families, ladder):
    for fam, name, f, path in loop_cases(families):
        report = closed_loop_check(f, fam.phi, fam.algebra, path, ladder=ladder)
        want = per_level_magnitudes(f, fam.phi, fam.algebra, path, ladder)
        assert np.array_equal(report.magnitudes, want), f"{fam.name} {name}"


def test_default_ladder_evaluates_each_distinct_node_once():
    c = complex_algebra()
    calls = []

    def square(u):  # takes one point only, so every node is one call
        calls.append(1)
        x, y = u
        return np.array([x * x - y * y, 2.0 * x * y])

    f = SmoothMap(2, 2, square, name="counted square")
    closed_loop_check(f, SmoothMap.identity(2), c, Path.circle(center=(2.0, 0.0)))
    assert len(calls) == 513


def test_loop_ladder_through_the_singular_set_raises_at_the_first_failing_level():
    alg = algebra_a2_12()
    ident = SmoothMap.identity(2)
    recip = phi_reciprocal_power(ident, alg, 1)
    # (1, 0) at t = pi/2 is a node of 12 segments only; (0, -1) at t = pi is a node of both
    path = Path.circle(center=(1.0, -1.0), radius=1.0)
    messages = []
    for n in (6, 12):
        with pytest.raises(SingularElement) as level:
            line_integral(recip, ident, alg, path, segments=n)
        messages.append(str(level.value))
    assert messages[0] != messages[1]
    with pytest.raises(SingularElement) as got:
        closed_loop_check(recip, ident, alg, path, ladder=(6, 12))
    assert str(got.value) == messages[0]


def reference_rational(num, den, phi, algebra):
    """Value and Jacobian of num / den from one shared evaluation, as before the split."""
    dnum, dden = poly_derivative_coeffs(num), poly_derivative_coeffs(den)

    def value_and_jacobian(u):
        w = phi(u)
        p, q = _poly_eval(num, algebra, w), _poly_eval(den, algebra, w)
        qinv = algebra.inverse(q)
        dp, dq = _poly_eval(dnum, algebra, w), _poly_eval(dden, algebra, w)
        deriv = algebra.product(algebra.product(dp, q) - algebra.product(p, dq),
                                algebra.product(qinv, qinv))
        return algebra.product(p, qinv), algebra.rep(deriv) @ phi.jacobian(u)

    return value_and_jacobian


def test_rational_value_and_jacobian_match_the_shared_evaluation(families):
    rng = np.random.default_rng(6)
    count = 0
    for fam in families:
        if "e/phi" not in fam.functions:
            continue
        alg = fam.algebra
        ref = reference_rational([alg.unit], [alg.zero(), alg.unit], fam.phi, alg)
        f = fam.functions["e/phi"]
        stack = np.stack([fam.sample(rng) for _ in range(6)]).reshape(2, 3, -1)
        for u in (stack[0, 0], stack):
            value, jac = ref(u)
            assert np.array_equal(f(u), value), fam.name
            assert np.array_equal(f.jacobian(u), jac), fam.name
        assert np.array_equal(f(stack[1, 2]), ref(stack[1, 2])[0]), fam.name
        assert np.array_equal(f.jacobian(stack[1, 2]), ref(stack[1, 2])[1]), fam.name
        count += 1
    assert count == 9


def test_open_segments_and_odd_counts_match_the_node_loop(families):
    fam = families[0]
    f = fam.functions["cubic"]
    path = Path.segment([1.0, 0.5], [1.4, 1.1])
    for segments in (1, 7, 64):
        got = line_integral(f, fam.phi, fam.algebra, path, segments=segments)
        assert np.array_equal(got, reference_integral(f, fam.phi, fam.algebra, path, segments))


def test_fallback_maps_and_paths_match_the_node_loop():
    c = complex_algebra()

    def square(u):
        x, y = u
        return np.array([x * x - y * y, 2.0 * x * y])

    phi = SmoothMap(2, 2, square, name="z^2 unpacked")  # no Jacobian: central differences
    f = phi_polynomial([c.zero(), c.unit], phi, c)
    path = Path(lambda t: np.array([1.5 + 0.3 * np.cos(t), 0.2 + 0.3 * np.sin(t)]),
                2.0 * np.pi, closed=True)  # no derivative: central differences
    assert not phi.broadcasts and not f.broadcasts and not path.broadcasts
    got = line_integral(f, phi, c, path, segments=32)
    assert np.array_equal(got, reference_integral(f, phi, c, path, 32))
    g = compose(SmoothMap.identity(2), phi)
    assert np.array_equal(line_integral(g, phi, c, path, segments=32),
                          reference_integral(g, phi, c, path, 32))


def test_batch_evaluation_matches_points(families):
    rng = np.random.default_rng(3)
    maps = [builder() for builder in PHI_BUILDERS.values()]
    maps += [f for fam in families for f in fam.functions.values()]
    maps += [SmoothMap.constant([0.5, -1.0], k=2), compose(maps[0], maps[2])]
    for m in maps:
        points = rng.uniform(0.5, 1.5, size=(2, 5, m.k))
        values = m(points)
        jacobians = m.jacobian(points)
        assert values.shape == (2, 5, m.n) and jacobians.shape == (2, 5, m.n, m.k)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(values[idx], m(points[idx])), m.name
            assert np.array_equal(jacobians[idx], m.jacobian(points[idx])), m.name


def test_a_non_broadcasting_map_takes_a_stack_point_by_point():
    calls = []

    def square(u):  # takes one point only
        calls.append(u.shape)
        x, y = u
        return np.array([x * x - y * y, 2.0 * x * y])

    def jac(u):
        x, y = u
        return np.array([[2.0 * x, -2.0 * y], [2.0 * y, 2.0 * x]])

    points = np.random.default_rng(13).uniform(-2.0, 2.0, size=(6, 2))
    for m in (SmoothMap(2, 2, square, jac=jac), SmoothMap(2, 2, square)):
        assert not m.broadcasts
        assert np.array_equal(m(points), each(m, points))
        assert np.array_equal(m.jacobian(points), each(m.jacobian, points))
        assert np.array_equal(m.jacobian(points[1:2]), m.jacobian(points[1])[None])
    assert set(calls) == {(2,)}


def test_user_paths_take_parameter_arrays_one_scalar_at_a_time():
    seen = []

    def gamma(t):
        seen.append(type(t))
        return np.array([1.5 + 0.3 * np.cos(t), 0.2 + 0.3 * np.sin(t), t * t])

    def derivative(t):
        seen.append(type(t))
        return np.array([-0.3 * np.sin(t), 0.3 * np.cos(t), 2.0 * t])

    ts = np.linspace(0.0, 2.0, 9)
    for path in (Path(gamma, 2.0), Path(gamma, 2.0, derivative=derivative)):
        assert not path.broadcasts
        points, velocities = path.point(ts), path.velocity(ts)
        assert points.shape == velocities.shape == (9, 3)
        assert np.array_equal(points, np.stack([path.point(t) for t in ts]))
        assert np.array_equal(velocities, np.stack([path.velocity(t) for t in ts]))
    assert set(seen) == {np.float64}


def test_algebra_stacks_match_elements(families):
    rng = np.random.default_rng(4)
    for alg in {id(fam.algebra): fam.algebra for fam in families}.values():
        a = rng.uniform(0.5, 1.5, size=(7, alg.dim)) * alg.unit + rng.uniform(-0.2, 0.2, (7, alg.dim))
        b = rng.standard_normal((7, alg.dim))
        products, reps, inverses = alg.product(a, b), alg.rep(a), alg.inverse(a)
        for i in range(7):
            assert np.array_equal(products[i], alg.product(a[i], b[i]))
            assert np.array_equal(reps[i], alg.rep(a[i]))
            assert np.array_equal(inverses[i], alg.inverse(a[i]))


def test_stacked_inverse_raises_for_the_first_singular_element():
    alg = algebra_a2_12()
    stack = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 0.0]])
    with pytest.raises(SingularElement) as alone:
        alg.inverse(stack[1])
    with pytest.raises(SingularElement) as stacked:
        alg.inverse(stack)
    assert str(stacked.value) == str(alone.value)


def test_reciprocal_loop_through_the_singular_set_still_raises():
    alg = algebra_a2_12()  # singular where a component vanishes
    ident = SmoothMap.identity(2)
    recip = phi_reciprocal_power(ident, alg, 1)
    path = Path.circle(center=(1.0, 1.0), radius=1.0)  # the node at t = pi is (0, 1)
    with pytest.raises(SingularElement) as want:
        reference_integral(recip, ident, alg, path, 64)
    with pytest.raises(SingularElement) as got:
        line_integral(recip, ident, alg, path, segments=64)
    assert str(got.value) == str(want.value)


def test_cumulative_integral_matches_the_running_loop():
    rng = np.random.default_rng(8)
    real = rng.standard_normal((129, 3))
    cplx = rng.standard_normal((33, 2)) + 1j * rng.standard_normal((33, 2))
    for values, h in ((real, 0.013), (cplx, 0.25), (real[:3], 1.0)):
        assert np.array_equal(_cumulative_integral(values, h), reference_cumulative(values, h))


def indexed_square(algebra):
    """w -> w^2 written with w[0], so it takes one point and no stack."""
    def F(w):
        return algebra.product(np.array([w[0], w[1]]), w)

    return F


def test_picard_with_a_non_broadcasting_rhs_matches_the_node_loop(families):
    for fam in families:
        if not fam.name.startswith("complex-"):
            continue
        u0 = fam.sample(np.random.default_rng(2))
        path = Path.segment(u0, u0 + 0.2 / np.sqrt(fam.phi.k), segments=64)
        w0 = np.array([0.4, 0.2])
        F = indexed_square(fam.algebra)
        res = picard(F, fam.phi, fam.algebra, w0, path)
        taus, values, history = reference_picard(F, fam.phi, fam.algebra, w0, path)
        assert np.array_equal(res.taus, taus), fam.name
        assert np.array_equal(res.values, values), fam.name
        assert res.history == history, fam.name


def reference_separable(K, L, phi, algebra, w0, tau0, taus, segments):
    """Newton at each tau in turn, the left side extended by each step, one node at a time.

    The pair (w, left(w)) is carried from one tau to the next; a step from w
    to w' adds the integral over [w, w'] with
    max(2, ceil(segments |w' - w| / max(|w - w0|, |w' - w0|, |w' - w|)))
    segments, and a zero step adds nothing.
    """
    kmap = SmoothMap(phi.k, algebra.dim, K)
    inv_L = SmoothMap(algebra.dim, algebra.dim, lambda v: algebra.inverse(L(v)))
    ident = SmoothMap.identity(algebra.dim)

    def piece(w, w_new):
        step = float(np.linalg.norm(w_new - w))
        if step == 0.0:
            return algebra.zero()
        scale = max(step, float(np.linalg.norm(w - w0)), float(np.linalg.norm(w_new - w0)))
        count = max(2, math.ceil(segments * (step / scale)))
        return reference_integral(inv_L, ident, algebra, Path.segment(w, w_new), count)

    w, left = w0.copy(), algebra.zero()
    out = []
    for tau in taus:
        target = reference_integral(kmap, phi, algebra, Path.segment(tau0, tau), segments)
        tol = 1e-12 * (1.0 + float(np.linalg.norm(target)))
        for _ in range(50):
            r = left - target
            if np.linalg.norm(r) <= tol:
                break
            w_new = w - np.linalg.solve(algebra.rep(algebra.inverse(L(w))), r)
            w, left = w_new, left + piece(w, w_new)
        else:
            raise AssertionError("reference Newton did not converge")
        out.append(w)
    return np.stack(out)


def test_separable_with_a_non_broadcasting_L_matches_the_node_loop(families):
    fam = next(f for f in families if f.name == "complex-swap")
    alg, phi = fam.algebra, fam.phi
    K = phi_polynomial([alg.zero(), alg.unit], phi, alg)
    L = indexed_square(alg)
    w0, tau0 = np.array([0.6, 0.3]), np.array([1.2, 0.8])
    taus = [np.array([1.25, 0.85]), np.array([1.3, 0.95])]
    sol = separable_solve(K, L, phi, alg, w0, tau0, segments=32)
    for tau in taus:
        want = reference_separable(K, L, phi, alg, w0, tau0, [tau], 32)[0]
        assert np.array_equal(sol.solve_at(tau), want)
    assert np.array_equal(sol.eval_path(taus), reference_separable(K, L, phi, alg, w0, tau0, taus, 32))

    def plain_K(u):  # a plain callable is wrapped in a SmoothMap once
        return K(u)

    sol2 = separable_solve(plain_K, L, phi, alg, w0, tau0, segments=32)
    assert np.array_equal(sol2.eval_path(taus),
                          reference_separable(plain_K, L, phi, alg, w0, tau0, taus, 32))


def test_separable_path_calls_L_fewer_times_than_one_integral_per_point(families):
    fam = next(f for f in families if f.name == "complex-swap")
    alg, phi = fam.algebra, fam.phi
    calls = []

    def L(w):
        calls.append(1)
        return alg.product(w, w)

    K = phi_polynomial([alg.zero(), alg.unit], phi, alg)
    tau0, tau1 = np.array([1.2, 0.8]), np.array([1.35, 0.9])
    sol = separable_solve(K, L, phi, alg, np.array([0.6, 0.3]), tau0, segments=128)
    sol.eval_path([tau0 + s * (tau1 - tau0) for s in (1 / 3, 2 / 3, 1.0)])
    # one straight integral from w0 per point would alone take 3 (segments + 1) calls
    assert 0 < len(calls) < 3 * (128 + 1)


# -- the finite-difference stencil over a stack of points -------------------------

_STENCIL_ORDERS = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 1, 1)]


def _cubic(p):
    """A cubic in the last axis of p, in + - * only: the same bits for one point and a stack."""
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return 0.7 * x * x * y - 1.3 * y * z + z * z * z / 3.0 - 2.0 * x


def _cubic_pair(p):
    return np.stack([_cubic(p), p[..., 0] * p[..., 2] - 0.5 * p[..., 1] * p[..., 1]], axis=-1)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(points=arrays(float, st.tuples(st.integers(1, 6), st.just(3)),
                     elements=st.floats(allow_nan=True, allow_infinity=True)
                     | st.floats(-4.0, 4.0)),
       orders=st.sampled_from(_STENCIL_ORDERS),
       func=st.sampled_from([_cubic, _cubic_pair]),
       shared_step=st.sampled_from([None, 1e-3]))
def test_stacked_fd_partial_equals_the_per_point_difference(points, orders, func, shared_step):
    with np.errstate(all="ignore"):  # huge, infinite and nan points stay in the stack
        steps = (np.array([fd_step(p) for p in points]) if shared_step is None
                 else np.full(len(points), shared_step))
        want = np.stack([np.asarray(fd_partial(func, p, orders, h))
                         for p, h in zip(points, steps)])
        got = fd_partial(func, points, orders, steps if shared_step is None else shared_step)
        jac = fd_jacobian(func, points)
        want_jac = np.stack([fd_jacobian(func, p) for p in points])
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    if func is _cubic_pair:
        assert np.array_equal(jac, want_jac, equal_nan=True)


def reference_solution_residual(w, rhs, phi, algebra, grid, step=1e-6):
    """solution_residual as it ran point by point, one w call per stencil point."""
    residuals, values = [], []
    for tau in grid:
        tau = np.asarray(tau, dtype=float)
        wt = np.asarray(w(tau))
        values.append(wt)
        dw = fd_jacobian(w, tau, base=step)
        jphi = phi.jacobian(tau)
        target = algebra.rep(rhs(tau, wt)) @ jphi
        denom = 1.0 + float(np.linalg.norm(jphi))
        residuals.append(float(np.linalg.norm(dw - target)) / denom)
    return np.stack(values), worst_of(residuals)


def _ode_cases(families):
    """(name, stacked solution, per-point w, per-point rhs) for the three closed-form families."""
    rng = np.random.default_rng(21)
    for fam in families:
        alg, phi = fam.algebra, fam.phi
        zero, unit = alg.zero(), alg.unit
        K = phi_polynomial([zero, unit], phi, alg, name="phi")
        H = phi_polynomial([zero, zero, 0.5 * unit], phi, alg, name="phi^2/2")
        C = rng.uniform(2.0, 3.0) * unit + rng.uniform(-0.3, 0.3, alg.dim)
        yield (fam, "square", solve_square_rhs(K, H, C, phi, alg),
               lambda tau, H=H, C=C, alg=alg: -alg.inverse(H(tau) + C),
               lambda tau, wt, K=K, alg=alg: alg.product(K(tau), alg.product(wt, wt)))
        yield (fam, "phi-rhs", solve_phi_rhs(K, C, alg),
               lambda tau, K=K, C=C, alg=alg: alg.product(K(tau), K(tau)) / 2.0 + C,
               lambda tau, wt, K=K: K(tau))
        yield (fam, "exp", solve_exponential(phi, alg, C),
               lambda tau, phi=phi, C=C, alg=alg: alg.product(C, alg.exp(phi(tau))),
               lambda tau, wt: wt)


def test_ode_solution_residuals_match_the_per_point_stencil(families):
    rng = np.random.default_rng(5)
    for fam, name, sol, w, rhs in _ode_cases(families):
        grid = [fam.sample(rng) for _ in range(6)]
        phi = sol.phi
        samples = sol.samples(grid)
        want_values, want = reference_solution_residual(w, rhs, phi, sol.algebra, grid)
        assert float.hex(samples.max_residual) == float.hex(want), (fam.name, name)
        assert np.array_equal(samples.values, want_values), (fam.name, name)
        assert all(np.array_equal(t, g) for t, g in zip(samples.taus, grid))


def test_a_per_point_solution_goes_through_each_with_the_same_bits(families):
    fam = next(f for f in families if f.name == "param-family-linear")
    alg, phi = fam.algebra, fam.phi
    calls = []

    def w(tau):  # takes one point only
        calls.append(tau.shape)
        return alg.product(phi(tau), np.array([1.0, float(tau[0])]))

    def rhs(tau, wt):
        return alg.product(wt, wt)

    grid = [fam.sample(np.random.default_rng(6)) for _ in range(5)]
    samples = solution_residual(lambda taus: each(w, taus),
                                lambda taus, ws: np.stack([rhs(t, wt) for t, wt in zip(taus, ws)]),
                                phi, alg, grid)
    want_values, want = reference_solution_residual(w, rhs, phi, alg, grid)
    assert float.hex(samples.max_residual) == float.hex(want)
    assert np.array_equal(samples.values, want_values)
    assert set(calls) == {(2,)}


def test_separable_samples_match_the_per_point_stencil():
    c = complex_algebra()
    phi = SmoothMap.identity(2)
    K = SmoothMap.constant(c.unit, k=2)
    sep = separable_solve(K, lambda w: c.product(w, w), phi, c, np.array([0.5, 0.1]),
                          np.zeros(2), segments=32)
    grid = [np.array([0.05, 0.02]), np.array([0.1, -0.03])]
    samples = sep.samples(grid)
    _, want = reference_solution_residual(sep.solve_at, sep.rhs, phi, c, grid)
    assert float.hex(samples.max_residual) == float.hex(want)


def reference_pde_residual(terms, fields, points, h=None):
    """pde_residual as it ran point by point, every term calling fields afresh."""
    second_order = any(sum(orders) >= 2 for _, _, orders in terms)
    base = SECOND_ORDER_STEP if second_order else FIRST_ORDER_STEP
    residuals = []
    for pt in points:
        pt = np.asarray(pt, dtype=float)
        step = h if h is not None else fd_step(pt, base)
        vals = [coeff * fd_partial(lambda p, comp=comp: float(np.atleast_1d(fields(p))[comp]),
                                   pt, orders, step)
                for coeff, comp, orders in terms]
        scale = max(1.0, max(abs(v) for v in vals))
        residuals.append(abs(sum(vals)) / scale)
    return worst_of(residuals)


def test_pde_residuals_match_the_per_point_stencil():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        alpha, beta = rng.uniform(-1.0, 1.0, 2)
        pde = FirstOrderPDE(a=a, b=b, c=c, d=d)
        alg = algebra_a2_1(alpha, beta)
        fn = phi_polynomial([alg.zero(), alg.zero(), alg.unit], first_order_phi(pde, alpha, beta), alg)
        pts = [rng.uniform(-1.0, 1.0, 2) for _ in range(20)]
        for h in (None, 1e-4):
            assert (float.hex(pde.residual(fn, pts, h=h))
                    == float.hex(reference_pde_residual(pde.terms(), fn, pts, h=h)))

        A, C = rng.uniform(0.5, 1.5, 2)
        B, D, E = rng.uniform(-1.0, 1.0, 3)
        second = SecondOrderPDE(A=A, B=B, C=C, D=D, E=E)

        def u(pt, a=rng.uniform(-2, 2), b=rng.uniform(-2, 2)):
            return math.exp(a * pt[0] + b * pt[1])

        assert (float.hex(second.residual(u, pts))
                == float.hex(reference_pde_residual(second.terms(), u, pts)))

        heat = HeatProblem(alpha=rng.uniform(0.5, 1.5), p=tuple(rng.uniform(-1, 1, 6)))
        exponent = rng.uniform(-1.5, 1.5, 4)

        def v(pt):
            return math.exp(float(np.dot(exponent, pt)))

        pts4 = [rng.uniform(-0.8, 0.8, 4) for _ in range(10)]
        assert (float.hex(heat.residual(v, pts4))
                == float.hex(reference_pde_residual(heat.terms(), v, pts4)))


def reference_billiards_residual(a, b, c, grid):
    """verify_billiards_algebrization's residual as the 16 x 16 loop computed it."""
    alpha, beta, _ = billiards_parameters(a, b, c)
    algebra = algebra_a2_1(alpha, beta, scalars="complex")
    phi_matrix = np.array([[1.0, -(b + c) / (2.0 * b)], [0.0, -(a + c) / (2.0 * b)]],
                          dtype=complex)
    worst = 0.0
    for u in grid:
        for w in grid:
            z = np.array([u, w], dtype=complex)
            phi_w = phi_matrix @ z
            rhs = b * algebra.product(phi_w, phi_w)
            lhs = np.array([b * z[0] * z[0] - (b + c) * z[0] * z[1],
                            a * z[1] * z[1] - (a + c) * z[0] * z[1]])
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_billiards_residual_matches_the_grid_loop():
    rng = np.random.default_rng(10)
    custom = list(rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7))
    for _ in range(40):
        a, b, c = rng.uniform(0.3, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
        try:
            got = verify_billiards_algebrization(a, b, c).residual
        except DegenerateParameters:
            continue
        assert float.hex(got) == float.hex(reference_billiards_residual(a, b, c, _COMPLEX_GRID))
        assert (float.hex(verify_billiards_algebrization(a, b, c, grid=custom).residual)
                == float.hex(reference_billiards_residual(a, b, c, custom)))


def test_billiards_complex_eval_keeps_the_scalar_bits():
    rng = np.random.default_rng(12)
    field = billiards_field(1.7, -0.6, 0.9)
    u = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    stacked = field.complex_eval(u, v)
    assert stacked.shape == (50, 2)
    for i in range(50):
        x, y = u[i], v[i]
        a, b, c = field.a, field.b, field.c
        assert np.array_equal(stacked[i], [b * x * x - (b + c) * x * y, a * y * y - (a + c) * x * y])
        assert np.array_equal(field.complex_eval(x, y), stacked[i])


def reference_phi_derivative(f, phi, algebra, u):
    """The single-point solve as it was before points were stacked: k rep calls, vstack."""
    jf = f.jacobian(u)
    jphi = phi.jacobian(u)
    system = np.vstack([algebra.rep(jphi[:, i]) for i in range(phi.k)])
    rhs = jf.T.reshape(-1)
    g, _, _, svals = np.linalg.lstsq(system, rhs, rcond=None)
    unique = bool(svals.size and svals[-1] > UNIQUE_RTOL * max(svals[0], 1.0))
    residual = float(np.linalg.norm(system @ g - rhs)) / (1.0 + float(np.linalg.norm(jf)))
    return g, residual, unique


def _hex(values):
    return [float.hex(float(x)) for x in np.ravel(values)]


def test_stacked_phi_derivative_matches_the_per_point_solve(families):
    rng = np.random.default_rng(12)
    for fam in families:
        points = np.array([fam.sample(rng) for _ in range(7)])
        for name, f in fam.functions.items():
            stacked = phi_derivative(f, fam.phi, fam.algebra, points)
            assert stacked.derivative.shape == (7, fam.algebra.dim)
            assert stacked.residual.shape == stacked.unique.shape == (7,)
            for i, u in enumerate(points):
                g, residual, unique = reference_phi_derivative(f, fam.phi, fam.algebra, u)
                single = phi_derivative(f, fam.phi, fam.algebra, u)
                for got in (single, phi_derivative(f, fam.phi, fam.algebra, points[i:i + 1])):
                    got_g, got_res, got_unique = (np.ravel(got.derivative), got.residual, got.unique)
                    assert _hex(got_g) == _hex(g), (fam.name, name)
                    assert _hex(got_res) == _hex(residual) and bool(got_unique) == unique
                assert _hex(stacked.derivative[i]) == _hex(g), (fam.name, name, i)
                assert float.hex(float(stacked.residual[i])) == float.hex(residual)
                assert bool(stacked.unique[i]) == unique
                assert type(single.residual) is float and type(single.unique) is bool


def test_stacked_phi_derivative_evaluates_each_jacobian_and_rep_once(monkeypatch):
    alg = algebra_a2_1(0.7, -0.4)
    phi = SmoothMap.linear([[1.0, 0.5], [-0.3, 1.2]])
    f = SmoothMap.linear([[2.0, 0.1], [0.3, -1.0]])  # linear maps make no nested calls
    calls = []
    for owner, name in ((SmoothMap, "jacobian"), (type(alg), "rep")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, x, real=real, name=name:
                            calls.append(name) or real(self, x))
    report = phi_derivative(f, phi, alg, np.random.default_rng(3).standard_normal((9, 2)))
    assert report.derivative.shape == (9, 2)
    assert sorted(calls) == ["jacobian", "jacobian", "rep"]


def test_derivative_checks_make_one_stacked_call_per_family(families, monkeypatch):
    shapes = []
    real = paper_examples.phi_derivative
    monkeypatch.setattr(paper_examples, "phi_derivative",
                        lambda f, phi, alg, u: shapes.append(np.shape(u)) or real(f, phi, alg, u))
    paper_examples._derivative_checks(np.random.default_rng(0))
    # 11 families of 10 points each, then the counterexample at its one point
    assert len(families) == 11
    assert shapes == [(10, fam.phi.k) for fam in families] + [(2,)]


def test_picard_with_a_broadcasting_field_matches_the_plain_callable(families):
    for fam in families:
        if not fam.name.startswith("complex-"):
            continue
        alg = fam.algebra
        u0 = fam.sample(np.random.default_rng(2))
        path = Path.segment(u0, u0 + 0.2 / np.sqrt(fam.phi.k), segments=64)
        w0 = np.array([0.4, 0.2])
        square = phi_polynomial([alg.zero(), alg.zero(), alg.unit], SmoothMap.identity(2), alg)
        for field, plain in ((SmoothMap(2, 2, lambda w: w, broadcasts=True), lambda w: w),
                             (square, lambda w, sq=square: sq(w))):
            assert field.broadcasts
            got, want = picard(field, fam.phi, alg, w0, path), picard(plain, fam.phi, alg, w0, path)
            assert got.iterations == want.iterations, fam.name
            assert np.array_equal(got.taus, want.taus) and np.array_equal(got.values, want.values)
            assert [float.hex(h) for h in got.history] == [float.hex(h) for h in want.history]


def test_picard_evaluates_a_broadcasting_field_once_per_iteration():
    c = complex_algebra()
    calls = []

    def ident(w):
        calls.append(np.shape(w))
        return w

    res = picard(SmoothMap(2, 2, ident, broadcasts=True), SmoothMap.identity(2), c,
                 np.array([1.0, 0.0]), Path.segment([0.0, 0.0], [1.0, 0.0], segments=128))
    assert calls == [(129, 2)] * res.iterations
