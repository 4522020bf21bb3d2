import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from phialg import quadratic
from phialg.algebra import algebra_a2_1, algebra_a2_12, algebra_a2_2
from phialg.calculus import cre_residual
from phialg.catalog import ALGEBRA_BUILDERS
from phialg.errors import DegenerateParameters, PhialgError
from phialg.maps import SmoothMap
from phialg.quadratic import (
    QuadraticVF,
    _certify,
    _grid_singular_values,
    _pencil,
    _stacked,
    algebrize,
    billiards_field,
    billiards_parameters,
    build_M2,
    build_M4,
    build_M6,
    verify_billiards_algebrization,
)

ZERO_VF = QuadraticVF(a=(0.0,) * 6, b=(0.0,) * 6)


def test_zero_field_gives_zero_matrices():
    for case, params in (("A2_1", (0.3, -0.6)), ("A2_2", (1.2, 0.4)), ("A2_12", ())):
        npt.assert_allclose(build_M6(ZERO_VF, case, params), np.zeros((6, 4)))
        npt.assert_allclose(build_M4(ZERO_VF, case, params), np.zeros((4, 4)))
        npt.assert_allclose(build_M2(ZERO_VF, case, params), np.zeros((2, 4)))


def test_m6_row_extraction_consistency(rng):
    vf = QuadraticVF(a=tuple(rng.uniform(-2, 2, 6)), b=tuple(rng.uniform(-2, 2, 6)))
    for case, params in (("A2_1", tuple(rng.uniform(-2, 2, 2))),
                         ("A2_2", tuple(rng.uniform(-2, 2, 2))),
                         ("A2_12", ())):
        m6 = build_M6(vf, case, params)
        npt.assert_allclose(build_M4(vf, case, params), m6[[1, 2, 4, 5]])
        npt.assert_allclose(build_M2(vf, case, params), m6[[0, 3]])


def test_billiards_m4_matches_display(rng):
    a, b, c = rng.uniform(0.5, 2.0, 3)
    alpha, beta = rng.uniform(-2, 2, 2)
    field = billiards_field(a, b, c)
    m4 = build_M4(field.quadratic_vf, "A2_1", (alpha, beta))
    expected = np.array([
        [2 * b, 0.0, -beta * (a + c) - (b + c), a + c],
        [-beta * (a + c) - (b + c), a + c, 2 * beta * a, -2 * a],
        [0.0, -2 * b, -alpha * (a + c), b + c],
        [-alpha * (a + c), b + c, 2 * alpha * a, 0.0],
    ])
    npt.assert_allclose(m4, expected, atol=1e-12)


def test_billiards_m4_singular_at_closed_form_parameters(rng):
    for _ in range(10):
        a, b, c = rng.uniform(0.3, 2.0, 3)
        alpha, beta, _ = billiards_parameters(a, b, c)
        m4 = build_M4(billiards_field(a, b, c).quadratic_vf, "A2_1", (alpha, beta))
        scale = max(1.0, float(np.abs(m4).max())) ** 4
        assert abs(np.linalg.det(m4)) <= 1e-10 * scale


def test_billiards_field_evaluations():
    f = billiards_field(1.0, 0.0, 0.0)
    npt.assert_allclose(np.abs(f.complex_eval(1.0 + 0j, 1.0 + 0j)), [0.0, 0.0])
    f = billiards_field(1.0, 1.0, 1.0)
    npt.assert_allclose(f.complex_eval(1.0 + 0j, 1.0 + 0j).real, [-1.0, -1.0])


def test_billiards_real_complex_agreement(rng):
    a, b, c = rng.uniform(-1.5, 1.5, 3)
    field = billiards_field(a, b, c)
    for _ in range(20):
        x1, y1, x2, y2 = rng.uniform(-2, 2, 4)
        cplx = field.complex_eval(x1 + 1j * y1, x2 + 1j * y2)
        real = field.real_eval([x1, y1, x2, y2])
        npt.assert_allclose(real, [cplx[0].real, cplx[0].imag, cplx[1].real, cplx[1].imag],
                            atol=1e-12)


def test_verify_billiards_unit_case():
    rep = verify_billiards_algebrization(1.0, 1.0, 1.0)
    assert rep.residual <= 1e-12
    assert rep.alpha == -1.0 and rep.beta == -1.0
    npt.assert_allclose(rep.v, [1.0, -1.0, 0.0, -1.0])
    # the closed-form v annihilates every row of the parameter matrix
    m = build_M6(billiards_field(1, 1, 1).quadratic_vf, "A2_1", (rep.alpha, rep.beta))
    npt.assert_allclose(m @ rep.v, np.zeros(6), atol=1e-12)


def test_verify_billiards_two_one_one():
    rep = verify_billiards_algebrization(2.0, 1.0, 1.0)
    npt.assert_allclose(rep.alpha, -4.0 / 9.0, atol=1e-15)
    npt.assert_allclose(rep.beta, -4.0 / 9.0, atol=1e-15)
    assert rep.residual <= 1e-12


def test_verify_billiards_degenerate():
    with pytest.raises(DegenerateParameters):
        verify_billiards_algebrization(1.0, 0.0, 1.0)
    with pytest.raises(DegenerateParameters):
        verify_billiards_algebrization(1.0, 1.0, -1.0)


def test_billiards_random_residuals(rng):
    for _ in range(25):
        a, b, c = rng.uniform(-2, 2, 3)
        if abs(b) < 0.15 or abs(a + c) < 0.15:
            continue
        rep = verify_billiards_algebrization(a, b, c)
        assert rep.residual <= 1e-10


def test_algebrize_linear_field():
    vf = QuadraticVF(a=(0.5, 1.0, 2.0, 0.0, 0.0, 0.0), b=(-0.3, 3.0, 4.0, 0.0, 0.0, 0.0))
    witnesses = algebrize(vf)
    assert witnesses and witnesses[0].residual <= 1e-8
    npt.assert_allclose(witnesses[0].phi.matrix, [[1.0, 2.0], [3.0, 4.0]])


def test_algebrize_billiards_field():
    vf = billiards_field(1.0, 1.0, 1.0).quadratic_vf
    witnesses = algebrize(vf, box=(-3.0, 3.0))
    match = [w for w in witnesses
             if w.case == "A2_1" and np.allclose(w.params, (-1.0, -1.0), atol=1e-6)]
    assert match
    w = match[0]
    assert w.residual <= 1e-8
    # paper's null vector is in the same null space
    m = np.vstack([build_M4(vf, w.case, w.params), build_M2(vf, w.case, w.params)])
    npt.assert_allclose(m @ np.array([1.0, -1.0, 0.0, -1.0]), np.zeros(6), atol=1e-8)


def test_witness_invariants(rng):
    vf = billiards_field(1.5, 0.8, 0.6).quadratic_vf
    for w in algebrize(vf, box=(-4.0, 4.0)):
        m6 = build_M6(vf, w.case, w.params)
        scale = max(1.0, float(np.abs(m6).max()) * float(np.abs(w.v).max()))
        # v annihilates the rows actually used (M4 + M2 when a linear part exists)
        m = np.vstack([build_M4(vf, w.case, w.params), build_M2(vf, w.case, w.params)])
        assert float(np.abs(m @ w.v).max()) <= 1e-8 * scale
        assert w.det_m4 <= 1e-8 * max(1.0, float(np.abs(m6).max())) ** 4
        v = w.v
        assert abs(v[0] * v[3] - v[1] * v[2]) > 1e-9


def _forward_field(case, params, matrix, c_elem):
    """Quadratic field equal to c * (phi(x, y))^2 for linear phi."""
    if case == "A2_1":
        alg = algebra_a2_1(*params)
    elif case == "A2_2":
        alg = algebra_a2_2(*params)
    else:
        alg = algebra_a2_12()
    w = np.asarray(matrix)
    coeffs_a = np.zeros(6)
    coeffs_b = np.zeros(6)
    # (phi)^2 components are quadratic forms; expand on the monomial basis
    for (i, j, slot) in (((0, 0), None, 3), ((0, 1), None, 4), ((1, 1), None, 5)):
        pass
    mon_pairs = {3: [(0, 0)], 4: [(0, 1), (1, 0)], 5: [(1, 1)]}
    for slot, pairs in mon_pairs.items():
        acc = np.zeros(2)
        for (r, s) in pairs:
            acc = acc + alg.product(w[:, r], w[:, s])
        acc = alg.product(c_elem, acc)
        coeffs_a[slot] = acc[0]
        coeffs_b[slot] = acc[1]
    return QuadraticVF(a=tuple(coeffs_a), b=tuple(coeffs_b)), alg


def test_algebrize_roundtrip_constructed_fields(rng):
    found = 0
    trials = 0
    for case in ("A2_1", "A2_2", "A2_12"):
        for _ in range(3):
            trials += 1
            params = tuple(rng.uniform(-2, 2, 2)) if case != "A2_12" else ()
            matrix = rng.uniform(-1.5, 1.5, (2, 2))
            if abs(np.linalg.det(matrix)) < 0.3:
                matrix = matrix + 0.8 * np.eye(2)
            alg_tmp = (algebra_a2_1(*params) if case == "A2_1"
                       else algebra_a2_2(*params) if case == "A2_2" else algebra_a2_12())
            c_elem = alg_tmp.random_regular(rng)
            vf, alg = _forward_field(case, params, matrix, c_elem)
            witnesses = algebrize(vf, box=(-3.0, 3.0), step=0.25)
            assert witnesses, (case, params)
            assert min(w.residual for w in witnesses) <= 1e-8
            found += 1
    assert found == trials


def test_phi_from_witness_certifies(rng):
    vf = billiards_field(1.0, 1.0, 1.0).quadratic_vf
    witnesses = algebrize(vf, box=(-2.0, 2.0))
    fmap = vf.as_map()
    for w in witnesses:
        for _ in range(5):
            u = rng.uniform(-1, 1, 2)
            assert cre_residual(fmap, w.phi, w.algebra, u) <= 1e-7


def _entrywise_m6(vf, case, params):
    """M6 written out entry by entry: the reference for the pencil."""
    a, b = vf.a, vf.b
    if case == "A2_1":
        alpha, beta = params
        return np.array([
            [beta * b[1] + a[1], -b[1], beta * b[2] + a[2], -b[2]],
            [2 * beta * b[3] + 2 * a[3], -2 * b[3], beta * b[4] + a[4], -b[4]],
            [beta * b[4] + a[4], -b[4], 2 * beta * b[5] + 2 * a[5], -2 * b[5]],
            [alpha * b[1], -a[1], alpha * b[2], -a[2]],
            [2 * alpha * b[3], -2 * a[3], alpha * b[4], -a[4]],
            [alpha * b[4], -a[4], 2 * alpha * b[5], -2 * a[5]],
        ])
    if case == "A2_2":
        gamma, delta = params
        return np.array([
            [a[1], -gamma * a[1] - b[1], a[2], -gamma * a[2] - b[2]],
            [2 * a[3], -2 * gamma * a[3] - 2 * b[3], a[4], -gamma * a[4] - b[4]],
            [a[4], -gamma * a[4] - b[4], 2 * a[5], -2 * gamma * a[5] - 2 * b[5]],
            [b[1], -delta * a[1], b[2], -delta * a[2]],
            [2 * b[3], -2 * delta * a[3], b[4], -delta * a[4]],
            [b[4], -delta * a[4], 2 * b[5], -2 * delta * a[5]],
        ])
    return np.array([
        [0.0, a[1], 0.0, a[2]],
        [0.0, 2 * a[3], 0.0, a[4]],
        [0.0, a[4], 0.0, 2 * a[5]],
        [b[1], 0.0, b[2], 0.0],
        [2 * b[3], 0.0, b[4], 0.0],
        [b[4], 0.0, 2 * b[5], 0.0],
    ])


def test_pencil_reproduces_m6_exactly(rng):
    for _ in range(20):
        vf = QuadraticVF(a=tuple(rng.uniform(-3, 3, 6)), b=tuple(rng.uniform(-3, 3, 6)))
        for case in ("A2_1", "A2_2", "A2_12"):
            p, q = rng.uniform(-10, 10, 2)
            m0, m1, m2 = _pencil(vf, case)
            expected = _entrywise_m6(vf, case, (p, q))
            assert np.array_equal(m0 + p * m1 + q * m2, expected)
            params = (p, q) if case != "A2_12" else ()
            assert np.array_equal(build_M6(vf, case, params), expected)


def test_grid_scan_matches_per_point_svd(rng):
    vf = QuadraticVF(a=tuple(rng.uniform(-2, 2, 6)), b=tuple(rng.uniform(-2, 2, 6)))
    grid = np.arange(-2.0, 2.25, 0.5)
    for case in ("A2_1", "A2_2"):
        for include_linear in (False, True):
            s_last, s_second = _grid_singular_values(vf, case, grid, include_linear)
            per_point = np.array([
                [np.linalg.svd(_stacked(vf, case, (x, y), include_linear), compute_uv=False)
                 for y in grid]
                for x in grid
            ])
            assert np.array_equal(s_last, per_point[..., -1])
            assert np.array_equal(s_second, per_point[..., -2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadratic_vf_rejects_non_finite_coefficients(bad):
    with pytest.raises(PhialgError):
        QuadraticVF(a=(bad, 0.0, 0.0, 1.0, -2.0, 0.0), b=(0.0, 0.0, 0.0, 0.0, -2.0, 1.0))
    with pytest.raises(PhialgError):
        QuadraticVF(a=(0.0, 0.0, 0.0, 1.0, -2.0, 0.0), b=(0.0, 0.0, 0.0, 0.0, -2.0, bad))


@pytest.mark.parametrize("scale", [1e100, 1e160, 1e300, 1e308])
def test_quadratic_vf_rejects_coefficients_too_large_for_the_search(scale):
    with pytest.raises(DegenerateParameters):
        QuadraticVF(a=(0.0, 0.0, 0.0, scale, -scale, 0.0), b=(0.0, 0.0, 0.0, 0.0, -scale, scale))
    QuadraticVF(a=(0.0, 0.0, 0.0, 1e60, -2e60, 0.0), b=(0.0,) * 6)  # still accepted


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certification_rejects_non_finite_residual(monkeypatch, bad):
    vf = billiards_field(1.0, 1.0, 1.0).quadratic_vf
    alpha, beta, v = billiards_parameters(1.0, 1.0, 1.0)
    linear = QuadraticVF(a=(0.5, 1.0, 2.0, 0.0, 0.0, 0.0), b=(-0.3, 3.0, 4.0, 0.0, 0.0, 0.0))
    assert _certify(vf, "A2_1", (alpha, beta), v) is not None
    assert algebrize(linear)

    def patch_residuals():
        # a passing point, a non-finite one, then passing points
        values = iter([0.0, bad] + [0.0] * 23)
        monkeypatch.setattr(quadratic, "cre_residual", lambda *args: next(values))

    patch_residuals()
    assert _certify(vf, "A2_1", (alpha, beta), v) is None
    patch_residuals()
    assert algebrize(linear) == []


@pytest.mark.parametrize("box, step", [
    ((-3.0, 3.0), 0.0), ((-3.0, 3.0), -0.5), ((-3.0, 3.0), np.nan), ((-3.0, 3.0), np.inf),
    ((3.0, -3.0), 0.25), ((3.0, 3.0), 0.25), ((-np.inf, 3.0), 0.25), ((-3.0, np.nan), 0.25),
])
def test_algebrize_rejects_bad_box_or_step(box, step):
    with pytest.raises(DegenerateParameters):
        algebrize(billiards_field(1.0, 1.0, 1.0).quadratic_vf, box=box, step=step)


def test_algebrize_caps_the_grid_before_building_it():
    # a linear field never builds the grid, so only the cap can reject it
    linear = QuadraticVF(a=(0.5, 1.0, 2.0, 0.0, 0.0, 0.0), b=(-0.3, 3.0, 4.0, 0.0, 0.0, 0.0))
    assert algebrize(linear, step=20.0 / 511)  # 512 points a side
    for step in (20.0 / 512, 0.0005, 1e-300):
        with pytest.raises(DegenerateParameters, match="MAX_GRID_CELLS"):
            algebrize(linear, step=step)
    with pytest.raises(DegenerateParameters, match="MAX_GRID_CELLS"):
        algebrize(linear, box=(-1e308, 1e308))


# -- the commutator obstruction: skips only fields that nothing certifies --------

CASES = ("A2_1", "A2_2", "A2_12")
DEFAULT_GRID = np.arange(-10.0, 10.125, 0.25)  # algebrize's default box and step


def unguarded_search(vf):
    """algebrize's scan path with its defaults, without the obstruction in front."""
    return quadratic._search(vf, CASES, DEFAULT_GRID)


def built_coefficients(case, params, phi, c1, c2):
    """The 12 coefficients of c1 w + c2 w^2 in A(params), with w = Phi (x, y)."""
    c = ALGEBRA_BUILDERS[case](params).constants
    lin = np.zeros((2, 6))
    lin[:, 1], lin[:, 2] = phi[:, 0], phi[:, 1]
    quad = np.zeros((2, 2, 6))  # w_i w_j over the monomials 1, x, y, x^2, xy, y^2
    quad[:, :, 3] = np.outer(phi[:, 0], phi[:, 0])
    quad[:, :, 4] = np.outer(phi[:, 0], phi[:, 1]) + np.outer(phi[:, 1], phi[:, 0])
    quad[:, :, 5] = np.outer(phi[:, 1], phi[:, 1])
    square = np.einsum("ijm,ijk->km", quad, c)
    return (np.einsum("i,jm,ijk->km", c1, lin, c)
            + np.einsum("i,jm,ijk->km", c2, square, c)).reshape(-1)


def as_field(coeffs):
    return QuadraticVF(a=tuple(coeffs[:6]), b=tuple(coeffs[6:]))


def linear_map(p):
    """R(a) diag(s, sign t) R(b): |det| = s t >= 0.36 for s, t >= 0.6."""
    a, s, t, sign, b = p
    rot = [np.array([[np.cos(x), -np.sin(x)], [np.sin(x), np.cos(x)]]) for x in (a, b)]
    return rot[0] @ np.diag([s, sign * t]) @ rot[1]


unit = st.floats(-1.0, 1.0)
# the basis element that is singular once the family's second parameter is 0
SINGULAR_ELEMENT = {"A2_1": (0.0, 1.0), "A2_2": (1.0, 0.0), "A2_12": (1.0, 0.0)}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES),
       params=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       phi=st.tuples(st.floats(0.0, np.pi), st.floats(0.6, 2.0), st.floats(0.6, 2.0),
                     st.sampled_from((1.0, -1.0)), st.floats(0.0, np.pi)).map(linear_map),
       c1=st.tuples(unit, unit), c2=st.tuples(unit, unit),
       mode=st.sampled_from(("plain", "ill", "flat")), mode_exp=st.floats(-6.0, -2.0),
       angle=st.floats(0.0, np.pi), eps_exp=st.floats(-12.0, -1.0),
       noise=st.lists(unit, min_size=12, max_size=12), scale_exp=st.floats(-10.0, 1.0))
def test_obstruction_never_skips_a_field_the_search_certifies(
        case, params, phi, c1, c2, mode, mode_exp, angle, eps_exp, noise, scale_exp):
    """Whenever the scan would return a witness, the obstruction does not skip.

    Checked in the equivalent form: whenever the obstruction skips, the scan
    returns nothing.  Built fields c1 w + c2 w^2 are perturbed by a relative
    eps and scaled.  In "ill" draws c2 sits near a singular element, so both
    quadratic blocks are nearly singular; in "flat" draws the first component
    is replaced by a function of one linear form, which a nearly singular
    phi can nearly satisfy.
    """
    params = params if case != "A2_12" else ()
    c2 = np.array(c2)
    if mode == "ill":
        if case != "A2_12":
            params = (params[0], 0.0) if case == "A2_2" else (0.0, params[1])
        c2 = np.array(SINGULAR_ELEMENT[case]) + 10.0 ** mode_exp * c2
    coeffs = built_coefficients(case, params, phi, np.array(c1), c2)
    if mode == "flat":
        p = np.array([np.cos(angle), np.sin(angle)])
        l1, l2 = c1
        coeffs[1:6] = [l1 * p[0], l1 * p[1], l2 * p[0] ** 2, 2 * l2 * p[0] * p[1], l2 * p[1] ** 2]
    coeffs = coeffs + 10.0 ** eps_exp * np.abs(coeffs).max() * np.array(noise)
    vf = as_field(10.0 ** scale_exp * coeffs)
    if vf.quadratic_norm > 1e-14 and quadratic._obstructed(vf):
        assert unguarded_search(vf) == []


def test_obstruction_skips_generic_fields_without_a_scan(monkeypatch):
    rng = np.random.default_rng(11)
    fields = [as_field(rng.uniform(-2.0, 2.0, 12)) for _ in range(5)]
    assert all(unguarded_search(vf) == [] for vf in fields)

    def no_scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(quadratic, "_search", no_scan)
    assert all(algebrize(vf) == [] for vf in fields)


def test_obstruction_leaves_a_single_ratio_to_the_search(rng):
    # L0 = 0 makes the blocks dependent (one ratio only, which commutes with
    # itself): billiards, and a quadratic part that no planar algebra fits
    fields = [billiards_field(*abc).quadratic_vf for abc in ((1, 1, 1), (0.7, 1.3, 0.4))]
    quad = rng.uniform(-2.0, 2.0, (2, 3))
    fields.append(as_field(np.concatenate([[0, 0, 0], quad[0], [0, 0, 0], quad[1]])))
    for vf in fields:
        assert not quadratic._obstructed(vf)


def test_obstruction_decides_singular_quadratic_blocks_only_when_they_are_independent():
    # L1 = [[2, 0], [0, 0]] and L2 = 0 beside a generic linear part: the
    # blocks are dependent, so the search decides
    vf = QuadraticVF(a=(0.3, 1.2, -0.7, 1.0, 0.0, 0.0), b=(0.5, 0.4, 2.0, 0.0, 0.0, 0.0))
    assert not quadratic._obstructed(vf)
    assert [w.params for w in algebrize(vf)] == [w.params for w in unguarded_search(vf)]
    # (x^2, y^2) has two singular blocks, diag(2, 0) and diag(0, 2); a linear
    # part off the diagonal makes the three blocks independent
    vf = QuadraticVF(a=(0.3, 1.2, -0.7, 1.0, 0.0, 0.0), b=(0.5, 0.4, 2.0, 0.0, 0.0, 1.0))
    assert quadratic._obstructed(vf)
    assert unguarded_search(vf) == []


def test_obstruction_leaves_scalar_ratios_to_the_search(rng):
    # L0 = 2 L1: the blocks are dependent, and whichever block is L_j, the
    # two ratios are multiples of one matrix
    a3, a4, a5, b3, b4, b5 = rng.uniform(-2.0, 2.0, 6)
    vf = QuadraticVF(a=(0.1, 4 * a3, 2 * a4, a3, a4, a5), b=(-0.4, 4 * b3, 2 * b4, b3, b4, b5))
    assert not quadratic._obstructed(vf)


def test_obstruction_leaves_fields_near_a_singular_phi_to_the_search():
    # The scan certifies both fields through a phi with condition number above
    # 1e3, although their ratios L_i L_j^-1 are far from commuting.
    # (y + 2e-4 xy, 2x + 1e-4 x^2 + y^2): the square of a nilpotent element
    # in the dual numbers, moved by 1e-4; it certifies in A2_1(5e-5, 0)
    dual = QuadraticVF(a=(0.0, 0.0, 1.0, 0.0, 2e-4, 0.0), b=(0.0, 2.0, 0.0, 1e-4, 0.0, 1.0))
    # a generic field whose first component depends on y alone, moved by 1e-8
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-2.0, 2.0, 12)
    coeffs[[1, 3, 4]] = 0.0
    flat = as_field(coeffs + 1e-8 * rng.uniform(-1.0, 1.0, 12))
    for vf in (dual, flat):
        assert unguarded_search(vf)
        assert not quadratic._obstructed(vf)


def test_obstruction_leaves_tiny_fields_to_the_search():
    # certification's residual is absolute below |Jf| |phi| ~ 1, so a tiny
    # generic field can certify; the bound grows as the field shrinks
    coeffs = np.random.default_rng(11).uniform(-2.0, 2.0, 12)
    assert quadratic._obstructed(as_field(coeffs))
    tiny = as_field(1e-9 * coeffs)
    assert not quadratic._obstructed(tiny)
    assert algebrize(tiny)


# -- the rank-two decision: the closed form, with no grid ------------------------


def witness_key(w):
    """Everything a witness prints, to the last bit."""
    return (w.case, np.asarray(w.params, dtype=float).tobytes(), w.v.tobytes(),
            np.asarray(w.phi.matrix).tobytes(), w.residual.hex(), float(w.det_m4).hex())


def is_subsequence(short, long):
    rest = iter(long)
    return all(any(key == other for other in rest) for key in short)


def clean_rank_two(vf):
    blocks = quadratic._jacobian_blocks(vf)
    return quadratic._clean_rank_two(blocks, np.linalg.svd(blocks.reshape(3, 4),
                                                            compute_uv=False))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES),
       params=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       phi=st.tuples(st.floats(0.0, np.pi), st.floats(0.6, 2.0), st.floats(0.6, 2.0),
                     st.sampled_from((1.0, -1.0)), st.floats(0.0, np.pi)).map(linear_map),
       c1=st.tuples(unit, unit), c2=st.tuples(unit, unit))
def test_rank_two_answer_keeps_every_exact_witness_of_the_search(case, params, phi, c1, c2):
    """On a built field of clean rank two, algebrize drops grid witnesses only.

    Its list is a subsequence of the unguarded search's, and every witness of
    that search with a residual at rounding level is in it, bit for bit.
    """
    vf = as_field(built_coefficients(case, params if case != "A2_12" else (), phi,
                                     np.array(c1), np.array(c2)))
    assume(vf.quadratic_norm > 1e-14 and clean_rank_two(vf))
    fast = [witness_key(w) for w in algebrize(vf)]
    full = unguarded_search(vf)
    assert is_subsequence(fast, [witness_key(w) for w in full])
    assert all(witness_key(w) in fast for w in full if w.residual <= 1e-12)


def test_rank_two_fields_skip_the_grid_and_others_keep_it(monkeypatch):
    built = [as_field(built_coefficients(case, params, linear_map((0.3, 1.2, 0.8, 1.0, 1.1)),
                                         np.array([0.4, -0.7]), np.array([0.9, 0.5])))
             for case, params in (("A2_1", (0.5, -1.5)), ("A2_2", (-0.75, 1.5)), ("A2_12", ()))]
    # rank one: (1, 2) (s + s^2) with s = x + y, which a whole family of
    # algebras fits, so only the scan finds its witnesses
    flat = QuadraticVF(a=(0.0, 1.0, 1.0, 1.0, 2.0, 1.0), b=(0.0, 2.0, 2.0, 2.0, 4.0, 2.0))
    # (x^2, y^2): rank two, but every block is singular
    singular = QuadraticVF(a=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0), b=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    assert all(clean_rank_two(vf) for vf in built)
    assert not clean_rank_two(flat) and not clean_rank_two(singular)
    assert len(algebrize(flat)) > 2

    def no_scan(*args):
        raise AssertionError("the grid scan ran")

    monkeypatch.setattr(quadratic, "_grid_singular_values", no_scan)
    assert all(algebrize(vf) for vf in built)
    for vf in (flat, singular):
        with pytest.raises(AssertionError, match="grid scan"):
            algebrize(vf)


def built_fields(case, count, seed):
    """Fields c1 w + c2 w^2 built in random members of one family, c2 regular."""
    rng = np.random.default_rng(seed)
    fields = []
    while len(fields) < count:
        params = tuple(rng.uniform(-3.0, 3.0, 2)) if case != "A2_12" else ()
        c1, c2 = rng.uniform(-1.0, 1.0, (2, 2))
        if abs(np.linalg.det(ALGEBRA_BUILDERS[case](params).rep(c2))) < 0.05:
            continue
        phi = linear_map((rng.uniform(0.0, np.pi), *rng.uniform(0.6, 2.0, 2),
                          rng.choice((1.0, -1.0)), rng.uniform(0.0, np.pi)))
        fields.append(as_field(built_coefficients(case, params, phi, c1, c2)))
    return fields


@pytest.mark.parametrize("case", ["A2_1", "A2_2", "A2_12"])
def test_a_field_built_in_a_family_has_a_witness_in_that_family(case):
    for vf in built_fields(case, 6, seed=5):
        assert algebrize(vf, cases=(case,)), case


@pytest.mark.parametrize("coeffs", [
    # seed-40 search deck, job search-0010 (built in A2_1)
    (0.0, -0.9213621163740725, -1.0295290360741374, -0.6640004221843321,
     -1.5092932264936656, -0.863351550579615, 0.0, -2.6010798756862767,
     -2.5874432801311493, -1.4512291237135755, -2.9195747153568, -1.4777472320839409),
    # seed-81 search deck, job search-0011 (built in A2_2)
    (0.0, 0.5541131781679849, -0.5094332775471837, 1.0553971583880468,
     -2.001998304590258, 1.0847054672766407, 0.0, 0.243952467328771,
     -0.11458049061046496, 0.4070361170390858, -0.26434718983930244, -0.2539107059839335),
])
def test_witnesses_of_built_fields_hold_outside_the_verify_grid(coeffs):
    # the grid scan certifies approximate A2_1 witnesses on these fields that
    # pass on [-1, 1]^2 and fail further out, with residuals above 1e-8
    # along lines through these points; their clean rank two skips the scan
    vf = as_field(np.array(coeffs))
    witnesses = algebrize(vf)
    assert witnesses
    fmap = vf.as_map()
    points = [(-3.0, -3.0), (-3.0, 3.0), (3.0, -3.0), (3.0, 3.0),
              (-2.0, -2.0), (2.0, 2.0), (1.0, -2.0), (2.0, -3.0)]
    for w in witnesses:
        assert max(cre_residual(fmap, w.phi, w.algebra, np.array(u)) for u in points) <= 1e-8
