import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from phialg import quadratic
from phialg.algebra import Algebra, algebra_a2_1, algebra_a2_12, algebra_a2_2, rep_from_rows
from phialg.calculus import cre_residual
from phialg.catalog import ALGEBRA_BUILDERS
from phialg.errors import DegenerateParameters, PhialgError
from phialg.maps import SmoothMap
from phialg.quadratic import (
    CASES,
    WITNESS_TOL,
    QuadraticVF,
    _certify,
    _jacobian_blocks,
    _linear_witness,
    _pencil,
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
    witnesses = algebrize(vf)
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
    for w in algebrize(vf):
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
            witnesses = algebrize(vf)
            assert witnesses, (case, params)
            assert min(w.residual for w in witnesses) <= 1e-8
            found += 1
    assert found == trials


def test_phi_from_witness_certifies(rng):
    vf = billiards_field(1.0, 1.0, 1.0).quadratic_vf
    witnesses = algebrize(vf)
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


LINEAR_VF = QuadraticVF(a=(0.5, 1.0, 2.0, 0.0, 0.0, 0.0), b=(-0.3, 3.0, 4.0, 0.0, 0.0, 0.0))
# (1, 2) (s + s^2) with s = x + y: Jf = (1 + 2s) (1, 2) (1, 1)^T has rank one
FLAT_VF = QuadraticVF(a=(0.0, 1.0, 1.0, 1.0, 2.0, 1.0), b=(0.0, 2.0, 2.0, 2.0, 4.0, 2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certification_rejects_non_finite_residual(monkeypatch, bad):
    # the exact check fails closed: a defect that is not finite certifies nothing
    vf = billiards_field(1.0, 1.0, 1.0).quadratic_vf
    alpha, beta, v = billiards_parameters(1.0, 1.0, 1.0)
    blocks = _jacobian_blocks(vf)
    assert _certify(vf, blocks, "A2_1", (alpha, beta), v) is not None
    assert _linear_witness(LINEAR_VF) is not None
    spoiled = blocks.copy()
    spoiled[1, 0, 1] = bad
    linear_spoiled = _jacobian_blocks(LINEAR_VF)
    linear_spoiled[2, 1, 0] = bad
    monkeypatch.setattr(quadratic, "_jacobian_blocks", lambda vf: linear_spoiled)
    with np.errstate(invalid="ignore"):
        assert _certify(vf, spoiled, "A2_1", (alpha, beta), v) is None
        assert _linear_witness(LINEAR_VF) is None


@pytest.mark.parametrize("box, step", [
    ((-3.0, 3.0), 0.0), ((-3.0, 3.0), -0.5), ((-3.0, 3.0), np.nan), ((-3.0, 3.0), np.inf),
    ((3.0, -3.0), 0.25), ((3.0, 3.0), 0.25), ((-np.inf, 3.0), 0.25), ((-3.0, np.nan), 0.25),
])
def test_algebrize_rejects_bad_box_or_step(box, step):
    with pytest.raises(DegenerateParameters):
        algebrize(billiards_field(1.0, 1.0, 1.0).quadratic_vf, box=box, step=step)


def test_fields_with_subnormal_coefficients_raise_no_warning():
    # numpy's det adds up the logs of the LU pivots, so a pivot that
    # underflows to 0 warns; the linear part's det and det(M4) meet one here
    linear = QuadraticVF(a=(0.0, 0.0, 2e-314, 0.0, 0.0, 0.0), b=(0.0, 3e-314, 0.0, 0.0, 0.0, 0.0))
    flat = QuadraticVF(a=(0.0, 0.0, 0.0, 0.0, 1.2246467991473532e-316, 6.123233995736766e-17),
                       b=(0.0, 0.0, 0.0, 0.0, 2e-300, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [w] = algebrize(linear)
        assert w.case == "A2_1" and np.isnan(w.v).all()
        assert [w.case for w in algebrize(flat)] == ["A2_12", "A2_1"]


def witness_key(w):
    """Everything a witness prints, to the last bit."""
    return (w.case, np.asarray(w.params, dtype=float).tobytes(), w.v.tobytes(),
            np.asarray(w.phi.matrix).tobytes(), w.residual.hex(), float(w.det_m4).hex())


def test_algebrize_answer_does_not_depend_on_box_or_step():
    # there is no parameter grid: a box or a step that once asked for about
    # 1e600 cells, or a box without the witness, changes no bit of the answer
    for vf in (LINEAR_VF, billiards_field(1.0, 1.0, 1.0).quadratic_vf, FLAT_VF):
        expected = [witness_key(w) for w in algebrize(vf)]
        assert expected
        for box, step in (((-1e308, 1e308), 0.25), ((-10.0, 10.0), 1e-300), ((5.0, 6.0), 0.5)):
            assert [witness_key(w) for w in algebrize(vf, box=box, step=step)] == expected


# -- fields built in a family, flat fields and generic fields --------------------


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


def flat_coefficients(r, s, g):
    """The 12 coefficients of r (g0 + g1 t + g2 t^2), t = s . (x, y): Jf = (g1 + 2 g2 t) r s^T."""
    g0, g1, g2 = g
    return np.outer(r, [g0, g1 * s[0], g1 * s[1], g2 * s[0] ** 2, 2 * g2 * s[0] * s[1],
                        g2 * s[1] ** 2]).reshape(-1)


def as_field(coeffs):
    return QuadraticVF(a=tuple(coeffs[:6]), b=tuple(coeffs[6:]))


def linear_map(p):
    """R(a) diag(s, sign t) R(b): |det| = s t >= 0.36 for s, t >= 0.6."""
    a, s, t, sign, b = p
    rot = [np.array([[np.cos(x), -np.sin(x)], [np.sin(x), np.cos(x)]]) for x in (a, b)]
    return rot[0] @ np.diag([s, sign * t]) @ rot[1]


def rank_profile(vf):
    """The singular values of B, the 3x4 matrix of the flattened blocks of Jf, over the largest."""
    s = np.linalg.svd(_jacobian_blocks(vf).reshape(3, 4), compute_uv=False)
    return s / s[0]


def independently_certified(vf, w):
    """The Cauchy-Riemann residual of calculus.cre_residual at points of [-3, 3]^2 is at most 1e-8."""
    fmap = vf.as_map()
    points = np.random.default_rng(3).uniform(-3.0, 3.0, (8, 2))
    return max(cre_residual(fmap, w.phi, w.algebra, u) for u in points) <= 1e-8


def on_line(w, r):
    """The witness's parameters lie on its family's line of rank-one fits for a flat field along r."""
    r1, r2 = r / np.linalg.norm(r)
    if w.case == "A2_12":
        return min(abs(r1), abs(r2)) <= 1e-12
    if w.case == "A2_2":  # the A2_1 line after the swap: (gamma, delta) = (beta, alpha)
        r1, r2 = r2, r1
    alpha, beta = w.params if w.case == "A2_1" else w.params[::-1]
    return abs(r1 * r1 + beta * r1 * r2 - alpha * r2 * r2) <= 1e-12 * max(1.0, abs(alpha), abs(beta))


unit = st.floats(-1.0, 1.0)
# the basis element that is singular once the family's second parameter is 0
SINGULAR_ELEMENT = {"A2_1": (0.0, 1.0), "A2_2": (1.0, 0.0), "A2_12": (1.0, 0.0)}
FOUND_FLAT = dict(kind="flat", case="A2_12", params=(0.0, 0.0), phi=np.eye(2), c1=(0.0, 0.0),
                  c2=(0.0, 0.0), mode_exp=-2.0, angle=0.0, s=(1.0, 1.0), g=(0.3, 1.0, 1.0),
                  coeffs=[0.0] * 12, scale_exp=0.0)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(("plain", "ill", "flat", "generic")), case=st.sampled_from(CASES),
       params=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       phi=st.tuples(st.floats(0.0, np.pi), st.floats(0.6, 2.0), st.floats(0.6, 2.0),
                     st.sampled_from((1.0, -1.0)), st.floats(0.0, np.pi)).map(linear_map),
       c1=st.tuples(unit, unit), c2=st.tuples(unit, unit), mode_exp=st.floats(-6.0, -2.0),
       angle=st.one_of(st.sampled_from((0.0, np.pi / 2, np.pi)), st.floats(0.0, np.pi)),
       s=st.tuples(unit, unit), g=st.tuples(unit, unit, unit),
       coeffs=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
       scale_exp=st.floats(-6.0, 1.0))
@example(**FOUND_FLAT)
def test_algebrize_decides_built_flat_and_generic_fields(
        kind, case, params, phi, c1, c2, mode_exp, angle, s, g, coeffs, scale_exp):
    """The closed forms find every kind of field's witnesses, and nothing on generic fields.

    A field c1 w + c2 w^2 built in a family gets a witness in that family
    with the built parameters; in "ill" draws c2 sits near a singular
    element, so both quadratic blocks are nearly singular.  A flat field
    r g(s . u) gets, for each family that fits, a witness on that family's
    line.  A random field gets [].  Fields are scaled by 1e-6 to 10.
    """
    scale = 10.0 ** scale_exp
    if kind == "generic":
        vf = as_field(scale * np.array(coeffs))
        assume(vf.quadratic_norm > 0.0 and rank_profile(vf)[2] > 1e-3)
        assert algebrize(vf) == []
        return
    if kind == "flat":
        r, s = np.array([np.cos(angle), np.sin(angle)]), np.array(s)
        assume(np.linalg.norm(s) > 0.1 and abs(g[2]) > 0.1)
        # off an axis, keep r clear of it, where the families switch
        assume(min(abs(r[0]), abs(r[1])) < 1e-15 or min(abs(r[0]), abs(r[1])) > 1e-3)
        vf = as_field(scale * flat_coefficients(r, s, g))
        fits = [c for c, coordinate in (("A2_12", min(abs(r))), ("A2_1", abs(r[1])),
                                        ("A2_2", abs(r[0])))
                if (coordinate > 1e-3) == (c != "A2_12")]
        assert [w.case for w in algebrize(vf)] == fits
        for family in fits:
            [w] = algebrize(vf, cases=(family,))
            assert on_line(w, r) and independently_certified(vf, w)
        return
    params = params if case != "A2_12" else ()
    c1, c2 = np.array(c1), np.array(c2)
    algebra = ALGEBRA_BUILDERS[case](params)
    if kind == "ill":
        if case != "A2_12":
            params = (params[0], 0.0) if case == "A2_2" else (0.0, params[1])
            algebra = ALGEBRA_BUILDERS[case](params)
        c2 = np.array(SINGULAR_ELEMENT[case]) + 10.0 ** mode_exp * c2
        assume(abs(np.linalg.det(algebra.rep(c1))) >= 0.05)
    else:
        assume(abs(np.linalg.det(algebra.rep(c2))) >= 0.05)
    vf = as_field(scale * built_coefficients(case, params, phi, c1, c2))
    witnesses = [w for w in algebrize(vf) if w.case == case]
    assert len(witnesses) == 1, (case, params)
    npt.assert_allclose(witnesses[0].params, params, rtol=0, atol=1e-6)
    assert independently_certified(vf, witnesses[0])


def test_obstruction_skips_generic_fields_without_a_scan(monkeypatch):
    # generic fields have blocks of rank three, which no witness has: algebrize
    # certifies and rejects at most one closed-form candidate per family, those
    # of the nearest rank-two field
    rng = np.random.default_rng(11)
    fields = [as_field(rng.uniform(-2.0, 2.0, 12)) for _ in range(5)]
    assert all(rank_profile(vf)[2] > 0.1 for vf in fields)
    certify, tried = quadratic._certify, []

    def counted(vf, blocks, case, params, v):
        tried.append(case)
        return certify(vf, blocks, case, params, v)

    monkeypatch.setattr(quadratic, "_certify", counted)
    for vf in fields:
        tried.clear()
        assert algebrize(vf) == []
        assert 1 <= len(tried) == len(set(tried)) <= 3


def test_obstruction_leaves_a_single_ratio_to_the_search(rng):
    # L0 = 0 leaves two blocks, so the rank is at most two and the closed
    # form decides: billiards, and a homogeneous quadratic field, whose
    # span(I, N) is an algebra by Cayley-Hamilton (N^2 = tr(N) N - det(N) I)
    fields = [billiards_field(*abc).quadratic_vf for abc in ((1, 1, 1), (0.7, 1.3, 0.4))]
    quad = rng.uniform(-2.0, 2.0, (2, 3))
    fields.append(as_field(np.concatenate([[0, 0, 0], quad[0], [0, 0, 0], quad[1]])))
    for vf in fields:
        assert rank_profile(vf)[2] <= quadratic.RANK_RTOL
        witnesses = algebrize(vf)
        assert witnesses and all(independently_certified(vf, w) for w in witnesses)


def test_obstruction_decides_singular_quadratic_blocks_only_when_they_are_independent():
    # L1 = [[2, 0], [0, 0]] and L2 = 0 beside a generic linear part: two
    # independent blocks, so the closed form decides, and A2_2 fits
    vf = QuadraticVF(a=(0.3, 1.2, -0.7, 1.0, 0.0, 0.0), b=(0.5, 0.4, 2.0, 0.0, 0.0, 0.0))
    assert rank_profile(vf)[2] <= quadratic.RANK_RTOL
    [w] = algebrize(vf)
    assert w.case == "A2_2" and w.residual <= 1e-15 and independently_certified(vf, w)
    npt.assert_allclose(w.params, (20.0 / 7.0, 0.0), rtol=0, atol=1e-14)
    # (x^2, y^2) has two singular blocks, diag(2, 0) and diag(0, 2); a linear
    # part off the diagonal makes the three blocks independent
    vf = QuadraticVF(a=(0.3, 1.2, -0.7, 1.0, 0.0, 0.0), b=(0.5, 0.4, 2.0, 0.0, 0.0, 1.0))
    assert rank_profile(vf)[2] > 0.1
    assert algebrize(vf) == []


def test_obstruction_leaves_scalar_ratios_to_the_search(rng):
    # L0 = 2 L1: the blocks span two dimensions, so the closed form decides
    a3, a4, a5, b3, b4, b5 = rng.uniform(-2.0, 2.0, 6)
    vf = QuadraticVF(a=(0.1, 4 * a3, 2 * a4, a3, a4, a5), b=(-0.4, 4 * b3, 2 * b4, b3, b4, b5))
    assert rank_profile(vf)[2] <= quadratic.RANK_RTOL
    witnesses = algebrize(vf)
    assert witnesses and all(independently_certified(vf, w) for w in witnesses)


def test_fields_near_a_singular_phi_get_no_witness():
    # The former grid search certified both fields through a phi with
    # condition number 1e4 and 4e8.  Their blocks have rank three, so no
    # linear phi fits, and the exact check rejects the closed forms.
    # (y + 2e-4 xy, 2x + 1e-4 x^2 + y^2): the square of a nilpotent element
    # in the dual numbers, moved by 1e-4
    dual = QuadraticVF(a=(0.0, 0.0, 1.0, 0.0, 2e-4, 0.0), b=(0.0, 2.0, 0.0, 1e-4, 0.0, 1.0))
    # a generic field whose first component depends on y alone, moved by 1e-8
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-2.0, 2.0, 12)
    coeffs[[1, 3, 4]] = 0.0
    flat = as_field(coeffs + 1e-8 * rng.uniform(-1.0, 1.0, 12))
    for vf in (dual, flat):
        assert rank_profile(vf)[2] > 1e-5
        assert algebrize(vf) == []


def test_tiny_generic_fields_get_no_witness():
    # certification is relative to |B| |Phi|, so the answer does not depend
    # on the scale of the field; the former grid residual, absolute below
    # |Jf| |phi| ~ 1, certified this field scaled by 1e-9
    coeffs = np.random.default_rng(11).uniform(-2.0, 2.0, 12)
    for scale in (1.0, 1e-9, 1e-12):
        assert algebrize(as_field(scale * coeffs)) == []


# -- the closed forms: every exact witness, and the flat fields ------------------


def generator(case, params):
    """rep of the non-unit basis element: rep(A) = span(I, G)."""
    return ALGEBRA_BUILDERS[case](params).rep(np.array([1.0, 0.0] if case != "A2_1" else [0.0, 1.0]))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES),
       params=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       phi=st.tuples(st.floats(0.0, np.pi), st.floats(0.6, 2.0), st.floats(0.6, 2.0),
                     st.sampled_from((1.0, -1.0)), st.floats(0.0, np.pi)).map(linear_map),
       c1=st.tuples(unit, unit), c2=st.tuples(unit, unit))
def test_rank_two_answer_keeps_every_exact_witness_of_the_search(case, params, phi, c1, c2):
    """On a built field of rank two, algebrize returns every family that fits, and only those.

    A witness's rep(A) is the span of the blocks times V, which for the built
    field is span(I, G) with G the built algebra's generator.  A2_1's
    generator has a 1 below the diagonal, so A2_1 fits exactly when G10 != 0;
    by the swap A2_2 fits when G01 != 0, and A2_12 when G is diagonal.  Each
    witness's own generator lies in span(I, G).
    """
    params = params if case != "A2_12" else ()
    assume(all(p == 0.0 or abs(p) > 1e-3 for p in params))
    assume(abs(np.linalg.det(ALGEBRA_BUILDERS[case](params).rep(np.array(c2)))) >= 0.05)
    vf = as_field(built_coefficients(case, params, phi, np.array(c1), np.array(c2)))
    g = generator(case, params)
    fits = [c for c, holds in (("A2_12", g[0, 1] == g[1, 0] == 0.0), ("A2_1", g[1, 0] != 0.0),
                               ("A2_2", g[0, 1] != 0.0)) if holds]
    witnesses = algebrize(vf)
    assert [w.case for w in witnesses] == fits
    span = np.stack([np.eye(2).ravel(), g.ravel()])
    for w in witnesses:
        stacked = np.vstack([span, generator(w.case, w.params).ravel()])
        s = np.linalg.svd(stacked, compute_uv=False)
        assert s[2] <= 1e-9 * s[0]
        assert w.residual <= 1e-13 and independently_certified(vf, w)


def test_flat_and_singular_block_fields_get_closed_form_witnesses():
    # rank one: each family's representative is the point of its line nearest
    # the origin, r = (1, 2) / sqrt(5)
    witnesses = algebrize(FLAT_VF)
    assert [w.case for w in witnesses] == ["A2_1", "A2_2"]
    npt.assert_allclose(witnesses[0].params, (0.2, -0.1), rtol=1e-14)
    npt.assert_allclose(witnesses[1].params, (-1.6, 0.8), rtol=1e-14)
    assert all(w.residual <= 3e-16 and independently_certified(FLAT_VF, w) for w in witnesses)
    # every point of the A2_1 line 1 + 2 beta - 4 alpha = 0 fits, with V from
    # s^T V = w^T for rep(r) = r w^T and s = (1, 1)
    r, s = np.array([1.0, 2.0]), np.array([1.0, 1.0])
    for beta in (-3.0, 0.5, 7.0):
        algebra = algebra_a2_1((1.0 + 2.0 * beta) / 4.0, beta)
        rank_one = algebra.rep(r)
        assert abs(np.linalg.det(rank_one)) <= 1e-14
        row = rank_one.T @ r / (r @ r)
        npt.assert_allclose(np.outer(r, row), rank_one, atol=1e-14)
        # s^T V = w^T, and a second equation that keeps V regular
        v = np.linalg.solve(np.array([s, [-1.0, 1.0]]), np.array([row, [row[1], -row[0]]]))
        phi = SmoothMap.linear(np.linalg.inv(v))
        fmap = FLAT_VF.as_map()
        assert max(cre_residual(fmap, phi, algebra, u)
                   for u in np.random.default_rng(2).uniform(-3.0, 3.0, (6, 2))) <= 1e-14
    # the axis-aligned flat field (0.3 + s + s^2, 0) fits A2_12 and A2_2(0, 0)
    axis = QuadraticVF(a=(0.3, 1.0, 1.0, 1.0, 2.0, 1.0), b=(0.0,) * 6)
    [w] = algebrize(axis, cases=("A2_12",))
    assert w.residual <= 1e-15 and independently_certified(axis, w)
    assert [w.case for w in algebrize(axis)] == ["A2_12", "A2_2"]
    # (x^2, y^2): rank two, every block singular, but the span holds I
    singular = QuadraticVF(a=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0), b=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    assert all(abs(np.linalg.det(block)) == 0.0 for block in _jacobian_blocks(singular))
    [w] = algebrize(singular)
    assert w.case == "A2_12" and w.residual == 0.0 and independently_certified(singular, w)


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
    # the former grid search certified approximate A2_1 witnesses on these
    # fields that passed on [-1, 1]^2 and failed further out, with residuals
    # above 1e-8 along lines through these points; the exact check decides
    # on the whole plane
    vf = as_field(np.array(coeffs))
    witnesses = algebrize(vf)
    assert witnesses
    fmap = vf.as_map()
    points = [(-3.0, -3.0), (-3.0, 3.0), (3.0, -3.0), (3.0, 3.0),
              (-2.0, -2.0), (2.0, 2.0), (1.0, -2.0), (2.0, -3.0)]
    for w in witnesses:
        assert max(cre_residual(fmap, w.phi, w.algebra, np.array(u)) for u in points) <= 1e-8


# -- certification from the family's rep rows -------------------------------------


def test_rep_rows_are_those_the_built_algebra_stores_bit_for_bit(rng):
    values = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-9, 2e9, -1e10, 1.0 / 3.0,
              *rng.uniform(-3.0, 3.0, 6), *(np.float64(x) for x in rng.standard_normal(6))]
    elements = rng.standard_normal((5, 2)) * 10.0 ** rng.uniform(-6, 6, (5, 1))
    members = [("A2_12", ())] + [(case, (p, q)) for case in ("A2_1", "A2_2")
                                 for p, q in zip(values, values[::-1])]
    for case, params in members:
        algebra = ALGEBRA_BUILDERS[case](params)
        rows = quadratic._rep_rows(case, params)
        assert rows.dtype == algebra._rep_rows.dtype and rows.shape == algebra._rep_rows.shape
        assert rows.tobytes() == algebra._rep_rows.tobytes(), (case, params)
        assert rep_from_rows(rows, elements).tobytes() == algebra.rep(elements).tobytes()
        assert rep_from_rows(rows, elements[0]).tobytes() == algebra.rep(elements[0]).tobytes()


# every parameter algebrize proposes is below about 2 / PARAM_RTOL = 2e9
bounded = st.floats(-1e10, 1e10, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(["A2_1", "A2_2"]), bounded, bounded)
@example("A2_1", 1e10, 1e10)
@example("A2_2", -1e10, 1e10)
@example("A2_1", 5e-324, -1e10)
def test_every_member_a_candidate_can_name_passes_validation(case, p, q):
    # so building the validated algebra for witnesses only drops no check
    # that could fire on a rejected candidate
    ALGEBRA_BUILDERS[case]((p, q))._validate()


def test_algebras_are_built_for_witnesses_only(monkeypatch):
    rng = np.random.default_rng(3)
    generic = [as_field(rng.uniform(-2.0, 2.0, 12)) for _ in range(8)]
    built = [vf for case in ("A2_1", "A2_2", "A2_12") for vf in built_fields(case, 3, seed=9)]
    built += [billiards_field(1.0, 1.0, 1.0).quadratic_vf, FLAT_VF, LINEAR_VF]
    init, count = Algebra.__init__, []

    def counted(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "__init__", counted)
    for vf in generic:
        count.clear()
        assert algebrize(vf) == [] and len(count) == 0
    for vf in built:
        count.clear()
        witnesses = algebrize(vf)
        assert witnesses and len(count) == len(witnesses)
