import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from phialg.algebra import (
    SINGULAR_RTOL,
    Algebra,
    a3_1_dependent_params,
    algebra_a2_1,
    algebra_a2_12,
    algebra_a2_2,
    algebra_a3_1,
    complex_algebra,
)
from phialg.catalog import default_families
from phialg.errors import (
    AssociativityViolation,
    DegenerateParameters,
    NotAssociative,
    NotCommutative,
    NoUnit,
    SingularElement,
)


def test_a2_1_table_and_representation(rng):
    alpha, beta = rng.uniform(-2, 2, 2)
    alg = algebra_a2_1(alpha, beta)
    e1, e2 = np.eye(2)
    npt.assert_allclose(alg.product(e1, e1), e1)
    npt.assert_allclose(alg.product(e1, e2), e2)
    npt.assert_allclose(alg.product(e2, e2), alpha * e1 + beta * e2)
    npt.assert_allclose(alg.unit, e1)
    npt.assert_allclose(alg.rep(e2), [[0.0, alpha], [1.0, beta]])


def test_a2_1_degenerate_case_products():
    alg = algebra_a2_1(0.0, 0.0)
    e1, e2 = np.eye(2)
    npt.assert_allclose(alg.product(e1, e1), e1)
    npt.assert_allclose(alg.product(e1, e2), e2)
    npt.assert_allclose(alg.product(e2, e2), np.zeros(2))


def test_complex_algebra_is_a2_1_minus_one():
    alg = complex_algebra()
    npt.assert_allclose(alg.product([0.0, 1.0], [0.0, 1.0]), [-1.0, 0.0])
    # (a+bi)(c+di)
    a, b, c, d = 0.7, -1.2, 0.4, 2.0
    npt.assert_allclose(alg.product([a, b], [c, d]), [a * c - b * d, a * d + b * c])


def test_a2_2_table_and_rep(rng):
    alg = algebra_a2_2(0.0, 1.0)
    e1, e2 = np.eye(2)
    npt.assert_allclose(alg.product(e1, e1), e2)
    npt.assert_allclose(alg.rep(e1), [[0.0, 1.0], [1.0, 0.0]])
    for _ in range(5):
        gamma, delta = rng.uniform(-2, 2, 2)
        alg = algebra_a2_2(gamma, delta)
        npt.assert_allclose(alg.rep(alg.unit), np.eye(2))
        c = alg.constants
        npt.assert_allclose(c, np.swapaxes(c, 0, 1))


def test_a2_12_componentwise():
    alg = algebra_a2_12()
    npt.assert_allclose(alg.product([2.0, 3.0], [5.0, 7.0]), [10.0, 21.0])
    npt.assert_allclose(alg.unit, [1.0, 1.0])
    npt.assert_allclose(alg.product([1.0, 0.0], [0.0, 1.0]), [0.0, 0.0])
    assert not alg.is_regular(np.array([1.0, 0.0]))
    with pytest.raises(SingularElement):
        alg.inverse(np.array([1.0, 0.0]))


def test_a3_1_dependent_params_vanish_at_special_points():
    assert a3_1_dependent_params((-1.0,) * 6) == (0.0, 0.0, 0.0)
    assert a3_1_dependent_params((0.0,) * 6) == (0.0, 0.0, 0.0)
    alg = algebra_a3_1((0.0,) * 6)
    npt.assert_allclose(alg.product([0, 1, 0], [0, 1, 0]), np.zeros(3))


def test_a3_1_table_entry_for_random_params(rng):
    p = rng.uniform(-1.5, 1.5, 6)
    alg = algebra_a3_1(p)
    p7, p8, p9 = a3_1_dependent_params(p)
    e2, e3 = np.eye(3)[1], np.eye(3)[2]
    npt.assert_allclose(alg.product(e2, e3), [p8, p[2], p[3]], atol=1e-14)
    npt.assert_allclose(alg.product(e2, e2), [p7, p[0], p[1]], atol=1e-14)
    npt.assert_allclose(alg.product(e3, e3), [p9, p[4], p[5]], atol=1e-14)


def test_a3_1_associativity_random(rng):
    for _ in range(100):
        alg = algebra_a3_1(rng.uniform(-2, 2, 6))
        defect, _ = alg.associativity_defect()
        assert defect <= 1e-12 * max(1.0, float(np.abs(alg.constants).max())) ** 2


def test_from_constants_accepts_and_rejects():
    c = complex_algebra()
    rebuilt = Algebra(c.constants, c.unit)
    npt.assert_allclose(rebuilt.constants, c.constants)

    a31 = algebra_a3_1((-1.0,) * 6)
    rebuilt = Algebra(a31.constants, a31.unit)
    npt.assert_allclose(rebuilt.product([0, 1, 0], [0, 1, 0]), a31.product([0, 1, 0], [0, 1, 0]))

    bad = np.array(c.constants, copy=True)
    bad[0, 1, 0] += 1.0  # break c[i][j][k] == c[j][i][k]
    with pytest.raises(NotCommutative) as err:
        Algebra(bad, c.unit)
    assert err.value.triple is not None

    with pytest.raises(NoUnit):
        Algebra(c.constants, [0.0, 1.0])

    # a commutative table with a valid unit but broken associativity needs
    # dim >= 3: every planar table with unit e1 happens to be associative
    broken = algebra_a3_1((1.0,) * 6).constants.copy()
    broken[1, 1, 0] += 0.5
    with pytest.raises(NotAssociative):
        Algebra(broken, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_constants_or_unit_are_rejected(bad):
    c = complex_algebra()
    constants = np.array(c.constants, copy=True)
    constants[1, 1, 0] = bad
    with pytest.raises(DegenerateParameters):
        Algebra(constants, c.unit)
    with pytest.raises(DegenerateParameters):
        Algebra(c.constants, [1.0, bad], check=False)
    with pytest.raises(DegenerateParameters):
        algebra_a2_1(bad, 0.0)
    with pytest.raises(DegenerateParameters):
        algebra_a3_1((bad, 1.0, 1.0, 1.0, 1.0, 1.0))


def test_a3_1_internal_violation_error(monkeypatch):
    import phialg.algebra as algebra_module

    monkeypatch.setattr(algebra_module, "a3_1_dependent_params",
                        lambda p: (1.0, 1.0, 1.0))
    with pytest.raises((AssociativityViolation, NotAssociative)):
        algebra_module.algebra_a3_1((0.3, -0.2, 0.5, 0.1, -0.4, 0.2))


def test_product_commutativity_property(rng, families):
    for fam in families:
        for _ in range(10):
            a = fam.algebra.random_element(rng)
            b = fam.algebra.random_element(rng)
            npt.assert_allclose(fam.algebra.product(a, b), fam.algebra.product(b, a),
                                atol=1e-12 * (1 + np.abs(a).max() * np.abs(b).max()))


def test_representation_homomorphism(rng):
    algebras = [
        algebra_a2_1(*rng.uniform(-2, 2, 2)),
        algebra_a2_2(*rng.uniform(-2, 2, 2)),
        algebra_a2_12(),
        complex_algebra(),
        algebra_a3_1(rng.uniform(-1.5, 1.5, 6)),
    ]
    for alg in algebras:
        npt.assert_allclose(alg.rep(alg.unit), np.eye(alg.dim), atol=1e-14)
        for _ in range(100):
            u = alg.random_element(rng)
            v = alg.random_element(rng)
            scale = max(1.0, float(np.abs(alg.rep(u)).max() * np.abs(alg.rep(v)).max()))
            npt.assert_allclose(alg.rep(alg.product(u, v)), alg.rep(u) @ alg.rep(v),
                                atol=1e-12 * scale)


def test_inverse_unit_and_worked_example():
    alg = algebra_a3_1((1.0,) * 6)
    npt.assert_allclose(alg.inverse(alg.unit), alg.unit)
    got = alg.inverse(np.array([1.0, 1.0, 0.0]))
    npt.assert_allclose(got, [1.0, -2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inverse_of_a_non_finite_element_raises_before_lapack(bad, capfd):
    alg = complex_algebra()
    with pytest.raises(SingularElement, match="not finite"):
        alg.inverse(np.array([bad, 1.0]))
    with pytest.raises(SingularElement, match="not finite"):
        alg.inverse(np.array([[2.0, 1.0], [1.0, bad]]))
    assert capfd.readouterr().err == ""


def test_inverse_of_an_element_whose_rep_overflows_raises_without_a_warning(capfd):
    # rep([0, 1e308]) in A2_1(10, 0) holds 10 * 1e308; the inverse used to
    # print an overflow warning and return [0, 0], whose product is not the unit
    alg = algebra_a2_1(10.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularElement, match="overflows"):
            alg.inverse(np.array([0.0, 1e308]))
        with pytest.raises(SingularElement, match="overflows"):
            alg.inverse(np.array([[2.0, 1.0], [0.0, 1e308]]))
        npt.assert_allclose(alg.inverse(np.array([[2.0, 1.0], [0.0, 1e150]])),
                            [[2.0 / (4.0 - 10.0), -1.0 / (4.0 - 10.0)], [0.0, 1e-151]])
    assert capfd.readouterr().err == ""


def test_inverse_random_property(rng, families):
    for fam in families:
        alg = fam.algebra
        for _ in range(20):
            a = alg.random_regular(rng)
            inv = alg.inverse(a)
            tol = 1e-10 * max(1.0, alg.norm(a) * alg.norm(inv))
            npt.assert_allclose(alg.product(a, inv), alg.unit, atol=tol)


def svd_rule_inverse(alg, a):
    """``Algebra.inverse`` without the margin: an SVD of every finite element."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        if a.ndim == 1:
            raise SingularElement(f"element {a} is not finite")
        return np.stack([svd_rule_inverse(alg, x) for x in a.reshape(-1, alg.dim)]).reshape(a.shape)
    r = alg.rep(a)
    if a.ndim > 1:
        if np.isfinite(r).all():
            s = np.linalg.svd(r, compute_uv=False)
            if (s[..., 0] != 0.0).all() and (s[..., -1] >= SINGULAR_RTOL * s[..., 0]).all():
                return np.linalg.solve(r, alg.unit)
        return np.stack([svd_rule_inverse(alg, x) for x in a.reshape(-1, alg.dim)]).reshape(a.shape)
    if not np.isfinite(r).all():
        raise SingularElement(f"element {a} has a representation that overflows")
    s = np.linalg.svd(r, compute_uv=False)
    if s[0] == 0.0 or s[-1] < SINGULAR_RTOL * s[0]:
        raise SingularElement(f"element {a} is singular (smin/smax={s[-1]:.2e}/{s[0]:.2e})")
    return np.linalg.solve(r, alg.unit)


def _unchecked_algebra():
    """Random structure constants, never validated: rep(a)^-1 need not be rep(a^-1)."""
    c = np.random.default_rng(3).standard_normal((3, 3, 3))
    return Algebra(c, [1.0, 0.0, 0.0], name="unchecked", check=False)


INVERSE_ALGEBRAS = list({id(f.algebra): f.algebra for f in default_families()}.values()) + [
    algebra_a2_12(), algebra_a2_1(0.3, -0.2, scalars="complex"), _unchecked_algebra()]


def _outcome(inverse, alg, a):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = inverse(alg, a)
            result = ("value", value.dtype.str, value.shape, value.tobytes())
        except Exception as exc:  # noqa: BLE001 - the type and message are compared
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


def _element(alg, draw):
    """An element: plain, near-singular, zero, scaled by 1e+-150, or with a non-finite entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = alg.random_element(rng)
    kind = draw(st.sampled_from(["plain"] * 3 + ["near-singular"] * 4 + ["scaled"] * 2
                                + ["zero", "non-finite"]))
    if kind == "near-singular":
        # a root s0 of det(rep(x + s y)) = 0 on the line through x along y, then
        # x + (s0 + t) y with |t| = 10^k |s0|: smin/smax reaches about 1e-14 to 1e-6
        y = alg.random_element(rng)
        roots = np.linalg.eigvals(-np.linalg.solve(alg.rep(y), alg.rep(x)))
        if alg.scalars == "real":
            roots = roots[roots.imag == 0].real
        if roots.size:
            s0 = roots[draw(st.integers(0, roots.size - 1))]
            t = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -5.0)) * abs(s0)
            x = x + (s0 + t) * y
    elif kind == "zero":
        x = np.zeros_like(x)
    elif kind == "scaled":
        x = x * draw(st.sampled_from([1e-150, 1e150]))
    elif kind == "non-finite":
        x[draw(st.integers(0, alg.dim - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_inverse_matches_the_svd_rule_bit_for_bit(data):
    """Same bits, same exception type and message, same warnings, for stacks and elements."""
    alg = data.draw(st.sampled_from(INVERSE_ALGEBRAS))
    stack = np.stack([_element(alg, data.draw) for _ in range(data.draw(st.integers(1, 6)))])
    for a in (stack, *stack):
        assert _outcome(Algebra.inverse, alg, a) == _outcome(svd_rule_inverse, alg, a)


def test_inverse_margin_covers_both_sides_of_the_rule():
    # elements on either side of SINGULAR_RTOL, and inside the margin, all decide as the SVD does
    alg = algebra_a2_12()
    for ratio in (1e-13, 0.99e-12, 1.01e-12, 1e-11, 1e-10, 1e-9, 1e-8):
        stack = np.array([[1.0, ratio], [ratio, 1.0], [2.0, 3.0]])
        for a in (stack, *stack):
            assert _outcome(Algebra.inverse, alg, a) == _outcome(svd_rule_inverse, alg, a)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_is_regular_follows_the_rule_of_inverse_without_a_warning(data):
    alg = data.draw(st.sampled_from(INVERSE_ALGEBRAS))
    a = _element(alg, data.draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        regular = alg.is_regular(a)
    assert regular == (_outcome(svd_rule_inverse, alg, a)[0][0] == "value")


def test_is_regular_is_false_for_non_finite_and_overflowing_elements():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not complex_algebra().is_regular(np.array([np.nan, 0.0]))
        assert not complex_algebra().is_regular(np.array([np.inf, 1.0]))
        assert not algebra_a2_1(10.0, 0.0).is_regular(np.array([0.0, 1e308]))
    alg = algebra_a2_12()  # the boundary smin = SINGULAR_RTOL * smax is regular, as for inverse
    assert alg.is_regular(np.array([1.0, SINGULAR_RTOL]))
    npt.assert_allclose(alg.inverse(np.array([1.0, SINGULAR_RTOL])), [1.0, 1.0 / SINGULAR_RTOL])


def test_power_and_exp():
    alg = algebra_a2_12()
    a = np.array([0.4, -1.1])
    npt.assert_allclose(alg.power(a, 0), alg.unit)
    npt.assert_allclose(alg.power(a, 3), a ** 3)
    npt.assert_allclose(alg.exp(a), np.exp(a), rtol=1e-12)

    c = complex_algebra()
    theta = 0.8
    npt.assert_allclose(c.exp([0.0, theta]), [np.cos(theta), np.sin(theta)], atol=1e-14)
    npt.assert_allclose(c.exp(c.zero()), c.unit)


def test_exp_inverse_property(rng, families):
    for fam in families:
        alg = fam.algebra
        for _ in range(10):
            a = alg.random_element(rng)
            norm = np.linalg.norm(a)
            if norm > 2.0:
                a = a * (2.0 / norm)
            npt.assert_allclose(alg.product(alg.exp(a), alg.exp(-a)), alg.unit, atol=1e-9)


def test_exp_of_a_stack_has_the_bits_of_each_element(rng, families):
    algebras = [fam.algebra for fam in families]
    algebras.append(algebra_a2_1(-0.25 + 0.5j, 1.0 - 2.0j, scalars="complex"))
    for alg in algebras:
        stack = np.stack([alg.random_element(rng, scale=1.5) for _ in range(12)])
        got = alg.exp(stack)
        assert got.shape == stack.shape
        for a, value in zip(stack, got):
            want = alg.exp(a)
            assert [float.hex(x) for x in value.view(float)] == [float.hex(x) for x in want.view(float)]


def test_regularity_and_random_regular(rng):
    alg = algebra_a2_12()
    assert alg.is_regular(alg.unit)
    assert not alg.is_regular(np.array([1.0, 0.0]))
    a = alg.random_regular(rng)
    npt.assert_allclose(alg.product(a, alg.inverse(a)), alg.unit, atol=1e-10)


def test_serialization_roundtrip_real_and_complex():
    alg = algebra_a3_1((0.3, -0.2, 0.5, 0.1, -0.4, 0.2))
    data = alg.to_dict()
    back = Algebra.from_dict(data)
    npt.assert_allclose(back.constants, alg.constants)
    npt.assert_allclose(back.unit, alg.unit)

    c = algebra_a2_1(-0.25 + 0.5j, 1.0 - 2.0j, scalars="complex")
    data = c.to_dict()
    assert isinstance(data["unit"][0], list)  # [re, im] pairs
    back = Algebra.from_dict(data)
    npt.assert_allclose(back.constants, c.constants)
    u = np.array([0.3 + 1j, -0.7 + 0.2j])
    v = np.array([1.1 - 0.4j, 0.6 + 0.9j])
    npt.assert_allclose(back.product(u, v), c.product(u, v))


def test_scipy_is_imported_on_the_first_exp_and_not_before():
    script = (
        "import json, sys\n"
        "import phialg\n"
        "before = 'scipy' in sys.modules\n"
        "value = phialg.algebra_a2_1(0.3, -0.2).exp([0.5, 1.25])\n"
        "print(json.dumps([before, 'scipy' in sys.modules, [float.hex(x) for x in value]]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    before, after, value = json.loads(proc.stdout)
    assert (before, after) == (False, True)
    from scipy.linalg import expm

    alg = algebra_a2_1(0.3, -0.2)
    expected = expm(alg.rep(np.array([0.5, 1.25]))) @ alg.unit
    assert value == [float.hex(x) for x in expected]
