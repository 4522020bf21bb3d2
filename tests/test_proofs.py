"""Symbolic proofs of the planar-algebra lemmas behind algebrize's closed forms.

For the three planar families, with symbolic parameters and elements:

* rep(A) is the span of I and rep(g), g the basis element that is not the
  unit, and rep(g) is not scalar, so the span is two-dimensional;
* any two elements of rep(A) commute;
* an invertible element's inverse lies in rep(A): adj(rep(z)) = rep(w) for
  w = tr(rep(z)) e - z, so rep(z)^-1 = rep(w / det rep(z));
* for an invertible Phi, the Cauchy-Riemann defect of a block L vanishes
  when L Phi^-1 lies in rep(A), and the defect map has rank two, so those
  are the only blocks with no defect;
* a 2x2 matrix commutes with a non-scalar X exactly when it lies in the
  span of I and X.

Hence, when f is differentiable relative to a linear phi, each block of
Jf = L0 + x L1 + y L2 is L_i = rep(g_i) Phi, the three blocks lie in the
two-dimensional space rep(A) Phi, each ratio L_i L_j^-1 equals
rep(g_i) rep(g_j)^-1, and the ratios commute with one another; by the last
point, commuting ratios and linearly dependent blocks are the same
condition.  Blocks of rank three are the obstruction: no witness exists.

For the exact certification of algebrize (quadratic._relative_defect): for
a quadratic f and a linear phi, the Cauchy-Riemann defect at (x, y) is
D0 + x D1 + y D2 with D_l = rep(Phi_y) L_l[:, 0] - rep(Phi_x) L_l[:, 1],
L_l the blocks of quadratic._jacobian_blocks.

For the rank-two closed form (quadratic._rank_two_candidates):

* for blocks L = rep(z) Phi and an invertible L* = rep(z*) Phi, the ratio
  L_i L*^-1 is s I + t G with G the non-unit generator and t a non-zero
  multiple of det(Phi) (z_i ^ z*), so it is non-scalar exactly when L_i and
  L* are independent, and then rep(A) = span(I, L_i L*^-1) is read off the
  blocks alone;
* the closed forms read the parameters back off that ratio N:
  (N01 / N10, (N11 - N00) / N10) for A2_1 and
  ((N00 - N11) / N01, N10 / N01) for A2_2.

For the rank-one closed form (quadratic._rank_one_candidates), Jf = lambda r s^T:

* A2_1 has a rank-one element with column space r exactly on the line
  r1^2 + beta r1 r2 - alpha r2^2 = 0, whose point nearest the origin is
  (r1^2, -r1^3 / r2) / |r|^2; A2_2 has the swapped line, and A2_12 fits
  only a coordinate axis r;
* V = s w^T + J s (J w)^T, with rep(r) = r w^T and J the quarter turn, is
  regular and puts r s^T V into rep(A).

For the pencil (quadratic._pencil), each branch, the derived A2_2 one
included, is exactly the coefficient system of Jf V in rep(A): its two
equations at (x, y) are K vec(Jf(x, y) V) = 0 for a rank-two K whose kernel
is rep(A), for symbolic coefficients, parameters and V.

For recovery (cre.recover_phi_algebra), which decides on the coefficient
blocks of a planar system, not on sample points:

* the re-emitted coefficients of quadratic potentials (cre._emitted_blocks)
  are the Cauchy-Riemann blocks of J phi(x, y) at every point (x, y);
* for any invertible mixing M of the rows, the block b_g of the non-unit
  generator g is P b_unit with P = M rep(g) M^-1, and P gives the family
  parameters: (-det P, tr P) = (alpha, beta) for A2_1 and
  (tr P, -det P) = (gamma, delta) for A2_2;
* the determinant of a degree-one 2x2 block at (x, y) is m^T T m for the
  monomials m = (1, x, y) and the T of cre._constant_ratio, so it vanishes
  on the whole plane exactly when T + T^T = 0.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import sympy as sp

from phialg.algebra import Algebra
from phialg.catalog import ALGEBRA_BUILDERS
from phialg.cre import _cr_blocks, _emitted_blocks
from phialg.quadratic import QuadraticVF, _jacobian_blocks, _pencil

alpha, beta, gamma, delta = sp.symbols("alpha beta gamma delta", real=True)


def constants(case):
    """Structure constants c[i][j][k] (e_i e_j = sum_k c[i][j][k] e_k), unit, non-unit basis index."""
    c = [[[sp.S.Zero] * 2 for _ in range(2)] for _ in range(2)]
    if case == "A2_1":
        c[0][0][0] = c[0][1][1] = c[1][0][1] = sp.S.One
        c[1][1][0], c[1][1][1] = alpha, beta
        return c, (1, 0), 1
    if case == "A2_2":
        c[0][0][0], c[0][0][1] = gamma, delta
        c[0][1][0] = c[1][0][0] = c[1][1][1] = sp.S.One
        return c, (0, 1), 0
    c[0][0][0] = c[1][1][1] = sp.S.One
    return c, (1, 1), 1


CASES = ("A2_1", "A2_2", "A2_12")


def rep(c, a):
    """Matrix of multiplication by a: rep(a)[k, j] = sum_i a_i c[i][j][k]."""
    return sp.Matrix(2, 2, lambda k, j: sum(a[i] * c[i][j][k] for i in range(2)))


def product(c, a, b):
    return rep(c, a) * sp.Matrix(b)


def is_zero(matrix):
    return sp.expand(matrix) == sp.zeros(*matrix.shape)


def element(name):
    return sp.symbols(f"{name}0 {name}1", real=True)


def test_rep_is_the_span_of_the_identity_and_the_non_unit_generator():
    x0, x1 = element("x")
    for case in CASES:
        c, unit, g = constants(case)
        assert rep(c, unit) == sp.eye(2), case
        generator = rep(c, [sp.S.One if i == g else sp.S.Zero for i in range(2)])
        # rep(z) = s I + t rep(g) with the coordinates of z on (unit, g)
        s, t = sp.symbols("s t")
        solution = sp.solve(list(rep(c, (x0, x1)) - s * sp.eye(2) - t * generator), [s, t], dict=True)
        assert len(solution) == 1, case
        basis = sp.Matrix([list(sp.eye(2)), list(generator)])
        assert basis.rank() == 2, case


def test_any_two_elements_commute():
    z, w = element("z"), element("w")
    for case in CASES:
        c, _, _ = constants(case)
        assert is_zero(rep(c, z) * rep(c, w) - rep(c, w) * rep(c, z)), case


def test_the_inverse_of_an_invertible_element_is_in_the_span():
    z = element("z")
    for case in CASES:
        c, unit, _ = constants(case)
        rz = rep(c, z)
        conjugate = [rz.trace() * unit[i] - z[i] for i in range(2)]
        assert is_zero(rz.adjugate() - rep(c, conjugate)), case
        assert is_zero(rz * rep(c, conjugate) - rz.det() * sp.eye(2)), case


def cr_defect(c, phi, block):
    """rep(phi_y) L e_x - rep(phi_x) L e_y: the Cauchy-Riemann equations of a block L."""
    return product(c, phi[:, 1], block[:, 0]) - product(c, phi[:, 0], block[:, 1])


def test_blocks_in_rep_times_phi_have_no_cauchy_riemann_defect():
    phi = sp.Matrix(2, 2, sp.symbols("p00 p01 p10 p11", real=True))
    g = element("g")
    for case in CASES:
        c, unit, _ = constants(case)
        assert is_zero(cr_defect(c, phi, rep(c, g) * phi)), case
        # the defect map L -> cr_defect has the columns of rep(phi_y) and
        # -rep(phi_x); applied to the unit they give phi_y and -phi_x, which
        # are independent for an invertible phi, so the map has rank two
        assert rep(c, phi[:, 1]) * sp.Matrix(unit) == phi[:, 1], case
        assert rep(c, phi[:, 0]) * sp.Matrix(unit) == phi[:, 0], case


def test_ratios_of_blocks_in_rep_times_phi_commute():
    phi = sp.Matrix(2, 2, sp.symbols("p00 p01 p10 p11", real=True))
    g0, g1, g2 = element("a"), element("b"), element("d")
    for case in CASES:
        c, _, _ = constants(case)
        blocks = [rep(c, g) * phi for g in (g0, g1, g2)]
        inverse = blocks[2].adjugate()  # L_j^-1 up to the scalar 1 / det(L_j)
        na, nb = blocks[0] * inverse, blocks[1] * inverse
        assert is_zero(na * nb - nb * na), case


def test_the_commutant_of_a_non_scalar_matrix_is_the_span_of_it_and_the_identity():
    x = sp.Matrix(2, 2, sp.symbols("x0:4", real=True))
    y = sp.symbols("y0:4", real=True)
    bracket = x * sp.Matrix(2, 2, y) - sp.Matrix(2, 2, y) * x
    # the linear map vec(Y) -> vec(XY - YX)
    m = sp.Matrix([[sp.diff(entry, v) for v in y] for entry in bracket])
    assert is_zero(m * sp.Matrix(list(sp.eye(2)))) and is_zero(m * sp.Matrix(list(x)))
    minors = [[m.extract(list(r), list(c)).det() for r in itertools.combinations(range(4), k)
               for c in itertools.combinations(range(4), k)] for k in (2, 3)]
    # rank two exactly: no 3x3 minor survives, and the 2x2 minors vanish
    # together only when x0 = x3 and x1 = x2 = 0, that is, X scalar
    assert all(sp.expand(d) == 0 for d in minors[1])
    nonscalar = (x[0] - x[3]) ** 2 + 2 * x[1] ** 2 + 2 * x[2] ** 2
    assert sp.expand(sum(d ** 2 for d in minors[0]) - nonscalar ** 2) == 0


def block_ratio(c, phi, z, w):
    """L_i adj(L*) for L_i = rep(z) Phi and L* = rep(w) Phi: det(L*) L_i L*^-1."""
    return (rep(c, z) * phi) * (rep(c, w) * phi).adjugate()


def generator(c, g):
    return rep(c, [sp.S.One if i == g else sp.S.Zero for i in range(2)])


def test_two_independent_blocks_fix_rep_as_the_span_of_the_identity_and_their_ratio():
    phi = sp.Matrix(2, 2, sp.symbols("p00 p01 p10 p11", real=True))
    z, w = element("z"), element("w")
    s, t = sp.symbols("s t")
    for case in CASES:
        c, _, g = constants(case)
        n = block_ratio(c, phi, z, w)
        solution = sp.solve(list(n - s * sp.eye(2) - t * generator(c, g)), [s, t], dict=True)
        assert len(solution) == 1, case
        # t = +-det(Phi) (z0 w1 - z1 w0): non-zero for an invertible Phi and
        # independent z, w, which is when the blocks are independent
        cross = phi.det() * (z[0] * w[1] - z[1] * w[0])
        assert sp.expand(solution[0][t] ** 2 - cross ** 2) == 0, case


def test_pencil_seed_closed_forms_return_the_family_parameters():
    phi = sp.Matrix(2, 2, sp.symbols("p00 p01 p10 p11", real=True))
    z, w = element("z"), element("w")
    n = block_ratio(constants("A2_1")[0], phi, z, w)
    assert sp.cancel(n[0, 1] / n[1, 0] - alpha) == 0
    assert sp.cancel((n[1, 1] - n[0, 0]) / n[1, 0] - beta) == 0
    n = block_ratio(constants("A2_2")[0], phi, z, w)
    assert sp.cancel((n[0, 0] - n[1, 1]) / n[0, 1] - gamma) == 0
    assert sp.cancel(n[1, 0] / n[0, 1] - delta) == 0
    # A2_12: the ratio is diagonal, so neither closed form applies
    n = block_ratio(constants("A2_12")[0], phi, z, w)
    assert sp.expand(n[0, 1]) == 0 and sp.expand(n[1, 0]) == 0


def symbolic_pencil(case, coeffs):
    """_pencil over symbolic coefficients, from the pencils of the twelve unit fields.

    The pencil is linear in the coefficients, which the last check confirms
    on a field with exactly representable coefficients.
    """
    units = np.array([_pencil(QuadraticVF(a=e[:6], b=e[6:]), case) for e in np.eye(12)])
    assert np.array_equal(units, units.round())
    pencil = np.tensordot(np.array(coeffs, dtype=object), units.astype(int).astype(object), axes=1)
    sample = np.arange(1, 13) / 8.0 * (-1.0) ** np.arange(12)
    exact = np.array([[[float(sp.S(entry).subs(dict(zip(coeffs, sample)))) for entry in row]
                       for row in m] for m in pencil])
    assert np.array_equal(_pencil(QuadraticVF(a=sample[:6], b=sample[6:]), case), exact)
    return [sp.Matrix(m) for m in pencil]


def test_each_pencil_branch_is_the_coefficient_system_of_jf_v_in_rep():
    a, b = sp.symbols("a0:6", real=True), sp.symbols("b0:6", real=True)
    x, y = sp.symbols("x y", real=True)
    v = sp.symbols("v0:4", real=True)
    k = sp.symbols("k0:8")
    monomials = [1, x, y, x * x, x * y, y * y]
    f = sp.Matrix([sum(c * m for c, m in zip(a, monomials)),
                   sum(c * m for c, m in zip(b, monomials))])
    vec_x = list(f.jacobian([x, y]) * sp.Matrix(2, 2, v))
    g = element("g")
    for case, params in (("A2_1", (alpha, beta)), ("A2_2", (gamma, delta)), ("A2_12", ())):
        c, _, _ = constants(case)
        for point in ((0.5, -1.25), (2.0, 3.0)):
            built = ALGEBRA_BUILDERS[case](point[:len(params)]).constants
            expected = [[[float(sp.S(e).subs(dict(zip(params, point)))) for e in row]
                         for row in block] for block in c]
            assert np.array_equal(built, expected), case
        m0, m1, m2 = symbolic_pencil(case, (*a, *b))
        p, q = params if params else (sp.S.Zero, sp.S.Zero)
        if not params:
            assert m1.is_zero_matrix and m2.is_zero_matrix
        m6 = m0 + p * m1 + q * m2
        equations = [(m6[r, :] + x * m6[r + 1, :] + y * m6[r + 2, :]).dot(v) for r in (0, 3)]
        # the equations are K vec(Jf V) for one K, fixed by the parameters alone
        kmat = sp.Matrix(2, 4, k)
        residual = sp.Matrix(equations) - kmat * sp.Matrix(vec_x)
        linear = [coeff for e in residual
                  for coeff in sp.Poly(sp.expand(e), *a, *b, *v, x, y).coeffs()]
        [solution] = sp.solve(linear, k, dict=True)
        assert set(solution) == set(k), case
        kmat = kmat.subs(solution)
        assert is_zero(residual.subs(solution)), case
        # rep(A) lies in the kernel of K, which has rank two for every parameter
        assert is_zero(kmat * sp.Matrix(list(rep(c, g)))), case
        minors = [kmat.extract([0, 1], list(cols)).det()
                  for cols in itertools.combinations(range(4), 2)]
        assert any(d.is_number and d != 0 for d in minors), case


def test_the_cauchy_riemann_defect_of_a_quadratic_field_is_affine_in_the_point():
    a, b = sp.symbols("a0:6", real=True), sp.symbols("b0:6", real=True)
    x, y = sp.symbols("x y", real=True)
    phi = sp.Matrix(2, 2, sp.symbols("p00 p01 p10 p11", real=True))
    monomials = [1, x, y, x * x, x * y, y * y]
    f = sp.Matrix([sum(c * m for c, m in zip(a, monomials)),
                   sum(c * m for c, m in zip(b, monomials))])
    blocks = [sp.Matrix(block) for block in _jacobian_blocks(SimpleNamespace(a=a, b=b))]
    assert is_zero(f.jacobian([x, y]) - blocks[0] - x * blocks[1] - y * blocks[2])
    for case in CASES:
        c, _, _ = constants(case)
        coefficients = [cr_defect(c, phi, block) for block in blocks]
        affine = coefficients[0] + x * coefficients[1] + y * coefficients[2]
        assert is_zero(cr_defect(c, phi, f.jacobian([x, y])) - affine), case


r1, r2 = sp.symbols("r1 r2", real=True)


def line(case):
    """det rep(r) for r = (r1, r2): zero exactly where rep(A) has a rank-one element with column space r."""
    c, _, _ = constants(case)
    return sp.expand(rep(c, (r1, r2)).det())


def test_a_rank_one_element_with_column_space_r_lies_on_each_familys_line():
    # rep(z) maps the unit to z, so a rank-one rep(z) with column space r has z ~ r
    for case in CASES:
        c, unit, _ = constants(case)
        assert rep(c, (r1, r2)) * sp.Matrix(unit) == sp.Matrix([r1, r2]), case
    assert line("A2_1") == sp.expand(r1 ** 2 + beta * r1 * r2 - alpha * r2 ** 2)
    # the A2_2 line is the A2_1 line with r1, r2 swapped and (alpha, beta) = (delta, gamma)
    swapped = line("A2_1").subs({r1: r2, r2: r1, alpha: delta, beta: gamma}, simultaneous=True)
    assert sp.expand(line("A2_2") - swapped) == 0
    # A2_12: det = r1 r2, zero only on the coordinate axes
    assert line("A2_12") == r1 * r2


def test_the_rank_one_representative_is_the_point_of_the_line_nearest_the_origin():
    norm2 = r1 ** 2 + r2 ** 2
    point = {alpha: r1 ** 2 / norm2, beta: -r1 ** 3 / (r2 * norm2)}
    assert sp.simplify(line("A2_1").subs(point)) == 0
    # the line is n . (alpha, beta) = -r1^2 with normal n = (-r2^2, r1 r2);
    # the nearest point is parallel to n
    normal = (-r2 ** 2, r1 * r2)
    assert sp.simplify(point[alpha] * normal[1] - point[beta] * normal[0]) == 0
    # A2_2 by the swap: (gamma, delta) = (-r2^3 / r1, r2^2) / |r|^2
    swapped = {gamma: -r2 ** 3 / (r1 * norm2), delta: r2 ** 2 / norm2}
    assert sp.simplify(line("A2_2").subs(swapped)) == 0


def test_the_rank_one_v_puts_r_s_v_into_rep():
    s = sp.Matrix(sp.symbols("s1 s2", real=True))
    r = sp.Matrix([r1, r2])
    turn = sp.Matrix([[0, -1], [1, 0]])
    on_the_line = {"A2_1": {alpha: (r1 ** 2 + beta * r1 * r2) / r2 ** 2},
                   "A2_2": {delta: (r2 ** 2 + gamma * r1 * r2) / r1 ** 2},
                   "A2_12": {r2: 0}}
    for case in CASES:
        c, _, _ = constants(case)
        rank_one = rep(c, (r1, r2)).subs(on_the_line[case])
        rr = r.subs(on_the_line[case])
        w = rank_one.T * rr  # rep(r) = r w^T / |r|^2
        assert is_zero(sp.simplify(rr * w.T - (rr.T * rr)[0] * rank_one)), case
        v = s * w.T + (turn * s) * (turn * w).T
        # s^T V = |s|^2 w^T, so r s^T V = |s|^2 |r|^2 rep(r)
        assert is_zero(sp.simplify(rr * s.T * v - (s.T * s)[0] * (rr.T * rr)[0] * rank_one)), case
        # V is |s| |w| times an orthogonal matrix: det V = |s|^2 |w|^2
        assert sp.simplify(v.det() - (s.T * s)[0] * (w.T * w)[0]) == 0, case


def bilinear(func, size):
    """func(algebra, v) over symbolic structure constants c (8) and a symbolic v (size).

    func is bilinear in c and v, so its values on unit constants and unit v
    fix it; the last check confirms it on exactly representable values.
    """
    def algebra(c):
        return Algebra(np.reshape(c, (2, 2, 2)), [1.0, 0.0], check=False)

    units = np.array([[func(algebra(cu), vu) for vu in np.eye(size)] for cu in np.eye(8)])
    assert np.array_equal(units, units.round())
    units = units.astype(int).astype(object)

    def at(c, v):
        return np.tensordot(np.array(v, dtype=object),
                            np.tensordot(np.array(c, dtype=object), units, axes=1), axes=1)

    sample_c = np.arange(1, 9) / 4.0 * (-1.0) ** np.arange(8)
    sample_v = np.arange(1, size + 1) / 8.0
    assert np.array_equal(func(algebra(sample_c), sample_v), at(sample_c, sample_v).astype(float))
    return at


def test_the_re_emitted_blocks_are_the_cauchy_riemann_blocks_of_j_phi_on_the_whole_plane():
    x, y = sp.symbols("x y", real=True)
    c, pots = sp.symbols("c0:8", real=True), sp.symbols("q0:10", real=True)
    emitted = bilinear(lambda alg, v: _emitted_blocks(alg, v.reshape(2, 5)), 10)(c, pots)
    cr_blocks = bilinear(lambda alg, v: _cr_blocks(alg, v.reshape(2, 2), 0, 1).reshape(2, 4), 4)
    phi = sp.Matrix(2, 5, pots) * sp.Matrix([x * x, x * y, y * y, x, y])
    expected = cr_blocks(c, list(phi.jacobian([x, y])))
    affine = emitted[..., 0] + x * emitted[..., 1] + y * emitted[..., 2]
    assert is_zero(sp.Matrix((affine - expected).tolist()))


def test_the_mixed_generator_block_is_p_times_the_unit_block_and_p_gives_the_parameters():
    m = sp.Matrix(2, 2, sp.symbols("m0:4", real=True))
    jphi = sp.Matrix(2, 2, sp.symbols("j0:4", real=True))
    for case, params in (("A2_1", (alpha, beta)), ("A2_2", (gamma, delta))):
        c, _, g = constants(case)
        # the columns (u_x, u_y) or (v_x, v_y): b_k[q] = (rep(phi_y)[q, k], -rep(phi_x)[q, k])
        b_unit, b_g = (sp.Matrix.hstack(rep(c, jphi[:, 1])[:, k], -rep(c, jphi[:, 0])[:, k])
                       for k in (1 - g, g))
        p = m * generator(c, g) * m.inv()
        assert is_zero(sp.simplify(m * b_g - p * (m * b_unit))), case
        read = (-p.det(), p.trace()) if case == "A2_1" else (p.trace(), -p.det())
        assert all(sp.simplify(r - want) == 0 for r, want in zip(read, params)), case


def test_the_determinant_of_a_degree_one_block_is_the_form_of_the_outer_products():
    x, y = sp.symbols("x y", real=True)
    den = np.array(sp.symbols("d0:12", real=True), dtype=object).reshape(2, 2, 3)
    monomials = sp.Matrix([1, x, y])
    block = sp.Matrix(2, 2, lambda r, i: sum(den[r, i, l] * monomials[l] for l in range(3)))
    t = sp.Matrix(np.outer(den[0, 0], den[1, 1]) - np.outer(den[0, 1], den[1, 0]))
    assert sp.expand(block.det() - (monomials.T * t * monomials)[0]) == 0
    # m^T T m = m^T S m / 2 with S = T + T^T, and each entry of the symmetric S
    # is a coefficient of m^T S m (the off-diagonal ones doubled), so the
    # determinant vanishes identically exactly when S = 0
    s = t + t.T
    form = sp.Poly(sp.expand((monomials.T * s * monomials)[0]), x, y).as_dict()
    expected = {(0, 0): s[0, 0], (2, 0): s[1, 1], (0, 2): s[2, 2],
                (1, 0): 2 * s[0, 1], (0, 1): 2 * s[0, 2], (1, 1): 2 * s[1, 2]}
    assert form.keys() == expected.keys()
    assert all(sp.expand(form[k] - v) == 0 for k, v in expected.items())
