"""Generalized Cauchy-Riemann systems: emission, and recovery of (phi, algebra).

Emission turns a pair (algebra, phi) into the explicit homogeneous linear
first-order PDE system that characterizes differentiability relative to them.
Recovery goes the other way for two-equation planar systems whose coefficients
are polynomials of degree <= 1 in (x, y): it matches the system against the
three planar algebra families, extracts the parameters, verifies that the
candidate gradient fields are conservative, integrates them to potentials and
checks that they re-emit the system.  Each test is an identity of the
coefficient blocks, so it decides on the whole plane, with no sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, algebra_a2_1, algebra_a2_2, algebra_a2_12
from .errors import DegenerateParameters, DimensionMismatch, NoMatch, NotEquivalent
from .maps import SmoothMap, worst_of

PATTERN_RTOL = 1e-9
CONSERVATIVE_RTOL = 1e-9
EQUIV_TOL = 1e-8

MONOMIALS = ("1", "x", "y")  # degree <= 1 coefficient basis
QUAD_MONOMIALS = ("x^2", "xy", "y^2", "x", "y")


# -- emitted systems -----------------------------------------------------------


@dataclass
class CREquation:
    """One equation: sum over (m, i) of coeffs[m, i] * d f_m / d u_i = 0."""

    i: int
    j: int
    q: int
    coeffs: object  # (n, k) array, or callable point -> (n, k)

    def coeffs_at(self, u):
        if callable(self.coeffs):
            return np.asarray(self.coeffs(np.asarray(u, dtype=float)))
        return self.coeffs

    def residual(self, f, u):
        jf = f.jacobian(np.asarray(u, dtype=float))
        a = self.coeffs_at(u)
        return float(np.sum(a * jf))


class CRESystem:
    """The n*k(k-1)/2 equations characterizing (phi, algebra)-differentiability."""

    def __init__(self, equations, k, n, constant):
        self.equations = list(equations)
        self.k = k
        self.n = n
        self.constant = constant

    def __len__(self):
        return len(self.equations)

    def residual(self, f, u):
        """Worst equation at u, scaled by 1 + |df_u|; nan when any equation is."""
        if not self.equations:
            raise ValueError("the system has no equations")
        scale = 1.0 + float(np.linalg.norm(f.jacobian(np.asarray(u, dtype=float))))
        return worst_of([abs(eq.residual(f, u)) for eq in self.equations]) / scale

    def max_residual(self, f, points):
        """Worst ``residual`` over the points; nan when any is nan."""
        residuals = [self.residual(f, u) for u in points]
        if not residuals:
            raise ValueError("no points to take the residual at")
        return worst_of(residuals)

    def coefficient_tensor(self):
        """Stacked (num_eq, n, k) coefficients; constant systems only."""
        if not self.constant:
            raise ValueError("system has position-dependent coefficients")
        return np.stack([eq.coeffs for eq in self.equations])

    def to_json(self):
        if not self.constant:
            raise ValueError("only constant-coefficient systems serialize to JSON")
        return {
            "k": self.k,
            "n": self.n,
            "equations": [
                {"pair": [eq.i, eq.j], "component": eq.q, "coeffs": np.asarray(eq.coeffs).tolist()}
                for eq in self.equations
            ],
        }

    def to_latex(self, func_names=None, var_names=None):
        func_names = func_names or ["u", "v", "w", "f_4", "f_5", "f_6", "f_7", "f_8"][: self.n]
        var_names = var_names or ["x", "y", "z", "t", "u_5", "u_6"][: self.k]
        lines = []
        for eq in self.equations:
            if callable(eq.coeffs):
                lines.append(f"\\text{{position-dependent equation }} (i={eq.i}, j={eq.j}, q={eq.q})")
                continue
            terms = []
            for m in range(self.n):
                for i in range(self.k):
                    c = eq.coeffs[m, i]
                    if abs(c) < 1e-14:
                        continue
                    mag = abs(c)
                    coef = "" if abs(mag - 1.0) < 1e-14 else f"{mag:g}"
                    sign = "-" if c < 0 else ("+" if terms else "")
                    terms.append(f"{sign}{coef}{func_names[m]}_{{{var_names[i]}}}")
            lines.append(("".join(terms) or "0") + " = 0")
        return " \\\\\n".join(lines)


def _cr_blocks(algebra, jphi, i, j):
    """(n, n, k) coefficient blocks of the equations (i, j, q), indexed by q.

    Block q holds rep(dphi_j)[q] in the d/du_i column and -rep(dphi_i)[q] in
    the d/du_j column; its rows run over the components f_m.
    """
    n, k = jphi.shape
    blocks = np.zeros((n, n, k))
    blocks[:, :, i] = algebra.rep(jphi[:, j])
    blocks[:, :, j] = -algebra.rep(jphi[:, i])
    return blocks


def emit_cre(algebra, phi):
    """Emit the Cauchy-Riemann system for (algebra, phi).

    For linear phi (constant Jacobian) the equations carry constant
    coefficient arrays; otherwise each equation's coefficients are a map of
    position.  Equation (i<j, q): the coefficient of d f_m / d u_i is
    sum_l dphi[l, j] c[l, m, q] and of d f_m / d u_j its negative with i, j
    swapped.
    """
    if phi.n != algebra.dim:
        raise DimensionMismatch(f"phi codomain {phi.n} != algebra dim {algebra.dim}")
    k, n = phi.k, algebra.dim
    constant = hasattr(phi, "matrix")
    equations = []
    for i in range(k):
        for j in range(i + 1, k):
            if constant:
                blocks = _cr_blocks(algebra, phi.matrix, i, j)
            for q in range(n):
                if constant:
                    coeffs = blocks[q]
                else:
                    def coeffs(u, i=i, j=j, q=q):
                        return _cr_blocks(algebra, phi.jacobian(u), i, j)[q]

                equations.append(CREquation(i=i, j=j, q=q, coeffs=coeffs))
    return CRESystem(equations, k=k, n=n, constant=constant)


def emit_weighted_cre(algebra, phi, k_weight, l_weight):
    """Single PDE: k_weight * (first planar equation) + l_weight * (second).

    Only the two-dimensional families have exactly two equations to combine.
    """
    if algebra.dim != 2 or phi.k != 2:
        raise DimensionMismatch("weighted emission needs a planar algebra and k = 2")
    system = emit_cre(algebra, phi)
    first, second = system.equations[0], system.equations[1]
    if system.constant:
        coeffs = k_weight * first.coeffs + l_weight * second.coeffs
    else:
        def coeffs(u):
            return k_weight * first.coeffs_at(u) + l_weight * second.coeffs_at(u)

    return CREquation(i=0, j=1, q=-1, coeffs=coeffs)


# -- two-equation planar systems ----------------------------------------------

COLUMNS = ("u_x", "u_y", "v_x", "v_y")


def _poly_array(value):
    """JSON coefficients, each a number or a {"const", "x", "y"} object, in
    nested lists, as an array with a trailing [constant, x, y] axis."""
    if isinstance(value, list):
        parts = [_poly_array(v) for v in value]
        if len({p.shape for p in parts}) > 1:
            raise DimensionMismatch(f"coefficient lists of unequal lengths: {value}")
        return np.array(parts)
    if isinstance(value, dict):
        return np.array([value.get(key, 0.0) for key in ("const", "x", "y")], dtype=float)
    if not isinstance(value, (int, float, str)):
        raise DimensionMismatch(f"a coefficient is a number or a {{const, x, y}} object, got {value!r}")
    return np.array([float(value), 0.0, 0.0])


class TwoPDESystem:
    """<A : dw> = F with A a 2x4 matrix of degree <= 1 polynomials in (x, y).

    Columns follow ``COLUMNS``: (u_x, u_y, v_x, v_y).  ``coeffs`` has shape
    (2, 4, 3) with the last axis holding [constant, x, y] parts, or (2, 4) for
    constant coefficients; ``rhs`` has shape (2, 3).  A non-finite entry of
    either raises DegenerateParameters naming it.
    """

    def __init__(self, coeffs, rhs=None):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape == (2, 4):
            coeffs = np.stack([coeffs, np.zeros((2, 4)), np.zeros((2, 4))], axis=-1)
        if coeffs.shape != (2, 4, 3):
            raise DimensionMismatch(f"coefficients must be (2, 4[, 3]), got {coeffs.shape}")
        self.coeffs = coeffs
        self.rhs = np.zeros((2, 3)) if rhs is None else np.asarray(rhs, dtype=float)
        if self.rhs.shape != (2, 3):
            raise DimensionMismatch(f"right-hand side must be (2, 3), got {self.rhs.shape}")
        for name, arr in (("A", self.coeffs), ("F", self.rhs)):
            if not np.isfinite(arr).all():
                *entry, part = bad = np.argwhere(~np.isfinite(arr))[0]
                raise DegenerateParameters(
                    f"non-finite coefficient {name}{''.join(f'[{i}]' for i in entry)} "
                    f"({('constant', 'x', 'y')[part]} part): {arr[tuple(bad)]}")

    def at(self, point):
        x, y = point
        mon = np.array([1.0, x, y])
        return self.coeffs @ mon

    def rhs_at(self, point):
        x, y = point
        return self.rhs @ np.array([1.0, x, y])

    @property
    def homogeneous(self):
        return bool(np.abs(self.rhs).max() == 0.0)

    def rows_independent(self):
        """The two coefficient rows are not scalar multiples of each other."""
        flat = self.coeffs.reshape(2, -1)
        s = np.linalg.svd(flat, compute_uv=False)
        return bool(s[-1] > 1e-10 * max(s[0], 1e-300))

    def to_json(self):
        def entry(c):
            return {"const": c[0], "x": c[1], "y": c[2]}

        return {
            "columns": list(COLUMNS),
            "A": [[entry(self.coeffs[q, col]) for col in range(4)] for q in range(2)],
            "F": [entry(self.rhs[q]) for q in range(2)],
        }

    @classmethod
    def from_json(cls, data):
        """The system of a ``to_json`` object: "A" is 2 x 4 coefficients and the
        optional "F" 2, each a number or a {"const", "x", "y"} object."""
        if not isinstance(data, dict):
            raise DimensionMismatch(f"a system is a JSON object, got {type(data).__name__}")
        return cls(_poly_array(data["A"]), rhs=_poly_array(data.get("F", [0.0, 0.0])))


def two_pde_from_cre(system):
    """Repackage a constant planar CRE system as a TwoPDESystem."""
    if system.k != 2 or system.n != 2 or not system.constant:
        raise DimensionMismatch("need a constant-coefficient system with k = n = 2")
    # a flattened (2, 2) block reads (u_x, u_y, v_x, v_y), the COLUMNS order
    return TwoPDESystem(system.coefficient_tensor().reshape(2, 4))


# -- recovery -------------------------------------------------------------------


@dataclass
class Recovery:
    case: str
    params: tuple
    algebra: Algebra
    phi: SmoothMap
    potential_coeffs: np.ndarray  # (2, 5) in QUAD_MONOMIALS order
    mixing: np.ndarray  # the row transformation applied to the input system
    # nonhomogeneous input: the recovered pair describes the homogeneous part
    # only, and the caller must supply a particular solution to shift by
    needs_particular_solution: bool


def _poly_matmul(m, block):
    """Constant 2x2 times a (2, c, 3) polynomial block."""
    return np.einsum("qr,ril->qil", m, block)


def _det_vanishes(block):
    """Whether det(block) of a (2, 2, 3) polynomial block, a quadratic in (x, y), is identically 0."""
    # det(block) at (x, y) is m^T T m for the monomials m = (1, x, y)
    t = np.outer(block[0, 0], block[1, 1]) - np.outer(block[0, 1], block[1, 0])
    return float(np.abs(t + t.T).max()) <= 1e-10 * float(np.abs(block).max()) ** 2


def _constant_ratio(num, den):
    """Constant P with num = P den as polynomials, or None.

    None when det(den), a quadratic in (x, y), vanishes identically.  P is
    solved on the largest-|det| 2x2 minor of den's six coefficient columns
    and must reproduce every coefficient of num.
    """
    if _det_vanishes(den):
        return None
    d, n = den.reshape(2, 6), num.reshape(2, 6)
    a, b = np.triu_indices(6, 1)
    best = int(np.argmax(np.abs(d[0, a] * d[1, b] - d[0, b] * d[1, a])))
    minor = [a[best], b[best]]
    p = np.linalg.solve(d[:, minor].T, n[:, minor].T).T
    if float(np.abs(p @ d - n).max()) > PATTERN_RTOL * float((np.abs(p) @ np.abs(d)).max()):
        return None
    return p


def _integrate_rotated_gradient(g_row):
    """Potential of the field with phi_y = g_row[0], phi_x = -g_row[1].

    Requires the conservativeness condition g_row[0].x + g_row[1].y = 0.
    Integration constants are fixed to zero; coefficients come back in
    QUAD_MONOMIALS order.
    """
    g0, g1, g2 = g_row[0]
    h0, h1, h2 = g_row[1]
    return np.array([-h1 / 2.0, -h2, g2 / 2.0, -h0, g0])


def _conservative_defect(g_block):
    scale = 1.0 + float(np.abs(g_block).max())
    return max(abs(g_block[q, 0, 1] + g_block[q, 1, 2]) for q in range(2)) / scale


def quadratic_map(coeff_rows, name="phi"):
    """Planar map whose components are quadratics in QUAD_MONOMIALS order."""
    coeffs = np.asarray(coeff_rows, dtype=float)

    def func(u):
        x, y = u
        return coeffs @ np.array([x * x, x * y, y * y, x, y])

    def jac(u):
        x, y = u
        dx = np.array([2 * x, y, 0.0, 1.0, 0.0])
        dy = np.array([0.0, x, 2 * y, 0.0, 1.0])
        return np.stack([coeffs @ dx, coeffs @ dy], axis=1)

    out = SmoothMap(2, 2, func, jac=jac, name=name)
    out.quad_coeffs = coeffs
    return out


def _cyclic_mixing(p, diag_first):
    """Rows (m1, m2) conjugating constant P to companion-type form.

    diag_first=True targets [[0, a],[1, b]] (row pattern of the family with
    unit e1); False targets [[g, 1],[d, 0]].
    """
    fixed = 1 if diag_first else 0
    shifted = p - float(np.trace(p)) * np.eye(2)
    for row in np.eye(2)[[fixed, 1 - fixed]]:
        m = np.stack([row @ shifted, row] if diag_first else [row, row @ shifted])
        if abs(np.linalg.det(m)) > 1e-12 * max(1.0, float(np.abs(m).max()) ** 2):
            return m
    return None


def _left_null_vector(block):
    """Unit row vector m with m @ block = 0 as polynomials, or None."""
    flat = block.reshape(2, -1)
    u, s, _ = np.linalg.svd(flat)
    if s[-1] > PATTERN_RTOL * max(s[0], 1e-300):
        return None
    return u[:, -1]


def find_equivalence_matrix(s1, s2, points, tol=EQUIV_TOL, det_tol=1e-12):
    """Pointwise row transformations M with M*A1 = A2 and M*F1 = F2.

    Raises NotEquivalent when any sample point fails the residual or
    nondegeneracy requirement; otherwise returns the per-point matrices.
    """
    matrices = []
    for pt in points:
        a1 = np.column_stack([s1.at(pt), s1.rhs_at(pt)])
        a2 = np.column_stack([s2.at(pt), s2.rhs_at(pt)])
        mt, _, _, _ = np.linalg.lstsq(a1.T, a2.T, rcond=None)
        m = mt.T
        scale = max(1.0, float(np.abs(a2).max()))
        resid = float(np.abs(m @ a1 - a2).max()) / scale
        if resid > tol:
            raise NotEquivalent(f"residual {resid:.3e} at point {tuple(pt)}")
        if abs(np.linalg.det(m)) < det_tol:
            raise NotEquivalent(f"transformation degenerate at point {tuple(pt)}")
        matrices.append(m)
    return EquivalenceMap(points=list(points), matrices=matrices)


@dataclass
class EquivalenceMap:
    points: list
    matrices: list


def _emitted_blocks(algebra, pots):
    """(2, 4, 3) coefficients of the Cauchy-Riemann system of (algebra, quadratic_map(pots)).

    The blocks are linear in J phi = J0 + x J1 + y J2, so the coefficient of
    each monomial is ``_cr_blocks`` of its Jacobian.
    """
    jacobians = (pots[:, [3, 4]], np.stack([2.0 * pots[:, 0], pots[:, 1]], axis=1),
                 np.stack([pots[:, 1], 2.0 * pots[:, 2]], axis=1))
    return np.stack([_cr_blocks(algebra, j, 0, 1).reshape(2, 4) for j in jacobians], axis=-1)


def recover_phi_algebra(system, cases=("A2_1", "A2_2", "A2_12")):
    """Recover (phi, algebra, case) from a homogeneous two-equation system.

    The attempt order is the ``cases`` argument; the first case that matches
    the pattern, passes the conservativeness test, and whose re-emitted system
    is equivalent to the input wins.  Every test is an identity of the
    coefficient blocks, so it holds on the whole plane.  Potentials carry zero
    integration constants, and the result is unique only up to multiplication
    of phi by a regular constant of the recovered algebra (families can also
    overlap, so restricting ``cases`` pins the family when the caller knows it).

    A nonhomogeneous input is matched on its homogeneous part and flagged:
    solutions of the full system are then (differentiable function composed
    with the recovered pair) + a particular solution the caller supplies.
    """
    if not system.rows_independent():
        raise NoMatch("pattern", "coefficient rows are dependent")
    b_u = system.coeffs[:, 0:2, :]
    b_v = system.coeffs[:, 2:4, :]
    saw_conservativeness = False
    last_detail = ""

    for case in cases:
        if case in ("A2_1", "A2_2"):
            # A2_1: b_v = P b_u, params (-det P, tr P); A2_2: b_u = P b_v, (tr P, -det P)
            unit_e1 = case == "A2_1"
            num, den = (b_v, b_u) if unit_e1 else (b_u, b_v)
            p = _constant_ratio(num, den)
            mixing = None if p is None else _cyclic_mixing(p, diag_first=unit_e1)
            if mixing is None:
                continue
            trace, neg_det = float(np.trace(p)), -float(np.linalg.det(p))
            params = (neg_det, trace) if unit_e1 else (trace, neg_det)
            algebra = (algebra_a2_1 if unit_e1 else algebra_a2_2)(*params)
            g_block = _poly_matmul(mixing, den)
        elif case == "A2_12":
            m1 = _left_null_vector(b_v)
            m2 = _left_null_vector(b_u)
            if m1 is None or m2 is None:
                continue
            mixing = np.stack([m1, m2])
            if abs(np.linalg.det(mixing)) < 1e-9:
                continue
            params, algebra = (), algebra_a2_12()
            g_block = np.stack([
                np.einsum("r,ril->il", m1, b_u),
                np.einsum("r,ril->il", m2, b_v),
            ])
        else:
            raise ValueError(f"unknown case {case!r}")

        if _conservative_defect(g_block) > CONSERVATIVE_RTOL:
            saw_conservativeness = True
            last_detail = f"case {case}"
            continue
        # A2_1 and A2_2 refused such a den in _constant_ratio; here det(g_block) is det J phi
        if case == "A2_12" and _det_vanishes(g_block):
            last_detail = "case A2_12: det J phi vanishes identically"
            continue
        pots = np.stack([_integrate_rotated_gradient(g_block[q]) for q in range(2)])
        if case == "A2_12":
            # the split family fixes each row only up to sign: make the first
            # non-zero potential coefficient positive
            for q in range(2):
                nz = np.nonzero(np.abs(pots[q]) > 1e-12)[0]
                if nz.size and pots[q, nz[0]] < 0:
                    pots[q] = -pots[q]
                    mixing[q] = -mixing[q]

        # self-certification: the recovered pair re-emits the mixed input
        mixed = _poly_matmul(mixing, system.coeffs)
        resid = float(np.abs(_emitted_blocks(algebra, pots) - mixed).max())
        resid /= max(1.0, float(np.abs(mixed).max()))
        if resid > EQUIV_TOL:
            last_detail = f"case {case} re-emission mismatch: residual {resid:.3e}"
            continue
        return Recovery(case=case, params=params, algebra=algebra,
                        phi=quadratic_map(pots, name=f"recovered-{case}"),
                        potential_coeffs=pots, mixing=mixing,
                        needs_particular_solution=not system.homogeneous)

    stage = "conservativeness" if saw_conservativeness else "pattern"
    raise NoMatch(stage, last_detail)
