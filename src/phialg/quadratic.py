"""Deciding differentiability of quadratic planar fields relative to linear maps.

For a quadratic planar field f and a linear phi with matrix Phi, the answer
is linear algebra on the three blocks of Jf = L0 + x L1 + y L2.  If f is
differentiable relative to phi and a planar algebra A, every block lies in
the two-dimensional space rep(A) Phi (tests/test_proofs.py), so B, the 3x4
matrix of the flattened blocks, has rank at most two.  ``algebrize`` reads
the rank off B's singular values and proposes one candidate per family in
closed form:

* rank two: rep(A) Phi is the span of the blocks, the span of B's top two
  right singular vectors.  With L* its best-conditioned unit element and S
  the other span direction, rep(A) = span(I, N) for N = S L*^-1, so each
  family meets it in at most one parameter point, read off N, and
  V = Phi^-1 lies in L*^-1 span(I, N) (``_rank_two_candidates``);
* rank one (a "flat" field, Jf = lambda(u) r s^T): a whole line of each
  family fits, the parameter points where rep(r) is singular; the point of
  the line nearest the origin is proposed (``_rank_one_candidates``).

A field whose blocks have rank three has no witness (the obstruction: its
blocks are independent); its candidates are those of the nearest rank-two
field, the truncated SVD of B, and certification rejects them.  So [] proves,
up to rounding, that no linear phi and no planar algebra fit a field whose
blocks have rank at most two, and for any other field it is the certified
answer of the nearest rank-two field.

Every candidate is certified exactly.  With phi linear the Cauchy-Riemann
defect at (x, y) is D0 + x D1 + y D2, with
D_l = rep(Phi_y) L_l[:, 0] - rep(Phi_x) L_l[:, 1] (tests/test_proofs.py), so
the three coefficient defects decide it on the whole plane
(``_relative_defect``).  rep comes from the family member's two rep rows,
which hold only 0, 1 and the parameters (``_rep_rows``), with the arithmetic
of ``Algebra.rep``; the validated ``Algebra`` is built for a witness only.
Validation could not reject a candidate anyway: every proposed parameter is
below about 2 / PARAM_RTOL, where a member's axioms hold to rounding.

The 6x4 matrix M6 of the paper, whose null vectors are the V of the
witnesses, is affine in the two family parameters, M6(p, q) = M0 + p M1 +
q M2.  Only the A2_1 and A2_12 pencils are written out.  A2_2(gamma, delta)
is A2_1(delta, gamma) with e1 and e2 swapped, so the A2_2 pencil of the
field (a, b) is minus the A2_1 pencil of the swapped field (b, a), with p
and q exchanged and the null vector (a, b, c, d) read as (b, a, d, c):

    pencil_A2_2(a, b) = -pencil_A2_1(b, a)[[0, 2, 1]][..., [1, 0, 3, 2]]

(tests/test_proofs.py proves every branch against the algebras' rep).  The
same swap gives the A2_2 parameters of both closed forms from the A2_1 ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import algebra_a2_1, rep_from_rows
from .calculus import cre_residual  # noqa: F401  (perfbench's span recorder patches this binding)
from .catalog import ALGEBRA_BUILDERS
from .errors import DegenerateParameters, DimensionMismatch
from .maps import SmoothMap, worst_of

CASE_A2_1 = "A2_1"
CASE_A2_2 = "A2_2"
CASE_A2_12 = "A2_12"
CASES = (CASE_A2_1, CASE_A2_2, CASE_A2_12)

# the largest certified defect max |D_l|, relative to |B| |Phi| (Frobenius norms)
WITNESS_TOL = 1e-8
# det(M4), which every witness reports, is a fourth-degree product of
# coefficients; below this limit it stays finite
COEFF_LIMIT = float(np.finfo(float).max) ** 0.25 / 1e3
# the relative size below which the second singular value of B counts as zero
RANK_RTOL = 1e-12
# the relative size below which an entry of N, or a coordinate of r, counts
# as zero when a family's parameters are divided by it
PARAM_RTOL = 1e-9
# |det V| at or below which phi_from_v refuses V; for unit matrices, also the
# |det| at or below which a span of blocks holds no Phi
DET_MIN = 1e-9


@dataclass(frozen=True)
class QuadraticVF:
    """Planar field with components a0 + a1 x + a2 y + a3 x^2 + a4 xy + a5 y^2.

    Coefficients must be finite and at most ``COEFF_LIMIT`` in magnitude;
    DegenerateParameters is raised otherwise.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != 6 or len(self.b) != 6:
            raise DimensionMismatch("QuadraticVF needs six coefficients per component")
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if not all(math.isfinite(x) for x in (*self.a, *self.b)):
            raise DegenerateParameters("QuadraticVF coefficients must be finite")
        if max(abs(x) for x in (*self.a, *self.b)) > COEFF_LIMIT:
            raise DegenerateParameters(
                f"QuadraticVF coefficients must stay below {COEFF_LIMIT:.3e} in magnitude "
                "for the fourth-degree det(M4) to stay finite")

    def __call__(self, point):
        x, y = point
        mon = np.array([1.0, x, y, x * x, x * y, y * y])
        return np.array([np.dot(self.a, mon), np.dot(self.b, mon)])

    def jacobian(self, point):
        x, y = point
        dx = np.array([0.0, 1.0, 0.0, 2 * x, y, 0.0])
        dy = np.array([0.0, 0.0, 1.0, 0.0, x, 2 * y])
        return np.array([
            [np.dot(self.a, dx), np.dot(self.a, dy)],
            [np.dot(self.b, dx), np.dot(self.b, dy)],
        ])

    def as_map(self):
        return SmoothMap(2, 2, self.__call__, jac=self.jacobian, name="quadratic-vf")

    @property
    def quadratic_norm(self):
        return float(max(abs(c) for c in (*self.a[3:], *self.b[3:])))


# rows of M6 coming from the quadratic part (x- and y-coefficients) and from
# the linear part (constant coefficients)
_M4_ROWS = [1, 2, 4, 5]
_M2_ROWS = [0, 3]


def _pencil(vf, case):
    """(M0, M1, M2), stacked, with M6(p, q) = M0 + p M1 + q M2.

    Rows 0-2 of M6 are the constant, x and y coefficients of the first
    equation, rows 3-5 those of the second; the columns pair with the null
    vector (a, b, c, d).  A and B, the first and second rows of the Jacobian
    blocks, hold the derivative coefficients of the two field components.
    A2_2 is derived from A2_1 by the basis swap of the module docstring.
    """
    if case == CASE_A2_2:
        swapped = _pencil(QuadraticVF(a=vf.b, b=vf.a), CASE_A2_1)
        return -swapped[[0, 2, 1]][..., [1, 0, 3, 2]]
    A, B = _jacobian_blocks(vf).transpose(1, 0, 2)
    m = np.zeros((3, 6, 4))
    # M6 in (even columns | odd columns), first three rows over the last three
    if case == CASE_A2_1:
        # (A + beta B | -B) over (alpha B | -A)
        m[0, :3, 0::2], m[0, :3, 1::2], m[2, :3, 0::2] = A, -B, B
        m[1, 3:, 0::2], m[0, 3:, 1::2] = B, -A
    elif case == CASE_A2_12:
        # (0 | A) over (B | 0)
        m[0, :3, 1::2], m[0, 3:, 0::2] = A, B
    else:
        raise ValueError(f"unknown case {case!r}")
    return m


def _pencil_at(pencil, p, q):
    """The pencil at parameters p, q, scalars or arrays of one shape S: shape S + (rows, 4)."""
    p = np.asarray(p)[..., None, None]
    q = np.asarray(q)[..., None, None]
    return pencil[0] + p * pencil[1] + q * pencil[2]


def build_M6(vf, case, params=()):
    """The six coefficient equations a null vector of which algebrizes vf."""
    pencil = _pencil(vf, case)
    if case == CASE_A2_12:
        return pencil[0]
    p, q = params
    return _pencil_at(pencil, p, q)


def build_M4(vf, case, params=()):
    """Rows of M6 coming from the quadratic part (x- and y-coefficients)."""
    return build_M6(vf, case, params)[_M4_ROWS]


def build_M2(vf, case, params=()):
    """Rows of M6 coming from the linear part (constant coefficients)."""
    return build_M6(vf, case, params)[_M2_ROWS]


@dataclass
class AlgebrizationWitness:
    case: str
    params: tuple
    v: np.ndarray
    phi: SmoothMap
    residual: float
    det_m4: float
    algebra: object


def _phi_matrix(v):
    """The matrix of phi_from_v(v), or None when |ad - bc| is at most DET_MIN."""
    a, b, c, d = v
    det = a * d - b * c
    if abs(det) <= DET_MIN:
        return None
    return np.array([[d, -b], [-c, a]]) / det


def phi_from_v(v):
    """phi(s, t) = (d s - b t, a t - c s) / (ad - bc); the inverse of [[a,b],[c,d]]."""
    m = _phi_matrix(v)
    if m is None:
        a, b, c, d = v
        raise DegenerateParameters(f"ad - bc = {a * d - b * c:.3e} too small")
    return SmoothMap.linear(m, name="phi(v)")


def _jacobian_blocks(vf):
    """The blocks L0, L1, L2 of Jf(x, y) = L0 + x L1 + y L2, stacked: shape (3, 2, 2)."""
    a, b = vf.a, vf.b
    return np.array([
        [[a[1], a[2]], [b[1], b[2]]],
        [[2 * a[3], a[4]], [2 * b[3], b[4]]],
        [[a[4], 2 * a[5]], [b[4], 2 * b[5]]],
    ])


# the rep rows of A2_12, rep(a) = diag(a)
_A2_12_ROWS = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _rep_rows(case, params):
    """The (2, 4) rows of the family member, as ``Algebra`` stores them: rep(a) = a @ rows.

    They hold only 0, 1 and the two parameters: A2_1(alpha, beta) has
    rep(e2) = [[0, alpha], [1, beta]], A2_2(gamma, delta) has
    rep(e1) = [[gamma, 1], [delta, 0]], and the unit's rep is I.
    """
    if case == CASE_A2_1:
        alpha, beta = params
        return np.array([[1.0, 0.0, 0.0, 1.0], [0.0, alpha, 1.0, beta]])
    if case == CASE_A2_2:
        gamma, delta = params
        return np.array([[gamma, 1.0, delta, 0.0], [1.0, 0.0, 0.0, 1.0]])
    return _A2_12_ROWS


def _relative_defect(blocks, phi, rows):
    """max |D_l| / (|B| |Phi|): the Cauchy-Riemann defect of the field on the whole plane.

    D_l = rep(Phi_y) L_l[:, 0] - rep(Phi_x) L_l[:, 1] is the coefficient of
    the l-th monomial of 1, x, y in the defect, which is affine in (x, y)
    for a linear phi; rep is that of the family member with rep rows
    ``rows``.  Non-finite when any defect is.
    """
    rep_x, rep_y = rep_from_rows(rows, phi.T)
    defect = float(np.abs(blocks[:, :, 0] @ rep_y.T - blocks[:, :, 1] @ rep_x.T).max())
    scale = float(np.linalg.norm(blocks)) * float(np.linalg.norm(phi))
    return defect / scale if scale else defect


def _certify(vf, blocks, case, params, v):
    """The witness of (case, params, V) when its relative defect is at most WITNESS_TOL, else None.

    The defect needs only the member's rep rows; the validated algebra and
    phi's map are built for a witness alone (see the module docstring).
    """
    phi = _phi_matrix(v)
    if phi is None:
        return None
    residual = _relative_defect(blocks, phi, _rep_rows(case, params))
    if not residual <= WITNESS_TOL:
        return None
    # numpy's det adds up the logs of the LU pivots: a pivot that underflows
    # to 0 on a field with subnormal coefficients warns, though 0 is the answer
    with np.errstate(divide="ignore"):
        det_m4 = abs(float(np.linalg.det(build_M4(vf, case, params))))
    return AlgebrizationWitness(case=case, params=tuple(params), v=np.asarray(v, dtype=float),
                                phi=phi_from_v(v), residual=residual, det_m4=det_m4,
                                algebra=ALGEBRA_BUILDERS[case](params))


def _linear_witness(vf):
    """Purely linear fields: f = (a0, b0) + phi with phi the linear part, if it certifies."""
    blocks = _jacobian_blocks(vf)
    lin = blocks[0]
    v = np.full(4, np.nan)
    if abs(lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]) > DET_MIN:
        v = np.linalg.inv(lin).ravel()
    residual = _relative_defect(blocks, lin, _rep_rows(CASE_A2_1, (0.0, 0.0)))
    if not residual <= WITNESS_TOL:
        return None
    return AlgebrizationWitness(case=CASE_A2_1, params=(0.0, 0.0), v=v,
                                phi=SmoothMap.linear(lin, name="linear-part"),
                                residual=residual, det_m4=0.0, algebra=algebra_a2_1(0.0, 0.0))


def _best_conditioned(m1, m2):
    """Unit combinations of orthonormal 2x2 matrices m1, m2, largest |det| first, and that det.

    det(a m1 + b m2) is a quadratic form in (a, b); the eigenvectors of its
    symmetric matrix are its extremes on the unit circle, and the
    eigenvalues the determinants there.  Returns (det, best, other), other
    the orthogonal combination.
    """
    d1 = m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0]
    d2 = m2[0, 0] * m2[1, 1] - m2[0, 1] * m2[1, 0]
    cross = m1[0, 0] * m2[1, 1] + m2[0, 0] * m1[1, 1] - m1[0, 1] * m2[1, 0] - m2[0, 1] * m1[1, 0]
    eigvals, eigvecs = np.linalg.eigh(np.array([[d1, cross / 2.0], [cross / 2.0, d2]]))
    i = int(np.argmax(np.abs(eigvals)))
    (a, b), (c, d) = eigvecs[:, i], eigvecs[:, 1 - i]
    return eigvals[i], a * m1 + b * m2, c * m1 + d * m2


def _rank_two_candidates(m1, m2):
    """(case, params, V) from the span of the orthonormal blocks m1, m2, in the order A2_12, A2_1, A2_2.

    rep(A) = span(I, N) with N = S L*^-1.  A2_1 fits where N10 != 0, with
    (alpha, beta) = (N01, N11 - N00) / N10; A2_2 where N01 != 0, with
    (gamma, delta) = (N00 - N11, N10) / N01, the A2_1 form after the swap;
    A2_12 where N is diagonal, which certification decides.  V is the
    largest-|det| unit element of L*^-1 span(I, N).  A span without an
    element of |det| above DET_MIN holds no Phi and gives no candidate.
    """
    det, lstar, s = _best_conditioned(m1, m2)
    if not abs(det) > DET_MIN:
        return []
    inv = np.linalg.inv(lstar)
    n = s @ inv
    basis = np.linalg.qr(np.stack([inv.ravel(), (inv @ n).ravel()], axis=1))[0]
    v = _best_conditioned(basis[:, 0].reshape(2, 2), basis[:, 1].reshape(2, 2))[1].ravel()
    tiny = PARAM_RTOL * float(np.abs(n).max())
    candidates = [(CASE_A2_12, (), v)]
    if abs(n[1, 0]) > tiny:
        candidates.append((CASE_A2_1, (n[0, 1] / n[1, 0], (n[1, 1] - n[0, 0]) / n[1, 0]), v))
    if abs(n[0, 1]) > tiny:
        candidates.append((CASE_A2_2, ((n[0, 0] - n[1, 1]) / n[0, 1], n[1, 0] / n[0, 1]), v))
    return candidates


def _rank_one_candidates(k):
    """(case, params, V) for Jf = lambda(u) k with k ~ r s^T, in the order A2_12, A2_1, A2_2.

    A witness needs R = r w^T in rep(A), and R = rep(r) up to scale, since
    rep(z) maps the unit to z.  In A2_1, det rep(r) = r1^2 + beta r1 r2 -
    alpha r2^2, so every point of that line fits; the point nearest the
    origin, for a unit r, is (r1^2, -r1^3 / r2).  A2_2 is the same with r1
    and r2 swapped and the parameters read as (beta, alpha).  A2_12 fits
    when r is a coordinate axis, which certification decides.  V solves
    s^T V = w^T up to scale: V = (s w^T + J s (J w)^T) / sqrt(2) for unit
    s and w, J the quarter turn, an orthogonal matrix over sqrt(2).
    """
    u, _, vt = np.linalg.svd(k)
    r, s = u[:, 0], vt[0]
    candidates = [(CASE_A2_12, ())]
    if abs(r[1]) > PARAM_RTOL:
        candidates.append((CASE_A2_1, (r[0] ** 2, -r[0] ** 3 / r[1])))
    if abs(r[0]) > PARAM_RTOL:
        candidates.append((CASE_A2_2, (-r[1] ** 3 / r[0], r[1] ** 2)))
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = []
    for case, params in candidates:
        w = rep_from_rows(_rep_rows(case, params), r).T @ r
        w = w / np.linalg.norm(w)
        v = (np.outer(s, w) + np.outer(turn @ s, turn @ w)) / math.sqrt(2.0)
        out.append((case, params, v.ravel()))
    return out


def algebrize(vf, cases=CASES, box=(-10.0, 10.0), step=0.25):
    """The certified witnesses that vf is differentiable relative to a linear map.

    A field without a quadratic part is tried against its linear part.  For
    a quadratic field the blocks of Jf decide (see the module docstring):
    one closed-form candidate per family in ``cases``, at most, each
    certified exactly on the whole plane; the witnesses come in the order
    A2_12, A2_1, A2_2.  A witness's ``residual`` is its relative defect
    max |D_l| / (|B| |Phi|), at most ``WITNESS_TOL``.

    For a field whose blocks have rank at most two, [] proves, up to
    rounding, that no linear phi and no planar algebra of ``cases`` fit it.
    For any other field, [] is the certified answer of the nearest rank-two
    field: its candidates do not fit vf.

    box and step no longer change the answer: there is no parameter grid.
    They are kept for callers of the former grid search, and are still
    checked: the box needs finite bounds lo < hi and the step must be finite
    and positive, otherwise DegenerateParameters is raised.
    """
    lo, hi = box
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DegenerateParameters(f"search box needs finite bounds lo < hi, got {lo}, {hi}")
    if not (math.isfinite(step) and step > 0):
        raise DegenerateParameters(f"search step must be finite and positive, got {step}")

    if vf.quadratic_norm <= 1e-14:
        w = _linear_witness(vf)
        return [w] if w is not None else []
    blocks = _jacobian_blocks(vf)
    _, svals, vt = np.linalg.svd(blocks.reshape(3, 4))
    span = vt[:2].reshape(2, 2, 2)
    if svals[1] > RANK_RTOL * svals[0]:
        candidates = _rank_two_candidates(*span)
    else:
        candidates = _rank_one_candidates(span[0])
    witnesses = []
    for case, params, v in candidates:
        if case in cases:
            w = _certify(vf, blocks, case, params, v)
            if w is not None:
                witnesses.append(w)
    return witnesses


# -- the quadratic field attached to triangular billiards ----------------------


def _cmul(x, y):
    """x * y for complex scalars or arrays, written out as (ac - bd) + i(ad + bc).

    numpy's complex array multiply fuses operations on its SIMD path, so its
    last bits differ from those of the scalar multiply; written out, every
    element gets the bits of the scalar product.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


@dataclass
class BilliardsField:
    """F(u, v) = (b u^2 - (b+c) uv, a v^2 - (a+c) uv) on C^2 and its real form."""

    a: float
    b: float
    c: float

    @property
    def quadratic_vf(self):
        a, b, c = self.a, self.b, self.c
        return QuadraticVF(a=(0.0, 0.0, 0.0, b, -(b + c), 0.0),
                           b=(0.0, 0.0, 0.0, 0.0, -(a + c), a))

    def complex_eval(self, u, v):
        """F at complex u, v (scalars, or arrays of one shape), shape (..., 2)."""
        a, b, c = self.a, self.b, self.c
        return np.stack([_cmul(_cmul(b, u), u) - _cmul(_cmul(b + c, u), v),
                         _cmul(_cmul(a, v), v) - _cmul(_cmul(a + c, u), v)], axis=-1)

    def real_eval(self, point):
        x1, y1, x2, y2 = point
        a, b, c = self.a, self.b, self.c
        return np.array([
            b * (x1 ** 2 - y1 ** 2) - (b + c) * (x1 * x2 - y1 * y2),
            2 * b * x1 * y1 - (b + c) * (x1 * y2 + x2 * y1),
            a * (x2 ** 2 - y2 ** 2) - (a + c) * (x1 * x2 - y1 * y2),
            2 * a * x2 * y2 - (a + c) * (x1 * y2 + x2 * y1),
        ])


def billiards_field(a, b, c):
    return BilliardsField(a=float(a), b=float(b), c=float(c))


def billiards_parameters(a, b, c):
    """The closed-form (alpha, beta) and null vector for the billiards field."""
    if abs(a + c) < 1e-12:
        raise DegenerateParameters("a + c = 0")
    try:
        alpha = -((b + c) ** 2) / ((a + c) ** 2)
        beta = -2.0 * (b + c) / (a + c) + 4.0 * a * b / ((a + c) ** 2)
    except OverflowError:
        alpha = beta = math.inf
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DegenerateParameters(f"alpha, beta overflow for a, b, c = {a}, {b}, {c}")
    v = np.array([1.0, -(b + c) / (a + c), 0.0, -2.0 * b / (a + c)])
    return alpha, beta, v


@dataclass
class BilliardsReport:
    alpha: float
    beta: float
    v: np.ndarray
    phi_matrix: np.ndarray
    residual: float
    det_m4: float
    algebra: object


_COMPLEX_GRID = [complex(re, im) for re in (-1.5, -0.5, 0.8, 1.4) for im in (-0.9, 0.6, 1.1, -0.3)]


def verify_billiards_algebrization(a, b, c, grid=None):
    """Check F(w) = b * (phi(w))^2 in A2_1(alpha, beta) over a complex grid.

    phi(u, v) = (u - (b+c)/(2b) v, -(a+c)/(2b) v); degenerate when b = 0 or
    a + c = 0.
    """
    if abs(b) < 1e-12:
        raise DegenerateParameters("b = 0")
    alpha, beta, v = billiards_parameters(a, b, c)
    algebra = algebra_a2_1(alpha, beta, scalars="complex")
    field = billiards_field(a, b, c)
    phi_matrix = np.array([[1.0, -(b + c) / (2.0 * b)], [0.0, -(a + c) / (2.0 * b)]],
                          dtype=complex)
    pts = np.asarray(grid if grid is not None else _COMPLEX_GRID, dtype=complex)
    # every pair (u, w) of grid values at once, u the slower index
    z = np.stack(np.meshgrid(pts, pts, indexing="ij"), axis=-1).reshape(-1, 2)
    phi_w = (phi_matrix @ z[..., None])[..., 0]
    rhs = b * algebra.product(phi_w, phi_w)
    lhs = field.complex_eval(z[:, 0], z[:, 1])
    worst = worst_of(np.abs(lhs - rhs))
    det_m4 = abs(complex(np.linalg.det(build_M4(field.quadratic_vf, CASE_A2_1, (alpha, beta)))))
    return BilliardsReport(alpha=alpha, beta=beta, v=v, phi_matrix=phi_matrix,
                           residual=worst, det_m4=det_m4, algebra=algebra)
