"""Deciding differentiability of quadratic planar fields relative to linear maps.

A quadratic planar field is algebrizable relative to one of the three planar
algebra families exactly when a parameter-dependent 4x4 matrix built from its
coefficients drops rank and the resulting null vector also annihilates a 2x2
companion block for the linear part.  The stacked 6x4 matrix is affine in the
two family parameters, M6(p, q) = M0 + p M1 + q M2, and the search works on
that pencil: it builds every matrix of the parameter grid in one broadcast
and scans them for rank drops with one batched SVD; it refines the local
minima of the smallest singular values in lockstep, alternating between the
trailing singular vectors and a least-squares parameter fit read off the
pencil rows; and it certifies every candidate by evaluating the resulting
Cauchy-Riemann residual on a grid, rejecting it at the first point above
tolerance or not finite.  A returned witness is always self-certifying.

Only the A2_1 and A2_12 pencils are written out.  A2_2(gamma, delta) is
A2_1(delta, gamma) with e1 and e2 swapped, so the A2_2 pencil of the field
(a, b) is minus the A2_1 pencil of the swapped field (b, a), with p and q
exchanged and the null vector (a, b, c, d) read as (b, a, d, c):

    pencil_A2_2(a, b) = -pencil_A2_1(b, a)[[0, 2, 1]][..., [1, 0, 3, 2]]

(tests/test_proofs.py proves every branch against the algebras' rep).

Before the search, the rank of the three 2x2 blocks of Jf = L0 + x L1 + y L2
decides how much of it runs.  An algebrizable field has its blocks in the
two-dimensional space rep(A) Phi, so a quadratic field has one of three
outcomes:

* blocks independent by a margin that no certifiable field reaches: there is
  no linear phi and no planar algebra, and the answer is [] without a search,
  a certificate (``_obstructed``);
* blocks of clean rank two with an invertible block: rep(A) is fixed by the
  blocks, each family fits at most one parameter point, and that point is
  the closed form of ``_pencil_seeds``; only the null-vector and seed stages
  run, with no grid (``_clean_rank_two``);
* anything else (rank-one "flat" blocks, which a whole family of algebras
  can fit, fields the obstruction cannot decide, blocks that are all
  singular): the box search, where [] only means nothing was found in the
  box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import algebra_a2_1
from .catalog import ALGEBRA_BUILDERS
from .calculus import cre_residual
from .errors import DegenerateParameters, DimensionMismatch
from .maps import SmoothMap, worst_of

CASE_A2_1 = "A2_1"
CASE_A2_2 = "A2_2"
CASE_A2_12 = "A2_12"

WITNESS_TOL = 1e-8
GRID_REFINE_STEPS = 60  # refinement steps from a grid-scan start; closed-form seeds take 5
NULL_PAIR_RTOL = 1e-6  # the relative size at which _null_candidates counts a singular value as 0
# the factor by which a field's commutator obstruction must clear the
# certification tolerance before algebrize answers [] without a search
OBSTRUCTION_MARGIN = 1e4
# The search forms fourth-degree products of pencil entries, det(M4) among
# them; the entries are a few times the largest coefficient, so coefficients
# below this leave room for those products to stay finite.
COEFF_LIMIT = float(np.finfo(float).max) ** 0.25 / 1e3
# the relative size below which the third singular value of the blocks counts
# as zero and above which the second counts as nonzero (see _clean_rank_two)
RANK_RTOL = 1e-12
# the most parameter-grid cells a search may ask for: 512^2 cells of 6x4
# float64 matrices are about 50 MB
MAX_GRID_CELLS = 512 ** 2


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
                "for the search's fourth-degree products to stay finite")

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
    def linear_norm(self):
        return float(max(abs(self.a[1]), abs(self.a[2]), abs(self.b[1]), abs(self.b[2])))

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


def phi_from_v(v):
    """phi(s, t) = (d s - b t, a t - c s) / (ad - bc); the inverse of [[a,b],[c,d]]."""
    a, b, c, d = v
    det = a * d - b * c
    if abs(det) <= 1e-9:
        raise DegenerateParameters(f"ad - bc = {det:.3e} too small")
    m = np.array([[d, -b], [-c, a]]) / det
    return SmoothMap.linear(m, name="phi(v)")


_VERIFY_GRID = [np.array([x, y]) for x in np.linspace(-1.0, 1.0, 5)
                for y in np.linspace(-1.0, 1.0, 5)]


def _grid_residual(vf, phi, algebra):
    """Largest CR residual of vf over the verify grid, or None once a point fails.

    A point fails above WITNESS_TOL or when not finite.  The scan stops at
    the first failure, so only accepted witnesses pay for every point.
    """
    fmap = vf.as_map()
    residuals = []
    for u in _VERIFY_GRID:
        r = cre_residual(fmap, phi, algebra, u)
        if not (math.isfinite(r) and r <= WITNESS_TOL):
            return None
        residuals.append(r)
    return worst_of(residuals)


def _certify(vf, case, params, v):
    try:
        phi = phi_from_v(v)
    except DegenerateParameters:
        return None
    algebra = ALGEBRA_BUILDERS[case](params)
    residual = _grid_residual(vf, phi, algebra)
    if residual is None:
        return None
    det_m4 = abs(float(np.linalg.det(build_M4(vf, case, params))))
    return AlgebrizationWitness(case=case, params=tuple(params), v=np.asarray(v, dtype=float),
                                phi=phi, residual=residual, det_m4=det_m4, algebra=algebra)


def _null_candidates(matrix):
    """Candidate null vectors, best-conditioned first.

    A field that is differentiable relative to some linear map has a
    two-dimensional null space here (the map is free up to a regular constant
    factor), and the smallest singular vector alone may be a degenerate
    combination with ad - bc = 0.  When the two smallest singular values are
    both negligible, return the combination maximizing |ad - bc| as well.
    """
    _, s, vt = np.linalg.svd(matrix)
    scale = max(s[0], 1e-300)
    candidates = []
    if s[-2] <= NULL_PAIR_RTOL * scale:
        v1, v2 = vt[-1], vt[-2]
        # det(x V1 + y V2) is a quadratic form in (x, y); take the extremal
        # direction of its symmetric matrix
        d1 = v1[0] * v1[3] - v1[1] * v1[2]
        d2 = v2[0] * v2[3] - v2[1] * v2[2]
        cross = (v1[0] * v2[3] + v2[0] * v1[3] - v1[1] * v2[2] - v2[1] * v1[2])
        form = np.array([[d1, cross / 2.0], [cross / 2.0, d2]])
        eigvals, eigvecs = np.linalg.eigh(form)
        best = eigvecs[:, int(np.argmax(np.abs(eigvals)))]
        candidates.append(best[0] * v1 + best[1] * v2)
    candidates.append(vt[-1])
    return candidates


def _dot(m, v):
    """m @ v for v of shape (..., 4): (..., rows), summed column by column.

    The fixed left-to-right order keeps the fitted parameters, which --json
    prints in full, identical to the last bit on every BLAS build.
    """
    return (m[:, 0] * v[..., 0, None] + m[:, 1] * v[..., 1, None]
            + m[:, 2] * v[..., 2, None] + m[:, 3] * v[..., 3, None])


def _param_equations(pencil):
    """Per parameter, the affine equations (Mk[r] v) p_k + M0[r] v = 0 on a null vector v.

    Each quadratic row r of M6 (an M4 row) involves one parameter only, so
    every row where Mk is nonzero gives one equation for p_k.  Returns one
    matrix per parameter: the rows Mk[r], then the matching rows M0[r].
    """
    m0, *mks = pencil[:, _M4_ROWS]
    equations = []
    for mk in mks:
        rows = np.any(mk != 0, axis=1)
        equations.append(np.vstack([mk[rows], m0[rows]]))
    return equations


def _params_given_vs(equations, vs):
    """Least-squares parameters (..., 2) given null vectors vs (..., nv, 4)."""
    shape = (*vs.shape[:-2], -1)
    fits = []
    for eq in equations:
        n = len(eq) // 2
        both = _dot(eq, vs)
        fits.append(_ls_scalar(both[..., :n].reshape(shape), both[..., n:].reshape(shape)))
    return np.stack(fits, axis=-1)


def _ls_scalar(coef, const):
    """Solve coef * p + const = 0 in least squares along the last axis (0 if coef vanishes).

    The sums run left to right from zero, the rounding of a scalar loop.
    """
    terms, squares = -coef * const, coef * coef
    num, den = np.zeros(coef.shape[:-1]), np.zeros(coef.shape[:-1])
    for j in range(coef.shape[-1]):
        num, den = num + terms[..., j], den + squares[..., j]
    tiny = den < 1e-300
    return np.where(tiny, 0.0, num / np.where(tiny, 1.0, den))


def _rows(include_linear):
    """The rows of M6 stacked for the search: M4, then M2 when the field has a linear part."""
    return _M4_ROWS + _M2_ROWS if include_linear else _M4_ROWS


def _stacked(vf, case, params, include_linear):
    return build_M6(vf, case, params)[_rows(include_linear)]


def _jacobian_blocks(vf):
    """The blocks L0, L1, L2 of Jf(x, y) = L0 + x L1 + y L2, stacked: shape (3, 2, 2)."""
    a, b = vf.a, vf.b
    return np.array([
        [[a[1], a[2]], [b[1], b[2]]],
        [[2 * a[3], a[4]], [2 * b[3], b[4]]],
        [[a[4], 2 * a[5]], [b[4], 2 * b[5]]],
    ])


def _obstructed(vf, svd=None):
    """True when the blocks of Jf rule out every linear phi and planar algebra.

    With Jf = L0 + x L1 + y L2: if vf is differentiable relative to a linear
    phi with matrix Phi and a planar algebra A, every block lies in the
    two-dimensional space rep(A) Phi (tests/test_proofs.py), so the three
    blocks are linearly dependent.  For an invertible L_j this says that the
    ratios L_i L_j^-1 commute, since a 2x2 matrix commutes with a non-scalar
    X exactly when it lies in the span of I and X.  The measure is

        omega = sigma3(B) sigma_min(K) / F,

    B the 3x4 matrix of the flattened blocks, sigma3 its third singular
    value, K its unit null direction read as a 2x2 matrix, and F the largest
    |Jf| over the verify grid (Frobenius norms throughout).
    The factor sigma_min(K) covers a nearly singular Phi: as Phi degenerates,
    the Cauchy-Riemann equations shrink to one rank-one equation s^T L t = 0,
    which blocks with a rank-one K all meet.  omega is at most
    min |B R| / F over rank-one unit matrices R.

    The skip rests on this first-order bound.  Certification accepts a
    defect of WITNESS_TOL (1 + |Jf| |Phi|) in each CR equation, |Phi| >= 2
    for Phi from a unit null vector.  Its strongest equation is nearly
    rank-one once Phi is nearly singular, so a certified field has omega <=
    c WITNESS_TOL (1 + 1 / (2 F)), c of order one for a CR system of order
    one; OBSTRUCTION_MARGIN stands in for c.  L0 = 0, blocks that are
    multiples of one another, nearly rank-one complements and tiny fields
    give a small omega or a large bound, and are left to the search.
    svd is B's (singular values, right singular vectors) when the caller
    has them already.
    """
    blocks = _jacobian_blocks(vf)
    svals, vt = svd if svd is not None else np.linalg.svd(blocks.reshape(3, 4))[1:]
    x, y = np.array(_VERIFY_GRID).T[:, :, None, None]
    scale = float(np.linalg.norm(blocks[0] + x * blocks[1] + y * blocks[2], axis=(1, 2)).max())
    k_min = np.linalg.svd(vt[3].reshape(2, 2), compute_uv=False)[1]
    omega = float(svals[2] * k_min) / scale
    return omega > OBSTRUCTION_MARGIN * WITNESS_TOL * (1.0 + 1.0 / (2.0 * scale))


def _invertible(block):
    """The invertibility test of the closed-form stage: |det| against the block's scale."""
    return not abs(np.linalg.det(block)) < 1e-9 * max(1.0, float(np.abs(block).max()) ** 2)


def _clean_rank_two(blocks, svals):
    """True when the blocks span two dimensions and hold an invertible block.

    The lemma (tests/test_proofs.py): a witness (Phi, A) puts every block in
    the two-dimensional space rep(A) Phi, so when the blocks span two
    dimensions, span(blocks) V = rep(A) with V = Phi^-1.  If the span holds
    an invertible L*, then rep(A) = span(I, N) with N = L_i L*^-1 for any
    block L_i independent of L*, because rep(A) is closed under products and
    inverses.  So rep(A) is read off the field, each planar family meets it
    in at most one parameter point (A2_1 when N10 != 0, A2_2 when
    N01 != 0, A2_12 when N is diagonal), and those points are the closed
    forms of ``_pencil_seeds``, whose refinement and certification need no
    grid.  V is then free only up to an invertible element of rep(A), the
    two-dimensional null space of ``_null_candidates``.

    The rank is read from the singular values of B, the 3x4 matrix of the
    flattened blocks: sigma3 <= RANK_RTOL sigma1 < sigma2.  Fields built in
    a planar family have sigma3 / sigma1 at rounding level (below 2e-16 on
    the benchmark decks, whose algebrizable fields have sigma2 / sigma1 of
    8e-3 or more), while generic fields sit at 3e-2 or more; 1e-12 leaves
    four orders of magnitude on either side.  A field between RANK_RTOL and
    the obstruction's margin, a rank-one field and a field whose blocks are
    all singular keep the grid search.
    """
    return (svals[2] <= RANK_RTOL * svals[0] < svals[1]
            and any(_invertible(block) for block in blocks))


def _pencil_seeds(vf):
    """Closed-form parameter candidates from the Jacobian pencil.

    Jf = L0 + L1 x + L2 y; differentiability relative to a linear map forces
    ratios like L2 L1^-1 into the representation span of the algebra, whose
    shape reads the parameters off directly.  Candidates are certified like
    any other seed, so spurious ones are harmless.
    """
    mats = _jacobian_blocks(vf)
    seeds = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            den = mats[j]
            if not _invertible(den):
                continue
            p = mats[i] @ np.linalg.inv(den)
            if abs(p[1, 0]) > 1e-9:
                seeds.append((CASE_A2_1, (p[0, 1] / p[1, 0], (p[1, 1] - p[0, 0]) / p[1, 0])))
            if abs(p[0, 1]) > 1e-9:
                seeds.append((CASE_A2_2, ((p[0, 0] - p[1, 1]) / p[0, 1], p[1, 0] / p[0, 1])))
    return seeds


def _linear_witness(vf):
    """Purely linear fields: f = (a0, b0) + phi with phi the linear part, if it certifies."""
    lin = np.array([[vf.a[1], vf.a[2]], [vf.b[1], vf.b[2]]])
    phi = SmoothMap.linear(lin, name="linear-part")
    det = np.linalg.det(lin)
    v = None
    if abs(det) > 1e-9:
        inv = np.linalg.inv(lin)
        v = np.array([inv[0, 0], inv[0, 1], inv[1, 0], inv[1, 1]])
    algebra = algebra_a2_1(0.0, 0.0)
    residual = _grid_residual(vf, phi, algebra)
    if residual is None:
        return None
    return AlgebrizationWitness(case=CASE_A2_1, params=(0.0, 0.0),
                                v=v if v is not None else np.full(4, np.nan),
                                phi=phi, residual=residual, det_m4=0.0, algebra=algebra)


def algebrize(vf, cases=(CASE_A2_1, CASE_A2_2, CASE_A2_12), box=(-10.0, 10.0), step=0.25):
    """Search for witnesses that vf is differentiable relative to a linear map.

    A field without a quadratic part is tried against its linear part.  A
    quadratic field has one of three outcomes, decided by the blocks of its
    Jacobian (see the module docstring):

    * the commutator obstruction (``_obstructed``) clears its margin: the
      empty list returned is a certificate that no linear phi and no planar
      algebra fit vf;
    * the blocks have clean rank two (``_clean_rank_two``): the closed-form
      answer, the A2_12 null vectors and the refined closed-form parameters
      of ``_pencil_seeds``, certified, with no grid scan;
    * otherwise the box search: the A2_12 null vectors, then for each
      parametric case a scan of the box for small least-singular-values of
      M4 and alternating null-vector / parameter refinement from the closed
      forms and from each local minimum.  An empty list from the search
      means no witness was found in the box, not a proof of impossibility.

    Witnesses are deduplicated on parameters and kept only when the grid
    residual is at most ``WITNESS_TOL``.  The box needs finite bounds
    lo < hi, the step must be finite and positive, and the grid may hold at
    most ``MAX_GRID_CELLS`` cells; otherwise DegenerateParameters is raised
    before anything is allocated.
    """
    lo, hi = box
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DegenerateParameters(f"search box needs finite bounds lo < hi, got {lo}, {hi}")
    if not (math.isfinite(step) and step > 0):
        raise DegenerateParameters(f"search step must be finite and positive, got {step}")
    per_axis = (hi - lo) / step + 1.0  # within one of len(np.arange(...)) below
    if not per_axis * per_axis <= MAX_GRID_CELLS:
        raise DegenerateParameters(
            f"search grid of about {per_axis:.3g}^2 cells exceeds MAX_GRID_CELLS = "
            f"{MAX_GRID_CELLS}; use a larger step or a smaller box")

    if vf.quadratic_norm <= 1e-14:
        w = _linear_witness(vf)
        return [w] if w is not None else []
    blocks = _jacobian_blocks(vf)
    _, svals, vt = np.linalg.svd(blocks.reshape(3, 4))
    if _obstructed(vf, (svals, vt)):
        return []
    grid = None if _clean_rank_two(blocks, svals) else np.arange(lo, hi + step / 2.0, step)
    return _search(vf, cases, grid)


def _search(vf, cases, grid):
    """The witnesses of a quadratic field, stage by stage.

    The A2_12 null vectors, then per parametric case the closed-form seeds
    and, unless grid is None, the local minima of the grid scan.
    """
    witnesses = []
    include_linear = vf.linear_norm > 1e-12

    if CASE_A2_12 in cases:
        for v in _null_candidates(_stacked(vf, CASE_A2_12, (), include_linear)):
            w = _certify(vf, CASE_A2_12, (), v)
            if w is not None:
                witnesses.append(w)
                break

    pencil_seeds = _pencil_seeds(vf)
    for case in (CASE_A2_1, CASE_A2_2):
        if case not in cases:
            continue
        groups = [([params for c, params in pencil_seeds if c == case], True, 5)]
        if grid is not None:
            s_last, s_second = _grid_singular_values(vf, case, grid, include_linear)
            groups += [
                ([(grid[i], grid[j]) for i, j in _local_minima(s_second, count=20)],
                 True, GRID_REFINE_STEPS),
                ([(grid[i], grid[j]) for i, j in _local_minima(s_last, count=20)],
                 False, GRID_REFINE_STEPS),
            ]
        found = []
        for starts, pair_mode, iters in groups:
            for params in _alternate_refine(vf, case, starts, include_linear, iters, pair_mode):
                if params is None or any(max(abs(params[0] - p0), abs(params[1] - p1)) < 1e-6
                                         for p0, p1 in found):
                    continue
                for v in _null_candidates(_stacked(vf, case, params, include_linear)):
                    w = _certify(vf, case, params, v)
                    if w is not None:
                        found.append(params)
                        witnesses.append(w)
                        break
    return witnesses


def _grid_singular_values(vf, case, grid, include_linear):
    """Two smallest singular values of the stacked matrix over the grid, in one batched SVD."""
    p0, p1 = np.meshgrid(grid, grid, indexing="ij")
    mats = _pencil_at(_pencil(vf, case)[:, _rows(include_linear)], p0, p1)
    svals = np.linalg.svd(mats, compute_uv=False)
    return svals[..., -1], svals[..., -2]


def _local_minima(smin, count):
    padded = np.pad(smin, 1, constant_values=np.inf)
    center = padded[1:-1, 1:-1]
    is_min = np.ones_like(center, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            is_min &= center <= padded[1 + dx: padded.shape[0] - 1 + dx,
                                       1 + dy: padded.shape[1] - 1 + dy]
    idx = np.argwhere(is_min)
    order = np.argsort(center[is_min])
    return [tuple(idx[i]) for i in order[:count]]


def _alternate_refine(vf, case, starts, include_linear, iters, pair_mode):
    """Alternate trailing-singular-vector extraction with the parameter fit.

    pair_mode drives both trailing singular vectors to the null space, which
    is what a field with a two-dimensional witness family needs; single mode
    contracts onto ordinary rank-drop points.  All starts step in lockstep,
    one batched SVD per step, and each stops on its own: once its parameters
    move by less than 1e-13, or after ``iters`` steps.  Returns the refined
    (p, q) per start, or None where the fit left the finite numbers.
    """
    pencil = _pencil(vf, case)
    stacked = pencil[:, _rows(include_linear)]
    equations = _param_equations(pencil)
    params = np.array(starts, dtype=float).reshape(-1, 2)
    failed = np.zeros(len(params), dtype=bool)
    live = np.arange(len(params))
    for _ in range(iters):
        if not live.size:
            break
        old = params[live]
        _, _, vt = np.linalg.svd(_pencil_at(stacked, old[:, 0], old[:, 1]))
        vs = vt[:, [-1, -2]] if pair_mode else vt[:, [-1]]
        new = _params_given_vs(equations, vs)
        finite = np.isfinite(new).all(axis=1)
        failed[live[~finite]] = True
        params[live] = new
        live = live[finite & ~(np.abs(new - old).max(axis=1) < 1e-13)]
    return [None if bad else tuple(p) for p, bad in zip(params, failed)]


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
