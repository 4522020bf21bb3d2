"""Numerical differentiation relative to a reference map and an algebra.

Given an algebra A on R^n and a differentiable reference map phi: R^k -> R^n,
a function f: R^k -> R^n is differentiable relative to (phi, A) at u when
df_u = rep(g) . dphi_u for some algebra element g, the derivative of f.  This
module computes g by least squares, evaluates the associated first-order PDE
residuals, and builds polynomial/rational functions of phi with analytic
Jacobians assembled from the differentiation rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PhiNotInvertible, SingularElement
from .maps import SmoothMap, worst_of

UNIQUE_RTOL = 1e-10


@dataclass
class DiffReport:
    """Result of a derivative solve: the element, its fit residual, uniqueness."""

    derivative: np.ndarray
    residual: float
    unique: bool


def _check_shapes(f, phi, algebra):
    if f.n != algebra.dim or phi.n != algebra.dim:
        raise DimensionMismatch(
            f"codomain dims f={f.n}, phi={phi.n} must equal algebra dim {algebra.dim}"
        )
    if f.k != phi.k:
        raise DimensionMismatch(f"domain dims differ: f={f.k}, phi={phi.k}")


def phi_derivative(f, phi, algebra, u):
    """Least-squares derivative of f relative to (phi, algebra) at u.

    Stacks the n*k linear equations df_u = rep(g) dphi_u for the n unknowns g.
    When the stacked matrix is rank deficient (dphi_u lands in the singular
    set) the minimum-norm solution is returned with unique=False.

    ``u`` is one point, shape (k,), or an (m, k) stack of points.  A stack
    takes one stacked ``jacobian`` call per map and one ``rep`` call; the
    least-squares solve and the norms stay per point, so every point gets the
    bits of its own single-point call.  The report then holds arrays: the
    derivatives (m, n), the residuals (m,) and the uniqueness flags (m,).
    """
    _check_shapes(f, phi, algebra)
    u = np.asarray(u, dtype=float)
    jf = f.jacobian(u)
    jphi = phi.jacobian(u)
    # the system of each point: the k blocks rep(dphi_u e_i), one under the other
    systems = algebra.rep(np.swapaxes(jphi, -1, -2)).reshape(u.shape[:-1] + (-1, algebra.dim))
    rhs = np.swapaxes(jf, -1, -2).reshape(u.shape[:-1] + (-1,))
    if u.ndim == 1:
        return _least_squares_derivative(systems, rhs, jf)
    reports = [_least_squares_derivative(*point) for point in zip(systems, rhs, jf)]
    return DiffReport(derivative=np.array([r.derivative for r in reports]).reshape(-1, algebra.dim),
                      residual=np.array([r.residual for r in reports]),
                      unique=np.array([r.unique for r in reports], dtype=bool))


def _least_squares_derivative(system, rhs, jf):
    g, _, rank, svals = np.linalg.lstsq(system, rhs, rcond=None)
    unique = bool(svals.size and svals[-1] > UNIQUE_RTOL * max(svals[0], 1.0))
    residual = float(np.linalg.norm(system @ g - rhs)) / (1.0 + float(np.linalg.norm(jf)))
    return DiffReport(derivative=g, residual=residual, unique=unique)


def cre_residual(f, phi, algebra, u):
    """Largest violation of the generalized Cauchy-Riemann system at u.

    One equation per independent-variable pair i<j and algebra component q;
    the residual is normalized by the Jacobian magnitudes so tolerances are
    scale free, and is non-finite when any equation is.
    """
    _check_shapes(f, phi, algebra)
    u = np.asarray(u, dtype=float)
    jf = f.jacobian(u)
    jphi = phi.jacobian(u)
    k = phi.k
    reps = [algebra.rep(jphi[:, i]) for i in range(k)]
    worst = worst_of([float(np.abs(reps[j] @ jf[:, i] - reps[i] @ jf[:, j]).max())
                      for i in range(k) for j in range(i + 1, k)])
    denom = 1.0 + float(np.linalg.norm(jf)) * float(np.linalg.norm(jphi))
    return worst / denom


def find_regular_direction(phi, algebra, u, rng=None, tries=64):
    """Unit direction xi with dphi_u(xi) a regular element, or None.

    Basis directions are tried first, then ``tries`` random unit vectors.
    A None return signals that the image of dphi_u likely sits inside the
    singular set, or that dphi_u is not finite.
    """
    u = np.asarray(u, dtype=float)
    jphi = phi.jacobian(u)
    k = phi.k
    candidates = [np.eye(k)[i] for i in range(k)]
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(tries):
        v = rng.standard_normal(k)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            candidates.append(v / norm)
    for xi in candidates:
        with np.errstate(all="ignore"):  # a non-finite Jacobian gives an image that is not regular
            image = jphi @ xi
        if algebra.is_regular(image):
            return xi
    return None


# -- polynomial and rational functions of the reference map -------------------


def _poly_eval(coeffs, algebra, w):
    """Horner evaluation of sum_m coeffs[m] w^m in the algebra, for one element
    w or for each element of a stack."""
    acc = algebra.element(coeffs[-1]).copy()
    for c in reversed(coeffs[:-1]):
        acc = algebra.product(acc, w) + algebra.element(c)
    # a constant polynomial still has one value per element of the stack
    return acc if acc.shape == np.shape(w) else np.broadcast_to(acc, np.shape(w)).copy()


def poly_derivative_coeffs(coeffs):
    """Coefficients of the term-by-term derivative (m*c_m shifted down)."""
    if len(coeffs) <= 1:
        return [np.zeros_like(np.asarray(coeffs[0]))]
    return [m * np.asarray(coeffs[m]) for m in range(1, len(coeffs))]


def phi_polynomial(coeffs, phi, algebra, name="poly"):
    """The function u -> sum_m c_m (phi(u))^m with its analytic Jacobian.

    The Jacobian uses the power rule: d(p o phi)_u = rep(p'(phi(u))) dphi_u.
    Real-scalar algebras only; complex-scalar algebras are exercised through
    direct element arithmetic (see the billiards verification).  The map
    broadcasts over stacks of points whenever phi does.
    """
    if algebra.scalars != "real":
        raise DimensionMismatch("polynomial maps need a real-scalar algebra")
    coeffs = [algebra.element(c) for c in coeffs]
    dcoeffs = poly_derivative_coeffs(coeffs)

    def func(u):
        return _poly_eval(coeffs, algebra, phi(u))

    def jac(u):
        g = _poly_eval(dcoeffs, algebra, phi(u))
        return algebra.rep(g) @ phi.jacobian(u)

    return SmoothMap(phi.k, algebra.dim, func, jac=jac, name=name, broadcasts=phi.broadcasts)


def phi_rational(num_coeffs, den_coeffs, phi, algebra, name="rational"):
    """Quotient of two polynomial functions of phi; denominator must be regular.

    Broadcasts over stacks of points whenever phi does.
    """
    if algebra.scalars != "real":
        raise DimensionMismatch("rational maps need a real-scalar algebra")
    num = [algebra.element(c) for c in num_coeffs]
    den = [algebra.element(c) for c in den_coeffs]
    dnum = poly_derivative_coeffs(num)
    dden = poly_derivative_coeffs(den)

    def func(u):
        w = phi(u)
        # the inverse raises SingularElement on the singular set
        return algebra.product(_poly_eval(num, algebra, w),
                               algebra.inverse(_poly_eval(den, algebra, w)))

    def jac(u):
        w = phi(u)
        p = _poly_eval(num, algebra, w)
        q = _poly_eval(den, algebra, w)
        qinv = algebra.inverse(q)
        dp = _poly_eval(dnum, algebra, w)
        dq = _poly_eval(dden, algebra, w)
        # (p/q)' = (p' q - p q') / q^2
        deriv = algebra.product(
            algebra.product(dp, q) - algebra.product(p, dq),
            algebra.product(qinv, qinv),
        )
        return algebra.rep(deriv) @ phi.jacobian(u)

    return SmoothMap(phi.k, algebra.dim, func, jac=jac, name=name, broadcasts=phi.broadcasts)


def phi_reciprocal_power(phi, algebra, n=1, name=""):
    """The function e / phi^n, differentiated by the quotient-power rule."""
    unit = algebra.unit
    zero = algebra.zero()
    den = [zero] * n + [unit]
    return phi_rational([unit], den, phi, algebra, name=name or f"e/phi^{n}")


# -- factorization through the reference map ----------------------------------


def newton_inverse(phi, w, start, max_iter=50, tol=None):
    """Solve phi(u) = w by Newton iteration from ``start`` (square maps only)."""
    if phi.k != phi.n:
        raise DimensionMismatch("inversion needs a square map")
    w = np.asarray(w, dtype=float)
    u = np.asarray(start, dtype=float).copy()
    if tol is None:
        tol = 1e-12 * (1.0 + float(np.linalg.norm(w)))
    for _ in range(max_iter):
        r = phi(u) - w
        if np.linalg.norm(r) <= tol:
            return u
        jac = phi.jacobian(u)
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise PhiNotInvertible(f"singular Jacobian near {u}") from exc
        u = u - step
    raise PhiNotInvertible(f"Newton did not converge to phi^-1({w}) in {max_iter} iterations")


@dataclass
class FactorReport:
    """g with f = g o phi, plus how far Jf (Jphi)^-1 strays from rep(A)."""

    g: SmoothMap
    membership_distance: float


def rep_span_distance(algebra, matrix):
    """Relative Frobenius distance from ``matrix`` to span{rep(e_1)..rep(e_n)}."""
    basis = algebra.rep_basis.reshape(algebra.dim, -1).T
    target = np.asarray(matrix).reshape(-1)
    coeffs, _, _, _ = np.linalg.lstsq(basis, target, rcond=None)
    dist = float(np.linalg.norm(basis @ coeffs - target))
    return dist / max(1.0, float(np.linalg.norm(target)))


def factor_through_phi(f, phi, algebra, points, max_iter=50):
    """Express f as g o phi for invertible phi; reports the rep-membership gap.

    ``points`` are sample locations used both to warm-start the numeric
    inverse and to measure max distance(Jf (Jphi)^-1, rep(A)).
    """
    _check_shapes(f, phi, algebra)
    if phi.k != phi.n:
        raise DimensionMismatch("factorization needs k = n")
    points = [np.asarray(p, dtype=float) for p in points]

    def g_func(w):
        guesses = [points[0]] if points else [np.asarray(w, dtype=float)]
        guesses.append(np.asarray(w, dtype=float))
        last_err = None
        for start in guesses:
            try:
                return f(newton_inverse(phi, w, start, max_iter=max_iter))
            except PhiNotInvertible as exc:
                last_err = exc
        raise last_err

    g = SmoothMap(phi.n, f.n, g_func, name=f"{f.name} via phi^-1")
    distances = []
    for u in points:
        jphi = phi.jacobian(u)
        try:
            mat = f.jacobian(u) @ np.linalg.inv(jphi)
        except np.linalg.LinAlgError as exc:
            raise PhiNotInvertible(f"Jacobian of phi singular at {u}") from exc
        distances.append(rep_span_distance(algebra, mat))
    return FactorReport(g=g, membership_distance=worst_of(distances))
