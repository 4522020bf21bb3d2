"""Closed-form solution constructors for several PDE classes, with verification.

Every constructor is "construct + verify": it returns the solution together
with a finite-difference substitution residual, so a caller never has to take
a formula on faith.  The residual is deliberately independent of the
construction path: central differences from ``maps.fd_partial``, the
package's one finite-difference engine, substituted into the PDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    B1Zero,
    ConditionViolated,
    DegenerateParameters,
    DeltaZeroInconsistent,
)
from .maps import SmoothMap, each, fd_partial, fd_step, worst_of

SECOND_ORDER_STEP = 1e-4
FIRST_ORDER_STEP = 1e-6
FLAG_TOL = 1e-4


def _require_finite(what, *values):
    """Reject nan and inf parameters before any of them reaches LAPACK."""
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise DegenerateParameters(f"{what} parameters must be finite, got {values}")


def _overflow(what, coords, point):
    """The error for a closed form whose ``math.exp`` (or ``math.cosh``) overflows.

    Those raise OverflowError instead of giving inf, so each closed form turns
    it into this input error, which names the point.
    """
    return DegenerateParameters(
        f"{what} closed form overflows at {coords} = {np.asarray(point).tolist()}: "
        "its exponents are too large for these parameters")


# -- generic finite-difference residual ----------------------------------------


def pde_residual(terms, fields, points, h=None):
    """Max relative residual of sum(coeff * D^orders field_comp) over the points.

    ``terms`` is a list of (coeff, component, orders); ``fields`` maps a point
    to the tuple of dependent values (or a scalar for single-component
    problems), or is a ``SmoothMap``.  Each point's residual is normalized by
    the largest term magnitude so the number is scale free; a non-finite point
    residual makes the result non-finite.  ``fields`` is evaluated once per
    distinct stencil stack, however many terms and components read it: in one
    call on the stack of all points when it is a broadcasting ``SmoothMap``,
    and once per point otherwise.  The result is bit for bit that of differencing
    point by point and calling ``fields`` afresh for every term.
    """
    return _equation_residuals([terms], fields, points, h)[0]


def _equation_residuals(equations, fields, points, h=None):
    """``pde_residual`` of each term list, all from one evaluation of ``fields``
    per distinct stencil stack.

    The points are differenced together as one (m, k) stack, through
    ``maps.fd_partial``.  The values of ``fields`` are kept by the exact bytes
    of each shifted stack it asks for, so the equations, terms and components
    share them.  A broadcasting ``SmoothMap`` takes each stack in one call;
    any other ``fields`` is called once per point of the stack.
    """
    if not len(points):
        return [0.0 for _ in equations]
    stack = np.array(points, dtype=float)
    evaluate = fields if isinstance(fields, SmoothMap) else (lambda s: each(fields, s))
    memo = {}

    def values(shifted):
        key = shifted.tobytes()
        if key not in memo:
            memo[key] = np.asarray(evaluate(shifted), dtype=float).reshape(len(shifted), -1)
        return memo[key]

    out = []
    for terms in equations:
        if h is None:
            second_order = any(sum(orders) >= 2 for _, _, orders in terms)
            base = SECOND_ORDER_STEP if second_order else FIRST_ORDER_STEP
            step = np.array([fd_step(pt, base) for pt in stack])
        else:
            step = h
        # silent, as the per-point Python float arithmetic was: an overflow or
        # inf - inf shows as a non-finite residual, not as a warning line
        with np.errstate(all="ignore"):
            vals = [coeff * fd_partial(lambda s, comp=comp: values(s)[:, comp], stack, orders, step)
                    for coeff, comp, orders in terms]
            total = vals[0]
            for v in vals[1:]:  # left to right, as the per-point sum
                total = total + v
            scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
            out.append(worst_of(np.abs(total) / scale))
    return out


# -- first order: a u_x + b v_x - c u_y - d v_y = 0 ----------------------------


@dataclass(frozen=True)
class FirstOrderPDE:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _require_finite("first-order PDE", self.a, self.b, self.c, self.d)

    def terms(self):
        return [
            (self.a, 0, (1, 0)),
            (self.b, 1, (1, 0)),
            (-self.c, 0, (0, 1)),
            (-self.d, 1, (0, 1)),
        ]

    def residual(self, fields, points, h=None):
        return pde_residual(self.terms(), fields, points, h=h)


def first_order_phi(pde, alpha, beta):
    """Linear reference map making the A2_1(alpha, beta)-differentiable
    functions solve the PDE.

    Derived by matching the equally-weighted combination of the two planar
    Cauchy-Riemann equations against the PDE coefficients, which needs
    alpha + beta != 1.
    """
    denom = alpha + beta - 1.0
    if abs(denom) < 1e-12:
        raise DegenerateParameters("alpha + beta = 1")
    s = alpha + beta
    a, b, c, d = pde.a, pde.b, pde.c, pde.d
    matrix = np.array([
        [(c * s - d) / denom, (a * s - b) / denom],
        [(d - c) / denom, (b - a) / denom],
    ])
    return SmoothMap.linear(matrix, name="first-order-phi")


# -- the coupled two-equation system of section on two-PDE systems -------------


@dataclass
class System451Solution:
    y: object
    z: object
    family: str
    h1: object
    h2: object

    def fields(self, point):
        try:
            return np.array([self.y(point), self.z(point)])
        except OverflowError:
            raise _overflow("system451", "(x, t)", point) from None

    def residual(self, a1, a2, b1, b2, points):
        # a1 y_x + y_t + b1 y - b1 z = 0 ; -a2 z_x + z_t - b2 y + b2 z = 0
        terms_1 = [(a1, 0, (1, 0)), (1.0, 0, (0, 1)), (b1, 0, (0, 0)), (-b1, 1, (0, 0))]
        terms_2 = [(-a2, 1, (1, 0)), (1.0, 1, (0, 1)), (-b2, 0, (0, 0)), (b2, 1, (0, 0))]
        # one memo for both equations, which read the same five stencil points;
        # worst_of keeps a nan of either equation
        return worst_of(_equation_residuals([terms_1, terms_2], self.fields, points))


def system_451_solutions(a1, a2, b1, b2, family, c1, c2):
    """Closed-form solution pairs of the coupled first-order system.

    family "trig":  y = e^{h1}(c1 cos h2 + c2 sin h2),
                    z = e^{h1}(-c1 sin h2 + c2 cos h2)
    family "hyperbolic": y = e^{-h}(c1 cosh h + c2 sinh h),
                         z = e^{-h}(c1 sinh h + c2 cosh h)
    """
    _require_finite("system451", a1, a2, b1, b2, c1, c2)
    s = a1 + a2
    if abs(s) < 1e-12:
        raise DegenerateParameters("a1 + a2 = 0")
    if family == "trig":
        def h1(pt):
            x, t = pt
            return ((-b1 + b2) * x + (-a1 * b2 - a2 * b1) * t) / s

        def h2(pt):
            x, t = pt
            return ((b1 + b2) * x + (-a1 * b2 + a2 * b1) * t) / s

        def y(pt):
            return math.exp(h1(pt)) * (c1 * math.cos(h2(pt)) + c2 * math.sin(h2(pt)))

        def z(pt):
            return math.exp(h1(pt)) * (-c1 * math.sin(h2(pt)) + c2 * math.cos(h2(pt)))

        return System451Solution(y=y, z=z, family=family, h1=h1, h2=h2)
    if family == "hyperbolic":
        def h(pt):
            x, t = pt
            return ((b1 - b2) * x + (a1 * b2 + a2 * b1) * t) / s

        def y(pt):
            return math.exp(-h(pt)) * (c1 * math.cosh(h(pt)) + c2 * math.sinh(h(pt)))

        def z(pt):
            return math.exp(-h(pt)) * (c1 * math.sinh(h(pt)) + c2 * math.cosh(h(pt)))

        return System451Solution(y=y, z=z, family=family, h1=h, h2=h)
    raise ValueError(f"unknown family {family!r}; expected 'trig' or 'hyperbolic'")


# -- second order ---------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderPDE:
    """A u_xx + 2B u_xy + C u_yy + D u_x + E u_y = 0, with |D| + |E| != 0.

    p1 and p2 are caller-supplied family parameters entering the
    discriminant; their effect is only ever assessed through the residual.
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        _require_finite("second-order PDE", self.A, self.B, self.C, self.D, self.E,
                        self.p1, self.p2)

    def terms(self):
        return [
            (self.A, 0, (2, 0)),
            (2.0 * self.B, 0, (1, 1)),
            (self.C, 0, (0, 2)),
            (self.D, 0, (1, 0)),
            (self.E, 0, (0, 1)),
        ]

    def residual(self, u, points, h=None):
        return pde_residual(self.terms(), u, points, h=h)


@dataclass
class SecondOrderSolution:
    a: float
    b: float
    amplitude: float
    branch: str
    u: object
    residual: float
    flagged: bool


def second_order_solution(pde, alpha, beta, check_points=None):
    """Exponential solution u = (alpha/a) e^{a x + b y} with branch-selected (a, b).

    Discriminant nonzero: requires the proportionality condition between
    (alpha, beta) and the closed-form (a, b).  Discriminant zero: requires
    A E = (p1 + p2 B) D and a nondegenerate denominator.  The substitution
    residual ships with the result and is flagged (never silently accepted)
    above 1e-4.
    """
    if abs(pde.D) + abs(pde.E) < 1e-14:
        raise ConditionViolated("|D| + |E| != 0 fails: both first-order coefficients vanish")
    m = pde.p1 + pde.p2 * pde.B
    delta = pde.A * pde.C + m * m - 2.0 * m * pde.B
    scale = 1.0 + max(abs(pde.A), abs(pde.B), abs(pde.C), abs(pde.D), abs(pde.E), abs(m))
    if abs(delta) > 1e-12 * scale * scale:
        lhs = alpha * (-pde.A * pde.E + m * pde.D)
        rhs = beta * (2.0 * pde.B * pde.E - pde.C * pde.D - m * pde.E)
        if abs(lhs - rhs) > 1e-10 * scale ** 3:
            raise ConditionViolated(
                "alpha(-AE + (p1+p2 B)D) = beta(2BE - CD - (p1+p2 B)E) fails: "
                f"{lhs:.6g} != {rhs:.6g}"
            )
        a = (2.0 * pde.B * pde.E - pde.C * pde.D - m * pde.E) / delta
        b = (-pde.A * pde.E + m * pde.D) / delta
        branch = "delta_nonzero"
    else:
        if abs(pde.A * pde.E - m * pde.D) > 1e-10 * scale * scale:
            raise ConditionViolated(f"AE = (p1+p2 B)D fails: {pde.A * pde.E:.6g} != {m * pde.D:.6g}")
        kappa = beta * (m - 2.0 * pde.B) - alpha * pde.A
        if abs(kappa) < 1e-12 * scale * scale:
            raise ConditionViolated("beta(p1+p2 B-2B) != alpha A fails")
        a = alpha * pde.D / kappa
        b = beta * pde.D / kappa
        branch = "delta_zero"
    if abs(a) < 1e-12:
        raise DegenerateParameters("a = 0: amplitude alpha/a undefined")
    amplitude = alpha / a

    def u(pt):
        x, y = pt
        try:
            return amplitude * math.exp(a * x + b * y)
        except OverflowError:
            raise _overflow("second-order", "(x, y)", pt) from None

    pts = check_points if check_points is not None else _default_grid()
    residual = pde.residual(u, pts)
    return SecondOrderSolution(a=a, b=b, amplitude=amplitude, branch=branch, u=u,
                               residual=residual, flagged=not residual <= FLAG_TOL)


def _default_grid():
    return [np.array([x, y]) for x in (-0.6, 0.1, 0.7) for y in (-0.5, 0.2, 0.8)]


# -- three-dimensional heat equation --------------------------------------------


@dataclass(frozen=True)
class HeatProblem:
    """alpha (u_xx + u_yy + u_zz) = u_t, solved by a/b1 * exp(B . (t,x,y,z))."""

    alpha: float
    p: tuple
    amplitude: float = 1.0

    def __post_init__(self):
        _require_finite("heat", self.alpha, self.amplitude, *self.p)

    def terms(self):
        return [
            (self.alpha, 0, (0, 2, 0, 0)),
            (self.alpha, 0, (0, 0, 2, 0)),
            (self.alpha, 0, (0, 0, 0, 2)),
            (-1.0, 0, (1, 0, 0, 0)),
        ]

    def residual(self, u, points, h=None):
        return pde_residual(self.terms(), u, points, h=h)


def heat_system_matrix(alpha, p):
    p1, p2, p3, p4, p5, p6 = p
    return np.array([
        [0.0, -p1, -p2, -p3],
        [p1, alpha, -p4, -p5],
        [p2, p4, alpha, -p6],
        [p3, p5, p6, alpha],
    ])


def heat_delta(alpha, p):
    """Determinant of the exponent system's matrix, in closed form."""
    p1, p2, p3, p4, p5, p6 = p
    return (alpha ** 2 * (p1 ** 2 + p2 ** 2 + p3 ** 2)
            + p6 ** 2 * p1 ** 2 + p5 ** 2 * p2 ** 2 + p4 ** 2 * p3 ** 2
            + 2 * p6 * p4 * p3 * p1 - 2 * p6 * p5 * p2 * p1 - 2 * p5 * p4 * p3 * p2)


def heat_b_closed_form(alpha, p):
    """Cofactor solution of the exponent system (valid when the determinant is nonzero)."""
    p1, p2, p3, p4, p5, p6 = p
    delta = heat_delta(alpha, p)
    b1 = alpha * (alpha ** 2 + p4 ** 2 + p5 ** 2 + p6 ** 2)
    b2 = -alpha ** 2 * p1 - alpha * p2 * p4 - alpha * p3 * p5 - p1 * p6 ** 2 + p2 * p5 * p6 - p3 * p4 * p6
    b3 = -alpha ** 2 * p2 + alpha * p1 * p4 - alpha * p3 * p6 + p1 * p5 * p6 - p2 * p5 ** 2 + p3 * p4 * p5
    b4 = -alpha ** 2 * p3 + alpha * p1 * p5 + alpha * p2 * p6 - p1 * p4 * p6 + p2 * p4 * p5 - p3 * p4 ** 2
    return np.array([b1, b2, b3, b4]) / delta


@dataclass
class HeatSolution:
    b: np.ndarray
    delta: float
    branch: str
    u: object
    diagnostic: float  # alpha*(b2^2+b3^2+b4^2) - b1, exactly zero for true solutions
    residual: float
    flagged: bool


def heat_solution(hp, check_points=None):
    """Exponential heat solution u(t, x, y, z) = (amplitude/b1) e^{B.(t,x,y,z)}.

    Nonzero determinant: the closed-form exponent vector.  Zero determinant:
    least-squares solve of the exponent system, declared consistent when its
    residual is at most 1e-10 (DeltaZeroInconsistent otherwise).  b1 = 0 has
    no amplitude normalization and raises B1Zero.  Parameters so large that
    the determinant overflows raise DegenerateParameters.
    """
    p = tuple(float(x) for x in hp.p)
    if len(p) != 6:
        raise ValueError("expected six parameters p1..p6")
    matrix = heat_system_matrix(hp.alpha, p)
    try:  # a float power that overflows raises instead of giving inf
        delta = heat_delta(hp.alpha, p)
        scale = max(1.0, float(np.abs(matrix).max())) ** 4
    except OverflowError:
        raise DegenerateParameters(
            "heat parameters too large: the exponent system's determinant overflows") from None
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    if abs(delta) > 1e-12 * scale:
        b = heat_b_closed_form(hp.alpha, p)
        branch = "delta_nonzero"
    else:
        b, _, _, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
        if np.linalg.norm(matrix @ b - rhs) > 1e-10:
            raise DeltaZeroInconsistent(
                "determinant vanishes and the exponent system has no solution")
        branch = "delta_zero"
    if abs(b[0]) < 1e-12:
        raise B1Zero("b1 = 0: amplitude a/b1 undefined")
    amplitude = hp.amplitude / b[0]
    exponent = b.copy()

    def u(pt):
        try:
            return amplitude * math.exp(float(np.dot(exponent, pt)))
        except OverflowError:
            raise _overflow("heat", "(t, x, y, z)", pt) from None

    diagnostic = hp.alpha * float(np.dot(b[1:], b[1:])) - b[0]
    pts = check_points if check_points is not None else _heat_grid()
    residual = hp.residual(u, pts)
    return HeatSolution(b=b, delta=delta, branch=branch, u=u, diagnostic=diagnostic,
                        residual=residual, flagged=not residual <= FLAG_TOL)


def _heat_grid():
    rng = np.random.default_rng(7)
    return [rng.uniform(-0.8, 0.8, size=4) for _ in range(20)]
