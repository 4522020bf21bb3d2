"""Differential equations for algebra-valued unknowns: w'_phi = F(tau, w).

A solution w satisfies dw_tau = rep(F(tau, w(tau))) dphi_tau, and every
solver here reports the finite-difference residual of exactly that identity,
normalized by (1 + |dphi_tau|) so tolerances are scale free.  Closed-form
families (separable, quadratic right-hand side, exponential) come straight
from integrating dv / L(v) against the phi-line integral; the fixed-point
iteration covers the autonomous existence theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NewtonDivergence, NoConvergence
from .integrals import Path, line_integral, pushforward
from .maps import SmoothMap, each, fd_jacobian, worst_of

RESIDUAL_STEP = 1e-6


@dataclass
class SolutionSamples:
    taus: list
    values: np.ndarray
    max_residual: float


def solution_residual(w, rhs, phi, algebra, grid, step=RESIDUAL_STEP):
    """max over the grid of |dw - rep(F(tau, w)) dphi| / (1 + |dphi|); nan if any is nan.

    ``w`` takes an (m, k) stack of parameter values and ``rhs`` a stack of
    (tau, w) pairs, so the whole grid is differenced with one call of ``w``
    per stencil offset (``maps.fd_jacobian``); every point gets the bits of
    its own per-point computation.
    """
    taus = np.array(grid, dtype=float)
    with np.errstate(all="ignore"):  # an overflow shows as a nan or inf residual
        values = np.asarray(w(taus))
        dw = fd_jacobian(w, taus, base=step)
        jphi = phi.jacobian(taus)
        target = algebra.rep(rhs(taus, values)) @ jphi
        residuals = [float(np.linalg.norm(d - t)) / (1.0 + float(np.linalg.norm(j)))
                     for d, t, j in zip(dw, target, jphi)]
    return SolutionSamples(taus=list(taus), values=values, max_residual=worst_of(residuals))


@dataclass
class OdeSolution:
    """A closed-form solution bundled with its defining data.

    ``w`` and ``rhs`` take one parameter value or an (m, k) stack of them, as
    the constructors below build them, so ``samples`` differences the whole
    grid at once.
    """

    w: object  # tau -> element, or a stack of tau -> a stack of elements
    rhs: object  # (tau, w) -> element, likewise stacked
    phi: SmoothMap
    algebra: object

    def __call__(self, tau):
        return self.w(np.asarray(tau, dtype=float))

    def samples(self, grid, step=RESIDUAL_STEP):
        return solution_residual(self.w, self.rhs, self.phi, self.algebra, grid, step=step)


def solve_square_rhs(K, H, C, phi, algebra):
    """Solution w = -e / (H(tau) + C) of w'_phi = K(tau) w^2.

    K must be differentiable relative to (phi, algebra) with antiderivative H,
    both ``SmoothMap``s; the solution exists wherever H(tau) + C is regular
    (inversion raises SingularElement elsewhere).
    """
    C = algebra.element(C)

    def w(tau):
        return -algebra.inverse(H(tau) + C)

    def rhs(tau, wt):
        return algebra.product(K(tau), algebra.product(wt, wt))

    return OdeSolution(w=w, rhs=rhs, phi=phi, algebra=algebra)


def solve_phi_rhs(K, C, algebra):
    """Solution w = K(tau)^2 / 2 + C of w'_phi = K(tau) when phi = K (a ``SmoothMap``)."""
    C = algebra.element(C)

    def w(tau):
        k = K(tau)
        return algebra.product(k, k) / 2.0 + C

    def rhs(tau, wt):
        return K(tau)

    return OdeSolution(w=w, rhs=rhs, phi=K, algebra=algebra)


def solve_exponential(phi, algebra, C):
    """Solution w = C exp(phi(tau)) of w'_phi = w; a stack of tau takes one ``exp`` call."""
    C = algebra.element(C)

    def w(tau):
        return algebra.product(C, algebra.exp(phi(tau)))

    def rhs(tau, wt):
        return wt

    return OdeSolution(w=w, rhs=rhs, phi=phi, algebra=algebra)


class SeparableSolution:
    """Implicit solution of w'_phi = K(tau) L(w) recovered by Newton.

    The defining identity equates an algebra-line integral in w-space with a
    phi-line integral in tau-space:

        integral_{w0}^{w} dv / L(v)  =  integral_{tau0}^{tau} K dphi.

    Left side: line integrals with the identity reference map, e / L
    inverted at all quadrature nodes at once, with L still called once per
    node.  Newton carries the pair (w, left(w)) and extends it by each step:
    after a step from w to w', left(w') = left(w) + integral_{w}^{w'} e / L,
    so every node is integrated once.  This relies on e / L being
    differentiable relative to (identity, A), which the separable theory
    already needs: the integral then does not depend on the path.  A piece
    takes max(2, ceil(segments |w' - w| / max(|w - w0|, |w' - w0|, |w' - w|)))
    segments, so its nodes are never farther apart than on the straight
    segment from w0, and it never has more than ``segments``; a zero step
    adds no piece.  Newton uses rep(e / L(w)) as the exact Jacobian of the
    left side.  ``eval_path`` carries the pair from one tau to the next; a
    ``warm`` start passed to ``solve_at`` gets one piece from w0, the straight
    integral with ``segments`` segments.  A K that is already a SmoothMap is
    integrated as it is.
    """

    def __init__(self, K, L, phi, algebra, w0, tau0, segments=256, max_iter=50):
        self.K = K
        self.L = L
        self.phi = phi
        self.algebra = algebra
        self.w0 = algebra.element(w0)
        self.tau0 = np.asarray(tau0, dtype=float)
        self.segments = segments
        self.max_iter = max_iter
        self._id = SmoothMap.identity(algebra.dim)
        self._inv_L = SmoothMap(algebra.dim, algebra.dim,
                                lambda v: algebra.inverse(each(L, v)), name="e/L",
                                broadcasts=True)
        self._K = K if isinstance(K, SmoothMap) else SmoothMap(phi.k, algebra.dim, K, name="K")

    def _piece(self, w, w_new):
        """integral_{w}^{w_new} e / L, with nodes no farther apart than from w0."""
        step = float(np.linalg.norm(w_new - w))
        if step == 0.0:
            return self.algebra.zero()
        # step first, so that a nan step gives a nan scale, not a zero one
        scale = max(step, float(np.linalg.norm(w - self.w0)),
                    float(np.linalg.norm(w_new - self.w0)))
        count = self.segments * (step / scale)  # at most segments: step / scale <= 1
        # a nan or inf step takes ``segments``, and its non-finite nodes raise
        count = max(2, math.ceil(count)) if math.isfinite(count) else self.segments
        return line_integral(self._inv_L, self._id, self.algebra,
                             Path.segment(w, w_new, segments=count))

    def _right(self, tau):
        return line_integral(self._K, self.phi, self.algebra,
                             Path.segment(self.tau0, tau, segments=self.segments))

    def _newton(self, tau, w, left):
        """The pair (w, left(w)) at tau, by Newton from the pair given."""
        target = self._right(np.asarray(tau, dtype=float))
        tol = 1e-12 * (1.0 + float(np.linalg.norm(target)))
        for _ in range(self.max_iter):
            r = left - target
            if np.linalg.norm(r) <= tol:
                return w, left
            jac = self.algebra.rep(self.algebra.inverse(self.L(w)))
            w_new = w - np.linalg.solve(jac, r)
            w, left = w_new, left + self._piece(w, w_new)
        raise NewtonDivergence(f"no convergence at tau={tau} after {self.max_iter} iterations")

    def solve_at(self, tau, warm=None):
        w = self.w0.copy() if warm is None else np.asarray(warm, dtype=float).copy()
        return self._newton(tau, w, self._piece(self.w0, w))[0]

    def eval_path(self, taus):
        out = []
        w, left = self.w0, self.algebra.zero()
        for tau in taus:
            w, left = self._newton(tau, w, left)
            out.append(w)
        return np.stack(out)

    def rhs(self, tau, wt):
        return self.algebra.product(self.K(np.asarray(tau, dtype=float)), self.L(wt))

    def samples(self, grid, step=RESIDUAL_STEP):
        warm = {}

        def solve(tau):
            key = tuple(np.round(tau, 12))
            if key not in warm:
                warm[key] = self.solve_at(tau)
            return warm[key]

        return solution_residual(lambda taus: each(solve, taus),
                                 lambda taus, ws: np.stack([self.rhs(t, w) for t, w in zip(taus, ws)]),
                                 self.phi, self.algebra, grid, step=step)


def separable_solve(K, L, phi, algebra, w0, tau0, segments=256, max_iter=50):
    return SeparableSolution(K, L, phi, algebra, w0, tau0,
                             segments=segments, max_iter=max_iter)


# -- fixed-point iteration for autonomous right-hand sides ---------------------


@dataclass
class PicardResult:
    taus: np.ndarray
    values: np.ndarray  # final iterate on the path nodes
    history: list  # successive sup-norm differences
    iterations: int

    def value_at_end(self):
        return self.values[-1]


def _cumulative_integral(values, h):
    """Cumulative integral of algebra-valued samples on a uniform grid.

    Simpson pairs give the even nodes, as a running sum from the zero at
    node 0; odd nodes integrate the local quadratic over its first half,
    keeping the whole table O(h^4).  The node count must be odd (an even
    segment count).
    """
    out = np.zeros_like(values)
    out[2::2] = (h / 3.0) * (values[:-2:2] + 4.0 * values[1:-1:2] + values[2::2])
    out[::2] = np.cumsum(out[::2], axis=0)
    out[1::2] = out[:-1:2] + (h / 12.0) * (5.0 * values[:-1:2] + 8.0 * values[1::2] - values[2::2])
    return out


def picard(F, phi, algebra, w0, path, tol=1e-10, max_iter=60):
    """Fixed-point iteration w_{k+1}(t) = w0 + int_0^t F(w_k) dphi along a path.

    F must be differentiable with respect to the algebra on a region the
    iterates stay inside (caller-asserted), and the path short enough for
    contraction.  Raises NoConvergence with the recorded history when the
    iteration cap is hit.  A ``SmoothMap`` F is called on the stack of all the
    nodes, one call per iteration when it broadcasts; a plain callable is
    called once per node through ``each``.  Both give the same bits.  The
    products with dphi take one batched call per iteration.
    """
    w0 = algebra.element(w0)
    nodes = path.segments
    if nodes % 2:
        nodes += 1
    ts = np.linspace(0.0, path.t1, nodes + 1)
    points, dphi = pushforward(phi, path, ts)
    h = path.t1 / nodes

    current = np.tile(w0, (len(ts), 1)).astype(np.result_type(w0, dphi))
    evaluate = F if isinstance(F, SmoothMap) else (lambda ws: each(F, ws))
    history = []
    for iteration in range(1, max_iter + 1):
        integrand = algebra.product(evaluate(current), dphi)
        nxt = w0 + _cumulative_integral(integrand, h)
        diff = float(np.abs(nxt - current).max())
        history.append(diff)
        current = nxt
        if diff <= tol:
            return PicardResult(taus=points, values=current, history=history,
                                iterations=iteration)
        if not np.isfinite(diff) or diff > 1e12:
            raise NoConvergence("iteration diverged", history=history)
    raise NoConvergence(f"no contraction after {max_iter} iterations", history=history)


def verify_canonical(rect_map, field, points):
    """Worst deviation of dR(F) from (1, 0, ..., 0) at the sample points.

    R defines canonical coordinates for the field F exactly when its usual
    differential sends F to the constant first basis vector.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    deviations = []
    for u in points:
        jr = rect_map.jacobian(u)
        target = np.zeros(jr.shape[0])
        target[0] = 1.0
        deviations.append(float(np.linalg.norm(jr @ np.asarray(field(u)) - target)))
    return worst_of(deviations)
