"""Algebra-valued line integrals along parameterized paths.

The integrand of the line integral of f along gamma relative to phi is the
algebra product f(gamma(s)) * dphi_{gamma(s)}(gamma'(s)); quadrature is
composite Simpson with a fixed subdivision count, which keeps the cost
deterministic and the error O(N^-4) for smooth integrands.

All Simpson nodes are evaluated in one pass: the path at the array of node
parameters, then ``f`` and ``phi.jacobian`` on the stack of points (see
``maps`` for which maps take it in one call), then one algebra product.
``Path.segment`` and ``Path.circle`` give their nodes as array expressions;
a path built from a user ``gamma`` is evaluated node by node.  The result is
bit for bit that of evaluating the integrand one node at a time.  A loop
ladder evaluates one pass per chain of levels whose counts differ by powers
of two, and takes the coarser levels as slices of the finest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameters, DimensionMismatch
from .maps import SmoothMap, fd_jacobian

CLOSED_TOL = 1e-12
FLOOR = 1e-13
# the most Simpson segments one integral may ask for; an integral over a
# 2-dimensional algebra peaks at 20-35 MiB there, far past where the
# quadrature stops improving
MAX_SEGMENTS = 2**18


class Path:
    """Differentiable parameterization gamma: [0, t1] -> R^k.

    ``point`` and ``velocity`` take one parameter or a 1-D array of them, one
    row each.  ``derivative`` is used when supplied; otherwise the velocity
    comes from central differences (``maps.fd_jacobian``).  ``segments`` is
    the default Simpson subdivision count, from 1 to ``MAX_SEGMENTS``.  A path
    flagged closed must satisfy |gamma(0) - gamma(t1)| <= 1e-12.
    ``broadcasts`` declares that ``gamma`` and ``derivative`` also take a 1-D
    array of parameters, bit for bit what they return one at a time; without
    it they get one ``np.float64`` per call.
    """

    def __init__(self, gamma, t1, derivative=None, segments=256, closed=False,
                 broadcasts=False):
        self.gamma = gamma
        self.t1 = float(t1)
        self.derivative = derivative
        self.segments = _segment_count(segments)
        self.closed = bool(closed)
        self.broadcasts = bool(broadcasts)
        if closed:
            # an inf gap (past the largest float) and a nan gap both fail the check
            with np.errstate(over="ignore"):
                gap = float(np.linalg.norm(self.point(0.0) - self.point(self.t1)))
            if not gap <= CLOSED_TOL:
                raise ValueError(f"path marked closed but endpoint gap is {gap:.3e}")

    def point(self, t):
        return self._at(self.gamma, t)

    def velocity(self, t):
        if self.derivative is not None:
            return self._at(self.derivative, t)
        t = np.asarray(t, dtype=float)
        return fd_jacobian(lambda s: self.point(s[..., 0]), t[..., None])[..., 0]

    def _at(self, func, t):
        """func at one parameter, or one row per parameter of a 1-D array."""
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return np.asarray(func(t[()]), dtype=float)
        if self.broadcasts:
            return np.asarray(func(t), dtype=float)
        return np.stack([np.asarray(func(s), dtype=float) for s in t])

    @classmethod
    def segment(cls, u0, u1, segments=256):
        u0 = np.asarray(u0, dtype=float)
        u1 = np.asarray(u1, dtype=float)
        delta = u1 - u0
        return cls(lambda t: u0 + np.multiply.outer(t, delta), 1.0,
                   derivative=lambda t: np.broadcast_to(delta, np.shape(t) + delta.shape),
                   segments=segments, broadcasts=True)

    @classmethod
    def circle(cls, center=(0.0, 0.0), radius=1.0, segments=256):
        cx, cy = center
        r = float(radius)

        def gamma(t):
            return np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=-1)

        def vel(t):
            return np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1)

        return cls(gamma, 2.0 * np.pi, derivative=vel, segments=segments, closed=True,
                   broadcasts=True)


def _segment_count(segments):
    """A requested subdivision count, checked before anything is allocated for it."""
    n = int(segments)
    if n < 1:
        raise DegenerateParameters(f"a path needs at least 1 segment, got {segments}")
    if n > MAX_SEGMENTS:
        raise DegenerateParameters(
            f"a path takes at most MAX_SEGMENTS = {MAX_SEGMENTS} segments, got {segments}")
    return n


def pushforward(phi, path, ts):
    """The path's points at the parameters ts and dphi_gamma(t)(gamma'(t)) at each."""
    points = path.point(ts)
    # stacked matrix-vector products: the same bits per node as jphi @ velocity
    return points, (phi.jacobian(points) @ path.velocity(ts)[..., None])[..., 0]


def _simpson_count(segments):
    """The Simpson subdivision count for a requested one: at least 1, bumped to even."""
    n = _segment_count(segments)
    return n + n % 2


def _node_values(f, phi, algebra, path, ts):
    """The integrand f(gamma) * dphi(gamma') at the parameters ts, in one pass."""
    points, dphi = pushforward(phi, path, ts)
    return algebra.product(f(points), dphi)


def _simpson(values, t1, n):
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = t1 / n
    return (h / 3.0) * np.tensordot(weights, values, axes=(0, 0))


def _check_dims(f, phi, algebra):
    if f.n != algebra.dim or phi.n != algebra.dim or f.k != phi.k:
        raise DimensionMismatch("f, phi and the algebra must share dimensions")


def line_integral(f, phi, algebra, path, segments=None):
    """Composite-Simpson value of the algebra-valued line integral of f."""
    _check_dims(f, phi, algebra)
    n = _simpson_count(segments if segments is not None else path.segments)
    return _simpson(_node_values(f, phi, algebra, path, np.linspace(0.0, path.t1, n + 1)),
                    path.t1, n)


def _ladder_values(f, phi, algebra, path, ladder):
    """The integrand at the Simpson nodes of each ladder level, one pass per chain.

    linspace(0, t1, n + 1) is every r-th node of linspace(0, t1, r n + 1),
    bit for bit, when r is a power of two.  Levels whose counts differ by
    powers of two form a chain (they share the odd part of the count); only
    the finest level of each chain is evaluated, all of them in one pass,
    and the coarser levels are its slices.  If that pass raises, the levels
    are evaluated one by one in ladder order, so a failing node raises at the
    first level that has it, with the error of that level on its own.
    """
    _segment_count(max(ladder, default=1))  # the finest level is checked before any is evaluated
    counts = [_simpson_count(segments) for segments in ladder]
    chain = [n // (n & -n) for n in counts]  # the odd part names a level's chain
    finest = {}
    for n, odd in zip(counts, chain):
        finest[odd] = max(n, finest.get(odd, 0))
    grids = [np.linspace(0.0, path.t1, m + 1) for m in finest.values()]
    try:
        values = _node_values(f, phi, algebra, path, np.concatenate(grids))
    except Exception:
        return [_node_values(f, phi, algebra, path, np.linspace(0.0, path.t1, n + 1))
                for n in counts]
    passes = dict(zip(finest, np.split(values, np.cumsum([len(g) for g in grids])[:-1])))
    return [passes[odd][::finest[odd] // n] for n, odd in zip(counts, chain)]


@dataclass
class LoopReport:
    """Closed-loop integral magnitudes over a subdivision ladder."""

    segments: list
    magnitudes: list
    orders: list  # observed order between consecutive ladder steps (above floor)
    converged_at_floor: bool

    @property
    def final_magnitude(self):
        return self.magnitudes[-1]

    def passes(self, tol, min_order=3.5):
        if self.final_magnitude > tol:
            return False
        return self.converged_at_floor or all(o >= min_order for o in self.orders)


def closed_loop_check(f, phi, algebra, path, ladder=(64, 128, 256, 512), floor=FLOOR):
    """Integral magnitudes of a closed loop for increasing subdivision counts.

    The observed convergence order is reported for consecutive ladder steps
    whose magnitudes are both above the round-off floor; when everything sits
    at the floor already the loop is flagged as converged there.  A node
    shared by levels whose counts differ by a power of two is evaluated once;
    the magnitudes are bit for bit those of evaluating each level on its own.
    """
    if not path.closed:
        raise ValueError("closed_loop_check needs a closed path")
    _check_dims(f, phi, algebra)
    mags = [float(np.linalg.norm(_simpson(values, path.t1, len(values) - 1)))
            for values in _ladder_values(f, phi, algebra, path, ladder)]
    scale = max(1.0, *mags)
    orders = []
    for a, b in zip(mags, mags[1:]):
        if a > floor * scale and b > floor * scale:
            orders.append(float(np.log2(a / b)))
    converged = not orders and mags[-1] <= max(floor * scale, floor)
    return LoopReport(segments=list(ladder), magnitudes=mags, orders=orders,
                      converged_at_floor=converged)


def conservative_fields(f, phi, algebra):
    """The n real k-dimensional fields whose duals assemble f * dphi.

    G_q(u)_j = sum_{m,l} f_m(u) dphi[l, j] c[l, m, q]; for the unit element
    these are exactly the gradients of phi's components.
    """
    k, n = phi.k, algebra.dim
    constants = algebra.constants

    def all_fields(u):
        fu = f(u)
        jphi = phi.jacobian(u)
        s = np.einsum("m,lmq->lq", fu, constants)
        return np.einsum("lj,lq->qj", jphi, s)

    fields = []
    for q in range(n):
        def field(u, q=q):
            return all_fields(u)[q]

        fields.append(field)
    return fields


def antiderivative(f, phi, algebra, u0, segments=256, name=""):
    """F with F(u) the straight-segment integral from u0; its derivative is f.

    The Jacobian is assembled analytically from the defining property
    dF_u = rep(f(u)) dphi_u, so downstream derivative checks see no extra
    quadrature noise.  The caller asserts the domain is simply connected and
    supplies a different base point or path when the segment would cross the
    singular set.
    """
    u0 = np.asarray(u0, dtype=float)

    def func(u):
        u = np.asarray(u, dtype=float)
        if np.array_equal(u, u0):
            return algebra.zero().astype(float)
        return line_integral(f, phi, algebra, Path.segment(u0, u, segments=segments))

    def jac(u):
        return algebra.rep(f(u)) @ phi.jacobian(u)

    return SmoothMap(phi.k, algebra.dim, func, jac=jac, name=name or "antiderivative")
