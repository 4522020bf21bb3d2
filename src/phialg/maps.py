"""Differentiable maps R^k -> R^n as evaluation plus Jacobian callables.

``fd_partial`` is the package's one finite-difference engine: the Jacobian
fallback of ``SmoothMap``, path velocities, the ODE residuals and the PDE
substitution residuals all take their central differences from it.  It takes
one point or an (m, k) stack of points with one step per point; a stack costs
one call of the differenced function per stencil offset, and every point gets
the bits of its own single-point difference.

A ``SmoothMap`` and its Jacobian take one point, shape (k,), or a stack of
points, shape (..., k), as the quadrature nodes of a line integral.  A map
built with ``broadcasts=True`` takes a whole stack in one call: ``linear``,
``identity``, ``constant``, ``compose`` of two such maps,
``calculus.phi_polynomial`` and ``calculus.phi_rational`` over such a phi,
and the catalog's nonlinear map.  Every other map, and every plain callable,
is evaluated one point at a time by ``each``, the package's one per-point
loop.  Both ways give each point the bits of its single-point call.

Batching keeps bits only where the arithmetic is elementwise and the same for
a stack as for one point.  Two operations are not: the norm of a single
vector goes through ``dot`` (so ``fd_step`` stays per point), and numpy's
complex array multiply fuses operations on its SIMD path, so its last bits
differ from the scalar multiply's (``quadratic`` writes the billiards
products out in real arithmetic instead).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

FD_STEP = 1e-6


def fd_step(u, base=FD_STEP):
    return base * (1.0 + float(np.linalg.norm(u)))


def worst_of(residuals):
    """Largest of the residuals (0.0 for none), and nan when any is nan.

    ``max`` would return a finite value past a nan, passing a check it fails.
    """
    return float(np.max(residuals, initial=0.0))


def each(func, points):
    """func applied to every point of an (..., k) array, one call per point.

    The loop for callables that take a single point; the results are stacked
    in the points' leading shape.
    """
    points = np.asarray(points)
    out = np.stack([func(p) for p in points.reshape(-1, points.shape[-1])])
    return out.reshape(points.shape[:-1] + out.shape[1:])


def _repeat(value, points):
    """``value`` for one point, or a read-only view of it for each point of a stack."""
    return value if points.ndim == 1 else np.broadcast_to(value, points.shape[:-1] + value.shape)


def fd_partial(func, point, orders, h):
    """Central-difference partial derivative with per-variable orders (total <= 2).

    ``point`` is one point, shape (k,), with a scalar step ``h``; or an (m, k)
    stack of points with one step per point, shape (m,) (or one shared scalar
    step).  For a stack, ``func`` takes the (m, k) stack of shifted points and
    returns the m values, shape (m,) or (m, n); it is called once per stencil
    offset, and every point gets the bits of its own single-point call.
    """
    point = np.asarray(point, dtype=float)
    idx = [i for i, o in enumerate(orders) for _ in range(o)]
    if not idx:
        return func(point)
    if len(idx) > 2:
        raise ValueError("only derivatives up to total order 2 are supported")
    shifts = []
    for i in idx:
        e = np.zeros_like(point)
        e[..., i] = h
        shifts.append(e)
    if len(idx) == 1:
        e = shifts[0]
        num, den = func(point + e) - func(point - e), 2.0 * h
    elif idx[0] == idx[1]:
        e = shifts[0]
        num, den = func(point + e) - 2.0 * func(point) + func(point - e), h * h
    else:
        e1, e2 = shifts
        num = (func(point + e1 + e2) - func(point + e1 - e2)
               - func(point - e1 + e2) + func(point - e1 - e2))
        den = 4.0 * h * h
    if point.ndim > 1:  # one step per point, against values of shape (m,) or (m, n)
        den = np.reshape(den, np.shape(den) + (1,) * (np.ndim(num) - np.ndim(den)))
    return num / den


def fd_jacobian(func, u, base=FD_STEP):
    """Central-difference Jacobian, one ``fd_partial`` column per variable, with
    step scaled by the point's norm.

    ``u`` is one point, giving the (n, k) Jacobian, or an (..., k) stack of
    points, giving (..., n, k) from one call of ``func`` per stencil offset;
    each point keeps its own step.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        h = fd_step(u, base)
        return np.column_stack([fd_partial(func, u, orders, h)
                                for orders in np.eye(u.shape[0], dtype=int)])
    # the norm of a single vector goes through dot, so the step stays per point
    h = np.array([fd_step(p, base) for p in u.reshape(-1, u.shape[-1])]).reshape(u.shape[:-1])
    return np.stack([fd_partial(func, u, orders, h)
                     for orders in np.eye(u.shape[-1], dtype=int)], axis=-1)


class SmoothMap:
    """A map R^k -> R^n exposed as evaluation plus Jacobian evaluation.

    Both take one point, shape (k,), or a stack of points, shape (..., k), and
    give (n,) and (n, k) per point.  The Jacobian is analytic when a callable
    is supplied and central finite differences otherwise.  Instances are
    stateless wrappers around pure functions; evaluation must be reentrant.
    ``broadcasts`` declares that ``func`` and ``jac`` also take a stack, bit
    for bit what they return point by point; without it ``each`` loops.
    """

    def __init__(self, k, n, func, jac=None, name="", broadcasts=False):
        self.k = int(k)
        self.n = int(n)
        self._func = func
        self._jac = jac
        self.name = name
        self.broadcasts = bool(broadcasts)

    def __call__(self, u):
        u = self._points(u)
        if u.ndim > 1 and not self.broadcasts:
            return each(self.__call__, u)
        out = np.asarray(self._func(u), dtype=float)
        if out.shape != u.shape[:-1] + (self.n,):
            raise DimensionMismatch(f"{self.name or 'map'} returned shape {out.shape} "
                                    f"for points of shape {u.shape}")
        return out

    def jacobian(self, u):
        u = self._points(u)
        if self._jac is None:
            return fd_jacobian(self.__call__, u)
        if u.ndim > 1 and not self.broadcasts:
            return each(self.jacobian, u)
        jac = np.asarray(self._jac(u), dtype=float)
        if jac.shape != u.shape[:-1] + (self.n, self.k):
            raise DimensionMismatch(f"Jacobian shape {jac.shape} for points of shape {u.shape}")
        return jac

    def _points(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0 or u.shape[-1] != self.k:
            raise DimensionMismatch(f"{self.name or 'map'} expects R^{self.k} points, got {u.shape}")
        return u

    @classmethod
    def linear(cls, matrix, name=""):
        m = np.asarray(matrix, dtype=float)
        n, k = m.shape
        # a stacked matrix-vector product keeps the bits of m @ u per point; u @ m.T does not
        obj = cls(k, n, lambda u: (m @ u[..., None])[..., 0], jac=lambda u: _repeat(m, u),
                  name=name, broadcasts=True)
        obj.matrix = m
        return obj

    @classmethod
    def identity(cls, n, name="id"):
        return cls.linear(np.eye(n), name=name)

    @classmethod
    def constant(cls, value, k, name="const"):
        value = np.asarray(value, dtype=float)
        zeros = np.zeros((value.shape[0], k))
        zeros.setflags(write=False)
        return cls(k, value.shape[0], lambda u: _repeat(value, u), jac=lambda u: _repeat(zeros, u),
                   name=name, broadcasts=True)

    def __repr__(self):
        tag = self.name or "map"
        return f"SmoothMap({tag}: R^{self.k} -> R^{self.n})"


def compose(outer, inner, name=""):
    """outer after inner, with the chain-rule Jacobian."""
    if inner.n != outer.k:
        raise DimensionMismatch(f"cannot compose R^{inner.k}->R^{inner.n} into R^{outer.k}->R^{outer.n}")

    def func(u):
        return outer(inner(u))

    def jac(u):
        return outer.jacobian(inner(u)) @ inner.jacobian(u)

    return SmoothMap(inner.k, outer.n, func, jac=jac, name=name or f"{outer.name}∘{inner.name}",
                     broadcasts=outer.broadcasts and inner.broadcasts)


def jacobian_consistency(smooth_map, points):
    """Worst relative disagreement between the analytic Jacobian and an FD check
    over the points, from one stacked call of each."""
    points = np.asarray(points, dtype=float)
    analytic = smooth_map.jacobian(points)
    numeric = fd_jacobian(smooth_map, points)
    scale = np.maximum(1.0, np.abs(analytic).max(axis=(-2, -1)))
    return worst_of(np.abs(analytic - numeric).max(axis=(-2, -1)) / scale)
