"""Differentiable maps R^k -> R^n as evaluation plus Jacobian callables.

``fd_partial`` is the package's one finite-difference engine: the Jacobian
fallback of ``SmoothMap``, path velocities, the ODE residuals and the PDE
substitution residuals all take their central differences from it.
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


def fd_partial(func, point, orders, h):
    """Central-difference partial derivative with per-variable orders (total <= 2)."""
    point = np.asarray(point, dtype=float)
    idx = [i for i, o in enumerate(orders) for _ in range(o)]
    total = len(idx)
    if total == 0:
        return func(point)
    if total == 1:
        e = np.zeros_like(point)
        e[idx[0]] = h
        return (func(point + e) - func(point - e)) / (2.0 * h)
    if total == 2 and idx[0] == idx[1]:
        e = np.zeros_like(point)
        e[idx[0]] = h
        return (func(point + e) - 2.0 * func(point) + func(point - e)) / (h * h)
    if total == 2:
        e1 = np.zeros_like(point)
        e2 = np.zeros_like(point)
        e1[idx[0]] = h
        e2[idx[1]] = h
        return (func(point + e1 + e2) - func(point + e1 - e2)
                - func(point - e1 + e2) + func(point - e1 - e2)) / (4.0 * h * h)
    raise ValueError("only derivatives up to total order 2 are supported")


def fd_jacobian(func, u, base=FD_STEP):
    """Central-difference Jacobian, one ``fd_partial`` column per variable, with
    step scaled by the point's norm."""
    u = np.asarray(u, dtype=float)
    h = fd_step(u, base)
    return np.column_stack([fd_partial(func, u, orders, h)
                            for orders in np.eye(u.shape[0], dtype=int)])


class SmoothMap:
    """A map R^k -> R^n exposed as point evaluation plus Jacobian evaluation.

    The Jacobian is analytic when a callable is supplied and central finite
    differences otherwise.  Instances are stateless wrappers around pure
    functions; evaluation must be reentrant.
    """

    def __init__(self, k, n, func, jac=None, name=""):
        self.k = int(k)
        self.n = int(n)
        self._func = func
        self._jac = jac
        self.name = name

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.k,):
            raise DimensionMismatch(f"{self.name or 'map'} expects R^{self.k} points, got {u.shape}")
        out = np.asarray(self._func(u), dtype=float)
        if out.shape != (self.n,):
            raise DimensionMismatch(f"{self.name or 'map'} returned shape {out.shape}, wanted ({self.n},)")
        return out

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        if self._jac is not None:
            jac = np.asarray(self._jac(u), dtype=float)
            if jac.shape != (self.n, self.k):
                raise DimensionMismatch(f"Jacobian shape {jac.shape}, wanted ({self.n}, {self.k})")
            return jac
        return fd_jacobian(self.__call__, u)

    @classmethod
    def linear(cls, matrix, name=""):
        m = np.asarray(matrix, dtype=float)
        n, k = m.shape
        obj = cls(k, n, lambda u: m @ u, jac=lambda u: m, name=name)
        obj.matrix = m
        return obj

    @classmethod
    def identity(cls, n, name="id"):
        return cls.linear(np.eye(n), name=name)

    @classmethod
    def constant(cls, value, k, name="const"):
        value = np.asarray(value, dtype=float)
        n = value.shape[0]
        return cls(k, n, lambda u: value, jac=lambda u: np.zeros((n, k)), name=name)

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

    return SmoothMap(inner.k, outer.n, func, jac=jac, name=name or f"{outer.name}∘{inner.name}")


def jacobian_consistency(smooth_map, points, rtol=1e-4):
    """Worst relative disagreement between the analytic Jacobian and an FD check."""
    worst = 0.0
    for u in points:
        analytic = smooth_map.jacobian(np.asarray(u, dtype=float))
        numeric = fd_jacobian(smooth_map, np.asarray(u, dtype=float))
        scale = max(1.0, float(np.abs(analytic).max()))
        worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    return worst
