"""Named algebras, reference maps, and function families for the CLI and tests.

Each family binds an algebra to a reference map together with functions known
to be differentiable relative to the pair, plus a sampler that stays inside a
domain where every catalog function (including reciprocals) is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Algebra,
    algebra_a2_1,
    algebra_a2_2,
    algebra_a2_12,
    algebra_a3_1,
    complex_algebra,
)
from .calculus import phi_polynomial, phi_reciprocal_power
from .maps import SmoothMap


def swap_map():
    return SmoothMap.linear(np.array([[0.0, 1.0], [1.0, 0.0]]), name="swap")


def proj_second_map():
    return SmoothMap.linear(np.array([[0.0, 1.0], [0.0, 0.0]]), name="proj-second")


def swap_sum_map():
    return SmoothMap.linear(np.array([[0.0, 1.0], [1.0, 1.0]]), name="swap-sum")


def fold_3to2_map():
    return SmoothMap.linear(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), name="fold-3to2")


def nonlinear_3to2_map():
    def func(u):
        x, y, z = np.moveaxis(u, -1, 0)
        return np.stack([x * x + z, 1.0 / y], axis=-1)

    def jac(u):
        x, y, _ = np.moveaxis(u, -1, 0)
        out = np.zeros(u.shape[:-1] + (2, 3))
        out[..., 0, 0] = 2.0 * x
        out[..., 0, 2] = 1.0
        out[..., 1, 1] = -1.0 / (y * y)
        return out

    return SmoothMap(3, 2, func, jac=jac, name="square-plus-reciprocal", broadcasts=True)


def embed_xy0_map():
    return SmoothMap.linear(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), name="embed-xy0")


def embed_x0y_map():
    return SmoothMap.linear(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), name="embed-x0y")


def embed_0xy_map():
    return SmoothMap.linear(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), name="embed-0xy")


def section31_algebra():
    """The three-dimensional algebra of the worked inverse/integral example.

    The e2/e3 products all equal e2 + e3; under the parametric constructor
    this is the all-ones instance (verified against the printed structure
    constants in the tests).
    """
    return algebra_a3_1((1.0, 1.0, 1.0, 1.0, 1.0, 1.0))


ALGEBRA_BUILDERS = {
    "C": lambda params: complex_algebra(),
    "A2_1": lambda params: algebra_a2_1(*params),
    "A2_2": lambda params: algebra_a2_2(*params),
    "A2_12": lambda params: algebra_a2_12(),
    "A3_1": lambda params: algebra_a3_1(params),
    "section31": lambda params: section31_algebra(),
}

PHI_BUILDERS = {
    "identity2": lambda: SmoothMap.identity(2),
    "identity3": lambda: SmoothMap.identity(3),
    "swap": swap_map,
    "proj-second": proj_second_map,
    "swap-sum": swap_sum_map,
    "fold-3to2": fold_3to2_map,
    "nonlinear-3to2": nonlinear_3to2_map,
    "embed-xy0": embed_xy0_map,
    "embed-x0y": embed_x0y_map,
    "embed-0xy": embed_0xy_map,
}


def build_algebra(spec):
    """Build an algebra from "name" or "name:p1,p2,..." catalog syntax."""
    name, _, raw = spec.partition(":")
    if name not in ALGEBRA_BUILDERS:
        raise KeyError(f"unknown algebra {name!r}; choices: {sorted(ALGEBRA_BUILDERS)}")
    params = tuple(float(x) for x in raw.split(",")) if raw else ()
    return ALGEBRA_BUILDERS[name](params)


def build_phi(name):
    if name not in PHI_BUILDERS:
        raise KeyError(f"unknown reference map {name!r}; choices: {sorted(PHI_BUILDERS)}")
    return PHI_BUILDERS[name]()


@dataclass
class ExampleFamily:
    """An (algebra, phi) pair, functions differentiable relative to it, a sampler."""

    name: str
    algebra: Algebra
    phi: SmoothMap
    functions: dict = field(default_factory=dict)
    sampler: object = None
    has_regular_direction: bool = True

    def sample(self, rng):
        return self.sampler(rng)

    def function_items(self):
        return list(self.functions.items())


def _box_sampler(low, high, dim):
    def sample(rng):
        return rng.uniform(low, high, size=dim)

    return sample


def _shifted_sampler(base, spread, dim):
    base = np.asarray(base, dtype=float)

    def sample(rng):
        return base + rng.uniform(-spread, spread, size=dim)

    return sample


def _standard_functions(phi, algebra, include_reciprocal=True):
    """phi itself, its square, a fixed cubic polynomial, and optionally e/phi."""
    unit = algebra.unit
    zero = algebra.zero()
    second = np.zeros(algebra.dim)
    second[-1] = 1.0
    fns = {
        "phi": phi_polynomial([zero, unit], phi, algebra, name="phi"),
        "phi^2": phi_polynomial([zero, zero, unit], phi, algebra, name="phi^2"),
        "cubic": phi_polynomial(
            [0.3 * unit + 0.2 * second, unit, -0.5 * second, 0.25 * unit],
            phi, algebra, name="cubic"),
    }
    if include_reciprocal:
        fns["e/phi"] = phi_reciprocal_power(phi, algebra, 1)
    return fns


def default_families():
    """The worked-example families exercised throughout the test suite.

    One row per family: name, algebra, phi, sampler, whether e/phi is among
    the functions, and whether dphi reaches a regular element.
    """
    c = complex_algebra()
    rows = [
        ("complex-swap", c, swap_map(), _shifted_sampler([1.2, 0.8], 0.5, 2), True, True),
        ("complex-proj-second", c, proj_second_map(),
         _shifted_sampler([0.4, 1.5], 0.4, 2), True, True),
        ("complex-swap-sum", c, swap_sum_map(), _shifted_sampler([1.1, 0.9], 0.4, 2), True, True),
        ("complex-fold", c, fold_3to2_map(), _shifted_sampler([0.9, 0.7, 0.5], 0.3, 3), True, True),
        ("complex-nonlinear", c, nonlinear_3to2_map(),
         _shifted_sampler([0.8, 1.2, 0.6], 0.3, 3), True, True),
        ("threedim-embed-xy0", section31_algebra(), embed_xy0_map(),
         _shifted_sampler([2.5, 0.4], 0.35, 2), True, True),
        ("threedim-embed-x0y", algebra_a3_1((0.3, -0.2, 0.5, 0.1, -0.4, 0.2)), embed_x0y_map(),
         _shifted_sampler([2.0, 0.3], 0.3, 2), False, True),
        ("threedim-embed-0xy-degenerate", algebra_a3_1((0.0,) * 6), embed_0xy_map(),
         _box_sampler(-1.0, 1.0, 2), False, False),
        ("split-identity", algebra_a2_12(), SmoothMap.identity(2),
         _shifted_sampler([1.4, 1.1], 0.5, 2), True, True),
        ("param-family-linear", algebra_a2_1(0.7, -0.4),
         SmoothMap.linear(np.array([[1.0, 0.5], [-0.3, 1.2]]), name="generic-linear"),
         _shifted_sampler([1.5, 0.9], 0.4, 2), True, True),
        ("second-family-linear", algebra_a2_2(0.4, 0.9),
         SmoothMap.linear(np.array([[0.8, -0.2], [0.4, 1.1]]), name="generic-linear-2"),
         _shifted_sampler([1.2, 1.3], 0.4, 2), True, True),
    ]
    return [ExampleFamily(name=name, algebra=algebra, phi=phi,
                          functions=_standard_functions(phi, algebra, include_reciprocal=recip),
                          sampler=sampler, has_regular_direction=regular)
            for name, algebra, phi, sampler, recip, regular in rows]
