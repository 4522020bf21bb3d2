"""The worked-example checklist and the library's worst-case checks fail closed.

A check that combines several errors must report nan when any of them is nan,
wherever it stands among them: ``max(0.0, nan)`` is ``0.0``, and would pass a
check that failed.
"""

import dataclasses
import math

import numpy as np
import pytest

from phialg import paper_examples
from phialg.algebra import complex_algebra
from phialg.calculus import factor_through_phi
from phialg.maps import SmoothMap, jacobian_consistency
from phialg.odes import verify_canonical
from phialg.pdes import System451Solution

SECOND = np.array([0.5, 0.25])


def _nan_at_second(value):
    """A point function that gives ``value`` everywhere but at SECOND, where it is nan."""
    def func(u):
        return np.full_like(value, math.nan) if np.array_equal(u, SECOND) else value

    return func


def test_a_nan_heat_residual_fails_its_row(monkeypatch):
    # the row reads max(err, |delta - 2|, residual, |diagnostic|): the residual is third
    real = paper_examples.heat_solution
    monkeypatch.setattr(paper_examples, "heat_solution",
                        lambda hp: dataclasses.replace(real(hp), residual=math.nan))
    row = next(r for r in paper_examples.run_all() if r.name == "heat equation: spec instance")
    assert math.isnan(row.value) and not row.passed


def test_a_nan_second_system451_residual_fails_its_row(monkeypatch):
    real = System451Solution.residual

    def residual(self, *args):
        return math.nan if self.family == "hyperbolic" else real(self, *args)

    monkeypatch.setattr(System451Solution, "residual", residual)
    row = next(r for r in paper_examples.run_all()
               if r.name == "two-equation system: both families")
    assert math.isnan(row.value) and not row.passed


@pytest.mark.parametrize("check", ["jacobian_consistency", "verify_canonical",
                                   "factor_through_phi"])
def test_worst_case_checks_keep_a_nan_at_a_later_point(check):
    points = [np.array([0.3, -0.2]), SECOND]
    ident = SmoothMap.identity(2)
    if check == "jacobian_consistency":
        m = SmoothMap(2, 2, ident, jac=_nan_at_second(np.eye(2)))
        value = jacobian_consistency(m, points)
    elif check == "verify_canonical":
        value = verify_canonical(ident, _nan_at_second(np.array([1.0, 0.0])), points)
    else:
        f = SmoothMap(2, 2, ident, jac=_nan_at_second(np.eye(2)))
        value = factor_through_phi(f, ident, complex_algebra(), points).membership_distance
    assert math.isnan(value)
