"""The worked-example checklist behind the `paper-examples` CLI command.

Each check reproduces one worked computation end to end and compares it
against its independently stated value or tolerance.  The table is the
human-facing summary of everything the library claims to get right.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import a3_1_dependent_params, algebra_a2_1, algebra_a3_1, complex_algebra
from .calculus import cre_residual, phi_derivative, phi_polynomial, phi_reciprocal_power
from .catalog import (default_families, embed_xy0_map, nonlinear_3to2_map,
                      section31_algebra, swap_map)
from .cre import TwoPDESystem, emit_cre, recover_phi_algebra, two_pde_from_cre
from .integrals import Path, closed_loop_check, conservative_fields, line_integral
from .maps import SmoothMap, worst_of
from .odes import picard, solve_exponential, solve_phi_rhs, solve_square_rhs, verify_canonical
from .pdes import (
    FirstOrderPDE,
    HeatProblem,
    SecondOrderPDE,
    first_order_phi,
    heat_solution,
    heat_system_matrix,
    second_order_solution,
    system_451_solutions,
)
from .quadratic import verify_billiards_algebrization


@dataclass
class CheckRow:
    name: str
    value: float
    tol: float
    passed: bool
    note: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "tol": self.tol,
            "pass": self.passed,
            "note": self.note,
        }


def _row(name, value, tol, note=""):
    return CheckRow(name=name, value=float(value), tol=float(tol),
                    passed=bool(value <= tol), note=note)


def section31_inverse_closed_form(point):
    x, y = point
    den = x ** 3 + 2.0 * x ** 2 * y
    return np.array([1.0 / x, (-x * y - y * y) / den, y * y / den])


def _golden_cre_checks():
    rows = []
    c = complex_algebra()
    goldens = {
        "cre golden: swap over C": (c, swap_map(), np.array([
            [[1.0, 0.0], [0.0, 1.0]],   # u_x + v_y = 0
            [[0.0, -1.0], [1.0, 0.0]],  # v_x - u_y = 0
        ])),
        "cre golden: proj-second over C": (c, SmoothMap.linear([[0.0, 1.0], [0.0, 0.0]]),
                                           np.array([
                                               [[1.0, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [1.0, 0.0]],
                                           ])),
        "cre golden: swap-sum over C": (c, SmoothMap.linear([[0.0, 1.0], [1.0, 1.0]]),
                                        np.array([
                                            [[1.0, 0.0], [-1.0, 1.0]],
                                            [[1.0, -1.0], [1.0, 0.0]],
                                        ])),
    }
    for name, (algebra, phi, expected) in goldens.items():
        got = emit_cre(algebra, phi).coefficient_tensor()
        rows.append(_row(name, np.abs(got - expected).max(), 1e-14))

    p = (0.3, -0.2, 0.5, 0.1, -0.4, 0.2)
    p1, p2, p3, p4, p5, p6 = p
    alg = algebra_a3_1(p)
    p7, p8, p9 = a3_1_dependent_params(p)
    em = {
        "cre golden: embed-xy0 over 3-dim family": (
            SmoothMap.linear([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            np.array([
                [[0.0, -1.0], [p7, 0.0], [p8, 0.0]],
                [[1.0, 0.0], [p1, -1.0], [p3, 0.0]],
                [[0.0, 0.0], [p2, 0.0], [p4, -1.0]],
            ])),
        "cre golden: embed-x0y over 3-dim family": (
            SmoothMap.linear([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
            np.array([
                [[0.0, -1.0], [p8, 0.0], [p9, 0.0]],
                [[0.0, 0.0], [p3, -1.0], [p5, 0.0]],
                [[1.0, 0.0], [p4, 0.0], [p6, -1.0]],
            ])),
        "cre golden: embed-0xy over 3-dim family": (
            SmoothMap.linear([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([
                [[0.0, 0.0], [p8, -p7], [p9, -p8]],
                [[0.0, -1.0], [p3, -p1], [p5, -p3]],
                [[1.0, 0.0], [p4, -p2], [p6, -p4]],
            ])),
    }
    for name, (phi, expected) in em.items():
        got = emit_cre(alg, phi).coefficient_tensor()
        rows.append(_row(name, np.abs(got - expected).max(), 1e-14))

    # k = 3 fold (x + z, y) over C; the printed system lists the (x,y) and
    # (x,z) pairs, the (y,z) pair equations are their consequences
    fold = SmoothMap.linear([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    got = emit_cre(c, fold).coefficient_tensor()
    expected = np.array([
        [[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]],   # v_x = -u_y
        [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],    # u_x = v_y
        [[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]],    # u_x = u_z
        [[0.0, 0.0, 0.0], [1.0, 0.0, -1.0]],    # v_x = v_z
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],     # u_y + v_z = 0
        [[0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],    # v_y = u_z
    ])
    rows.append(_row("cre golden: three-variable fold over C",
                     np.abs(got - expected).max(), 1e-14))

    nl = emit_cre(c, nonlinear_3to2_map())
    u = np.array([0.7, 1.3, -0.2])
    x, y = u[0], u[1]
    eq_xy = [eq for eq in nl.equations if (eq.i, eq.j) == (0, 1)]
    got_xy = np.stack([eq.coeffs_at(u) for eq in eq_xy])
    inv_y2 = 1.0 / (y * y)
    expected_xy = np.array([
        [[0.0, -2 * x, 0.0], [inv_y2, 0.0, 0.0]],    # (1/y^2) v_x = 2x u_y
        [[-inv_y2, 0.0, 0.0], [0.0, -2 * x, 0.0]],   # -(1/y^2) u_x = 2x v_y
    ])
    rows.append(_row("cre golden: nonlinear reference map at a sample point",
                     np.abs(np.sort(got_xy.ravel()) - np.sort(expected_xy.ravel())).max(),
                     1e-12))
    return rows


@functools.cache
def _families():
    """``default_families()``, built once per process; the checks only read them."""
    return tuple(default_families())


def _derivative_checks(rng):
    rows = []
    errors = []
    for fam in _families():
        points = np.array([fam.sample(rng) for _ in range(10)])
        report = phi_derivative(fam.functions["phi"], fam.phi, fam.algebra, points)
        for g, residual, unique in zip(report.derivative, report.residual, report.unique):
            errors.append(float(residual))
            if unique:
                errors.append(float(np.abs(g - fam.algebra.unit).max()))
    rows.append(_row("derivative of the reference map is the unit", worst_of(errors), 1e-8))

    degenerate = algebra_a3_1((0.0,) * 6)
    phi = SmoothMap.linear([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    f = SmoothMap.linear([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    u = np.array([0.4, -0.2])
    cre = cre_residual(f, phi, degenerate, u)
    rows.append(_row("counterexample: CRE residual stays zero", cre, 1e-12))
    deriv = phi_derivative(f, phi, degenerate, u).residual
    rows.append(CheckRow(name="counterexample: derivative residual stays large",
                         value=deriv, tol=1e-2, passed=deriv > 1e-2,
                         note="pass means value > tol"))
    return rows


def _recovery_checks():
    rows = []
    alpha, beta = 2.0, 3.0
    coeffs = np.zeros((2, 4, 3))
    # y u_x + x u_y - alpha x v_x + alpha y v_y = 0
    coeffs[0, 0] = [0, 0, 1]
    coeffs[0, 1] = [0, 1, 0]
    coeffs[0, 2] = [0, -alpha, 0]
    coeffs[0, 3] = [0, 0, alpha]
    # x u_x - y u_y - (y - beta x) v_x - (x + beta y) v_y = 0
    coeffs[1, 0] = [0, 1, 0]
    coeffs[1, 1] = [0, 0, -1]
    coeffs[1, 2] = [0, beta, -1]
    coeffs[1, 3] = [0, -1, -beta]
    rec = recover_phi_algebra(TwoPDESystem(coeffs))
    expected = np.array([[1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0, 0.0]])
    err = worst_of([_aligned_potential_error(rec, expected),
                    abs(rec.params[0] - alpha), abs(rec.params[1] - beta)])
    rows.append(_row("recover quadratic potentials + parameters", err, 1e-12))

    coeffs = np.zeros((2, 4, 3))
    coeffs[0, 0] = [0, 0, 1]
    coeffs[0, 1] = [0, 1, 0]
    coeffs[1, 2] = [0, 1, 0]
    coeffs[1, 3] = [0, 0, -1]
    rec = recover_phi_algebra(TwoPDESystem(coeffs))
    expected = np.array([[0.5, 0.0, -0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]])
    err = float(np.abs(rec.potential_coeffs - expected).max())
    rows.append(_row("recover split system potentials", err, 1e-12,
                     note=f"case {rec.case}"))
    return rows


def _aligned_potential_error(rec, expected_coeffs):
    """Error after aligning by a regular constant of the recovered algebra."""
    jr = rec.potential_coeffs.reshape(-1)
    basis = np.stack([
        (rec.algebra.rep(e_i) @ expected_coeffs).reshape(-1)
        for e_i in np.eye(rec.algebra.dim)
    ], axis=1)
    c, _, _, _ = np.linalg.lstsq(basis, jr, rcond=None)
    if not rec.algebra.is_regular(c):
        return np.inf
    return float(np.abs(basis @ c - jr).max())


def _integral_checks():
    rows = []
    c = complex_algebra()
    phi = swap_map()
    f = phi_polynomial([c.zero(), c.zero(), c.unit], phi, c, name="phi^2")
    report = closed_loop_check(f, phi, c, Path.circle())
    rows.append(_row("Cauchy loop: quadratic over C", report.final_magnitude, 1e-10))

    ident = SmoothMap.identity(2)
    recip = phi_reciprocal_power(ident, c, 1)
    loop = line_integral(recip, ident, c, Path.circle(), segments=512)
    rows.append(_row("residue control: loop of 1/z", np.abs(loop - np.array([0.0, 2 * np.pi])).max(), 1e-8))

    alg = section31_algebra()
    phi3 = embed_xy0_map()
    recip3 = phi_reciprocal_power(phi3, alg, 1)
    report3 = closed_loop_check(recip3, phi3, alg, Path.circle(center=(3.0, 1.0), radius=0.5))
    rows.append(_row("Cauchy loop: reciprocal over 3-dim algebra", report3.final_magnitude, 1e-8))

    fields = conservative_fields(recip3, phi3, alg)
    errors = []
    for x, y in [(2.0, 0.5), (3.0, 1.0), (1.5, 0.25), (2.5, -0.5)]:
        u = np.array([x, y])
        den = x ** 3 + 2 * x ** 2 * y
        expected = [
            np.array([1.0 / x, 0.0]),
            np.array([(-x * y - y * y) / den, (x + y) / (x * x + 2 * x * y)]),
            np.array([y * y / den, -x * y / den]),
        ]
        errors.extend(float(np.abs(fields[q](u) - expected[q]).max()) for q in range(3))
    rows.append(_row("conservative fields match closed forms", worst_of(errors), 1e-10))
    return rows


def _ode_checks(rng):
    rows = []
    alg = algebra_a2_1(0.7, -0.4)
    phi = SmoothMap.linear([[1.0, 0.5], [-0.3, 1.2]])
    zero, unit = alg.zero(), alg.unit
    K = phi_polynomial([zero, unit], phi, alg, name="phi")
    H = phi_polynomial([zero, zero, 0.5 * unit], phi, alg, name="phi^2/2")
    C = np.array([1.4, 0.2])
    grid = [np.array([0.3, 0.1]) + 0.25 * rng.random(2) for _ in range(8)]
    sol = solve_square_rhs(K, H, C, phi, alg)
    rows.append(_row("ode: quadratic right-hand side", sol.samples(grid).max_residual, 1e-6))

    sol2 = solve_phi_rhs(K, C, alg)
    rows.append(_row("ode: rhs equal to the reference map", sol2.samples(grid).max_residual, 1e-6))

    c = complex_algebra()
    sol3 = solve_exponential(SmoothMap.identity(2), c, np.array([1.0, 0.5]))
    grid2 = [rng.uniform(-0.8, 0.8, 2) for _ in range(8)]
    rows.append(_row("ode: exponential solution", sol3.samples(grid2).max_residual, 1e-6))

    ident_field = SmoothMap(2, 2, lambda w: w, name="w", broadcasts=True)
    res = picard(ident_field, SmoothMap.identity(2), c, np.array([1.0, 0.0]),
                 Path.segment([0.0, 0.0], [1.0, 0.0], segments=128))
    err = np.abs(res.value_at_end() - np.array([np.e, 0.0])).max()
    rows.append(_row("ode: fixed-point iteration reaches exp", err, 1e-8))

    sq = phi_polynomial([c.zero(), c.zero(), c.unit], SmoothMap.identity(2), c)
    rect = SmoothMap(2, 2, lambda u: -c.inverse(u), name="rectifier")
    pts = [np.array([1.0, 0.3]), np.array([0.8, -0.4]), np.array([1.3, 0.2])]
    rows.append(_row("ode: canonical coordinates", verify_canonical(rect, sq, pts), 1e-6))
    return rows


def _billiards_checks():
    rows = []
    rep = verify_billiards_algebrization(1.0, 1.0, 1.0)
    err = worst_of([rep.residual, abs(rep.alpha + 1.0), abs(rep.beta + 1.0),
                    float(np.abs(rep.v - np.array([1.0, -1.0, 0.0, -1.0])).max())])
    rows.append(_row("billiards field (1,1,1)", err, 1e-12))
    rep2 = verify_billiards_algebrization(2.0, 1.0, 1.0)
    err2 = worst_of([rep2.residual, abs(rep2.alpha + 4.0 / 9.0), abs(rep2.beta + 4.0 / 9.0)])
    rows.append(_row("billiards field (2,1,1)", err2, 1e-12))
    return rows


def _pde_checks(rng):
    rows = []
    pde = FirstOrderPDE(a=1.3, b=-0.7, c=0.4, d=2.1)
    phi = first_order_phi(pde, 0.0, 0.0)
    expected = np.array([[pde.d, pde.b], [pde.c - pde.d, pde.a - pde.b]])
    alg = algebra_a2_1(0.0, 0.0)
    fn = phi_polynomial([alg.zero(), alg.zero(), alg.unit], phi, alg)
    pts = [rng.uniform(-1, 1, 2) for _ in range(10)]
    err = worst_of([float(np.abs(phi.matrix - expected).max()), pde.residual(fn, pts)])
    rows.append(_row("first-order pde: map and quadratic solution", err, 1e-6))

    sol = system_451_solutions(1.0, 1.0, 1.0, 1.0, "trig", 1.0, 0.0)
    solh = system_451_solutions(1.0, 1.0, 1.0, 1.0, "hyperbolic", 0.7, -0.4)
    r = worst_of([sol.residual(1.0, 1.0, 1.0, 1.0, pts), solh.residual(1.0, 1.0, 1.0, 1.0, pts)])
    rows.append(_row("two-equation system: both families", r, 1e-6))

    so = second_order_solution(SecondOrderPDE(A=1, B=0, C=1, D=1, E=1), 1.0, 1.0)
    err = worst_of([abs(so.a + 1.0), abs(so.b + 1.0), so.residual])
    rows.append(_row("second-order pde: spec instance", err, 1e-4,
                     note=f"branch {so.branch}"))

    hs = heat_solution(HeatProblem(alpha=1.0, p=(1, 0, 0, 0, 0, 1)))
    matrix = heat_system_matrix(1.0, (1, 0, 0, 0, 0, 1))
    err = worst_of([float(np.abs(matrix @ hs.b - np.array([1, 0, 0, 0])).max()),
                    abs(hs.delta - 2.0), hs.residual, abs(hs.diagnostic)])
    rows.append(_row("heat equation: spec instance", err, 1e-4))
    return rows


def run_all(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    alg = section31_algebra()
    worst = worst_of([float(np.abs(alg.inverse(np.array([x, y, 0.0]))
                                   - section31_inverse_closed_form((x, y))).max())
                      for x, y in [(1.0, 1.0), (2.0, 0.5), (1.5, -0.25), (3.0, 1.0)]])
    rows.append(_row("inverse closed form in the 3-dim example algebra", worst, 1e-10))

    rows.extend(_golden_cre_checks())
    rows.extend(_derivative_checks(rng))
    rows.extend(_recovery_checks())
    rows.extend(_integral_checks())
    rows.extend(_ode_checks(rng))
    rows.extend(_billiards_checks())
    rows.extend(_pde_checks(rng))
    return rows


def format_table(rows):
    width = max(len(r.name) for r in rows) + 2
    lines = [f"{'example':<{width}}{'value':>12}  {'tol':>9}  result"]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        lines.append(f"{r.name:<{width}}{r.value:>12.3e}  {r.tol:>9.1e}  {status}{note}")
    failed = sum(not r.passed for r in rows)
    lines.append(f"{len(rows)} checks, {len(rows) - failed} passed, {failed} failed")
    return "\n".join(lines)
