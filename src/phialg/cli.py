"""Command-line interface: one subcommand per subsystem plus `paper-examples`.

Exit codes: 0 = pass, 1 = a tolerance or match failure, 2 = bad input/usage.
A reader that closes stdout early (``phialg ... | head``) ends the run
quietly with 1, as Python's own note on SIGPIPE does.  JSON output is stable
for fixed argv and seed (timing is reported only in the human-readable form).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import paper_examples
from .algebra import Algebra, _encode, algebra_a2_1
from .calculus import phi_polynomial, phi_reciprocal_power
from .catalog import build_algebra, build_phi
from .cre import TwoPDESystem, emit_cre, find_equivalence_matrix, recover_phi_algebra
from .errors import NoMatch, NotEquivalent, PhialgError
from .integrals import Path, closed_loop_check, line_integral
from .maps import SmoothMap
from .odes import picard, solve_exponential, solve_phi_rhs, solve_square_rhs
from .pdes import (
    FirstOrderPDE,
    HeatProblem,
    SecondOrderPDE,
    first_order_phi,
    heat_solution,
    second_order_solution,
    system_451_solutions,
)
from .quadratic import QuadraticVF, algebrize, verify_billiards_algebrization

PASS, FAIL, USAGE = 0, 1, 2
# the largest count of `ode solve --grid lo,hi,count`: count^2 sample points,
# each about 0.5 ms and 170 bytes of JSON
MAX_GRID_COUNT = 100


def _finite(value, label="number"):
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")
    return value


def _floats(text):
    return [_finite(float(x)) for x in text.split(",") if x != ""]


def _ode_grid(text):
    """lo, hi and count of ``ode solve --grid``; count is an integer from 1 to
    MAX_GRID_COUNT."""
    values = _floats(text)
    if len(values) != 3:
        raise ValueError(f"--grid takes lo,hi,count, got {text!r}")
    lo, hi, count = values
    if not (count == int(count) and 1 <= count <= MAX_GRID_COUNT):
        raise ValueError(f"--grid count must be an integer from 1 to MAX_GRID_COUNT = "
                         f"{MAX_GRID_COUNT}, got {count:g}")
    return lo, hi, int(count)


def _open_named(path, mode="r"):
    """open() for a file named on the command line; a path that cannot be
    opened is bad input."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _emit(args, payload, human):
    """Print the payload as JSON (``--json``) or the human line, and return
    the exit code: PASS when the payload's ``"pass"`` is true, else FAIL.

    JSON has no nan or inf.  With ``--json``, a payload that holds one is
    printed with each non-finite number as null and ``"pass": false``, and
    so fails.
    """
    if args.json:
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:  # a nan or an inf in the payload
            payload = {**_null_non_finite(payload), "pass": False}
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        print(text)
    else:
        print(human)
    return PASS if payload["pass"] else FAIL


def _null_non_finite(value):
    """``value`` with every nan and inf float in its dicts and lists replaced by None."""
    if isinstance(value, dict):
        return {key: _null_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _catalog_function(name, phi, algebra):
    zero, unit = algebra.zero(), algebra.unit
    table = {
        "unit": [unit],
        "phi": [zero, unit],
        "phi^2": [zero, zero, unit],
        "phi^3": [zero, zero, zero, unit],
    }
    if name in table:
        return phi_polynomial(table[name], phi, algebra, name=name)
    if name == "e/phi":
        return phi_reciprocal_power(phi, algebra, 1)
    if name.startswith("poly:"):
        coeffs = json.loads(name[len("poly:"):])
        return phi_polynomial(coeffs, phi, algebra, name="poly")
    raise KeyError(
        f"unknown catalog function {name!r}; choices: phi, phi^2, phi^3, e/phi, unit, "
        "poly:[[c0...],[c1...],...]")


def _load_algebra(spec):
    """Catalog spec ("C", "A2_1:0,0", ...) or a path to a JSON algebra file."""
    if spec.endswith(".json"):
        with _open_named(spec) as fh:
            return Algebra.from_dict(json.load(fh))
    return build_algebra(spec)


def _parse_loop(spec):
    kind, _, raw = spec.partition(":")
    opts = {}
    for item in raw.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        opts[key] = _finite(float(val), key)
    if kind == "circle":
        return Path.circle(center=(opts.get("cx", 0.0), opts.get("cy", 0.0)),
                           radius=opts.get("r", 1.0))
    if kind == "segment":
        return Path.segment([opts["x0"], opts["y0"]], [opts["x1"], opts["y1"]])
    raise KeyError(f"unknown path {spec!r}; use circle:r=1[,cx=..,cy=..] or segment:x0=..,y0=..,x1=..,y1=..")


# -- subcommand handlers --------------------------------------------------------


def cmd_algebra(args):
    if args.action == "verify":
        with _open_named(args.file) as fh:
            data = json.load(fh)
        alg = Algebra.from_dict(data)  # raises on axiom violations
        defect, _ = alg.associativity_defect()
        return _emit(args, {"command": "algebra verify", "file": args.file, "dim": alg.dim,
                            "scalars": alg.scalars, "associativity_defect": defect, "pass": True},
                     f"valid {alg.dim}-dimensional {alg.scalars} algebra "
                     f"(associativity defect {defect:.2e})")
    if args.action == "build":
        alg = build_algebra(args.family if not args.params else f"{args.family}:{args.params}")
        data = alg.to_dict()
        if args.out:
            with _open_named(args.out, "w") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
        return _emit(args, {"command": "algebra build", "algebra": data, "pass": True},
                     f"built {alg!r}" + (f" -> {args.out}" if args.out else ""))
    raise KeyError(args.action)


def cmd_cre(args):
    if args.action == "emit":
        alg = _load_algebra(args.algebra)
        phi = build_phi(args.phi)
        system = emit_cre(alg, phi)
        payload = {"command": "cre emit", "algebra": args.algebra, "phi": args.phi,
                   "system": system.to_json() if system.constant else "position-dependent",
                   "pass": True}
        return _emit(args, payload, system.to_latex())
    if args.action == "recover":
        with _open_named(args.file) as fh:
            system = TwoPDESystem.from_json(json.load(fh))
        try:
            rec = recover_phi_algebra(system)
        except NoMatch as exc:
            return _emit(args, {"command": "cre recover", "pass": False, "stage": exc.stage},
                         f"no match: {exc}")
        payload = {
            "command": "cre recover",
            "case": rec.case,
            "params": list(rec.params),
            "potential_coeffs": rec.potential_coeffs.tolist(),
            "monomials": ["x^2", "xy", "y^2", "x", "y"],
            "needs_particular_solution": rec.needs_particular_solution,
            "pass": True,
        }
        note = ("; nonhomogeneous input: add a particular solution to these"
                " homogeneous solutions" if rec.needs_particular_solution else "")
        return _emit(args, payload,
                     f"case {rec.case}, params {rec.params}, "
                     f"potentials {rec.potential_coeffs.tolist()}{note}")
    if args.action == "equiv":
        with _open_named(args.s1) as fh:
            s1 = TwoPDESystem.from_json(json.load(fh))
        with _open_named(args.s2) as fh:
            s2 = TwoPDESystem.from_json(json.load(fh))
        points = [np.array([0.7, -0.4]), np.array([1.3, 0.9]), np.array([-1.1, 0.6])]
        try:
            eq = find_equivalence_matrix(s1, s2, points)
        except NotEquivalent as exc:
            return _emit(args, {"command": "cre equiv", "pass": False, "reason": str(exc)},
                         f"not equivalent: {exc}")
        return _emit(args, {"command": "cre equiv", "pass": True,
                            "matrices": [m.tolist() for m in eq.matrices]},
                     "equivalent; sample transformation " + str(eq.matrices[0].tolist()))
    raise KeyError(args.action)


def cmd_algebrize(args):
    coeffs = _floats(args.vf)
    if len(coeffs) != 12:
        raise ValueError("--vf needs 12 numbers a0..a5,b0..b5")
    vf = QuadraticVF(a=tuple(coeffs[:6]), b=tuple(coeffs[6:]))
    cases = {"1": ("A2_1",), "2": ("A2_2",), "3": ("A2_12",)}.get(
        args.case, ("A2_1", "A2_2", "A2_12"))
    witnesses = algebrize(vf, cases=cases)
    payload = {
        "command": "algebrize",
        "vf": coeffs,
        "witnesses": [
            {"case": w.case, "params": list(w.params),
             "v": [None if not np.isfinite(x) else x for x in w.v],
             "phi_matrix": w.phi.matrix.tolist(), "residual": w.residual,
             "det_m4": w.det_m4}
            for w in witnesses
        ],
        "pass": bool(witnesses),
    }
    human = "\n".join(
        f"{w.case} params={tuple(float(round(p, 10)) for p in w.params)} residual={w.residual:.2e}"
        for w in witnesses
    ) or "no witness: no linear phi and planar algebra fit vf"
    return _emit(args, payload, human)


def cmd_billiards(args):
    a, b, c = _floats(args.params)
    rep = verify_billiards_algebrization(a, b, c)
    ok = rep.residual <= args.tol
    payload = {
        "command": "billiards",
        "params": [a, b, c],
        "alpha": rep.alpha,
        "beta": rep.beta,
        "v": rep.v.tolist(),
        "residual": rep.residual,
        "det_m4": rep.det_m4,
        "pass": bool(ok),
    }
    return _emit(args, payload,
                 f"alpha={rep.alpha:.12g} beta={rep.beta:.12g} residual={rep.residual:.3e} "
                 f"({'PASS' if ok else 'FAIL'})")


def cmd_integrate(args):
    alg = _load_algebra(args.algebra)
    phi = build_phi(args.phi)
    path = _parse_loop(args.loop)
    f = _catalog_function(args.f, phi, alg)
    if path.closed:
        if args.N < 8:
            raise ValueError(f"--N must be at least 8 for a closed loop, whose ladder is "
                             f"N/8, N/4, N/2, N; got {args.N}")
        report = closed_loop_check(f, phi, alg, path,
                                   ladder=(args.N // 8, args.N // 4, args.N // 2, args.N))
        ok = report.final_magnitude <= args.tol
        payload = {"command": "integrate", "ladder": report.segments,
                   "magnitudes": report.magnitudes, "orders": report.orders,
                   "converged_at_floor": report.converged_at_floor, "pass": bool(ok)}
        return _emit(args, payload,
                     f"loop magnitudes {['%.3e' % m for m in report.magnitudes]} "
                     f"({'PASS' if ok else 'FAIL'})")
    value = line_integral(f, phi, alg, path, segments=args.N)
    payload = {"command": "integrate", "value": np.asarray(value).tolist(), "pass": True}
    return _emit(args, payload, f"integral = {np.asarray(value).tolist()}")


def cmd_ode(args):
    alg = _load_algebra(args.algebra)
    phi = build_phi(args.phi)
    C = np.array(_floats(args.C)) if args.C else alg.unit.copy()
    lo, hi, count = _ode_grid(args.grid) if args.grid else (0.1, 0.6, 3)
    axis = np.linspace(lo, hi, count)
    grid = [np.array([x, y]) for x in axis for y in axis]
    zero, unit = alg.zero(), alg.unit
    if args.family == "square":
        K = phi_polynomial([zero, unit], phi, alg, name="phi")
        H = phi_polynomial([zero, zero, 0.5 * unit], phi, alg, name="phi^2/2")
        sol = solve_square_rhs(K, H, C, phi, alg)
    elif args.family == "phi-rhs":
        K = phi_polynomial([zero, unit], phi, alg, name="phi")
        sol = solve_phi_rhs(K, C, alg)
    elif args.family == "exp":
        sol = solve_exponential(phi, alg, C)
    elif args.family == "picard":
        # a SmoothMap has real values, so a complex-scalar algebra keeps the plain callable
        field = (SmoothMap(alg.dim, alg.dim, lambda w: w, name="w", broadcasts=True)
                 if alg.scalars == "real" else (lambda w: w))
        res = picard(field, phi, alg, C,
                     Path.segment([0.0] * phi.k, [hi] + [0.0] * (phi.k - 1), segments=128))
        # complex numbers as [re, im], the encoding of algebra files
        payload = {"command": "ode picard", "iterations": res.iterations,
                   "final": _encode(res.value_at_end(), alg.scalars),
                   "history": res.history, "pass": True}
        return _emit(args, payload, f"fixed point after {res.iterations} iterations; "
                                    f"w(end) = {res.value_at_end().tolist()}")
    else:
        raise KeyError(args.family)
    samples = sol.samples(grid)
    ok = samples.max_residual <= args.tol
    payload = {
        "command": f"ode {args.family}",
        "max_residual": samples.max_residual,
        "samples": [{"tau": t.tolist(), "w": _encode(w, alg.scalars)}
                    for t, w in zip(samples.taus, samples.values)],
        "pass": bool(ok),
    }
    return _emit(args, payload,
                 f"max residual {samples.max_residual:.3e} over {len(grid)} points "
                 f"({'PASS' if ok else 'FAIL'})")


def cmd_pde(args):
    rng = np.random.default_rng(args.seed)
    pts = [rng.uniform(-1.0, 1.0, 2) for _ in range(20)]
    if args.kind == "first-order":
        a, b, c, d = _floats(args.coeffs)
        pde = FirstOrderPDE(a=a, b=b, c=c, d=d)
        phi = first_order_phi(pde, args.alpha, args.beta)
        alg = algebra_a2_1(args.alpha, args.beta)
        fn = phi_polynomial([alg.zero(), alg.zero(), alg.unit], phi, alg)
        residual = pde.residual(fn, pts)
        ok = residual <= args.tol
        payload = {"command": "pde first-order",
                   "solution_params": {"phi_matrix": phi.matrix.tolist(),
                                       "alpha": args.alpha, "beta": args.beta},
                   "residual": residual,
                   "oracle_checks": {"fd_substitution_points": len(pts)},
                   "pass": bool(ok)}
        return _emit(args, payload, f"phi = {phi.matrix.tolist()}, residual {residual:.3e}")
    if args.kind == "system451":
        a1, a2, b1, b2 = _floats(args.params)
        c1, c2 = _floats(args.c) if args.c else (1.0, 0.0)
        sol = system_451_solutions(a1, a2, b1, b2, args.family, c1, c2)
        residual = sol.residual(a1, a2, b1, b2, pts)
        ok = residual <= args.tol
        payload = {"command": "pde system451",
                   "solution_params": {"family": args.family, "c": [c1, c2]},
                   "residual": residual,
                   "oracle_checks": {"fd_substitution_points": len(pts)},
                   "pass": bool(ok)}
        return _emit(args, payload, f"{args.family} family residual {residual:.3e}")
    if args.kind == "second-order":
        A, B, C, D, E = _floats(args.coeffs)
        p1, p2 = _floats(args.p) if args.p else (0.0, 0.0)
        pde = SecondOrderPDE(A=A, B=B, C=C, D=D, E=E, p1=p1, p2=p2)
        sol = second_order_solution(pde, args.alpha, args.beta)
        payload = {"command": "pde second-order",
                   "solution_params": {"a": sol.a, "b": sol.b,
                                       "amplitude": sol.amplitude, "branch": sol.branch},
                   "residual": sol.residual,
                   "oracle_checks": {"flagged_above_1e-4": sol.flagged},
                   "pass": not sol.flagged}
        return _emit(args, payload,
                     f"u = {sol.amplitude:.6g} exp({sol.a:.6g} x + {sol.b:.6g} y), "
                     f"residual {sol.residual:.3e}" + (" FLAGGED" if sol.flagged else ""))
    if args.kind == "heat":
        p = tuple(_floats(args.p))
        hp = HeatProblem(alpha=args.alpha, p=p, amplitude=args.amplitude)
        sol = heat_solution(hp)
        payload = {"command": "pde heat",
                   "solution_params": {"b": sol.b.tolist(), "delta": sol.delta,
                                       "branch": sol.branch, "amplitude": args.amplitude},
                   "residual": sol.residual,
                   "oracle_checks": {"diagnostic": sol.diagnostic,
                                     "flagged_above_1e-4": sol.flagged},
                   "pass": not sol.flagged}
        return _emit(args, payload,
                     f"exponents {sol.b.tolist()}, residual {sol.residual:.3e}, "
                     f"diagnostic {sol.diagnostic:.3e}" + (" FLAGGED" if sol.flagged else ""))
    raise KeyError(args.kind)


def cmd_paper_examples(args):
    start = time.perf_counter()
    rows = paper_examples.run_all(seed=args.seed)
    passed = all(r.passed for r in rows)
    return _emit(args, {"command": "paper-examples", "checks": [r.as_dict() for r in rows],
                        "pass": passed},
                 f"{paper_examples.format_table(rows)}\n(ran in {time.perf_counter() - start:.3f}s)")


# -- parser ---------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="phialg",
                                     description="calculus over commutative algebras")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="validate or build algebras")
    p.add_argument("action", choices=["verify", "build"])
    p.add_argument("--file", help="JSON algebra file (verify)")
    p.add_argument("--family", help="family name (build)")
    p.add_argument("--params", default="", help="comma-separated parameters (build)")
    p.add_argument("--out", help="output path (build)")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("cre", help="emit/recover/compare Cauchy-Riemann systems")
    p.add_argument("action", choices=["emit", "recover", "equiv"])
    p.add_argument("--algebra", help="algebra spec, e.g. C or A2_1:0,0")
    p.add_argument("--phi", help="reference-map name")
    p.add_argument("--file", help="system JSON (recover)")
    p.add_argument("--s1", help="first system JSON (equiv)")
    p.add_argument("--s2", help="second system JSON (equiv)")
    p.set_defaults(func=cmd_cre)

    p = sub.add_parser("algebrize", help="decide quadratic-field witnesses")
    p.add_argument("--vf", required=True, help="a0,..,a5,b0,..,b5")
    p.add_argument("--case", choices=["1", "2", "3"], help="restrict the family")
    p.set_defaults(func=cmd_algebrize)

    p = sub.add_parser("billiards", help="verify the triangular-billiards field")
    p.add_argument("--params", required=True, help="a,b,c")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_billiards)

    p = sub.add_parser("integrate", help="line integrals and loop checks")
    p.add_argument("--loop", required=True, help="circle:r=1[,cx=..,cy=..] or segment:x0=..,..")
    p.add_argument("--f", required=True, help="catalog function: phi, phi^2, phi^3, e/phi, unit")
    p.add_argument("--phi", required=True, help="reference-map name")
    p.add_argument("--algebra", required=True, help="algebra spec")
    p.add_argument("--N", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("ode", help="closed-form families and fixed-point iteration")
    p.add_argument("action", choices=["solve"])
    p.add_argument("--family", required=True, choices=["square", "phi-rhs", "exp", "picard"])
    p.add_argument("--algebra", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--C", help="constant element coefficients")
    p.add_argument("--grid", help="lo,hi,count (default 0.1,0.6,3)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("pde", help="closed-form PDE solution constructors")
    p.add_argument("kind", choices=["first-order", "system451", "second-order", "heat"])
    p.add_argument("--coeffs", help="PDE coefficients")
    p.add_argument("--params", help="a1,a2,b1,b2 (system451)")
    p.add_argument("--family", default="trig", choices=["trig", "hyperbolic"])
    p.add_argument("--c", help="c1,c2 (system451)")
    p.add_argument("--p", help="p parameters")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_pde)

    p = sub.add_parser("paper-examples", help="run the worked-example checklist")
    p.set_defaults(func=cmd_paper_examples)

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    """Run one ``phialg`` command line; returns the exit code.

    The parser is built once per process and reused by every call: each
    ``parse_args`` returns a fresh namespace, so calls share nothing through
    it.  Handlers may therefore read their ``args`` but must never mutate the
    parser or its defaults (``set_defaults``, ``add_argument``).
    """
    args = _parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float):
                _finite(value, f"--{name}")
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone away shows here, not at exit
        return code
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:
            # the flush at exit would fail again: send what is left to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL
    except (PhialgError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
