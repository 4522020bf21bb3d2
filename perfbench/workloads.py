"""Seeded job inputs, library calls and independent output checks.

Each workload is a deck of job specs: plain JSON-able dicts generated from the
seed alone, so the same seed gives byte-identical inputs.  A job has three
steps, kept apart so that only the library work is timed:

* ``call(spec, ctx)`` makes the calls into ``phialg`` and returns the result;
* ``check(spec, result)`` returns ``None`` or a one-line reason for failure.

Checks compare against the construction of the input (closed forms computed
here with plain numpy and structure constants written out below), never
against a second call into the code under test.  Library entry points are
looked up as module attributes at call time, so the span recorder in
``spans.py`` sees every call once it has patched those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import phialg
import phialg.catalog
import phialg.cli
import phialg.paper_examples

pa = phialg

# algebrize's defaults as the CLI uses them
SEARCH_BOX = (-10.0, 10.0)
SEARCH_STEP = 0.25
WITNESS_TOL = 1e-8
CHECK_TOL = 1e-8
KERNEL_TOL = 1e-10
# calls per pointwise job; see Pointwise
CLI_CALLS = 16
DIRECT_POINTS = 8


# -- independent algebra arithmetic ------------------------------------------------


def structure(case, params=()):
    """Structure constants c[i, j, k] (e_i e_j = sum_k c[i, j, k] e_k) and unit."""
    c = np.zeros((2, 2, 2))
    if case == "A2_1":
        alpha, beta = params
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
        c[1, 1] = [alpha, beta]
        return c, np.array([1.0, 0.0])
    if case == "A2_2":
        gamma, delta = params
        c[0, 0] = [gamma, delta]
        c[0, 1, 0] = c[1, 0, 0] = c[1, 1, 1] = 1.0
        return c, np.array([0.0, 1.0])
    if case == "A2_12":
        c[0, 0, 0] = c[1, 1, 1] = 1.0
        return c, np.array([1.0, 1.0])
    if case == "C":
        return structure("A2_1", (-1.0, 0.0))
    raise ValueError(f"unknown case {case!r}")


def product(c, a, b):
    return np.einsum("i,j,ijk->k", a, b, c)


def rep(c, a):
    """Matrix of multiplication by a."""
    return np.einsum("i,ikj->jk", a, c)


def taylor_exp(c, unit, a, terms=40):
    out = unit.astype(float).copy()
    term = unit.astype(float).copy()
    for n in range(1, terms):
        term = product(c, term, a) / n
        out = out + term
    return out


def cr_residual(c, phi_matrix, jf):
    """Normalized Cauchy-Riemann defect of a planar Jacobian jf for a linear phi."""
    eqs = rep(c, phi_matrix[:, 1]) @ jf[:, 0] - rep(c, phi_matrix[:, 0]) @ jf[:, 1]
    denom = 1.0 + float(np.linalg.norm(jf)) * float(np.linalg.norm(phi_matrix))
    return float(np.abs(eqs).max()) / denom


def vf_jacobian(coeffs, point):
    """Jacobian of the quadratic field with monomials 1, x, y, x^2, xy, y^2."""
    x, y = point
    dx = np.array([0.0, 1.0, 0.0, 2 * x, y, 0.0])
    dy = np.array([0.0, 0.0, 1.0, 0.0, x, 2 * y])
    rows = np.asarray(coeffs, dtype=float).reshape(2, 6)
    return np.stack([rows @ dx, rows @ dy], axis=1)


def phi_value(family_name, phi_map, u):
    """phi(u) for the catalog's reference maps, from their matrix or formula."""
    if family_name == "complex-nonlinear":
        x, y, z = u
        return np.array([x * x + z, 1.0 / y])
    return np.asarray(phi_map.matrix) @ np.asarray(u, dtype=float)


def as_complex(w):
    return complex(w[0], w[1])


def _floats(values):
    return [float(v) for v in np.ravel(values)]


def _arg(values):
    return ",".join(repr(float(v)) for v in values)


def _unit_vector(rng, k):
    v = rng.standard_normal(k)
    return v / np.linalg.norm(v)


# -- the deck -----------------------------------------------------------------------


class Workload:
    """A deck built from shuffled blocks that hold each kind a fixed number of times.

    Fixed proportions keep the job-time distribution the same from seed to
    seed; the seed moves only the order and the parameters.
    """

    name = ""
    block = {}
    blocks = 1
    _families = None

    def families(self):
        """The catalog's default families by name, built on first use."""
        if self._families is None:
            self._families = {f.name: f for f in phialg.catalog.default_families()}
        return self._families

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        deck = []
        for _ in range(self.blocks):
            kinds = [kind for kind, count in self.block.items() for _ in range(count)]
            rng.shuffle(kinds)
            for kind in kinds:
                spec = self.make(kind, rng)
                deck.append({"id": f"{self.name}-{len(deck):04d}", "kind": kind, **spec})
        return deck

    def make(self, kind, rng):
        return getattr(self, "make_" + kind.replace("-", "_"))(rng)

    def context(self, deck, workdir):
        """Set-up shared by every job: built once, before timing starts."""
        return {}

    def call(self, spec, ctx):
        raise NotImplementedError

    def check(self, spec, result):
        raise NotImplementedError


class Search(Workload):
    """algebrize on billiards, built-algebrizable and generic quadratic fields."""

    name = "search"
    block = {"billiards": 1, "built-A2_1": 1, "built-A2_2": 1, "built-A2_12": 1, "generic": 3}
    blocks = 12

    def make_billiards(self, rng):
        while True:
            a, b, c = rng.uniform(0.5, 2.0, 3)
            # closed-form witness parameters; keep them inside the search box
            alpha = -((b + c) ** 2) / (a + c) ** 2
            beta = -2.0 * (b + c) / (a + c) + 4.0 * a * b / (a + c) ** 2
            if max(abs(alpha), abs(beta)) < 0.95 * SEARCH_BOX[1]:
                break
        vf = [0.0, 0.0, 0.0, b, -(b + c), 0.0, 0.0, 0.0, 0.0, 0.0, -(a + c), a]
        return {"vf": _floats(vf), "abc": _floats([a, b, c]), "expect_witness": True,
                "check_seed": int(rng.integers(2**31))}

    def make_built_A2_1(self, rng):
        return self._built(rng, "A2_1")

    def make_built_A2_2(self, rng):
        return self._built(rng, "A2_2")

    def make_built_A2_12(self, rng):
        return self._built(rng, "A2_12")

    def _built(self, rng, case):
        """c1 phi + c2 phi^2 in a random member of the planar family, for a random linear phi."""
        params = _floats(rng.uniform(-3.0, 3.0, 2)) if case != "A2_12" else []
        c, _ = structure(case, params)
        while True:
            phi = rng.uniform(-2.0, 2.0, (2, 2))
            c1 = rng.uniform(-1.0, 1.0, 2)
            c2 = rng.uniform(-1.0, 1.0, 2)
            if abs(np.linalg.det(phi)) > 0.3 and abs(np.linalg.det(rep(c, c2))) > 0.05:
                break
        # w = phi u has w_i = phi[i, 0] x + phi[i, 1] y; expand over 1, x, y, x^2, xy, y^2
        lin = np.zeros((2, 6))
        lin[:, 1], lin[:, 2] = phi[:, 0], phi[:, 1]
        quad = np.zeros((2, 2, 6))
        quad[:, :, 3] = np.outer(phi[:, 0], phi[:, 0])
        quad[:, :, 4] = np.outer(phi[:, 0], phi[:, 1]) + np.outer(phi[:, 1], phi[:, 0])
        quad[:, :, 5] = np.outer(phi[:, 1], phi[:, 1])
        square = np.einsum("ijm,ijk->km", quad, c)
        coeffs = np.einsum("i,jm,ijk->km", c1, lin, c) + np.einsum("i,jm,ijk->km", c2, square, c)
        return {"vf": _floats(coeffs), "params": params,
                "phi": _floats(phi), "c1": _floats(c1), "c2": _floats(c2),
                "expect_witness": True, "check_seed": int(rng.integers(2**31))}

    def make_generic(self, rng):
        return {"vf": _floats(rng.uniform(-2.0, 2.0, 12)), "expect_witness": False,
                "check_seed": int(rng.integers(2**31))}

    def call(self, spec, ctx):
        vf = pa.QuadraticVF(a=tuple(spec["vf"][:6]), b=tuple(spec["vf"][6:]))
        return pa.algebrize(vf, box=SEARCH_BOX, step=SEARCH_STEP)

    def check(self, spec, witnesses):
        if spec["expect_witness"] and not witnesses:
            return "no witness for an algebrizable field"
        rng = np.random.default_rng(spec["check_seed"])
        points = rng.uniform(-3.0, 3.0, (8, 2))
        for w in witnesses:
            c, _ = structure(w.case, w.params)
            phi = np.asarray(w.phi.matrix, dtype=float)
            worst = max(cr_residual(c, phi, vf_jacobian(spec["vf"], u)) for u in points)
            if not worst <= WITNESS_TOL:
                return f"witness {w.case}{tuple(w.params)} has CR residual {worst:.2e}"
        return None


class Quadrature(Workload):
    """Loop ladders, segment integrals, Picard, separable solves and run_all."""

    name = "quadrature"
    block = {"loop": 3, "segment": 3, "picard": 2, "separable": 2, "run-all": 1}
    blocks = 60

    def _complex_family(self, rng):
        names = [n for n in self.families() if n.startswith("complex-")]
        return self.families()[names[int(rng.integers(len(names)))]]

    def make_loop(self, rng):
        fams = list(self.families().values())
        fam = fams[int(rng.integers(len(fams)))]
        names = sorted(fam.functions)
        center = fam.sample(rng)
        basis = np.linalg.qr(rng.standard_normal((fam.phi.k, 2)))[0].T
        return {"family": fam.name, "function": names[int(rng.integers(len(names)))],
                "center": _floats(center), "radius": float(rng.uniform(0.05, 0.25)),
                "basis": [_floats(b) for b in basis]}

    def make_segment(self, rng):
        fam = self._complex_family(rng)
        u0 = fam.sample(rng)
        u1 = u0 + rng.uniform(0.1, 0.5) * _unit_vector(rng, fam.phi.k)
        return {"family": fam.name, "power": int(rng.integers(4)), "u0": _floats(u0),
                "u1": _floats(u1), "N": int(rng.integers(128, 1025)) * 2}

    def _short_path(self, rng, fam, w0_scale, length):
        """A segment and a start value with |w0 (phi(u1) - phi(u0))| <= 0.5."""
        while True:
            u0 = fam.sample(rng)
            u1 = u0 + rng.uniform(*length) * _unit_vector(rng, fam.phi.k)
            w0 = rng.uniform(*w0_scale) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            dz = as_complex(phi_value(fam.name, fam.phi, u1)) - as_complex(phi_value(fam.name, fam.phi, u0))
            if abs(w0 * dz) <= 0.5:
                return u0, u1, w0

    def make_picard(self, rng):
        fam = self._complex_family(rng)
        u0, u1, w0 = self._short_path(rng, fam, (0.3, 1.0), (0.2, 0.5))
        return {"family": fam.name, "rhs": ["linear", "square"][int(rng.integers(2))],
                "u0": _floats(u0), "u1": _floats(u1), "w0": [w0.real, w0.imag],
                "segments": 128}

    def make_separable(self, rng):
        fam = self._complex_family(rng)
        while True:
            tau0, tau_end, w0 = self._short_path(rng, fam, (0.5, 1.5), (0.1, 0.3))
            z0 = as_complex(phi_value(fam.name, fam.phi, tau0))
            z1 = as_complex(phi_value(fam.name, fam.phi, tau_end))
            if abs(w0 * (z1 * z1 - z0 * z0) / 2.0) <= 0.5:
                break
        taus = [tau0 + s * (tau_end - tau0) for s in (1 / 3, 2 / 3, 1.0)]
        return {"family": fam.name, "L": ["linear", "square"][int(rng.integers(2))],
                "tau0": _floats(tau0), "taus": [_floats(t) for t in taus],
                "w0": [w0.real, w0.imag], "segments": 128}

    def make_run_all(self, rng):
        return {"seed": int(rng.integers(2**31))}

    def context(self, deck, workdir):
        return {"families": self.families()}

    def call(self, spec, ctx):
        kind = spec["kind"]
        if kind == "run-all":
            return pa.paper_examples.run_all(spec["seed"])
        fam = ctx["families"][spec["family"]]
        alg, phi = fam.algebra, fam.phi
        if kind == "loop":
            f = fam.functions[spec["function"]]
            if phi.k == 2:
                path = pa.Path.circle(center=tuple(spec["center"]), radius=spec["radius"])
            else:
                path = _circle_path(spec["center"], spec["radius"], spec["basis"])
            return pa.closed_loop_check(f, phi, alg, path)
        if kind == "segment":
            coeffs = [alg.zero()] * spec["power"] + [alg.unit]
            f = pa.phi_polynomial(coeffs, phi, alg)
            return pa.line_integral(f, phi, alg, pa.Path.segment(spec["u0"], spec["u1"]),
                                    segments=spec["N"])
        if kind == "picard":
            rhs = (lambda w: w) if spec["rhs"] == "linear" else (lambda w: alg.product(w, w))
            path = pa.Path.segment(spec["u0"], spec["u1"], segments=spec["segments"])
            return pa.picard(rhs, phi, alg, np.array(spec["w0"]), path)
        if kind == "separable":
            K = pa.phi_polynomial([alg.zero(), alg.unit], phi, alg)
            L = (lambda w: w) if spec["L"] == "linear" else (lambda w: alg.product(w, w))
            sol = pa.separable_solve(K, L, phi, alg, np.array(spec["w0"]), spec["tau0"],
                                     segments=spec["segments"])
            return sol.eval_path([np.array(t) for t in spec["taus"]])
        raise ValueError(f"unknown kind {kind!r}")

    def check(self, spec, result):
        kind = spec["kind"]
        if kind == "run-all":
            failed = [row.name for row in result if not row.passed]
            return f"rows failed: {failed}" if failed else None
        if kind == "loop":
            return None if result.passes(CHECK_TOL) else (
                f"loop magnitudes {result.magnitudes} orders {result.orders}")
        fam = self.families()[spec["family"]]

        def z(u):
            return as_complex(phi_value(fam.name, fam.phi, np.asarray(u)))

        if kind == "segment":
            m = spec["power"]
            expected = (z(spec["u1"]) ** (m + 1) - z(spec["u0"]) ** (m + 1)) / (m + 1)
            got = as_complex(result)
            return _compare(got, expected, "segment integral")
        w0 = as_complex(spec["w0"])
        if kind == "picard":
            dz = z(spec["u1"]) - z(spec["u0"])
            expected = w0 * np.exp(dz) if spec["rhs"] == "linear" else w0 / (1.0 - w0 * dz)
            return _compare(as_complex(result.value_at_end()), expected, "picard end value")
        if kind == "separable":
            if len(result) != len(spec["taus"]):
                return f"{len(result)} values for {len(spec['taus'])} points"
            z0 = z(spec["tau0"])
            for tau, got in zip(spec["taus"], result):
                # int_{tau0}^{tau} phi dphi = (z^2 - z0^2) / 2
                delta = (z(tau) ** 2 - z0 ** 2) / 2.0
                expected = w0 * np.exp(delta) if spec["L"] == "linear" else w0 / (1.0 - w0 * delta)
                err = _compare(as_complex(got), expected, f"separable value at {tau}")
                if err:
                    return err
            return None
        raise ValueError(f"unknown kind {kind!r}")


def _circle_path(center, radius, basis):
    center = np.asarray(center)
    e1, e2 = (np.asarray(b) for b in basis)

    def gamma(t):
        return center + radius * (np.cos(t) * e1 + np.sin(t) * e2)

    def velocity(t):
        return radius * (-np.sin(t) * e1 + np.cos(t) * e2)

    return pa.Path(gamma, 2.0 * np.pi, derivative=velocity, closed=True)


def _compare(got, expected, what):
    err = abs(got - expected)
    if not err <= CHECK_TOL * (1.0 + abs(expected)):
        return f"{what}: got {got}, closed form {expected} (error {err:.2e})"
    return None


# -- pointwise --------------------------------------------------------------------

PLANAR_ALGEBRAS = ("C", "A2_1", "A2_2", "A2_12")
PLANAR_MAPS = ("identity2", "swap", "swap-sum")


def _planar_algebra(rng):
    case = PLANAR_ALGEBRAS[int(rng.integers(len(PLANAR_ALGEBRAS)))]
    params = _floats(rng.uniform(-1.5, 1.5, 2)) if case in ("A2_1", "A2_2") else []
    spec = f"{case}:{_arg(params)}" if params else case
    return case, params, spec


def _poly_entries(block):
    """(4, 3) [const, x, y] coefficients as the JSON entries of one system row."""
    return [{"const": float(e[0]), "x": float(e[1]), "y": float(e[2])} for e in block]


class Pointwise(Workload):
    """Requests made of single-point CLI subcommands or direct kernel calls.

    A CLI job runs one subcommand on CLI_CALLS generated argument sets; a
    direct job visits every default family at DIRECT_POINTS points.  Single
    calls of 2-7 ms would put the 10-samples-beyond tail at p99.9, where
    it measures the host's preemption spikes rather than the library.
    """

    name = "pointwise"
    block = {"algebra-build": 1, "algebra-verify": 1, "cre-emit": 1, "cre-recover": 1,
             "cre-equiv": 1, "billiards": 1, "ode-square": 1, "ode-phi-rhs": 1,
             "ode-exp": 1, "pde-first-order": 1, "pde-system451": 1,
             "pde-second-order": 1, "pde-heat": 1, "direct": 2}
    blocks = 6

    def make(self, kind, rng):
        if kind == "direct":
            return {"groups": [self._direct(fam, rng) for fam in self.families().values()]}
        single = super().make
        return {"calls": [single(kind, rng) for _ in range(CLI_CALLS)]}

    @staticmethod
    def _cli(argv, files=None):
        return {"argv": ["--json", *argv], "files": files or {}}

    def make_algebra_build(self, rng):
        family = ["A3_1", "A2_1", "A2_2"][int(rng.integers(3))]
        params = rng.uniform(-1.0, 1.0, 6 if family == "A3_1" else 2)
        return self._cli(["algebra", "build", f"--family={family}", f"--params={_arg(params)}"])

    def make_algebra_verify(self, rng):
        case, params, _ = _planar_algebra(rng)
        c, unit = structure(case, params)
        data = {"dim": 2, "scalars": "real", "constants": c.tolist(), "unit": unit.tolist()}
        return self._cli(["algebra", "verify", "--file={work}/algebra.json"],
                         files={"algebra.json": data})

    def make_cre_emit(self, rng):
        choice = int(rng.integers(3))
        if choice == 0:
            _, _, spec = _planar_algebra(rng)
            phi = PLANAR_MAPS[int(rng.integers(len(PLANAR_MAPS)))]
        elif choice == 1:
            _, _, spec = _planar_algebra(rng)
            phi = ["fold-3to2", "nonlinear-3to2"][int(rng.integers(2))]
        else:
            spec = f"A3_1:{_arg(rng.uniform(-1.0, 1.0, 6))}"
            phi = ["embed-xy0", "embed-x0y", "embed-0xy", "identity3"][int(rng.integers(4))]
        return self._cli(["cre", "emit", f"--algebra={spec}", f"--phi={phi}"])

    def make_cre_recover(self, rng):
        """The A2_1(alpha, beta) system with quadratic potentials, random parameters."""
        alpha, beta = rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0)
        system = {"A": [
            [{"y": 1.0}, {"x": 1.0}, {"x": -alpha}, {"y": alpha}],
            [{"x": 1.0}, {"y": -1.0}, {"x": beta, "y": -1.0}, {"x": -1.0, "y": -beta}],
        ], "F": [0.0, 0.0]}
        return self._cli(["cre", "recover", "--file={work}/system.json"],
                         files={"system.json": system})

    def make_cre_equiv(self, rng):
        first = rng.uniform(-1.0, 1.0, (2, 4, 3))
        while True:
            mix = rng.uniform(-1.0, 1.0, (2, 2))
            if abs(np.linalg.det(mix)) > 0.3:
                break
        second = np.einsum("qr,ril->qil", mix, first)
        files = {f"s{i}.json": {"A": [_poly_entries(row) for row in system],
                                "F": [0.0, 0.0]}
                 for i, system in ((1, first), (2, second))}
        return self._cli(["cre", "equiv", "--s1={work}/s1.json", "--s2={work}/s2.json"],
                         files=files)

    def make_billiards(self, rng):
        return self._cli(["billiards", f"--params={_arg(rng.uniform(0.5, 2.0, 3))}"])

    def _ode(self, rng, family):
        case, params, spec = _planar_algebra(rng)
        _, unit = structure(case, params)
        constant = rng.uniform(2.0, 3.0) * unit + rng.uniform(-0.3, 0.3, 2)
        phi = PLANAR_MAPS[int(rng.integers(len(PLANAR_MAPS)))]
        return self._cli(["ode", "solve", f"--family={family}", f"--algebra={spec}",
                          f"--phi={phi}", f"--C={_arg(constant)}"])

    def make_ode_square(self, rng):
        return self._ode(rng, "square")

    def make_ode_phi_rhs(self, rng):
        return self._ode(rng, "phi-rhs")

    def make_ode_exp(self, rng):
        return self._ode(rng, "exp")

    def _pde(self, rng, argv):
        return self._cli([f"--seed={int(rng.integers(2**31))}", "pde", *argv])

    def make_pde_first_order(self, rng):
        while True:
            alpha, beta = rng.uniform(-1.0, 1.0, 2)
            if abs(alpha + beta - 1.0) > 0.2:
                break
        return self._pde(rng, ["first-order", f"--coeffs={_arg(rng.uniform(-2.0, 2.0, 4))}",
                               f"--alpha={_arg([alpha])}", f"--beta={_arg([beta])}"])

    def make_pde_system451(self, rng):
        params = np.concatenate([rng.uniform(0.5, 1.5, 2), rng.uniform(-1.0, 1.0, 2)])
        family = ["trig", "hyperbolic"][int(rng.integers(2))]
        return self._pde(rng, ["system451", f"--params={_arg(params)}", f"--family={family}",
                               f"--c={_arg(rng.uniform(-1.0, 1.0, 2))}"])

    def make_pde_second_order(self, rng):
        """A u_xx + 2B u_xy + C u_yy + D u_x + E u_y = 0 with a consistent (alpha, beta)."""
        while True:
            A, C = rng.uniform(0.5, 1.5, 2)
            B = rng.uniform(-0.5, 0.5)
            D, E = rng.uniform(-1.0, 1.0, 2)
            alpha = rng.uniform(0.5, 1.5)
            den = 2.0 * B * E - C * D
            if abs(den) < 0.2:
                continue
            beta = -alpha * A * E / den
            # exponents of the solution exp(a x + b y)
            a, b = den / (A * C), -A * E / (A * C)
            if abs(a) > 0.1 and max(abs(a), abs(b)) < 3.0:
                break
        return self._pde(rng, ["second-order", f"--coeffs={_arg([A, B, C, D, E])}",
                               f"--alpha={_arg([alpha])}", f"--beta={_arg([beta])}"])

    def make_pde_heat(self, rng):
        while True:
            alpha = rng.uniform(0.5, 1.5)
            p = rng.uniform(-1.0, 1.0, 6)
            p1, p2, p3, p4, p5, p6 = p
            matrix = np.array([[0.0, -p1, -p2, -p3], [p1, alpha, -p4, -p5],
                               [p2, p4, alpha, -p6], [p3, p5, p6, alpha]])
            if abs(np.linalg.det(matrix)) < 0.1:
                continue
            b = np.linalg.solve(matrix, [1.0, 0.0, 0.0, 0.0])
            if abs(b[0]) > 0.1 and np.abs(b).max() < 3.0:
                break
        return self._pde(rng, ["heat", f"--alpha={_arg([alpha])}", f"--p={_arg(p)}",
                               f"--amplitude={_arg([rng.uniform(0.5, 2.0)])}"])

    @staticmethod
    def _direct(fam, rng):
        """phi_derivative, cre_residual, inverse and exp inputs at points of one family."""
        points = [fam.sample(rng) for _ in range(DIRECT_POINTS)]
        scales = rng.uniform(0.5, 2.0, DIRECT_POINTS)
        elements = [s * (fam.algebra.unit + 0.3 * rng.uniform(-1.0, 1.0, fam.algebra.dim))
                    for s in scales]
        return {"family": fam.name, "points": [_floats(u) for u in points],
                "elements": [_floats(a) for a in elements]}

    def context(self, deck, workdir):
        """Write every CLI input file under workdir/<job id>/<call index>/."""
        workdir = Path(workdir)
        for spec in deck:
            for i, cli_call in enumerate(spec.get("calls", ())):
                call_dir = workdir / spec["id"] / str(i)
                for name, data in cli_call["files"].items():
                    call_dir.mkdir(parents=True, exist_ok=True)
                    (call_dir / name).write_text(json.dumps(data, sort_keys=True))
        return {"families": self.families(), "workdir": workdir}

    def call(self, spec, ctx):
        if spec["kind"] == "direct":
            return [self._call_direct(ctx["families"][group["family"]], group)
                    for group in spec["groups"]]
        return [self._call_cli(cli_call["argv"], ctx["workdir"] / spec["id"] / str(i))
                for i, cli_call in enumerate(spec["calls"])]

    @staticmethod
    def _call_direct(fam, group):
        alg, phi = fam.algebra, fam.phi
        out = []
        for u, a in zip(group["points"], group["elements"]):
            u, a = np.array(u), np.array(a)
            out.append({
                "derivative": pa.phi_derivative(fam.functions["phi^2"], phi, alg, u),
                "cre": [pa.cre_residual(f, phi, alg, u) for f in fam.functions.values()],
                "inverse": alg.inverse(a),
                "exp": alg.exp(a),
            })
        return out

    @staticmethod
    def _call_cli(argv, work):
        argv = [arg.replace("{work}", str(work)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pa.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, spec, result):
        parts = spec["groups"] if spec["kind"] == "direct" else spec["calls"]
        if len(result) != len(parts):
            return f"{len(result)} results for {len(parts)} calls"
        check = self._check_direct if spec["kind"] == "direct" else self._check_cli
        for i, (part, res) in enumerate(zip(parts, result)):
            reason = check(part, res)
            if reason:
                return f"call {i}: {reason}"
        return None

    @staticmethod
    def _check_cli(cli_call, result):
        if result["code"] != 0:
            last = (result["stderr"].strip().splitlines() or [""])[-1]
            return f"exit code {result['code']}: {last[:200]}"
        try:
            payload = json.loads(result["stdout"])
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if payload.get("pass") is not True:
            return "payload does not report pass: true"
        return None

    def _check_direct(self, group, results):
        fam = self.families()[group["family"]]
        c, unit = fam.algebra.constants, fam.algebra.unit
        for u, a, res in zip(group["points"], group["elements"], results):
            a = np.array(a)
            deriv = res["derivative"]
            if not deriv.residual <= CHECK_TOL:
                return f"phi_derivative residual {deriv.residual:.2e} at {u}"
            if deriv.unique:
                # (phi^2)' = 2 phi
                expected = 2.0 * phi_value(fam.name, fam.phi, u)
                if not np.abs(deriv.derivative - expected).max() <= CHECK_TOL * (1 + np.abs(expected).max()):
                    return f"phi_derivative of phi^2 is {deriv.derivative}, expected {expected}"
            if not max(res["cre"]) <= CHECK_TOL:
                return f"cre_residual {max(res['cre']):.2e} at {u}"
            if not np.abs(product(c, a, res["inverse"]) - unit).max() <= KERNEL_TOL:
                return f"a * inverse(a) != unit for a = {a}"
            expected = taylor_exp(c, unit, a)
            if not np.abs(res["exp"] - expected).max() <= KERNEL_TOL * (1 + np.abs(expected).max()):
                return f"exp({a}) = {res['exp']}, series gives {expected}"
        return None


WORKLOADS = {w.name: w for w in (Search, Quadrature, Pointwise)}


def workload(name):
    return WORKLOADS[name]()


def kinds(deck):
    """First spec of each kind, in deck order: the warm-up set."""
    seen = {}
    for spec in deck:
        seen.setdefault(spec["kind"], spec)
    return list(seen.values())
