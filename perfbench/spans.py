"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public functions named in ``TRACED``.  Because
``from .x import y`` copies bindings, one function object can sit under
several names (``cre_residual`` lives in ``calculus``, ``quadratic``,
``paper_examples`` and the package itself), so every attribute of every
``phialg`` module or class that holds the function object is patched, found
by identity.  Spans are kept in flat arrays in memory and written out when the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# span name -> (module, attribute path); the layer is the part before the first dot
TRACED = {
    "algebra.Algebra.init": ("phialg.algebra", "Algebra.__init__"),
    "algebra.product": ("phialg.algebra", "Algebra.product"),
    "algebra.rep": ("phialg.algebra", "Algebra.rep"),
    "algebra.inverse": ("phialg.algebra", "Algebra.inverse"),
    "algebra.exp": ("phialg.algebra", "Algebra.exp"),
    "maps.SmoothMap.call": ("phialg.maps", "SmoothMap.__call__"),
    "maps.SmoothMap.jacobian": ("phialg.maps", "SmoothMap.jacobian"),
    "maps.fd_jacobian": ("phialg.maps", "fd_jacobian"),
    "calculus.phi_derivative": ("phialg.calculus", "phi_derivative"),
    "calculus.cre_residual": ("phialg.calculus", "cre_residual"),
    "cre.emit_cre": ("phialg.cre", "emit_cre"),
    "cre.recover_phi_algebra": ("phialg.cre", "recover_phi_algebra"),
    "cre.find_equivalence_matrix": ("phialg.cre", "find_equivalence_matrix"),
    "quadratic.algebrize": ("phialg.quadratic", "algebrize"),
    "quadratic.build_M6": ("phialg.quadratic", "build_M6"),
    "quadratic.phi_from_v": ("phialg.quadratic", "phi_from_v"),
    "quadratic.verify_billiards_algebrization": ("phialg.quadratic", "verify_billiards_algebrization"),
    "integrals.line_integral": ("phialg.integrals", "line_integral"),
    "integrals.closed_loop_check": ("phialg.integrals", "closed_loop_check"),
    "odes.picard": ("phialg.odes", "picard"),
    "odes.SeparableSolution.solve_at": ("phialg.odes", "SeparableSolution.solve_at"),
    "odes.solution_residual": ("phialg.odes", "solution_residual"),
    "pdes.pde_residual": ("phialg.pdes", "pde_residual"),
    "pdes.fd_partial": ("phialg.pdes", "fd_partial"),
    "cli.main": ("phialg.cli", "main"),
    "paper_examples.run_all": ("phialg.paper_examples", "run_all"),
}
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in TRACED))
JOB = "job"
NAMES = (JOB, *TRACED)


def _nodes(line_integral):
    """Quadrature nodes of one line_integral call, read from its arguments."""
    signature = inspect.signature(line_integral)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        n = bound.get("segments")
        n = int(bound["path"].segments if n is None else n)
        return n + 1 + n % 2

    return count


# span name -> (original -> function of (args, kwargs, result) giving the span's count)
COUNTS = {
    "integrals.line_integral": _nodes,
    "quadratic.algebrize": lambda fn: lambda args, kwargs, result: len(result),
    "odes.picard": lambda fn: lambda args, kwargs, result: result.iterations,
}


def resolve(module, path):
    """The raw function object at ``module.path`` (methods from the class dict)."""
    owner = sys.modules[module]
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[last]


class Recorder:
    """Spans in flat arrays: name index, start, end, parent span, job id, count, raised."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.count = array("d")
        self.raised = array("b")
        self._stack = []
        self._job = -1
        self._patched = []

    def __len__(self):
        return len(self.name)

    def _open(self, index):
        sid = len(self.name)
        self.name.append(index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.count.append(0.0)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as job ``job_id`` under a root span named ``job``."""
        self._job = job_id
        sid = self._open(0)
        try:
            return fn(*args)
        except BaseException:
            self.raised[sid] = 1
            raise
        finally:
            self._close(sid)
            self._job = -1

    def wrap(self, index, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec._open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.raised[sid] = 1
                raise
            finally:
                rec._close(sid)
            if count is not None:
                rec.count[sid] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self, package="phialg"):
        """Patch every binding of every traced function in the package's modules."""
        owners = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == package or name.startswith(package + "."))]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith(package)]
        for index, (name, (module, path)) in enumerate(TRACED.items(), start=1):
            original = resolve(module, path)
            count = COUNTS[name](original) if name in COUNTS else None
            wrapper = self.wrap(index, original, count)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.array(NAMES), name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 count=np.frombuffer(self.count), raised=np.frombuffer(self.raised, dtype=np.int8))


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children = {}
    for sid, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def layer_metrics(rec, jobs):
    """Per-layer metrics normalized per job, from the spans of ``jobs`` traced jobs.

    Jobs run one after another, so each job's spans are a contiguous slice
    that starts at its root span; slices are reduced one at a time.
    """
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    total = dict.fromkeys(TRACED, 0.0)
    inclusive = dict.fromkeys(TRACED, 0.0)
    under_solve = 0
    roots = [sid for sid, p in enumerate(rec.parent) if p < 0] + [len(rec)]
    for lo, hi in zip(roots, roots[1:]):
        names = [NAMES[i] for i in rec.name[lo:hi]]
        parent = [p - lo for p in rec.parent[lo:hi]]
        own = self_times(rec.start[lo:hi], rec.end[lo:hi], parent)
        for sid, name in enumerate(names):
            if name == JOB:
                continue
            g = lo + sid
            calls[name] += 1
            self_s[name] += own[sid]
            total[name] += rec.count[g]
            inclusive[name] += rec.end[g] - rec.start[g]
            errors[name.split(".")[0]] += rec.raised[g]
            if name == "integrals.line_integral" and _has_ancestor(
                    parent, names, sid, "odes.SeparableSolution.solve_at"):
                under_solve += 1

    per_job = 1.0 / max(jobs, 1)
    out = {}
    for name in TRACED:
        out[f"{name}.calls_per_job"] = (calls[name] * per_job, "count")
        out[f"{name}.self_ms_per_job"] = (self_s[name] * 1e3 * per_job, "ms")
    for layer in LAYERS:
        out[f"{layer}.errors_per_job"] = (errors[layer] * per_job, "count")
    out["quadratic.certify_accept_ratio"] = (
        _ratio(total["quadratic.algebrize"], calls["quadratic.phi_from_v"]), "ratio")
    nodes = total["integrals.line_integral"]
    out["integrals.nodes_per_job"] = (nodes * per_job, "count")
    out["integrals.us_per_node"] = (_ratio(inclusive["integrals.line_integral"] * 1e6, nodes), "us")
    out["odes.picard.iterations_per_call"] = (_ratio(total["odes.picard"], calls["odes.picard"]), "count")
    out["odes.separable.line_integrals_per_solve"] = (
        _ratio(under_solve, calls["odes.SeparableSolution.solve_at"]), "count")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _has_ancestor(parent, names, sid, target):
    p = parent[sid]
    while p >= 0:
        if names[p] == target:
            return True
        p = parent[p]
    return False
