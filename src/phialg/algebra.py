"""Finite-dimensional commutative, associative, unital algebras over R or C.

An algebra is R^n (or C^n) together with a bilinear product encoded by a
structure tensor ``c[i, j, k]``: the basis products are
``e_i e_j = sum_k c[i, j, k] e_k``.  Elements are plain length-n vectors.
Every algebra carries its regular representation: ``rep(a)`` is the matrix
of multiplication by ``a``, which turns products, inverses and exponentials
into ordinary linear algebra.  ``product``, ``rep`` and ``inverse`` also take
stacks of elements, shape (..., n), and give for each element exactly the
bits of the single-element call.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AssociativityViolation,
    DegenerateParameters,
    DimensionMismatch,
    NotAssociative,
    NotCommutative,
    NoUnit,
    SingularElement,
)

ASSOC_TOL = 1e-12
SINGULAR_RTOL = 1e-12
INVERSE_RTOL = 1e-10
# the factor by which a proven smin/smax must clear SINGULAR_RTOL to skip the SVD
INVERSE_MARGIN = 1e3


def _clears_margin(r):
    """Where the (..., n, n) matrices r provably have smin/smax >= INVERSE_MARGIN * SINGULAR_RTOL.

    With t = r / max|r_ij|, every |t_ij| <= 1, so smax(t) <= ||t||_F <= n,
    and |det t| = s_1 ... s_n <= smin * smax^(n-1).  Hence
    smin/smax >= |det t| / smax^n >= |det t| / n^n, a bound that needs no
    SVD and holds for any matrix, whether or not the algebra was validated.
    The division by the largest entry keeps det from overflowing or
    underflowing.  Its rounding, and that of the LU factorization behind
    ``det``, perturb t by O(n^2 eps) in norm, 1e5 times below the margin.  A
    zero matrix gives 0/0 and a non-finite one nan entries; both fail.  The
    caller silences numpy's floating-point errors around the call.
    """
    n = r.shape[-1]
    t = r / np.abs(r).max(axis=(-2, -1), keepdims=True)
    return np.abs(np.linalg.det(t)) >= n ** n * INVERSE_MARGIN * SINGULAR_RTOL


def _regular(s):
    """Where the singular values s (..., n), largest first, pass the rule of
    ``inverse``: smax != 0 and smin >= SINGULAR_RTOL * smax.  A nan fails."""
    return (s[..., 0] != 0.0) & (s[..., -1] >= SINGULAR_RTOL * s[..., 0])


def rep_from_rows(rows, a):
    """rep(a) = a @ rows for (..., n) elements a and the (n, n*n) rows of the basis reps.

    One (1, n) @ (n, n*n) product per element, the same arithmetic for a
    single element and for each element of a stack.
    """
    a = np.asarray(a)
    n = rows.shape[0]
    return (a[..., None, :] @ rows)[..., 0, :].reshape(a.shape[:-1] + (n, n))


class Algebra:
    """Commutative unital algebra defined by its structure constants.

    Instances are immutable and all operations are pure, so a single
    algebra value can be shared freely across threads.

    Parameters
    ----------
    constants : (n, n, n) array
        ``constants[i, j, k]`` is the e_k coefficient of ``e_i e_j``.
    unit : (n,) array
        Coefficients of the unit element.
    scalars : {"real", "complex"}
        Scalar field tag; complex constants/elements require "complex".
    name : str
        Optional display name.
    check : bool
        Validate commutativity, the unit, and associativity on
        construction (raising NotCommutative / NoUnit / NotAssociative).
        Non-finite constants or unit raise DegenerateParameters either way.
    """

    def __init__(self, constants, unit, scalars="real", name="", check=True):
        if scalars not in ("real", "complex"):
            raise ValueError(f"unknown scalar field {scalars!r}")
        dtype = complex if scalars == "complex" else float
        constants = np.array(constants, dtype=dtype)
        unit = np.array(unit, dtype=dtype)
        if constants.ndim != 3 or len(set(constants.shape)) != 1:
            raise DimensionMismatch(f"constants must be (n, n, n), got {constants.shape}")
        n = constants.shape[0]
        if unit.shape != (n,):
            raise DimensionMismatch(f"unit must have length {n}, got {unit.shape}")
        if not (np.isfinite(constants).all() and np.isfinite(unit).all()):
            raise DegenerateParameters("structure constants and unit must be finite")
        self.dim = n
        self.scalars = scalars
        self.name = name
        self.constants = constants
        self.unit = unit
        # basis representation matrices: rep_basis[i][j, k] = c[i, k, j]
        self.rep_basis = np.swapaxes(constants, 1, 2).copy()
        for arr in (self.constants, self.unit, self.rep_basis):
            arr.setflags(write=False)
        self._rep_rows = self.rep_basis.reshape(n, n * n)
        if check:
            self._validate()

    # -- construction-time axioms -------------------------------------------

    def _validate(self):
        c = self.constants
        scale = max(1.0, float(np.max(np.abs(c)))) if c.size else 1.0
        comm = np.abs(c - np.swapaxes(c, 0, 1))
        # "not dev <= tol" so that a nan defect (inf - inf) fails too
        if comm.size and not comm.max() <= ASSOC_TOL * scale:
            i, j, k = np.unravel_index(np.argmax(comm), comm.shape)
            raise NotCommutative((int(i), int(j), int(k)), float(comm.max()))
        rep_unit = self.rep(self.unit)
        unit_dev = np.abs(rep_unit - np.eye(self.dim))
        if not unit_dev.max() <= ASSOC_TOL * max(1.0, float(np.max(np.abs(self.unit)))):
            k = int(np.argmax(unit_dev.sum(axis=0)))
            raise NoUnit(k, float(unit_dev.max()))
        dev, triple = self.associativity_defect()
        if not dev <= ASSOC_TOL * scale * scale:
            raise NotAssociative(triple, dev)

    def associativity_defect(self):
        """Worst deviation of (e_i e_j) e_k from e_i (e_j e_k) over basis triples."""
        c = self.constants
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a nan defect
            left = np.einsum("ijm,mkq->ijkq", c, c)
            right = np.einsum("jkm,imq->ijkq", c, c)
            diff = np.abs(left - right)
        if diff.size == 0:
            return 0.0, (0, 0, 0)
        flat = np.unravel_index(np.argmax(diff), diff.shape)
        return float(diff.max()), tuple(int(x) for x in flat[:3])

    # -- element arithmetic --------------------------------------------------

    def element(self, coeffs):
        """Coerce a sequence into a coefficient vector of the right length."""
        a = np.asarray(coeffs, dtype=complex if self.scalars == "complex" else float)
        if a.shape != (self.dim,):
            raise DimensionMismatch(f"expected length-{self.dim} vector, got shape {a.shape}")
        return a

    def zero(self):
        return np.zeros(self.dim, dtype=self.unit.dtype)

    def product(self, a, b):
        return np.einsum("...i,...j,ijk->...k", np.asarray(a), np.asarray(b), self.constants)

    def rep(self, a):
        """First fundamental representation: the matrix of multiplication by ``a``."""
        return rep_from_rows(self._rep_rows, a)

    def is_regular(self, a):
        """Whether ``inverse`` accepts a: False, with no warning, when rep(a) is not finite."""
        with np.errstate(all="ignore"):
            r = self.rep(a)
        return bool(np.isfinite(r).all() and _regular(np.linalg.svd(r, compute_uv=False)))

    def inverse(self, a):
        """The element b with a b = e; raises SingularElement on the singular set.

        The rule: a is singular when the singular values of rep(a) have
        smax = 0 or smin < SINGULAR_RTOL * smax.  The answer is always
        ``np.linalg.solve(rep(a), e)``, one batched solve for a stack.

        The SVD that decides the rule runs only on the elements that
        ``_clears_margin`` cannot vouch for: those without a proven
        smin/smax >= INVERSE_MARGIN * SINGULAR_RTOL.  An element that clears
        the margin passes the rule: its true ratio is at least 1e-9 less a
        rounding error of order 1e-14, and the computed singular values are
        off by at most a few ulps of smax, so the computed ratio is far above
        1e-12.  The decision is therefore the SVD's own.

        For a stack, the doubtful elements get one batched SVD.  When any of
        them is singular or not finite, the stack is inverted one element at
        a time instead, so the first such element raises what it raises alone.
        An element that is not finite raises SingularElement before rep or
        any SVD, which would not converge on it.  So does a finite element
        whose rep overflows: its entries pass the largest float, and rep is
        computed with numpy's overflow warning silenced.
        """
        a = np.asarray(a)
        if not np.isfinite(a).all():
            if a.ndim == 1:
                raise SingularElement(f"element {a} is not finite")
            return self._inverse_each(a)
        with np.errstate(all="ignore"):
            r = self.rep(a)
            doubtful = r[~_clears_margin(r)]  # (count, n, n), also for one element
        if len(doubtful):
            if a.ndim == 1:
                if not np.isfinite(r).all():
                    raise SingularElement(f"element {a} has a representation that overflows")
                s = np.linalg.svd(r, compute_uv=False)
                if not _regular(s):
                    raise SingularElement(f"element {a} is singular (smin/smax={s[-1]:.2e}/{s[0]:.2e})")
            elif not (np.isfinite(doubtful).all()
                      and _regular(np.linalg.svd(doubtful, compute_uv=False)).all()):
                return self._inverse_each(a)
        return np.linalg.solve(r, self.unit)

    def _inverse_each(self, a):
        return np.stack([self.inverse(x) for x in a.reshape(-1, self.dim)]).reshape(a.shape)

    def power(self, a, m):
        if m < 0 or int(m) != m:
            raise ValueError("power expects a nonnegative integer exponent")
        out = self.unit.copy()
        for _ in range(int(m)):
            out = self.product(out, a)
        return out

    def exp(self, a):
        """Algebra exponential via the representation matrix, of one element or a stack.

        rep is an injective homomorphism, so expm(rep(a)) = rep(exp a) and the
        coefficients of exp(a) are recovered exactly by applying it to the unit.
        A stack of elements takes one ``expm`` call on the stacked reps; scipy
        loops over the slices, so each element keeps the bits it has alone.
        scipy is imported here, on the first call, rather than with the
        package: it is most of the cost of ``import phialg`` and nothing else
        uses it.
        """
        from scipy.linalg import expm

        return expm(self.rep(a)) @ self.unit

    def random_element(self, rng, scale=1.0):
        x = rng.standard_normal(self.dim) * scale
        if self.scalars == "complex":
            x = x + 1j * rng.standard_normal(self.dim) * scale
        return x

    def random_regular(self, rng, scale=1.0, max_tries=100):
        for _ in range(max_tries):
            x = self.random_element(rng, scale)
            if self.is_regular(x):
                return x
        raise SingularElement("could not draw a regular element")

    def norm(self, a):
        return float(np.linalg.norm(a))

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        return {
            "dim": self.dim,
            "scalars": self.scalars,
            "constants": _encode(self.constants, self.scalars),
            "unit": _encode(self.unit, self.scalars),
        }

    @classmethod
    def from_dict(cls, data, check=True):
        if not isinstance(data, dict):
            raise DimensionMismatch(f"an algebra is a JSON object, got {type(data).__name__}")
        scalars = data["scalars"]
        return cls(
            _decode(data["constants"], scalars),
            _decode(data["unit"], scalars),
            scalars=scalars,
            name=data.get("name", ""),
            check=check,
        )

    def __repr__(self):
        label = self.name or f"dim-{self.dim}"
        return f"Algebra({label}, scalars={self.scalars})"


def _encode(arr, scalars):
    if scalars == "complex":
        stacked = np.stack([arr.real, arr.imag], axis=-1)
        return stacked.tolist()
    return np.asarray(arr, dtype=float).tolist()


def _decode(data, scalars):
    try:
        arr = np.asarray(data, dtype=float)
    except TypeError as exc:  # an object or a null where a number belongs
        raise DimensionMismatch(f"expected an array of numbers, got {data!r}") from exc
    if scalars == "complex":
        if arr.shape[-1:] != (2,):
            raise DimensionMismatch(f"complex entries are [re, im] pairs, got shape {arr.shape}")
        return arr[..., 0] + 1j * arr[..., 1]
    return arr


# -- the concrete families used throughout -----------------------------------


def algebra_a2_1(alpha, beta, scalars="real"):
    """Two-dimensional algebra with e1 the unit and e2*e2 = alpha*e1 + beta*e2."""
    c = np.zeros((2, 2, 2), dtype=complex if scalars == "complex" else float)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 1.0
    c[1, 1, 0] = alpha
    c[1, 1, 1] = beta
    return Algebra(c, [1.0, 0.0], scalars=scalars, name=f"A2_1({alpha},{beta})")


def algebra_a2_2(gamma, delta, scalars="real"):
    """Two-dimensional algebra with e2 the unit and e1*e1 = gamma*e1 + delta*e2."""
    c = np.zeros((2, 2, 2), dtype=complex if scalars == "complex" else float)
    c[0, 0, 0] = gamma
    c[0, 0, 1] = delta
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = 1.0
    c[1, 1, 1] = 1.0
    return Algebra(c, [0.0, 1.0], scalars=scalars, name=f"A2_2({gamma},{delta})")


def algebra_a2_12():
    """R^2 with the componentwise product; the unit is (1, 1)."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[1, 1, 1] = 1.0
    return Algebra(c, [1.0, 1.0], name="A2_12")


def complex_algebra():
    """The complex numbers presented on R^2 (i*i = -1)."""
    alg = algebra_a2_1(-1.0, 0.0)
    alg.name = "C"
    return alg


def a3_1_dependent_params(p):
    """The (p7, p8, p9) forced by associativity for the three-dimensional family.

    These are the unique values making the multiplication table associative
    (solving the basis-triple equations symbolically gives exactly this
    assignment and no other).
    """
    p1, p2, p3, p4, p5, p6 = p
    p7 = p2 * p3 + p4 * p4 - p1 * p4 - p2 * p6
    p8 = p2 * p5 - p3 * p4
    p9 = p3 * p3 + p4 * p5 - p1 * p5 - p3 * p6
    return p7, p8, p9


def algebra_a3_1(p):
    """Three-dimensional algebra with unit e1 from six free parameters.

    The products of e2 and e3 are
        e2 e2 = p7 e1 + p1 e2 + p2 e3
        e2 e3 = p8 e1 + p3 e2 + p4 e3
        e3 e3 = p9 e1 + p5 e2 + p6 e3
    with (p7, p8, p9) computed from (p1..p6) so that the product is
    associative.  A failed associativity check here signals a bug, not bad
    input, hence the dedicated error type.
    """
    p = tuple(float(x) for x in p)
    if len(p) != 6:
        raise ValueError("expected six parameters p1..p6")
    p1, p2, p3, p4, p5, p6 = p
    p7, p8, p9 = a3_1_dependent_params(p)
    c = np.zeros((3, 3, 3))
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[0, 2, 2] = c[2, 0, 2] = 1.0
    c[1, 1] = [p7, p1, p2]
    c[1, 2] = [p8, p3, p4]
    c[2, 1] = [p8, p3, p4]
    c[2, 2] = [p9, p5, p6]
    try:
        return Algebra(c, [1.0, 0.0, 0.0], name=f"A3_1{p}")
    except NotAssociative as exc:
        raise AssociativityViolation(str(exc)) from exc
