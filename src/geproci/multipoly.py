"""Homogeneous forms over a pluggable scalar ring, exact kernels,
and coprimality certification via resultants.

Scalars are either :class:`FieldElement` (a finite field F_q) or
:class:`MultiPoly` (the polynomial ring F_q[a,b,c] of generic-point mode).
One evaluator, :func:`evaluation_row`, gives the values of a list of
monomials at a point; the value of a form, its derivative along a
direction and every condition row are read from it.  Over a finite field
it multiplies field reps and wraps each value once.
:func:`restrict_to_line` substitutes the line's linear forms instead: it
expands each power (A_i·u + B_i·s)^e by the binomial theorem, dropping the
binomials that vanish mod p, and adds each of the form's scalars into one
sum per coefficient of the binary result, all on field reps.
:func:`condition_matrix` builds the condition matrix of
(point, direction-or-None) entries: a point imposes its value, and a
direction the derivative along it.  Finite-field matrices, condition
matrices and Sylvester matrices alike, go through
:func:`geproci.fields.row_reduce`.  Condition matrices over F_q[a,b,c] go
through fraction-free (Bareiss) forward elimination, and their kernel
vectors come from an exact Cramer back-substitution, so every entry is a
minor of the matrix and no polynomial gcd is ever taken.  A kernel form is
defined up to a unit of F_q(a,b,c); only its leading F_q coefficient is
normalized.
"""
from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .fields import (
    FieldElement,
    FieldTower,
    MultiPoly,
    PrimeField,
    extend_field,
    row_reduce,
)

VAR_NAMES = ("x", "y", "z", "w")


class PolyError(Exception):
    pass


class DimensionMismatch(PolyError):
    pass


class DependentDirection(PolyError):
    pass


class ZeroInput(PolyError):
    pass


# ---------------------------------------------------------------------------
# scalar rings

class ScalarRing:
    """Scalars of a finite field F, or of the polynomial ring F[names].

    ``ScalarRing(F)`` has :class:`FieldElement` scalars;
    ``ScalarRing(F, names=("a", "b", "c"))`` has :class:`MultiPoly` ones.
    """

    def __init__(self, field, names: tuple = ()):
        if not isinstance(field, (PrimeField, FieldTower)):
            raise TypeError(f"ScalarRing needs a finite field, not {type(field).__name__}")
        self.field = field
        self.names = tuple(names)
        self.finite = not self.names

    def zero(self):
        if self.finite:
            return self.field.zero()
        return MultiPoly.zero(self.field, self.names)

    def one(self):
        if self.finite:
            return self.field.one()
        return MultiPoly.const(self.field, self.names, 1)

    def const(self, v):
        if self.finite:
            return self.field.element(v)
        return MultiPoly.const(self.field, self.names, v)

    def gens(self) -> tuple:
        return tuple(MultiPoly.var(self.field, self.names, n) for n in self.names)

    def coerce_point_coords(self, point) -> list:
        """Coordinates of a ProjectivePoint as scalars of this ring."""
        coords = point.coords if hasattr(point, "coords") else list(point)
        lift = (int,) if self.finite else (int, FieldElement)
        return [self.const(c) if isinstance(c, lift) else c for c in coords]

    def distinct_scalars(self, n: int) -> list:
        """n pairwise distinct field elements, deterministic canonical order."""
        F = self.field
        if F.size >= n:
            return [F.from_index(i) for i in range(n)]
        m = 2
        while F.size ** m < n:
            m += 1
        E = extend_field(F, m)
        return [E.from_index(i) for i in range(n)]

    def __eq__(self, other):
        return (
            isinstance(other, ScalarRing)
            and self.field == other.field
            and self.names == other.names
        )


def scalar_is_zero(x) -> bool:
    return x.is_zero()


# ---------------------------------------------------------------------------
# monomials

def monomials(nvars: int, degree: int) -> list:
    """Exponent vectors of total degree `degree`, graded-lex, x > y > z > w."""
    out = []

    def rec(i, rem, acc):
        if i == nvars - 1:
            out.append(tuple(acc + [rem]))
            return
        for e in range(rem, -1, -1):
            rec(i + 1, rem - e, acc + [e])

    rec(0, degree, [])
    return out


def monomial_count(nvars: int, degree: int) -> int:
    return math.comb(degree + nvars - 1, nvars - 1)


class HomogeneousForm:
    """Sparse homogeneous polynomial; zero coefficients are never stored."""

    def __init__(self, ring: ScalarRing, nvars: int, degree: int, coeffs: dict):
        clean = {}
        for exps, c in coeffs.items():
            if len(exps) != nvars:
                raise DimensionMismatch("exponent arity mismatch")
            if sum(exps) != degree:
                raise PolyError(f"term {exps} does not have degree {degree}")
            if not scalar_is_zero(c):
                clean[exps] = c
        self.ring = ring
        self.nvars = nvars
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def from_coeff_vector(cls, ring, nvars, degree, vec, monos=None):
        monos = monos or monomials(nvars, degree)
        return cls(ring, nvars, degree, dict(zip(monos, vec)))

    def is_zero(self):
        return not self.coeffs

    def coeff_vector(self, monos=None) -> list:
        monos = monos or monomials(self.nvars, self.degree)
        z = self.ring.zero()
        return [self.coeffs.get(e, z) for e in monos]

    def map_coefficients(self, fn, ring=None) -> "HomogeneousForm":
        return HomogeneousForm(
            ring or self.ring, self.nvars, self.degree,
            {e: fn(c) for e, c in self.coeffs.items()},
        )

    def __mul__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if e in out:
                    out[e] = out[e] + c1 * c2
                else:
                    out[e] = c1 * c2
        return HomogeneousForm(self.ring, self.nvars, self.degree + other.degree, out)

    def __add__(self, other):
        if not isinstance(other, HomogeneousForm) or other.degree != self.degree:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, self.ring.zero()) + c
        return HomogeneousForm(self.ring, self.nvars, self.degree, out)

    def scale(self, s) -> "HomogeneousForm":
        return HomogeneousForm(
            self.ring, self.nvars, self.degree,
            {e: c * s for e, c in self.coeffs.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        if self.degree != other.degree or self.nvars != other.nvars:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        z = self.ring.zero()
        return all(self.coeffs.get(k, z) == other.coeffs.get(k, z) for k in keys)

    def proportional_to(self, other: "HomogeneousForm") -> bool:
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.coeffs) != set(other.coeffs):
            return False
        e0 = next(iter(sorted(self.coeffs)))
        ratio_num, ratio_den = other.coeffs[e0], self.coeffs[e0]
        return all(
            other.coeffs[e] * ratio_den == self.coeffs[e] * ratio_num
            for e in self.coeffs
        )

    def serialize(self) -> str:
        """Canonical text form: `<coeff> x^i y^j z^k w^l` terms joined by `+`."""
        if self.is_zero():
            return "0"
        names = VAR_NAMES[: self.nvars] if self.nvars <= 4 else tuple(
            f"x{i}" for i in range(self.nvars)
        )
        parts = []
        for exps in sorted(self.coeffs, key=lambda e: tuple(-x for x in e)):
            c = self.coeffs[exps]
            mono = " ".join(
                f"{n}^{e}" if e > 1 else n for n, e in zip(names, exps) if e
            )
            cs = _scalar_str(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif " " in cs:
                parts.append(f"({cs}) {mono}")
            else:
                parts.append(f"{cs} {mono}")
        return " + ".join(parts)

    def __repr__(self):
        return self.serialize()


def _scalar_str(c) -> str:
    if isinstance(c, FieldElement):
        return str(c.index)
    return repr(c)


# ---------------------------------------------------------------------------
# evaluation and derivatives

def _common_field(fields):
    """The largest of `fields`, the one the others lift into (as in
    FieldElement arithmetic)."""
    return max(fields, key=lambda F: F.size)


def _reps_in(E, x):
    """The rep in E of a field element x of a subfield of E; for a
    polynomial x, its dict of term reps."""
    F = x.field
    if isinstance(x, MultiPoly):
        return x.terms if F is E else {k: E.lift_rep(F, t) for k, t in x.terms.items()}
    return x.rep if F is E else E.lift_rep(F, x.rep)


def evaluation_row(ring: ScalarRing, coords, monos) -> list:
    """The values of the monomials `monos` at `coords`, from one table of
    coordinate powers up to the largest degree among them; a monomial of
    degree 0 has the value 1.  Every value of a form at a point is read
    from here.  Over a finite field the products run on the reps of the
    larger of ring.field and the coordinates' field, and each value is
    wrapped once."""
    degree = max(map(sum, monos), default=0)
    if ring.finite:
        E = _common_field([ring.field, *(c.field for c in coords)])
        coords = [_reps_in(E, c) for c in coords]
        mul, one = E.mul_rep, E.one_rep
    else:
        mul, one = operator.mul, ring.one()
    pows = []
    for c in coords:
        powers = [None, c]  # index 0 is never read: exponent 0 is skipped
        for _ in range(2, degree + 1):
            powers.append(mul(powers[-1], c))
        pows.append(powers)
    row = []
    for exps in monos:
        term = None
        for i, e in enumerate(exps):
            if e:
                term = pows[i][e] if term is None else mul(term, pows[i][e])
        row.append(one if term is None else term)
    if ring.finite:
        return [FieldElement(E, v) for v in row]
    return row


def derivative_row(ring: ScalarRing, coords, direction, monos) -> list:
    """Row of Sum_i v_i d(mono)/d x_i evaluated at coords.

    The lowered monomials mono / x_i are evaluated once each, by one
    evaluation_row; a term whose factor v_i·e_i is zero is dropped."""
    lowered: dict = {}
    parts = []
    for exps in monos:
        terms = []
        for i, v in enumerate(direction):
            if exps[i]:
                w = v * exps[i]
                if not scalar_is_zero(w):
                    e = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                    lowered[e] = None
                    terms.append((e, w))
        parts.append(terms)
    values = dict(zip(lowered, evaluation_row(ring, coords, list(lowered))))
    zero = ring.zero()
    row = []
    for terms in parts:
        total = zero
        for e, w in terms:
            total = total + w * values[e]
        row.append(total)
    return row


def form_value(f: HomogeneousForm, row) -> object:
    """Sum of c·r over the terms of f, with `row` aligned to `f.coeffs`:
    f at a point for an evaluation_row, a derivative for a derivative_row."""
    total = None
    for c, r in zip(f.coeffs.values(), row):
        term = c * r
        total = term if total is None else total + term
    return f.ring.zero() if total is None else total


def evaluate(f: HomogeneousForm, point) -> object:
    """Exact evaluation at a point (coordinates: scalars or a ProjectivePoint)."""
    coords = point.coords if hasattr(point, "coords") else list(point)
    if len(coords) != f.nvars:
        raise DimensionMismatch(
            f"form in {f.nvars} variables evaluated at a {len(coords)}-tuple"
        )
    return form_value(f, evaluation_row(f.ring, coords, list(f.coeffs)))


def directional_derivative(f: HomogeneousForm, point, direction) -> object:
    """Sum_i v_i d f/d x_i evaluated at the point (formal partials)."""
    pc = point.coords if hasattr(point, "coords") else list(point)
    dc = direction.coords if hasattr(direction, "coords") else list(direction)
    if len(pc) != f.nvars or len(dc) != f.nvars:
        raise DimensionMismatch("coordinate arity mismatch")
    if proportional(pc, dc):
        raise DependentDirection("direction must be independent of the point")
    return form_value(f, derivative_row(f.ring, pc, dc, list(f.coeffs)))


@functools.lru_cache(maxsize=None)
def _binomial_row(p: int, e: int) -> tuple:
    """The pairs (j, C(e, j) mod p) with a nonzero binomial, j = 0..e."""
    return tuple((j, b) for j in range(e + 1) if (b := math.comb(e, j) % p))


def _int_rep(F, k: int):
    """The rep of the integer k, that is of k mod p, in the field F."""
    return k % F.p if F.base is None else F.from_coeffs([_int_rep(F.base, k)])


def restrict_to_line(f: HomogeneousForm, A, B) -> HomogeneousForm:
    """f(u·A + s·B), a binary form in (u, s) of degree d = f.degree over the
    scalars of f; A and B are coordinate rows of field elements.

    By the binomial theorem the u^(e-j)·s^j coefficient of
    (A_i·u + B_i·s)^e is C(e, j)·A_i^(e-j)·B_i^j; a term with C(e, j) ≡ 0
    mod p is dropped, so a power e = p^k has two terms.  A monomial of f
    restricts to the sparse product of its powers, and each scalar of f is
    added into one sum per output coefficient u^(d-j)·s^j, a dict of term
    reps (a field scalar is the constant term).  All of it runs on the reps
    of the larger of the line's field and the scalars' field, into which
    the smaller one is lifted."""
    ring = f.ring
    d = f.degree
    E = _common_field([A[0].field, *(c.field for c in f.coeffs.values())])
    mul, add, is0, one = E.mul_rep, E.add_rep, E.rep_is_zero, E.one_rep
    line = [(_reps_in(E, a), _reps_in(E, b)) for a, b in zip(A, B)]
    powers: dict = {}  # (i, e) -> nonzero terms (j, rep) of (A_i·u + B_i·s)^e
    acc = [{} for _ in range(d + 1)]
    for exps, c in f.coeffs.items():
        r = [(0, one)]
        for i, e in enumerate(exps):
            if not e:
                continue
            if (i, e) not in powers:
                (a, b), pa, pb = line[i], [one], [one]
                for _ in range(e):
                    pa.append(mul(pa[-1], a))
                    pb.append(mul(pb[-1], b))
                powers[(i, e)] = [
                    (j, v if k == 1 else mul(v, _int_rep(E, k)))
                    for j, k in _binomial_row(E.char, e)
                    if not is0(v := mul(pa[e - j], pb[j]))
                ]
            prod: dict = {}
            for j1, v1 in r:
                for j2, v2 in powers[(i, e)]:
                    v = mul(v1, v2)
                    prod[j1 + j2] = add(prod[j1 + j2], v) if j1 + j2 in prod else v
            r = list(prod.items())
        c = _reps_in(E, c)
        terms = {0: c} if ring.finite else c
        for j, v in r:
            s = acc[j]
            for k, t in terms.items():
                t = mul(t, v)
                s[k] = add(s[k], t) if k in s else t
    out: dict = {}
    for j, s in enumerate(acc):
        s = {k: t for k, t in s.items() if not is0(t)}
        if s:
            out[(d - j, j)] = FieldElement(E, s[0]) if ring.finite else MultiPoly(E, ring.names, s)
    return HomogeneousForm(ring, 2, d, out)


def proportional(u, v) -> bool:
    """Whether the coordinate vectors u and v are proportional: every 2×2
    minor of [u; v] vanishes."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if not scalar_is_zero(u[i] * v[j] - u[j] * v[i]):
                return False
    return True


# ---------------------------------------------------------------------------
# evaluation matrices and kernels

@dataclass
class EvaluationMatrix:
    ring: ScalarRing
    nvars: int
    degree: int
    rows: list  # list of list-of-scalars, one per linear condition
    monos: list = dataclass_field(default=None)

    def __post_init__(self):
        if self.monos is None:
            self.monos = monomials(self.nvars, self.degree)
        for r in self.rows:
            if len(r) != len(self.monos):
                raise DimensionMismatch("condition row width mismatch")

    @property
    def ncols(self):
        return len(self.monos)


def condition_matrix(ring: ScalarRing, entries, degree: int, nvars: int) -> EvaluationMatrix:
    """The degree-`degree` conditions of (point, direction-or-None)
    entries: an evaluation row per point, then a derivative row along its
    direction, if it has one.  Coordinates are coerced into `ring`."""
    monos = monomials(nvars, degree)
    rows = []
    for point, direction in entries:
        coords = ring.coerce_point_coords(point)
        rows.append(evaluation_row(ring, coords, monos))
        if direction is not None:
            rows.append(derivative_row(ring, coords, ring.coerce_point_coords(direction), monos))
    return EvaluationMatrix(ring, nvars, degree, rows, monos)


class KernelBasis:
    """Canonical basis of the nullspace of an EvaluationMatrix."""

    def __init__(self, matrix: EvaluationMatrix, forms: list, rank: int):
        self.matrix = matrix
        self.forms = forms
        self.rank = rank

    @property
    def dimension(self):
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __len__(self):
        return len(self.forms)

    def recheck(self) -> bool:
        """Exhaustively re-evaluate every basis form on every condition row."""
        for f in self.forms:
            vec = f.coeff_vector(self.matrix.monos)
            for row in self.matrix.rows:
                total = None
                for c, v in zip(row, vec):
                    if scalar_is_zero(v):
                        continue
                    term = c * v
                    total = term if total is None else total + term
                if total is not None and not scalar_is_zero(total):
                    return False
        return True


def _finite_kernel(mat: EvaluationMatrix):
    F = mat.ring.field
    pivots, rows, _ = row_reduce(F, [[c.rep for c in row] for row in mat.rows])
    ncols = mat.ncols
    rank = len(pivots)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fcol in free:
        vec = [F.zero_rep] * ncols
        vec[fcol] = F.one_rep
        for ridx, pcol in enumerate(pivots):
            vec[pcol] = F.neg_rep(rows[ridx][fcol])
        basis.append([FieldElement(F, v) for v in vec])
    forms = [
        HomogeneousForm.from_coeff_vector(mat.ring, mat.nvars, mat.degree, vec, mat.monos)
        for vec in basis
    ]
    return KernelBasis(mat, forms, rank)


def _bareiss_echelon(mat: EvaluationMatrix):
    """Fraction-free elimination; returns (pivot_cols, echelon poly rows).

    Row i of the echelon form holds (i+1)x(i+1) minors of the row-permuted
    input, so its pivot in the last row is the r x r minor on the pivot
    columns.
    """
    rows = list(mat.rows)  # rows are replaced below, never mutated
    ncols = mat.ncols
    prev = mat.ring.one()
    pivots = []
    r = 0
    for c in range(ncols):
        # pick the structurally cheapest pivot in this column
        best = None
        for i in range(r, len(rows)):
            e = rows[i][c]
            if e.is_zero():
                continue
            score = (e.degree(), len(e.terms))
            if best is None or score < best[0]:
                best = (score, i)
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        prev_is_one = prev.is_constant() and prev.constant_value().index == 1
        for k in range(r + 1, len(rows)):
            entry = rows[k][c]
            new = []
            for j in range(ncols):
                val = piv * rows[k][j] - entry * rows[r][j]
                if not prev_is_one and not val.is_zero():
                    val = val.exact_div(prev)
                new.append(val)
            rows[k] = new
        prev = piv
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


def _polynomial_kernel(mat: EvaluationMatrix):
    ring = mat.ring
    pivots, ech = _bareiss_echelon(mat)
    rank = len(pivots)
    ncols = mat.ncols
    pivset = set(pivots)
    # Cramer back-substitution (Bareiss; Nakos-Turner-Williams): with the
    # free entry set to d, the r x r minor on the pivot columns, every
    # pivot entry of the kernel vector is an r x r minor as well, so each
    # division below is exact and the vector is polynomial without any
    # content removal; it is defined up to a unit of F_q(a,b,c)
    d = ech[-1][pivots[-1]] if pivots else ring.one()
    zero = ring.zero()
    basis = []
    for fcol in range(ncols):
        if fcol in pivset:
            continue
        vec = [zero] * ncols
        vec[fcol] = d
        for ridx in range(rank - 1, -1, -1):
            pcol, row = pivots[ridx], ech[ridx]
            acc = zero
            for j in range(pcol + 1, ncols):
                if not vec[j].is_zero() and not row[j].is_zero():
                    acc = acc + row[j] * vec[j]
            vec[pcol] = (-acc).exact_div(row[pcol])
        # an F_q scalar makes the leading coefficient of the first entry 1
        _, lc = next(v for v in vec if not v.is_zero()).leading()
        unit = ring.const(FieldElement(ring.field, lc))
        basis.append([v.exact_div(unit) for v in vec])
    forms = [
        HomogeneousForm.from_coeff_vector(mat.ring, mat.nvars, mat.degree, vec, mat.monos)
        for vec in basis
    ]
    return KernelBasis(mat, forms, rank)


def kernel_of_conditions(mat: EvaluationMatrix) -> KernelBasis:
    """Exact nullspace basis; dimension = columns - rank."""
    if mat.ring.finite:
        return _finite_kernel(mat)
    return _polynomial_kernel(mat)


def condition_rank(mat: EvaluationMatrix) -> int:
    """Rank of the condition matrix; over F_q[a,b,c] no kernel basis is built."""
    if mat.ring.finite:
        return _finite_kernel(mat).rank
    return len(_bareiss_echelon(mat)[0])


# ---------------------------------------------------------------------------
# coprimality via resultants

@dataclass
class CoprimalityWitness:
    variable: str
    shear: Optional[tuple]
    resultant_nonzero: bool
    note: str = ""


@dataclass
class CommonFactor:
    variable: str
    note: str = ""


def _shear_form(f: HomogeneousForm, var: int, other: int, t) -> HomogeneousForm:
    """Substitute x_other -> x_other + t * x_var."""
    ring = f.ring
    out: dict = {}
    for exps, c in f.coeffs.items():
        e_o = exps[other]
        for k in range(e_o + 1):
            e = list(exps)
            e[other] = e_o - k
            e[var] += k
            coeff = c * math.comb(e_o, k)
            if k:
                coeff = coeff * (t ** k)
            key = tuple(e)
            if scalar_is_zero(coeff):
                continue
            out[key] = out.get(key, ring.zero()) + coeff
    return HomogeneousForm(ring, f.nvars, f.degree, out)


def _univariate_resultant(a: list, b: list, ring: ScalarRing):
    """Resultant of two univariate polys over a finite field (coefficient
    lists, low-to-high): the determinant of their Sylvester matrix."""
    n, m = len(a) - 1, len(b) - 1
    if n < 0 or m < 0:
        return ring.zero()
    size = n + m
    zero = ring.zero()
    rows = []
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    # a shear or test point may lie in an extension of ring.field
    E = _common_field(c.field for c in a + b)
    reps = [[_reps_in(E, c) for c in row] for row in rows]
    return FieldElement(E, row_reduce(E, reps)[2])


def _specialize_line(f: HomogeneousForm, var: int, v_scalars):
    """Restrict to x_i = u_i for the two non-`var` variables; poly in x_var."""
    rest = [exps[:var] + exps[var + 1:] for exps in f.coeffs]
    out = [f.ring.zero()] * (f.degree + 1)
    for exps, c, r in zip(f.coeffs, f.coeffs.values(), evaluation_row(f.ring, v_scalars, rest)):
        out[exps[var]] = out[exps[var]] + c * r
    while out and scalar_is_zero(out[-1]):
        out.pop()
    return out


def _specialize_coefficients(form: HomogeneousForm, ring: ScalarRing, values):
    coeffs = {e: c.eval(values) for e, c in form.coeffs.items()}
    return HomogeneousForm(ring, form.nvars, form.degree, coeffs)


def _coprime_by_specialization(f: HomogeneousForm, g: HomogeneousForm):
    """Generic-mode path: specialize (a,b,c,...) into a large
    extension.  A nonzero specialized resultant certifies generic
    coprimality exactly (degrees cannot drop once a shear has produced
    constant leading coefficients, and those survive specialization);
    a genuine common factor makes every specialization vanish.
    """
    base = f.ring.field
    m = 1
    while base.size ** m < 2 ** 20:
        m += 1
    E = extend_field(base, m) if m > 1 else base
    spec_ring = ScalarRing(E)
    nvals = len(f.ring.names)
    rng = random.Random(0xC0FFEE)
    for _ in range(3):
        values = [E.from_index(rng.randrange(E.size)) for _ in range(nvals)]
        try:
            fs = _specialize_coefficients(f, spec_ring, values)
            gs = _specialize_coefficients(g, spec_ring, values)
            result = coprime_certificate(fs, gs)
        except (ZeroDivisionError, ZeroInput):
            continue
        if isinstance(result, CoprimalityWitness):
            result.note = "via deterministic specialization"
            return result
    return CommonFactor(
        variable="",
        note="resultant vanished under 3 deterministic specializations",
    )


def coprime_certificate(f: HomogeneousForm, g: HomogeneousForm):
    """Certify gcd(f, g) is a unit (plane forms, 3 variables).

    Eliminates a variable in which both forms have full-degree leading
    terms (after deterministic shears if necessary).  The resultant, a
    binary form of degree deg(f)*deg(g), is nonzero iff it is nonzero at
    one of deg(f)*deg(g)+1 distinct test points; either outcome is exact.
    Over F_q[a,b,c] the resultant is decided through deterministic
    specializations: a nonzero value is an exact certificate, and three
    vanishing specializations are reported as a common factor.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroInput("coprimality of a zero form is undefined")
    if f.nvars != 3 or g.nvars != 3:
        raise DimensionMismatch("coprime_certificate expects plane forms")
    if not f.ring.finite:
        return _coprime_by_specialization(f, g)
    ring = f.ring
    D = f.degree * g.degree
    # one scalar pool for shears and resultant test points, so everything
    # lives in a single common extension
    pool = ring.distinct_scalars(max(3, D + 1))
    # any D + 1 distinct points decide a degree-D binary form, so their
    # order changes only how many determinants are taken; the first
    # scalars of the pool are often roots (every rational point of Z is
    # one), so the test points are tried from the top
    test_points = pool[D::-1]
    candidates = [(var, None) for var in range(3)]
    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    # simultaneous shears x_j -> x_j + t_j * x_var for both other variables;
    # the sheared pure-power coefficient is the form's value at (1, t1, t2),
    # so a candidate is usable once (1, t1, t2) is off both curves -- try
    # whole rows of the pool before giving up
    shear_pool = []
    for var in range(3):
        for t1 in pool[:3]:
            row = 0
            for t2 in pool:
                if scalar_is_zero(t1) and scalar_is_zero(t2):
                    continue
                shear_pool.append((var, (t1, t2)))
                row += 1
                # with t1 fixed the points (1, t1, t2) run along a line,
                # which meets f*g in at most deg f + deg g <= D + 1 points
                if row > D + 1:
                    break
    candidates += shear_pool

    names = VAR_NAMES[:3]
    for var, shear in candidates:
        # skip a candidate before shearing: its pure-power coefficient is
        # the value at (1, t1, t2), 1 at position var, t1 = t2 = 0 unsheared
        o1, o2 = others[var]
        t1, t2 = shear if shear is not None else (ring.zero(), ring.zero())
        at = [None] * 3
        at[var], at[o1], at[o2] = ring.one(), t1, t2
        if scalar_is_zero(evaluate(f, at)) or scalar_is_zero(evaluate(g, at)):
            continue
        ff_, gg_ = f, g
        shear_desc = None
        if shear is not None:
            ff_ = _shear_form(_shear_form(f, var, o1, t1), var, o2, t2)
            gg_ = _shear_form(_shear_form(g, var, o1, t1), var, o2, t2)
            shear_desc = (names[var], _scalar_str(t1), _scalar_str(t2))
        # the pure-power coefficients are nonzero constants, so the
        # specialized degrees never drop and each evaluation below equals
        # the degree-D binary resultant form at the point (1, t)
        found_nonzero = False
        for t in test_points:
            a = _specialize_line(ff_, var, [ring.one(), t])
            b = _specialize_line(gg_, var, [ring.one(), t])
            r = _univariate_resultant(a, b, ring)
            if not scalar_is_zero(r):
                found_nonzero = True
                break
        if found_nonzero:
            return CoprimalityWitness(
                variable=names[var], shear=shear_desc, resultant_nonzero=True
            )
        # a nonzero degree-D binary form has at most D projective roots,
        # so vanishing at D+1 distinct points forces the resultant to be 0
        return CommonFactor(
            variable=names[var],
            note="resultant vanishes identically",
        )
    return CommonFactor(variable="", note="no usable elimination direction found")


# ---------------------------------------------------------------------------
# Hilbert-function values

def hilbert_value(Z, d: int) -> int:
    """dim [I(Z)]_d = C(d+n, n) - rank of the degree-d condition matrix."""
    if d < 1:
        raise PolyError("degree must be >= 1")
    mat = condition_matrix(ScalarRing(Z.field), Z.as_projection_entries(), d, Z.dim + 1)
    return mat.ncols - condition_rank(mat)
