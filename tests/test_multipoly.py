"""Forms, evaluation/derivative conditions, kernels, coprimality."""
import functools
import hashlib
import math
import operator
import random

import pytest
import sympy

from geproci import core, fatpoints
from geproci.fields import FieldElement, MultiPoly, PrimeField, extend_field, parse_field_spec
from geproci.multipoly import (
    CommonFactor,
    CoprimalityWitness,
    DependentDirection,
    HomogeneousForm,
    ProductForm,
    ScalarRing,
    ZeroInput,
    condition_matrix,
    condition_rank,
    coprime_certificate,
    derivative_row,
    directional_derivative,
    evaluate,
    evaluation_row,
    hilbert_value,
    kernel_of_conditions,
    monomial_count,
    monomials,
    restrict_to_line,
    scalar_is_zero,
    specialize_coefficients,
)
from geproci.projgeom import PointSet, all_lines, enumerate_projective_space


def _form(ring, nvars, degree, coeff_map):
    return HomogeneousForm(ring, nvars, degree, coeff_map)


def test_monomials_graded_count():
    assert len(monomials(3, 4)) == monomial_count(3, 4) == 15
    assert len(monomials(4, 3)) == monomial_count(4, 3) == 20
    for e in monomials(3, 4):
        assert sum(e) == 4


def test_evaluate_and_derivative(F3):
    ring = ScalarRing(F3)
    one = F3.from_index(1)
    two = F3.from_index(2)
    # f = x^2 y + 2 z^3
    f = _form(ring, 3, 3, {(2, 1, 0): one, (0, 0, 3): two})
    val = evaluate(f, [one, two, one])
    assert val == F3.from_index(1)  # 1*2 + 2*1 = 4 = 1 mod 3
    zero = F3.from_index(0)
    # along (1, 0, 0) the derivative is df/dx = 2 x y
    assert directional_derivative(f, [one, one, zero], [one, zero, zero]) == two


def test_directional_derivative_rejects_dependent(F2):
    ring = ScalarRing(F2)
    one = F2.from_index(1)
    f = _form(ring, 3, 2, {(1, 1, 0): one})
    with pytest.raises(DependentDirection):
        directional_derivative(f, [one, one, one], [one, one, one])


def test_kernel_recheck_finite(F3):
    ring = ScalarRing(F3)
    pts = list(enumerate_projective_space(F3, 2).points)[:6]
    mat = condition_matrix(ring, [(p, None) for p in pts], 3, 3)
    kern = kernel_of_conditions(mat)
    assert kern.dimension == 10 - kern.rank
    assert kern.recheck()
    for f in kern.forms:
        for p in pts:
            assert scalar_is_zero(evaluate(f, ring.coerce_point_coords(p)))


def test_kernel_recheck_function_field(F2):
    ring = ScalarRing(F2, names=("a", "b", "c"))
    a, b, c = ring.gens()
    pts = [[ring.one(), a, b], [a, ring.one(), c], [b, c, ring.one()]]
    mat = condition_matrix(ring, [(p, None) for p in pts], 2, 3)
    kern = kernel_of_conditions(mat)
    assert kern.dimension == 6 - kern.rank == 3
    assert kern.recheck()


def test_hilbert_value_full_space(F2, P3F2):
    # the ideal of P^3(F_2) starts in degree 3
    assert hilbert_value(P3F2, 1) == 0
    assert hilbert_value(P3F2, 2) == 0
    assert hilbert_value(P3F2, 3) == 6
    assert hilbert_value(P3F2, 4) == 20


def test_finite_condition_rank_builds_no_kernel(monkeypatch, P3F2, forty_points_q7):
    # over a finite field the rank is the pivot count of one elimination:
    # the kernel bases agree with the pinned values, and then no form may
    # be built from a kernel vector
    cases = [(P3F2, 3), (P3F2, 5), (fatpoints.example_cuspidal_nine(P3F2.field), 3),
             (forty_points_q7, 4)]
    mats = [condition_matrix(ScalarRing(Z.field), Z.as_projection_entries(), d, 4) for Z, d in cases]
    P = core.GeneralPoint.random(forty_points_q7.field, seed=0)
    mats.append(core.project(forty_points_q7, P).condition_rows(5))
    ranks, values = [14, 15, 9, 30, 20], [6, 41, 11, 5]
    assert [kernel_of_conditions(mat).rank for mat in mats] == ranks
    assert [kernel_of_conditions(mat).dimension for mat in mats[:4]] == values

    def must_not_run(*args, **kwargs):
        raise AssertionError("built a kernel form")

    monkeypatch.setattr(HomogeneousForm, "from_coeff_vector", must_not_run)
    assert [condition_rank(mat) for mat in mats] == ranks
    assert [hilbert_value(Z, d) for Z, d in cases] == values


# ---------------------------------------------------------------------------
# coprimality against a sympy gcd oracle

_XYZ = sympy.symbols("x y z")


def _to_sympy(f):
    x, y, z = _XYZ
    expr = 0
    for (i, j, k), c in f.coeffs.items():
        expr += int(c.field.rep_to_index(c.rep)) * x ** i * y ** j * z ** k
    return sympy.Poly(expr, x, y, z, modulus=f.ring.field.char)


def _random_form(ring, rng, degree):
    F = ring.field
    while True:
        coeffs = {}
        for e in monomials(3, degree):
            c = F.from_index(rng.randrange(F.size))
            if not scalar_is_zero(c):
                coeffs[e] = c
        f = HomogeneousForm(ring, 3, degree, coeffs)
        if not f.is_zero():
            return f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coprimality_agrees_with_sympy_gcd(p):
    """gcd is invariant under field extension, so the sympy gcd over F_p
    decides exactly the question the resultant certificate answers."""
    F = parse_field_spec(f"p={p}")
    ring = ScalarRing(F)
    rng = random.Random(p)
    checked = 0
    while checked < 20:
        f = _random_form(ring, rng, rng.choice([1, 2, 3]))
        g = _random_form(ring, rng, rng.choice([1, 2, 3]))
        if rng.random() < 0.5:  # plant a common factor
            h = _random_form(ring, rng, 1)
            f, g = f * h, g * h
        oracle_coprime = sympy.gcd(_to_sympy(f), _to_sympy(g)).total_degree() == 0
        got = coprime_certificate(f, g)
        if oracle_coprime:
            assert isinstance(got, CoprimalityWitness), (f.serialize(), g.serialize())
        else:
            assert isinstance(got, CommonFactor), (f.serialize(), g.serialize())
        checked += 1


def test_coprime_certificate_zero_input(F2):
    ring = ScalarRing(F2)
    one = F2.from_index(1)
    f = _form(ring, 3, 2, {(2, 0, 0): one})
    with pytest.raises(ZeroInput):
        coprime_certificate(f, HomogeneousForm(ring, 3, 2, {}))


def test_coprime_certificate_function_field(F2):
    ring = ScalarRing(F2, names=("a", "b", "c"))
    a, b, c = ring.gens()
    one = ring.one()
    x2 = _form(ring, 3, 1, {(1, 0, 0): one, (0, 1, 0): a})
    y2 = _form(ring, 3, 1, {(0, 1, 0): one, (0, 0, 1): b})
    w = coprime_certificate(x2, y2)
    assert isinstance(w, CoprimalityWitness)
    shared = x2 * y2
    w2 = coprime_certificate(shared, x2)
    assert isinstance(w2, CommonFactor)


def _sparse_form(ring, rng, degree):
    """A nonzero form whose pure powers are often missing, so that the
    unsheared candidates are often unusable."""
    F = ring.field
    while True:
        coeffs = {}
        for e in monomials(3, degree):
            if max(e) == degree and rng.random() < 0.6:
                continue
            if rng.random() < 0.5:
                coeffs[e] = F.from_index(rng.randrange(1, F.size))
        if coeffs:
            return HomogeneousForm(ring, 3, degree, coeffs)


# (field spec, pairs): the small fields need an extension for their scalar
# pool once deg f * deg g + 1 > q; F_{7^12} never does
_WITNESS_CORPUS = [("p=2", 50), ("p=3", 50), ("p=5", 50), ("p=7", 50),
                   ("p=2;ext=2", 40), ("p=3;ext=2", 40), ("p=7;ext=12", 16)]
WITNESS_CORPUS_SHA256 = "30826c8f7f5bf7d3ff765db0b04a98cb77ca42f0a9e4b1bc5f9baff9df7b7653"


def test_coprimality_witnesses_are_pinned():
    """The elimination variable, shear and note of every certificate over a
    seeded corpus of random plane pairs, about a third with a planted
    common factor, are pinned by hash: a rewrite of the search must find
    the same witnesses in the same order."""
    rows = []
    for spec, n in _WITNESS_CORPUS:
        ring = ScalarRing(parse_field_spec(spec))
        rng = random.Random(spec)
        for _ in range(n):
            f = _sparse_form(ring, rng, rng.randint(1, 3))
            g = _sparse_form(ring, rng, rng.randint(1, 4))
            if rng.random() < 0.3:
                h = _sparse_form(ring, rng, rng.randint(1, 2))
                f, g = f * h, g * h
            w = coprime_certificate(f, g)
            rows.append((spec, type(w).__name__, w.variable, getattr(w, "shear", None), w.note))
    sheared = sum(r[3] is not None for r in rows)
    common = sum(r[1] == "CommonFactor" for r in rows)
    assert (len(rows), sheared, common) == (296, 143, 116)
    digest = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()
    assert digest == WITNESS_CORPUS_SHA256


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=2;ext=2"])
def test_product_form_acts_like_its_expansion(spec):
    """Restriction to a line, specialization and evaluation act factor by
    factor and agree with the expanded product, as do the text and the
    coprimality witness."""
    F = parse_field_spec(spec)
    ring = ScalarRing(F, ("a", "b", "c"))
    E = extend_field(F, 5)
    rng = random.Random(spec)
    a, b, c = ring.gens()

    def element(K):
        return K.from_index(rng.randrange(K.size))

    def scalar():
        return ring.const(element(F)) + rng.choice((a, b, c, a * b, c * c)) * element(F)

    def form(degree):
        while True:
            f = HomogeneousForm(ring, 3, degree, {e: scalar() for e in monomials(3, degree)
                                                  if rng.random() < 0.6})
            if not f.is_zero():
                return f

    for _ in range(6):
        factors = [form(rng.randint(1, 2)) for _ in range(rng.randint(1, 4))]
        prod = ProductForm(factors)
        expanded = functools.reduce(operator.mul, factors)
        assert prod.degree == expanded.degree and not prod.is_zero()
        A, B = ([element(F) for _ in range(3)] for _ in range(2))
        assert restrict_to_line(prod, A, B) == restrict_to_line(expanded, A, B)
        point = [scalar() for _ in range(3)]
        assert evaluate(prod, point) == evaluate(expanded, point)
        values = [element(E) for _ in range(3)]
        special = specialize_coefficients(prod, ScalarRing(E), values)
        assert isinstance(special, ProductForm)
        assert special == specialize_coefficients(expanded, ScalarRing(E), values)
        A, B = ([element(E) for _ in range(3)] for _ in range(2))
        assert (restrict_to_line(special, A, B).coeff_vector()
                == restrict_to_line(specialize_coefficients(expanded, ScalarRing(E), values),
                                    A, B).coeff_vector())
        f = form(rng.randint(1, 2))
        w, w_expanded = coprime_certificate(f, prod), coprime_certificate(f, expanded)
        assert (type(w), w.variable, getattr(w, "shear", None), w.note) == (
            type(w_expanded), w_expanded.variable, getattr(w_expanded, "shear", None),
            w_expanded.note)
        assert prod._coeffs is None  # nothing above expanded the product
        assert prod.serialize() == math.prod(factors[1:], start=factors[0]).serialize()
        assert prod.proportional_to(expanded) and prod == expanded


# ---------------------------------------------------------------------------
# the evaluation layer against sympy

_ABC = sympy.symbols("a b c")
_US = sympy.symbols("u s")


def _sym(c):
    """A scalar of F_p or of F_p[a,b,c] as a sympy expression."""
    if isinstance(c, MultiPoly):
        return sum((c.field.rep_to_index(v) * sympy.prod(g ** e for g, e in zip(_ABC, c.exps(k)))
                    for k, v in c.terms.items()), sympy.Integer(0))
    return sympy.Integer(c.index)


def _sym_form(f, gens=_XYZ):
    return sum((_sym(c) * sympy.prod(g ** e for g, e in zip(gens, exps))
                for exps, c in f.coeffs.items()), sympy.Integer(0))


def _same(ours, oracle, p):
    return sympy.Poly(sympy.expand(ours - oracle), *_XYZ, *_ABC, *_US, modulus=p).is_zero


def _random_scalar(ring, rng):
    """A field element, or a binomial of degree <= 2 in a, b, c."""
    F = ring.field
    if ring.finite:
        return F.from_index(rng.randrange(F.size))
    a, b, c = ring.gens()
    m = rng.choice((a, b, c, a * b, c * c))
    return ring.const(rng.randrange(F.size)) + m * rng.randrange(F.size)


@pytest.mark.parametrize("spec,names", [("p=5", ()), ("p=3", ("a", "b", "c"))])
def test_evaluation_layer_matches_sympy(spec, names):
    F = parse_field_spec(spec)
    ring = ScalarRing(F, names)
    p = F.char
    rng = random.Random(13)
    for _ in range(12):
        d = rng.randrange(1, 5)
        monos = monomials(3, d)
        f = HomogeneousForm(ring, 3, d, {e: _random_scalar(ring, rng) for e in monos})
        pt = [_random_scalar(ring, rng) for _ in range(3)]
        f_sym = _sym_form(f)
        at = dict(zip(_XYZ, map(_sym, pt)))
        assert _same(_sym(evaluate(f, pt)), f_sym.subs(at), p)

        while True:
            v = [_random_scalar(ring, rng) for _ in range(3)]
            try:
                got = directional_derivative(f, pt, v)
                break
            except DependentDirection:
                pass

        def along_v(expr):
            return sum(_sym(vi) * sympy.diff(expr, x) for vi, x in zip(v, _XYZ)).subs(at)

        assert _same(_sym(got), along_v(f_sym), p)
        for m, r in zip(monos, derivative_row(ring, pt, v, monos)):
            assert _same(_sym(r), along_v(sympy.prod(x ** e for x, e in zip(_XYZ, m))), p)

        A = [F.from_index(rng.randrange(F.size)) for _ in range(3)]
        B = [F.from_index(rng.randrange(F.size)) for _ in range(3)]
        g = restrict_to_line(f, A, B)
        assert (g.nvars, g.degree) == (2, d)
        u_, s_ = _US
        on_line = {x: _sym(a) * u_ + _sym(b) * s_ for x, a, b in zip(_XYZ, A, B)}
        assert _same(_sym_form(g, _US), f_sym.subs(on_line, simultaneous=True), p)


# ---------------------------------------------------------------------------
# restriction to a line against the product-based expansion

def _restrict_by_products(f, A, B):
    """f(u·A + s·B) by multiplying binary line forms over the line's field,
    then adding c·v for every scalar c of f and coefficient v of its
    monomial's restriction."""
    line_ring = ScalarRing(A[0].field)
    coords = [_form(line_ring, 2, 1, {(1, 0): a, (0, 1): b}) for a, b in zip(A, B)]
    out: dict = {}
    for exps, c in f.coeffs.items():
        r = _form(line_ring, 2, 0, {(0, 0): line_ring.one()})
        for x, e in zip(coords, exps):
            for _ in range(e):
                r = r * x
        for e, v in r.coeffs.items():
            out[e] = out[e] + c * v if e in out else c * v
    return HomogeneousForm(f.ring, 2, f.degree, out)


def _random_poly(ring, rng):
    """A polynomial of F_q[a,b,c] with up to three terms of degree <= 3."""
    F = ring.field
    a, b, c = ring.gens()
    total = ring.zero()
    for _ in range(rng.randrange(1, 4)):
        m = ring.one()
        for g in (a, b, c):
            m = m * g ** rng.randrange(2)
        total = total + m * F.from_index(rng.randrange(1, F.size))
    return total


@functools.lru_cache(maxsize=None)
def _lines_of(F):
    return all_lines(F)


def _random_lines(F, rng, n, rational=True):
    """n coordinate rows (A, B) over F, each with one coordinate zero in
    both rows, after n lines of PG(3,q) if `rational`."""
    out = []
    if rational:
        out += [tuple([FieldElement(F, c) for c in row] for row in L.rows)
                for L in rng.sample(_lines_of(F), n)]
    for _ in range(n):
        A = [F.from_index(rng.randrange(F.size)) for _ in range(4)]
        B = [F.from_index(rng.randrange(F.size)) for _ in range(4)]
        i = rng.randrange(4)
        A[i], B[i] = F.zero(), F.zero()
        out.append((A, B))
    return out


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=5", "p=2;ext=2", "p=3;ext=2"])
def test_restrict_to_line_matches_the_product_expansion(spec):
    # degrees below p and at or above it (where binomials vanish mod p);
    # finite scalars in F, in F_{q^2} over a line of F (a line field smaller
    # than the scalars'), and in F over a line of F_{q^2}; polynomial
    # scalars of F[a,b,c] over lines of F and of F_{q^2}, and of
    # F_{q^2}[a,b,c] over lines of F
    F = parse_field_spec(spec)
    E = extend_field(F, 2)
    p, q = F.char, F.size
    rng = random.Random(q)
    cases = [
        (ScalarRing(F), F), (ScalarRing(E), F), (ScalarRing(F), E),
        (ScalarRing(F, ("a", "b", "c")), F), (ScalarRing(F, ("a", "b", "c")), E),
        (ScalarRing(E, ("a", "b", "c")), F),
    ]
    for ring, L in cases:
        for d in sorted({0, 1, 2, p - 1, p, p + 1, q, q + 1}):
            monos = monomials(4, d)
            for A, B in _random_lines(L, rng, 3, rational=L is F):
                chosen = rng.sample(monos, min(len(monos), 6))
                if ring.finite:
                    coeffs = {e: ring.field.from_index(rng.randrange(1, ring.field.size))
                              for e in chosen}
                else:
                    coeffs = {e: _random_poly(ring, rng) for e in chosen}
                f = HomogeneousForm(ring, 4, d, coeffs)
                got = restrict_to_line(f, A, B)
                assert (got.nvars, got.degree) == (2, d)
                want = f
                if not ring.finite and L is E:
                    # a polynomial times an element lifts it into the
                    # polynomial's field, so the oracle needs E[a,b,c]
                    want = f.map_coefficients(lambda c: MultiPoly(
                        E, c.names, {k: E.lift_rep(F, v) for k, v in c.terms.items()}))
                assert got == _restrict_by_products(want, A, B)


def test_restrict_to_line_reads_its_field_from_every_entry(F3):
    # a pencil's test line starts at a point whose first entries are 0 and
    # 1 of F_q, while its last entry and the center may lie in the
    # extension of the scalar pool
    E = extend_field(F3, 2)
    ring = ScalarRing(F3)
    rng = random.Random(9)
    A = [F3.zero(), F3.one(), E.from_index(5)]
    B = [F3.one(), E.from_index(4), E.from_index(7)]
    lift = lambda row: [FieldElement(E, E.lift_rep(c.field, c.rep)) for c in row]
    for d in (1, 2, 3, 4):
        f = _random_form(ring, rng, d)
        assert restrict_to_line(f, A, B) == _restrict_by_products(f, lift(A), lift(B))


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=5", "p=2;ext=2", "p=3;ext=2"])
def test_restrict_the_frobenius_cone_matches_the_product_expansion(spec):
    # the generic cone's scalars are minors in F_q[a,b,c]; its monomials
    # x_k x_l^q restrict through two-term powers
    F = parse_field_spec(spec)
    cone = core.frobenius_cone(F, core.GeneralPoint.generic(F))
    rng = random.Random(F.size)
    for A, B in _random_lines(F, rng, 12):
        assert restrict_to_line(cone, A, B) == _restrict_by_products(cone, A, B)


def test_restrict_to_line_powers_stop_at_the_field_order(monkeypatch):
    # x^7 = x on F_7: restricting x_0^7 to a line of F_7 builds no power
    # table, where powers up to the 7th would take 7 products per coordinate
    F = parse_field_spec("p=7")
    ring = ScalarRing(F)
    f = HomogeneousForm(ring, 4, 7, {(7, 0, 0, 0): F.one()})
    A, B = [F.from_index(i) for i in (3, 1, 0, 2)], [F.from_index(i) for i in (5, 0, 1, 4)]
    calls, mul = [], PrimeField.mul_rep
    monkeypatch.setattr(PrimeField, "mul_rep", lambda K, a, b: calls.append(1) or mul(K, a, b))
    got = restrict_to_line(f, A, B)
    monkeypatch.undo()
    assert got == _restrict_by_products(f, A, B)
    assert len(calls) < 7


@pytest.mark.parametrize("spec", ["p=3", "p=7", "p=2;ext=2"])
def test_evaluation_row_on_reps_matches_element_products(spec):
    # coordinates in F, and in an extension of F, against products of
    # FieldElements; the values live in the larger field
    F = parse_field_spec(spec)
    rng = random.Random(F.size)
    ring = ScalarRing(F)
    for E in (F, extend_field(F, 3)):
        for d in (0, 1, 2, 5):
            monos = monomials(4, d) + monomials(4, 1)
            for _ in range(4):
                coords = [E.from_index(rng.randrange(E.size)) for _ in range(4)]
                coords[rng.randrange(4)] = F.from_index(rng.randrange(F.size))
                row = evaluation_row(ring, coords, monos)
                for exps, v in zip(monos, row):
                    want = F.one()
                    for c, e in zip(coords, exps):
                        want = want * c ** e
                    assert isinstance(v, FieldElement) and v.field == E
                    assert v == want


def test_form_serialize_roundtrip_text(F3):
    ring = ScalarRing(F3)
    one = F3.from_index(1)
    f = _form(ring, 3, 2, {(1, 1, 0): one, (0, 0, 2): F3.from_index(2)})
    s = f.serialize()
    assert "x" in s and "z^2" in s
