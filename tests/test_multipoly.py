"""Forms, evaluation/derivative conditions, kernels, coprimality."""
import functools
import random

import pytest
import sympy

from geproci import core
from geproci.fields import FieldElement, MultiPoly, extend_field, parse_field_spec
from geproci.multipoly import (
    CommonFactor,
    CoprimalityWitness,
    DependentDirection,
    HomogeneousForm,
    ScalarRing,
    ZeroInput,
    _specialize_line,
    condition_matrix,
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

        var = rng.randrange(3)
        u = [_random_scalar(ring, rng) for _ in range(2)]
        others = [x for i, x in enumerate(_XYZ) if i != var]
        coeffs = _specialize_line(f, var, u)
        assert not coeffs or not scalar_is_zero(coeffs[-1])
        ours = sum(_sym(c) * _XYZ[var] ** k for k, c in enumerate(coeffs))
        assert _same(ours, f_sym.subs(dict(zip(others, map(_sym, u)))), p)

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


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=5", "p=2;ext=2", "p=3;ext=2"])
def test_restrict_the_frobenius_cone_matches_the_product_expansion(spec):
    # the generic cone's scalars are minors in F_q[a,b,c]; its monomials
    # x_k x_l^q restrict through two-term powers
    F = parse_field_spec(spec)
    cone = core.frobenius_cone(F, core.GeneralPoint.generic(F))
    rng = random.Random(F.size)
    for A, B in _random_lines(F, rng, 12):
        assert restrict_to_line(cone, A, B) == _restrict_by_products(cone, A, B)


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
