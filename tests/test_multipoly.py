"""Forms, evaluation/derivative conditions, kernels, coprimality."""
import random

import pytest
import sympy

from geproci.fields import MultiPoly, parse_field_spec
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
    hilbert_value,
    kernel_of_conditions,
    monomial_count,
    monomials,
    restrict_to_line,
    scalar_is_zero,
)
from geproci.projgeom import PointSet, enumerate_projective_space


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


def test_form_serialize_roundtrip_text(F3):
    ring = ScalarRing(F3)
    one = F3.from_index(1)
    f = _form(ring, 3, 2, {(1, 1, 0): one, (0, 0, 2): F3.from_index(2)})
    s = f.serialize()
    assert "x" in s and "z^2" in s
