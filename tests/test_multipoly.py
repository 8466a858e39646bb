"""Forms, evaluation/derivative conditions, kernels, coprimality."""
import random

import pytest
import sympy

from geproci.fields import parse_field_spec
from geproci.multipoly import (
    CommonFactor,
    CoprimalityWitness,
    DependentDirection,
    HomogeneousForm,
    ScalarRing,
    ZeroInput,
    coprime_certificate,
    directional_derivative,
    evaluate,
    hilbert_value,
    kernel_of_conditions,
    monomial_count,
    monomials,
    partial_derivative,
    point_evaluation_matrix,
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
    fx = partial_derivative(f, 0)  # 2 x y
    assert evaluate(fx, [one, one, F3.from_index(0)]) == two


def test_directional_derivative_rejects_dependent(F2):
    ring = ScalarRing(F2)
    one = F2.from_index(1)
    f = _form(ring, 3, 2, {(1, 1, 0): one})
    with pytest.raises(DependentDirection):
        directional_derivative(f, [one, one, one], [one, one, one])


def test_kernel_recheck_finite(F3):
    ring = ScalarRing(F3)
    pts = list(enumerate_projective_space(F3, 2).points)[:6]
    mat = point_evaluation_matrix(ring, pts, 3, 3)
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
    mat = point_evaluation_matrix(ring, pts, 2, 3)
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


def test_form_serialize_roundtrip_text(F3):
    ring = ScalarRing(F3)
    one = F3.from_index(1)
    f = _form(ring, 3, 2, {(1, 1, 0): one, (0, 0, 2): F3.from_index(2)})
    s = f.serialize()
    assert "x" in s and "z^2" in s
