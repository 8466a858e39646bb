"""Field towers: arithmetic laws, Frobenius, subfield embeddings."""
import random

import pytest

from geproci.fields import (
    ZECH_MAX_SIZE,
    FieldError,
    FieldTower,
    FunctionField,
    MultiPoly,
    NotASubfield,
    RationalFunction,
    ReducibleModulus,
    extend_field,
    field_degree_over_prime,
    frobenius,
    make_field,
    mp_gcd,
    parse_field_spec,
)

TOWERS = ["p=2", "p=3", "p=5", "p=2;ext=2", "p=3;ext=2", "p=2;ext=2;ext=2"]


@pytest.mark.parametrize("spec", TOWERS)
def test_field_axioms_random(spec):
    F = parse_field_spec(spec)
    rng = random.Random(42)
    zero = F.from_index(0)
    one = F.from_index(1)
    for _ in range(1000):
        x = F.from_index(rng.randrange(F.size))
        y = F.from_index(rng.randrange(F.size))
        z = F.from_index(rng.randrange(F.size))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x
        assert x * one == x
        assert x - x == zero
        if y != zero:
            assert (x / y) * y == x


@pytest.mark.parametrize("spec", TOWERS)
def test_frobenius_is_homomorphism(spec):
    F = parse_field_spec(spec)
    p = F.char
    rng = random.Random(7)
    for _ in range(1000):
        x = F.from_index(rng.randrange(F.size))
        y = F.from_index(rng.randrange(F.size))
        assert (x + y) ** p == x ** p + y ** p
        assert (x * y) ** p == x ** p * y ** p


@pytest.mark.parametrize("spec,size", [("p=2", 2), ("p=3;ext=2", 9), ("p=2;ext=4", 16)])
def test_from_index_bijection(spec, size):
    F = parse_field_spec(spec)
    assert F.size == size
    seen = {F.from_index(i).rep for i in range(size)}
    assert len(seen) == size


def test_multiplicative_group_order():
    F = parse_field_spec("p=3;ext=2")
    for i in range(1, F.size):
        x = F.from_index(i)
        assert x ** (F.size - 1) == F.from_index(1)


def test_frobenius_fixes_exactly_the_subfield():
    F = parse_field_spec("p=2;ext=4")  # F_16 contains F_4
    fixed = [i for i in range(F.size) if frobenius(F.from_index(i), 4) == F.from_index(i)]
    assert len(fixed) == 4


def test_frobenius_rejects_non_subfield_size():
    F = parse_field_spec("p=2;ext=2")
    with pytest.raises(NotASubfield):
        frobenius(F.from_index(1), 8)


def test_subfield_elements_coerce_into_extension():
    F = parse_field_spec("p=3")
    E = extend_field(F, 2)
    a = F.from_index(2)
    b = E.from_index(5)
    assert (a + b) - b == E.element(a)
    assert a * b == b * a


def test_incompatible_fields_refuse_arithmetic():
    F = parse_field_spec("p=2")
    G = parse_field_spec("p=3")
    with pytest.raises(FieldError):
        F.from_index(1) + G.from_index(1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(2, [[1, 0, 1]])  # t^2 + 1 = (t+1)^2 over F_2


def test_spec_string_roundtrip():
    for spec in TOWERS:
        F = parse_field_spec(spec)
        G = parse_field_spec(F.spec_string())
        assert G.size == F.size and G.char == F.char


def test_degree_over_prime():
    assert field_degree_over_prime(parse_field_spec("p=2;ext=2;ext=3")) == 6


def test_multipoly_arithmetic_and_gcd():
    F = parse_field_spec("p=3")
    ff = FunctionField(F, ("a", "b"))
    a, b = ff.gens()
    x = (a + b) * (a - b)
    assert x == a * a - b * b
    g = mp_gcd((a.num * b.num), (a.num * a.num))
    assert g.degree() == 1


def test_rational_function_reduction():
    F = parse_field_spec("p=5")
    ff = FunctionField(F, ("a",))
    (a,) = ff.gens()
    r = (a * a - ff.one()) / (a - ff.one())
    assert r == a + ff.one()


# F_4, F_8, F_9, F_16 (one layer over F_2, and a tower over F_4), F_25, F_49
TABLE_FIELDS = ["p=2;ext=2", "p=2;ext=3", "p=3;ext=2", "p=2;ext=4", "p=2;ext=2;ext=2",
                "p=5;ext=2", "p=7;ext=2"]


@pytest.mark.parametrize("spec", TABLE_FIELDS)
def test_table_arithmetic_matches_polynomial_arithmetic(spec):
    F = parse_field_spec(spec)
    reps = [F.index_to_rep(i) for i in range(F.size)]
    for a in reps:
        for b in reps:
            assert F.mul_rep(a, b) == F._mul_poly(a, b)
        if a != F.zero_rep:
            assert F.inv_rep(a) == F._inv_poly(a)
            assert F.mul_rep(a, F.inv_rep(a)) == F.one_rep
    assert F._log is not None and len(F._log) == F.size


@pytest.mark.parametrize("spec", TABLE_FIELDS)
def test_table_zero_and_roundtrips(spec):
    F = parse_field_spec(spec)
    for i in range(F.size):
        a = F.index_to_rep(i)
        assert F.mul_rep(a, F.zero_rep) == F.zero_rep == F.mul_rep(F.zero_rep, a)
        assert F.rep_to_index(a) == i
    with pytest.raises(ZeroDivisionError):
        F.inv_rep(F.zero_rep)
    G = parse_field_spec(F.spec_string())
    assert G == F and G.spec_string() == F.spec_string()


def test_table_lookup_miss_falls_back():
    F = parse_field_spec("p=2;ext=2")
    t = F.index_to_rep(2)
    assert F.mul_rep(list(t), list(t)) == F.mul_rep(t, t)  # lists are not table keys
    assert F.inv_rep(list(t)) == F.inv_rep(t)
    assert F.mul_rep([0, 0], t) == F.zero_rep
    with pytest.raises(ZeroDivisionError):
        F.inv_rep([0, 0])


def test_unchecked_reducible_modulus_builds_no_table():
    F = make_field(2)
    R = FieldTower(F, [1, 0, 1], check=False)  # t^2 + 1 = (t+1)^2
    with pytest.raises(ReducibleModulus):
        R.mul_rep(R.one_rep, R.one_rep)


def test_large_extension_builds_no_table():
    E = extend_field(make_field(7), 12)
    assert E.size > ZECH_MAX_SIZE
    x = E.from_index(123456789)
    assert x * x.inverse() == E.one()
    assert E._log is None


def test_extend_field_is_memoized():
    F = parse_field_spec("p=3")
    assert extend_field(F, 2) is extend_field(parse_field_spec("p=3"), 2)


def test_equal_elements_of_a_tower_hash_alike():
    F2 = parse_field_spec("p=2")
    F4 = parse_field_spec("p=2;ext=2")
    F16 = parse_field_spec("p=2;ext=2;ext=2")
    assert F2.one() == F4.one()
    assert len({F2.one(), F4.one()}) == 1
    x = F4.from_index(2)
    lifted = F16.element(x)
    assert x == lifted and hash(x) == hash(lifted)
    assert len({x, lifted, F16.from_index(3)}) == 2
