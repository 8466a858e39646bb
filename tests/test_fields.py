"""Field towers: arithmetic laws, Frobenius, subfield embeddings."""
import random

import pytest

from geproci import fields
from geproci.fields import (
    ZECH_MAX_SIZE,
    FieldError,
    FieldTower,
    MultiPoly,
    NotASubfield,
    ReducibleModulus,
    extend_field,
    field_degree_over_prime,
    frobenius,
    is_irreducible,
    make_field,
    parse_field_spec,
    PrimeField,
    row_reduce,
    smallest_irreducible,
)
from geproci.multipoly import ScalarRing, _univariate_resultant

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


def test_multipoly_arithmetic():
    F = parse_field_spec("p=3")
    a, b = ScalarRing(F, names=("a", "b")).gens()
    x = (a + b) * (a - b)
    assert x == a * a - b * b


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


@pytest.mark.parametrize("spec", ["p=3", "p=3;ext=2"])
def test_field_elements_never_equal_ints(spec):
    # 1 and 4 both map to one() in characteristic 3; no hash agrees with both
    F = parse_field_spec(spec)
    assert F.one() != 1 and F.one() != 4 and not (F.one() == 1)
    assert len({F.one(), 1}) == 2
    assert F.one() == F.element(1) == F.element(4)


# ---------------------------------------------------------------------------
# row_reduce: the packed path of the large prime-base layers against the loop

PACKED = ["p=7;ext=12", "p=3;ext=20", "p=2;ext=31",
          "p=3;mod=2,1,2,2,1,2,1,1,1,1,2,1"]  # dense modulus: n - 1 = 10 folds


def _packed_field(spec):
    E = parse_field_spec(spec)
    assert E.size > ZECH_MAX_SIZE and E.packed is not None
    return E


def _random_matrix(E, rng, nrows, ncols, rank=None):
    """Random rep matrix; with `rank`, rows beyond it are combinations."""
    rows = [[E.index_to_rep(rng.randrange(E.size)) for _ in range(ncols)]
            for _ in range(nrows if rank is None else rank)]
    while len(rows) < nrows:
        coeffs = [E.index_to_rep(rng.randrange(E.size)) for _ in range(rank)]
        row = [E.zero_rep] * ncols
        for k, src in zip(coeffs, rows):
            row = [E.add_rep(x, E.mul_rep(k, y)) for x, y in zip(row, src)]
        rows.insert(rng.randrange(len(rows) + 1), row)
    return rows


def _all_max(E):
    """The element whose coordinates are all p - 1, the slot-bound worst case."""
    return tuple([E.base.p - 1] * E.degree)


@pytest.mark.parametrize("spec", PACKED)
def test_packed_product_matches_schoolbook(spec):
    E = _packed_field(spec)
    B, mod = E.base, list(E.modulus)
    rng = random.Random(3)
    pairs = [(_all_max(E), _all_max(E))]
    pairs += [(E.index_to_rep(rng.randrange(E.size)), E.index_to_rep(rng.randrange(E.size)))
              for _ in range(200)]
    for a, b in pairs:
        want = E._pad(fields._pmod(B, fields._pmul(B, list(a), list(b)), mod))
        assert E._mul_poly(a, b) == want


@pytest.mark.parametrize("spec", PACKED)
@pytest.mark.parametrize("shape", [(3, 4), (7, 7), (9, 6), (12, 15)])
def test_row_reduce_packed_matches_loop(spec, shape):
    E = _packed_field(spec)
    rng = random.Random(hash(shape))
    nrows, ncols = shape
    for rank in (None, min(shape) - 2, 1):
        rows = _random_matrix(E, rng, nrows, ncols, rank)
        got = row_reduce(E, rows)
        assert got == fields._row_reduce_loop(E, rows)
        assert len(got[0]) == (min(shape) if rank is None else rank)


@pytest.mark.parametrize("spec", PACKED[:3])
def test_row_reduce_packed_matches_loop_at_kernel_shapes(spec):
    # the random-mode condition matrices of the 40-point set: 40x21, 40x45
    E = _packed_field(spec)
    rng = random.Random(7)
    for nrows, ncols, rank in ((40, 21, 20), (40, 45, 34)):
        rows = _random_matrix(E, rng, nrows, ncols, rank)
        assert row_reduce(E, rows) == fields._row_reduce_loop(E, rows)


@pytest.mark.parametrize("spec", PACKED)
def test_row_reduce_worst_case_slots(spec):
    E = _packed_field(spec)
    m = _all_max(E)
    # all entries p - 1 at the largest shape used: rank 1
    rows = [[m] * 45 for _ in range(40)]
    got = row_reduce(E, rows)
    assert got == fields._row_reduce_loop(E, rows) and got[0] == [0]
    # a cell that takes min(rows, cols) - 1 folded products m * m on top of m
    # with no reduction in between: rows e_i | m over rows -m ... -m | m
    k = 39
    neg = E.neg_rep(m)
    rows = [[E.one_rep if j == i else E.zero_rep for j in range(k)] + [m] for i in range(k)]
    rows.append([neg] * k + [m])
    got = row_reduce(E, rows)
    assert got == fields._row_reduce_loop(E, rows)
    want = E.add_rep(m, E.mul_rep(E.index_to_rep(k % E.char), E.mul_rep(m, m)))
    assert got[2] == want  # det: the last pivot, m + k m^2


@pytest.mark.parametrize("spec", ["p=7", "p=3;ext=2", "p=7;ext=12", "p=2;ext=31"])
def test_row_reduce_edge_inputs(spec):
    E = parse_field_spec(spec)
    z, one = E.zero_rep, E.one_rep
    assert row_reduce(E, []) == ([], [], one)  # det of the empty matrix
    assert row_reduce(E, [[z, z, z], [z, z, z]]) == ([], [], z)
    x = E.from_index(E.size - 2).rep
    single = row_reduce(E, [[z, x, x]])
    assert single == ([1], [[z, one, one]], z)
    assert single == fields._row_reduce_loop(E, [[z, x, x]])
    dup = [[one, x], [one, x]]
    assert row_reduce(E, dup) == ([0], [[one, x]], z)
    assert row_reduce(E, [[z, one], [one, z]]) == ([0, 1], [[one, z], [z, one]], E.neg_rep(one))


def _reference_det(rows):
    """Determinant by forward elimination on FieldElements."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det = rows[0][0].field.one() if rows else None
    for c in range(n):
        piv = next((r for r in range(c, n) if not rows[r][c].is_zero()), None)
        if piv is None:
            return det.field.zero()
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c]
        for r in range(c + 1, n):
            fac = rows[r][c] / rows[c][c]
            rows[r] = [x - fac * y for x, y in zip(rows[r], rows[c])]
    return det


@pytest.mark.parametrize("spec", ["p=7", "p=2;ext=2;ext=2", "p=7;ext=12", "p=3;ext=20"])
def test_resultant_is_the_sylvester_determinant(spec):
    E = parse_field_spec(spec)
    ring = ScalarRing(E)
    rng = random.Random(11)

    def poly(deg):
        coeffs = [E.from_index(rng.randrange(E.size)) for _ in range(deg)]
        return coeffs + [E.from_index(rng.randrange(1, E.size))]

    for da, db in ((1, 1), (2, 3), (5, 8), (4, 4)):
        a, b = poly(da), poly(db)
        size = da + db
        sylvester = []
        for i in range(db):
            sylvester.append([E.zero()] * i + a[::-1] + [E.zero()] * (size - i - da - 1))
        for i in range(da):
            sylvester.append([E.zero()] * i + b[::-1] + [E.zero()] * (size - i - db - 1))
        assert _univariate_resultant(a, b, ring) == _reference_det(sylvester)
    # a common root makes the resultant vanish
    r = E.from_index(5)
    a = [E.zero() - r, E.one()]
    b = [E.zero() - r * r, E.zero(), E.one()]
    assert _univariate_resultant(a, b, ring).is_zero()


def test_resultant_with_coefficients_in_an_extension():
    F = parse_field_spec("p=2")
    E = extend_field(F, 5)
    ring = ScalarRing(F)
    t = E.from_index(9)
    a = [F.one(), t, F.one()]  # mixed fields, as after a shear from distinct_scalars
    b = [t * t, F.one()]
    lifted = [E.element(c) for c in a], [E.element(c) for c in b]
    assert _univariate_resultant(a, b, ring) == _univariate_resultant(*lifted, ScalarRing(E))
    # Res(a, x - s) = a(s) for monic linear b
    s = t * t
    assert _univariate_resultant(a, [s, F.one()], ring) == a[0] + a[1] * s + a[2] * s * s


# ---------------------------------------------------------------------------
# rep_is_zero and smallest_irreducible

def _structural_is_zero(F, a):
    if isinstance(F, FieldTower):
        return all(_structural_is_zero(F.base, x) for x in a)
    return a % F.p == 0


@pytest.mark.parametrize("spec", ["p=2;ext=2", "p=3;ext=2", "p=2;ext=2;ext=2"])
def test_rep_is_zero_fast_path_agrees_with_structure(spec):
    F = parse_field_spec(spec)
    for x in F.elements():
        assert F.rep_is_zero(x.rep) == _structural_is_zero(F, x.rep) == (x.index == 0)
    # list reps, reduced or not, are walked
    assert F.rep_is_zero(list(F.zero_rep))
    assert not F.rep_is_zero(list(F.one_rep))
    if isinstance(F.base, PrimeField):
        assert F.rep_is_zero([F.char] + [0] * (F.degree - 1))
        assert not F.rep_is_zero([F.char + 1] + [0] * (F.degree - 1))
    else:
        assert F.rep_is_zero([list(F.base.zero_rep)] * F.degree)


def test_smallest_irreducible_is_memoized_and_fresh():
    F = parse_field_spec("p=3")
    first = smallest_irreducible(F, 4)
    assert first == smallest_irreducible(parse_field_spec("p=3"), 4)
    assert fields._smallest_irreducible.cache_info().hits >= 1
    first.append(99)
    assert smallest_irreducible(F, 4) == first[:-1]
    assert is_irreducible(F, smallest_irreducible(F, 4))


# ---------------------------------------------------------------------------
# the modulus search and the inverse of the large prime-base layers

def _monic(p, n, i):
    """The monic polynomial of degree n over F_p with canonical index i."""
    coeffs = []
    for _ in range(n):
        i, r = divmod(i, p)
        coeffs.append(r)
    return coeffs + [1]


def _sympy_irreducible(p, m):
    import sympy  # the test-only oracle

    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(m)), x, modulus=p).is_irreducible


def test_is_irreducible_matches_sympy_on_small_degrees():
    for p, degrees in ((2, range(2, 6)), (3, range(2, 6)), (5, (2, 3)), (7, (2, 3))):
        F = PrimeField(p)
        for n in degrees:
            for i in range(p ** n):
                m = _monic(p, n, i)
                assert is_irreducible(F, m) == _sympy_irreducible(p, m), (p, m)


# The smallest irreducibles name the random-mode extensions in spec strings
# and reports; the search tests every candidate below them.
SMALLEST = {
    (7, 12): [2, 1, 1] + [0] * 9 + [1],
    (3, 20): [1, 2, 0, 1] + [0] * 16 + [1],
    (2, 31): [1, 0, 0, 1] + [0] * 27 + [1],
    (2, 20): [1, 0, 0, 1] + [0] * 16 + [1],
    (3, 13): [1, 2] + [0] * 11 + [1],
}


@pytest.mark.parametrize("p,n", sorted(SMALLEST))
def test_smallest_irreducible_is_pinned(p, n):
    assert smallest_irreducible(PrimeField(p), n) == SMALLEST[p, n]


@pytest.mark.parametrize("p,n,count", [(7, 12, 59), (3, 20, 35), (2, 31, 10)])
def test_modulus_candidates_match_sympy(p, n, count):
    F = PrimeField(p)
    cands = [_monic(p, n, i) for i in range(count)]
    assert cands[-1] == SMALLEST[p, n]
    assert [is_irreducible(F, m) for m in cands] == [_sympy_irreducible(p, m) for m in cands]
    assert not any(is_irreducible(F, m) for m in cands[:-1])


def test_is_irreducible_makes_the_modulus_monic():
    F = PrimeField(5)
    for i in range(25):
        m = _monic(5, 2, i)
        assert is_irreducible(F, [2 * c % 5 for c in m]) == is_irreducible(F, m)


@pytest.mark.parametrize("spec", ["p=7;ext=12", "p=3;ext=20", "p=2;ext=31"])
def test_large_layer_inverse(spec):
    E = _packed_field(spec)
    rng = random.Random(11)
    for _ in range(200):
        a = E.index_to_rep(rng.randrange(1, E.size))
        inv = E.inv_rep(a)
        assert E._mul_poly(a, inv) == E.one_rep
        assert E.inv_rep(list(a)) == inv  # list reps are accepted
        assert E.inv_rep([c + E.base.p for c in a]) == inv  # and unreduced entries
    with pytest.raises(ZeroDivisionError):
        E.inv_rep(E.zero_rep)
    with pytest.raises(ZeroDivisionError):
        E.inv_rep(list(E.zero_rep))


def test_large_layer_inverse_of_a_non_unit():
    # x * m12 is reducible; its factors x and m12 are non-units of the ring
    F = make_field(7)
    m12 = SMALLEST[7, 12]
    R = FieldTower(F, [0] + m12, check=False)
    assert R.size > ZECH_MAX_SIZE
    for a in (R.index_to_rep(7), R._pad(m12), R._pad([0] + m12[:-1])):
        with pytest.raises(ZeroDivisionError):
            R.inv_rep(a)
    a = R.index_to_rep(1 + 7)  # 1 + x is a unit
    assert R._mul_poly(a, R.inv_rep(a)) == R.one_rep


# ---------------------------------------------------------------------------
# MultiPoly: packed graded exponent keys

NAMES = ("a", "b", "c")


def _random_poly(F, rng, nterms=8, maxdeg=5):
    """A random polynomial through the public arithmetic, and the same
    polynomial as a dict exponent-tuple -> rep built without packed keys."""
    gens = [MultiPoly.var(F, NAMES, n) for n in NAMES]
    poly = MultiPoly.zero(F, NAMES)
    oracle = {}
    for _ in range(nterms):
        exps = tuple(rng.randrange(maxdeg + 1) for _ in NAMES)
        c = F.from_index(rng.randrange(1, F.size))
        mono = MultiPoly.const(F, NAMES, c)
        for g, e in zip(gens, exps):
            mono = mono * g ** e
        poly = poly + mono
        s = F.add_rep(oracle.get(exps, F.zero_rep), c.rep)
        if F.rep_is_zero(s):
            oracle.pop(exps, None)
        else:
            oracle[exps] = s
    return poly, oracle


def _unpacked(poly):
    return {poly.exps(k): v for k, v in poly.terms.items()}


@pytest.mark.parametrize("spec", ["p=3", "p=2;ext=2"])
def test_multipoly_leading_and_degree_match_tuple_order(spec):
    F = parse_field_spec(spec)
    rng = random.Random(7)
    for _ in range(40):
        f, f_oracle = _random_poly(F, rng)
        g, g_oracle = _random_poly(F, rng, nterms=4)
        assert _unpacked(f) == f_oracle
        if not f_oracle:
            continue
        lead = max(f_oracle, key=lambda e: (sum(e), e))
        key, rep = f.leading()
        assert (f.exps(key), rep) == (lead, f_oracle[lead])
        assert f.degree() == sum(lead)
        # a product's keys are sums of keys: compare with a tuple-keyed product
        prod = {}
        for e1, v1 in f_oracle.items():
            for e2, v2 in g_oracle.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                prod[e] = F.add_rep(prod.get(e, F.zero_rep), F.mul_rep(v1, v2))
        assert _unpacked(f * g) == {e: v for e, v in prod.items() if not F.rep_is_zero(v)}


def test_multipoly_degree_of_zero_and_constants(F3):
    assert MultiPoly.zero(F3, NAMES).degree() == -1
    assert MultiPoly.const(F3, NAMES, 2).degree() == 0
    assert MultiPoly.var(F3, NAMES, "c").degree() == 1


def test_poly_str_term_order(F3):
    a, b, c = (MultiPoly.var(F3, NAMES, n) for n in NAMES)
    f = 2 + c + b ** 2 + a * b + a * c ** 2 + 2 * a ** 3
    assert repr(f) == "2 a^3 + a c^2 + a b + b^2 + c + 2"


def test_exact_div_rejects_a_negative_exponent(F3):
    a, b, _ = (MultiPoly.var(F3, NAMES, n) for n in NAMES)
    # the total degrees divide (2 >= 1), but the quotient would need b^-1
    with pytest.raises(ValueError):
        (a ** 2).exact_div(b)
    assert (a ** 2 * b + a * b).exact_div(b) == a ** 2 + a


def test_multipoly_exponent_overflow_raises(F3):
    a = MultiPoly.var(F3, NAMES, "a")
    top = a ** ((1 << fields.EXP_BITS) - 1)
    assert top.degree() == (1 << fields.EXP_BITS) - 1
    assert top.exps(top.leading()[0]) == ((1 << fields.EXP_BITS) - 1, 0, 0)
    with pytest.raises(OverflowError):
        top * a
    with pytest.raises(OverflowError):
        a ** (1 << fields.EXP_BITS)


@pytest.mark.parametrize("spec", ["p=3", "p=2;ext=2"])
def test_multipoly_scalar_arithmetic_matches_constant_polynomials(spec):
    F = parse_field_spec(spec)
    rng = random.Random(11)
    f, _ = _random_poly(F, rng)
    prime = parse_field_spec(f"p={F.char}")
    scalars = [F.from_index(i) for i in range(F.size)] + [prime.one(), 0, 1, 5, -3]
    for s in scalars:
        k = MultiPoly.const(F, NAMES, s)
        assert (f * s).terms == (s * f).terms == (f * k).terms
        assert (f + s).terms == (s + f).terms == (f + k).terms
        assert (f - s).terms == (f - k).terms
        assert (s - f).terms == (k - f).terms
        assert (f - f + s).terms == k.terms
