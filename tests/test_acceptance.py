"""End-to-end acceptance checks for the full toolkit.

Every assertion here is exact (integer or field arithmetic); there are no
numerical tolerances anywhere.
"""
import hashlib
import itertools
import math
import random

import pytest

from geproci import core, fatpoints
from geproci.cli import fixture_text
from geproci.fields import parse_field_spec
from geproci.multipoly import (
    HomogeneousForm,
    ScalarRing,
    evaluate,
    hilbert_value,
    scalar_is_zero,
)
from geproci.projgeom import (
    PointSet,
    ProjectivePoint,
    all_lines,
    collinear_subsets,
    enumerate_projective_space,
    is_coplanar,
    lines_skew,
    read_point_set,
)
from geproci.spreads import (
    NoPartition,
    PartialSpread,
    build_regular_spread,
    complement_points,
    partition_into_lines,
    read_spread,
    search_maximal_partial_spreads,
    spread_fingerprint,
    verify_spread,
)


# 1. regular spreads ---------------------------------------------------------

@pytest.mark.parametrize("spec,q", [("p=2", 2), ("p=3", 3), ("p=2;ext=2", 4), ("p=5", 5)])
def test_regular_spread_partitions_pg3q(spec, q):
    F = parse_field_spec(spec)
    S = build_regular_spread(F)
    assert len(S.lines) == q * q + 1
    rep = verify_spread(S)
    assert rep.clean
    assert len(S.point_cover()) == (q + 1) * (q * q + 1)


# 2. P^3(F_q) is (q+1, q^2+1)-geproci ---------------------------------------

def test_p3_f2_geproci_generic(P3F2):
    assert len(P3F2) == 15
    v = core.geproci_check(P3F2, 3, 5, mode="generic")
    assert v.geproci
    assert (v.certificate.f.degree, v.certificate.g.degree) == (3, 5)
    assert v.certificate.length == 15


def test_p3_f3_geproci_generic(P3F3):
    assert len(P3F3) == 40
    v = core.geproci_check(P3F3, 4, 10, mode="generic")
    assert v.geproci
    assert (v.certificate.f.degree, v.certificate.g.degree) == (4, 10)
    assert v.certificate.length == 40


def test_p3_f3_geproci_random_three_seeds(P3F3):
    for seed in (0, 1, 2):
        v = core.geproci_check(P3F3, 4, 10, mode="random", seed=seed, trials=1)
        assert v.geproci
        assert v.failure_bound is not None


# 3. Frobenius cone ----------------------------------------------------------

@pytest.mark.parametrize("spec,q,nlines", [("p=2", 2, 35), ("p=3", 3, 130),
                                           ("p=2;ext=2", 4, 357)])
def test_frobenius_cone_properties(spec, q, nlines):
    F = parse_field_spec(spec)
    P = core.GeneralPoint.generic(F)
    cone = core.frobenius_cone(F, P)
    assert cone.degree == q + 1
    for pt in enumerate_projective_space(F, 3):
        assert scalar_is_zero(evaluate(cone, P.ring.coerce_point_coords(pt)))
    assert core.frobenius_membership_check(F, P)
    trans = core.cone_line_transversality(cone, F)
    assert trans.total == nlines
    assert trans.violations == []


# 4. kernel dimensions for full projective spaces ---------------------------

@pytest.mark.parametrize("n,q,spec", [
    (1, 2, "p=2"), (1, 3, "p=3"), (1, 5, "p=5"),
    (2, 2, "p=2"), (2, 3, "p=3"),
    (3, 2, "p=2"), (3, 3, "p=3"),
])
def test_full_space_kernel_dimension(n, q, spec):
    F = parse_field_spec(spec)
    Z = PointSet(F, enumerate_projective_space(F, n), n)
    assert hilbert_value(Z, q + 1) == math.comb(n + 1, 2)


# 5. unexpected cones at q=2 -------------------------------------------------

def test_unexpected_quintic_cone_q2(P3F2):
    assert hilbert_value(P3F2, 5) == 41
    P = core.GeneralPoint.generic(P3F2.field)
    lhs, rhs, unexpected = core.unexpected_cone_dim(P3F2, 5, P)
    assert (lhs, rhs, unexpected) == (7, 6, True)


def test_unexpected_cubic_cone_q2(P3F2):
    assert hilbert_value(P3F2, 3) == 6
    P = core.GeneralPoint.generic(P3F2.field)
    lhs, rhs, unexpected = core.unexpected_cone_dim(P3F2, 3, P)
    assert lhs >= 1 and rhs == 0 and unexpected


# 6. unexpectedness parameter-count inequality ------------------------------

def test_unexpectedness_inequality_by_q():
    for q in (3, 4, 5, 7, 8, 9):
        lhs, rhs, holds = core.unexpectedness_inequality(q)
        assert holds, q
    lhs, rhs, holds = core.unexpectedness_inequality(2)
    assert not holds and (lhs, rhs) == (6, 6)


# 7. the q=3 maximal partial spread ------------------------------------------

@pytest.fixture(scope="module")
def q3_search(F3):
    return search_maximal_partial_spreads(F3, sizes=[7, 8, 9], mode="exhaustive")


def test_q3_search_finds_size7_and_no_8_or_9(q3_search):
    sizes = {len(S.lines) for S in q3_search.spreads}
    if q3_search.truncated:
        # a truncated run must still exhibit a size-7 witness
        assert 7 in sizes
    else:
        assert sizes == {7}
    assert 8 not in sizes and 9 not in sizes
    assert q3_search.anomalies == []


def test_q3_size7_unique_fingerprint(q3_search):
    fps = {spread_fingerprint(S) for S in q3_search.spreads
           if len(S.lines) == 7}
    assert len(fps) == 1


def test_q3_orbit_double_count(F3, q3_search):
    # PGL(4,3) is transitive on the 130 lines and on the skew pairs, so the
    # size-7 spreads through one line, or through one skew pair, count all
    lines = all_lines(F3)
    assert len(lines) == 130 and lines_skew(lines[0], lines[17])
    skew_pairs = sum(lines_skew(a, b) for a, b in itertools.combinations(lines, 2))
    assert skew_pairs == 5265
    k0, k17 = lines[0].key(), lines[17].key()
    through_line = through_pair = 0
    for S in q3_search.spreads:
        keys = {L.key() for L in S.lines}
        if k0 in keys:
            through_line += 1
            through_pair += k17 in keys
    assert (through_line, through_pair) == (9072, 672)
    total = len(q3_search.spreads)
    assert total == 168480 and not q3_search.truncated
    assert through_line * 130 == total * 7
    assert through_pair * skew_pairs == total * math.comb(7, 2)


def test_q3_mps_complement_structure(mps7_q3):
    assert verify_spread(mps7_q3).clean and mps7_q3.check_maximality()
    Z = complement_points(mps7_q3)
    assert len(Z) == 12
    assert not is_coplanar(Z)
    assert core.skew_line_cover(Z, 4, 3) is not None   # covered by 4 skew lines
    assert core.skew_line_cover(Z, 3, 4) is None        # but not a grid
    triples = [t for t in collinear_subsets(Z, 3) if len(t[1]) == 3]
    assert len(triples) == 16
    v = core.geproci_check(Z, 3, 4, mode="generic")
    assert v.geproci


# 8. P^3(F_2) minus a line ---------------------------------------------------

def test_p3f2_minus_line_half_grid(F2, P3F2):
    L = all_lines(F2)[0]
    Z = P3F2.minus(PointSet(F2, L.points(), 3))
    assert len(Z) == 12
    v = core.geproci_check(Z, 3, 4, mode="generic")
    assert v.geproci
    flags = core.classify(Z, 3, 4)
    assert flags.half_grid_cover
    triples = [t for t in collinear_subsets(Z, 3) if len(t[1]) == 3]
    assert len(triples) == 16


# 9. the 40-point F_7 fixture ------------------------------------------------

def test_40pt_q7_fixture(forty_points_q7):
    Z = forty_points_q7
    F = Z.field
    assert len(Z) == 40 and F.size == 7
    assert hilbert_value(Z, 4) == 5
    keys = {p.key() for p in Z.points}
    max_meet = max(sum(1 for p in L.points() if p.key() in keys)
                   for L in all_lines(F))
    assert max_meet < 8  # non-half grid: no full line inside Z
    comp = PointSet(F, [p for p in enumerate_projective_space(F, 3)
                        if p.key() not in keys], 3)
    assert len(comp) == 360
    part = partition_into_lines(comp)
    assert not isinstance(part, NoPartition)
    lines = list(part)
    assert len(lines) == 45
    sp = PartialSpread(F, lines, maximal=True)
    assert verify_spread(sp).clean
    assert sp.check_maximality()
    for seed in (0, 1, 2):
        v = core.geproci_check(Z, 5, 8, mode="random", seed=seed, trials=1)
        assert v.geproci


# 10. characteristic-2 fat-point schemes ------------------------------------

def test_fat_point_schemes_char2(F2):
    S9 = fatpoints.example_concurrent_nine(F2)
    assert hilbert_value(S9, 3) == 11
    assert fatpoints.scheme_geproci_check(S9, 3, 3, mode="generic").geproci

    S6 = fatpoints.example_strange_conic_six(F2)
    assert fatpoints.scheme_geproci_check(S6, 2, 3, mode="generic").geproci

    S9b = fatpoints.example_cuspidal_nine(F2)
    assert fatpoints.scheme_geproci_check(S9b, 3, 3, mode="generic").geproci


def test_strange_conic_quadric_in_generic_kernel(F2):
    S6 = fatpoints.example_strange_conic_six(F2)
    ring = ScalarRing(F2, names=("a", "b", "c"))
    a, b, c = ring.gens()
    mat = S6.condition_rows(2, ring)
    quadric = HomogeneousForm(ring, 4, 2, {
        (1, 1, 0, 0): c, (1, 0, 1, 0): b, (0, 1, 1, 0): a, (0, 0, 0, 2): a * b,
    })
    vec = quadric.coeff_vector(mat.monos)
    for row in mat.rows:
        total = ring.zero()
        for r, v in zip(row, vec):
            total = total + r * v
        assert scalar_is_zero(total)


def test_concurrent_tangents_f2_pass_f3_fail(F2, F3):
    for F, expected in ((F2, True), (F3, False)):
        ring = ScalarRing(F)
        one = F.from_index(1)
        conic = HomogeneousForm(ring, 3, 2,
                                {(1, 1, 0): one, (1, 0, 1): one, (0, 1, 1): one})
        pts = [ProjectivePoint(F, [1, 0, 0]), ProjectivePoint(F, [0, 1, 0]),
               ProjectivePoint(F, [0, 0, 1])]
        focus = ProjectivePoint(F, [1, 1, 1])
        assert fatpoints.concurrent_tangents_check(conic, pts, focus) is expected


# 11. property suites --------------------------------------------------------

def _random_coordinate_change(F, rng):
    """A uniformly drawn invertible 4x4 matrix over F."""
    from geproci.projgeom import matrix_rank

    while True:
        M = [[rng.randrange(F.size) for _ in range(4)] for _ in range(4)]
        rows = [[F.index_to_rep(x) for x in row] for row in M]
        if matrix_rank(F, [list(r) for r in rows]) == 4:
            return rows


def _apply_matrix(F, M, p):
    coords = []
    for i in range(4):
        acc = F.zero_rep
        for j in range(4):
            acc = F.add_rep(acc, F.mul_rep(M[i][j], p.reps[j]))
        coords.append(acc)
    return ProjectivePoint(F, coords)


def _transform(Z, M):
    F = Z.field
    return PointSet(F, [_apply_matrix(F, M, p) for p in Z.points], 3)


def test_verdict_invariant_under_coordinate_changes(mps7_q3, forty_points_q7, F2):
    rng = random.Random(20260826)
    cases = [
        (complement_points(mps7_q3), 3, 4),
        (forty_points_q7, 5, 8),
        (fatpoints.example_concurrent_nine(F2), 3, 3),
    ]
    for Z, a, b in cases:
        is_scheme = isinstance(Z, fatpoints.FatPointScheme)
        field = Z.field
        check = fatpoints.scheme_geproci_check if is_scheme else core.geproci_check
        base = check(Z, a, b, mode="random", seed=0, trials=1).geproci
        assert base
        for _ in range(5):
            M = _random_coordinate_change(field, rng)
            if is_scheme:
                moved = fatpoints.FatPointScheme(
                    field,
                    [_apply_matrix(field, M, p) for p in Z.simple],
                    [(_apply_matrix(field, M, a_), _apply_matrix(field, M, b_))
                     for a_, b_ in Z.doubled],
                )
            else:
                moved = _transform(Z, M)
            assert check(moved, a, b, mode="random", seed=0, trials=1).geproci == base


def test_generic_random_agreement_on_fixtures(P3F2, mps7_q3, forty_points_q7, F2):
    cases = [
        (P3F2, 3, 5),
        (complement_points(mps7_q3), 3, 4),
        (fatpoints.example_concurrent_nine(F2), 3, 3),
    ]
    for Z, a, b in cases:
        g = core.geproci_check(Z, a, b, mode="generic").geproci
        for seed in (0, 1, 2):
            r = core.geproci_check(Z, a, b, mode="random", seed=seed, trials=1)
            assert r.geproci == g
    # the q=7 fixture is certified in random mode only (its symbolic
    # elimination is beyond desk scale); seeds must agree with each other
    verdicts = {core.geproci_check(forty_points_q7, 5, 8, mode="random",
                                   seed=s, trials=1).geproci for s in (0, 1, 2)}
    assert verdicts == {True}


def test_kernel_soundness_rechecks(F5):
    from geproci.multipoly import kernel_of_conditions, point_evaluation_matrix

    rng = random.Random(5)
    ring = ScalarRing(F5)
    pts = list(enumerate_projective_space(F5, 2).points)
    for _ in range(10):
        sample = rng.sample(pts, 8)
        mat = point_evaluation_matrix(ring, sample, 3, 3)
        kern = kernel_of_conditions(mat)
        assert kern.recheck()
        assert kern.dimension + kern.rank == 10


# 12. certificate text of the generic checks ---------------------------------

FORMS_SHA256 = {
    "mps-q3": "80816f8587215f1c6a5faefda3fe96af4c77c73b1266df0241d4564a1838d252",
    "concurrent-nine": "bab50ef209c3adec0c07bf27c2cdea8c9a18e40985d0ea0f880d4defbeb785a3",
    "PG(3,3)": "5b1a3fed98b261e117958b8bcb7bafd6dfbbd6451e6cc9223dcdb35086a8ced0",
}


def test_generic_certificate_forms_are_pinned(mps7_q3, P3F3):
    """The run reports compare verdicts, not certificate text; pin the text
    of the serialized forms of three generic certificates."""
    checks = {
        "mps-q3": lambda: core.geproci_check(complement_points(mps7_q3), 3, 4),
        "concurrent-nine": lambda: fatpoints.scheme_geproci_check(
            fatpoints.read_scheme(fixture_text("concurrent-nine-q2.scheme")), 3, 3),
        "PG(3,3)": lambda: core.geproci_check(P3F3, 4, 10),
    }
    for name, check in checks.items():
        v = check()
        assert v.geproci and v.certificate.mode == "generic"
        forms = "\n".join(v.certificate.to_dict()["forms"])
        assert hashlib.sha256(forms.encode()).hexdigest() == FORMS_SHA256[name], name
