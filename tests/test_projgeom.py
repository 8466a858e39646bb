"""PG(3,q) points, lines, incidence, and file formats."""
import random

import pytest

from geproci.projgeom import (
    EqualPoints,
    PointSet,
    ProjectivePoint,
    all_lines,
    collinear_classes,
    collinear_subsets,
    enumerate_projective_space,
    is_coplanar,
    line_through,
    lines_skew,
    matrix_rank,
    read_point_set,
    write_point_set,
)


@pytest.mark.parametrize("spec,npts,nlines", [
    ("p=2", 15, 35),
    ("p=3", 40, 130),
    ("p=2;ext=2", 85, 357),
])
def test_point_and_line_counts(spec, npts, nlines):
    from geproci.fields import parse_field_spec

    F = parse_field_spec(spec)
    pts = enumerate_projective_space(F, 3)
    assert len(pts) == npts
    assert len({p.key() for p in pts}) == npts
    lines = all_lines(F)
    assert len(lines) == nlines
    assert len({L.key() for L in lines}) == nlines


def test_plane_point_count(F3):
    assert len(enumerate_projective_space(F3, 2)) == 13


def test_each_line_has_q_plus_1_points(F3):
    for L in all_lines(F3)[:20]:
        pts = L.points()
        assert len(pts) == 4
        assert len({p.key() for p in pts}) == 4
        for p in pts:
            assert L.contains(p)


def test_point_normalization(F5):
    a = ProjectivePoint(F5, [2, 4, 0, 2])
    b = ProjectivePoint(F5, [1, 2, 0, 1])
    assert a.key() == b.key()


def test_line_through_is_order_independent(F2):
    a = ProjectivePoint(F2, [1, 0, 0, 0])
    b = ProjectivePoint(F2, [0, 1, 1, 0])
    assert line_through(a, b).key() == line_through(b, a).key()
    with pytest.raises(EqualPoints):
        line_through(a, ProjectivePoint(F2, [1, 0, 0, 0]))


def test_skewness_symmetric_and_meets_self(F2):
    lines = all_lines(F2)
    for L in lines[:8]:
        assert not lines_skew(L, L)
        for M in lines[:8]:
            assert lines_skew(L, M) == lines_skew(M, L)


def test_point_line_incidence_totals(F3):
    # each point of PG(3,3) lies on q^2+q+1 = 13 lines
    lines = all_lines(F3)
    p = ProjectivePoint(F3, [1, 2, 0, 1])
    assert sum(1 for L in lines if L.contains(p)) == 13


def test_collinear_subsets_full_space(F2, P3F2):
    subs = collinear_subsets(P3F2, 3)
    assert len(subs) == 35
    for line, members in subs:
        assert len(members) == 3


def test_is_coplanar(F2):
    plane = [p for p in enumerate_projective_space(F2, 3)
             if p.reps[3] == 0]
    assert is_coplanar(PointSet(F2, plane, 3))


def test_matrix_rank(F3):
    assert matrix_rank(F3, [[1, 1], [1, 2]]) == 2  # det = 1
    assert matrix_rank(F3, [[1, 2], [2, 1]]) == 1  # det = -3 = 0 mod 3


def test_point_set_file_roundtrip(P3F3):
    text = write_point_set(P3F3)
    Z = read_point_set(text)
    assert Z.field.size == 3
    assert [p.key() for p in Z.points] == [p.key() for p in P3F3.points]
    assert write_point_set(Z) == text


def test_point_set_file_extension_field(F4):
    pts = list(enumerate_projective_space(F4, 3).points)[:7]
    Z = PointSet(F4, pts, 3)
    back = read_point_set(write_point_set(Z))
    assert [p.key() for p in back.points] == [p.key() for p in Z.points]


def test_point_set_minus(F2, P3F2):
    L = all_lines(F2)[0]
    line = PointSet(F2, L.points(), 3)
    rest = P3F2.minus(line)
    assert len(rest) == 12
    for p in P3F2.points:
        assert p in P3F2
        assert (p in rest) == (p not in line)


# ---------------------------------------------------------------------------
# collinear classes against the pairwise line oracle

def _pairwise_oracle(Z, k):
    """A line through every pair of points, bucketed by line key: the line
    keys and member tuples of the lines with at least k points of Z."""
    buckets = {}
    pts = Z.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            key = line_through(pts[i], pts[j]).key()
            buckets.setdefault(key, set()).update((pts[i], pts[j]))
    return [(key, tuple(sorted(ms))) for key, ms in sorted(buckets.items()) if len(ms) >= k]


def _keyed(subs):
    return [(line.key(), members) for line, members in subs]


def _assert_every_pair_once(Z):
    classes = collinear_classes(Z)
    pairs = [(c[a], c[b]) for c in classes for a in range(len(c)) for b in range(a + 1, len(c))]
    n = len(Z)
    assert len(pairs) == len(set(pairs)) == n * (n - 1) // 2
    assert all(list(c) == sorted(set(c)) and len(c) >= 2 for c in classes)


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=2;ext=2"])
def test_collinear_subsets_match_the_oracle_on_pg3(spec):
    from geproci.fields import parse_field_spec

    F = parse_field_spec(spec)
    Z = enumerate_projective_space(F, 3)
    for k in (2, 3, F.size + 1, F.size + 2):
        assert _keyed(collinear_subsets(Z, k)) == _pairwise_oracle(Z, k)
    assert len(collinear_subsets(Z, 2)) == len(all_lines(F))
    _assert_every_pair_once(Z)


def test_collinear_subsets_match_the_oracle_on_the_40_points(forty_points_q7):
    Z = forty_points_q7
    for k in (2, 3):
        assert _keyed(collinear_subsets(Z, k)) == _pairwise_oracle(Z, k)
    _assert_every_pair_once(Z)
    # its 360-point complement is the union of 45 full lines
    comp = enumerate_projective_space(Z.field, 3).minus(Z)
    full = collinear_subsets(comp, 8)
    assert _keyed(full) == _pairwise_oracle(comp, 8)
    assert len(full) >= 45


def test_collinear_subsets_match_the_oracle_on_random_subsets():
    from geproci.fields import parse_field_spec

    rng = random.Random(7)
    for spec in ["p=2", "p=3", "p=2;ext=2", "p=5", "p=7"] * 4:
        F = parse_field_spec(spec)
        space = enumerate_projective_space(F, 3).points
        Z = PointSet(F, rng.sample(space, rng.randrange(2, min(len(space), 60))), 3)
        for k in (2, 3):
            assert _keyed(collinear_subsets(Z, k)) == _pairwise_oracle(Z, k)
        _assert_every_pair_once(Z)


def test_collinear_classes_of_small_sets(F3):
    empty = PointSet(F3, [], 3)
    assert collinear_classes(empty) == []
    one = PointSet(F3, [ProjectivePoint(F3, [0, 0, 1, 2])], 3)
    assert collinear_classes(one) == []
