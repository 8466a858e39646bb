"""PG(3,q) points, lines, incidence, and file formats."""
import functools
import itertools
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
    exact_cover,
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


# ---------------------------------------------------------------------------
# exact cover, and its three callers against the searches they replaced

def test_exact_cover_respects_parts():
    masks = [0b11, 0b01, 0b10]
    assert exact_cover(masks, 0b11) == [0]
    assert exact_cover(masks, 0b11, 1) == [0]
    assert exact_cover(masks, 0b11, 2) == [1, 2]
    assert exact_cover(masks, 0b11, 3) is None
    # the only cover has 2 parts
    assert exact_cover([0b0011, 0b1100, 0b0001], 0b1111, 3) is None


def test_exact_cover_uses_a_bit_outside_the_target_at_most_once():
    # bit 2 is outside the target: masks 0 and 1 may not both be used
    assert exact_cover([0b101, 0b110], 0b011) is None
    assert exact_cover([0b101, 0b110, 0b010], 0b011) == [0, 2]
    assert exact_cover([0b101, 0b110, 0b001], 0b011) == [2, 1]


def test_exact_cover_of_an_empty_target():
    assert exact_cover([], 0) == []
    assert exact_cover([0b1], 0) == []
    assert exact_cover([0b1], 0, 0) == []
    assert exact_cover([0b1], 0, 1) is None


def test_exact_cover_of_an_uncoverable_target():
    assert exact_cover([], 0b1) is None
    assert exact_cover([0b01], 0b11) is None
    assert exact_cover([0b011, 0b110], 0b111) is None


def test_exact_cover_matches_brute_force():
    """The first cover in the order that branches on the lowest uncovered
    bit and tries masks in the given order, found by enumeration."""
    rng = random.Random(3)
    for _ in range(300):
        target = rng.randrange(1 << 6)
        masks = [rng.randrange(1, 1 << 9) for _ in range(rng.randrange(9))]
        parts = rng.choice([None, 1, 2, 3])
        covers = []
        for r in range(len(masks) + 1):
            for sub in itertools.combinations(range(len(masks)), r):
                ms = [masks[i] for i in sub]
                if (sum(ms) == functools.reduce(int.__or__, ms, 0)
                        and sum(ms) & target == target
                        and all(m & target for m in ms)
                        and parts in (None, r)):
                    covers.append(sub)
        found = exact_cover(masks, target, parts)
        if not covers:
            assert found is None
            continue

        def order(sub):
            # the order of a cover's masks as the search picks them
            seq, left = [], target
            rest = list(sub)
            while left:
                i = min((i for i in rest if masks[i] & left & -left))
                seq.append(i)
                rest.remove(i)
                left &= ~masks[i]
            return seq

        assert found == min(order(c) for c in covers)


def _collinear_partition_oracle(Z, parts):
    """The former hand-written search of `core._collinear_partition`."""
    classes = collinear_classes(Z)
    classes.sort(key=lambda c: (-len(c), c))
    pts = Z.points
    masks = [(sum(1 << i for i in c), tuple(pts[i] for i in c)) for c in classes]
    chosen = []
    max_class = max((len(ms) for ms in classes), default=0)

    def rec(mask, used):
        if mask == 0:
            return used == parts
        if used >= parts:
            return False
        if mask.bit_count() > (parts - used) * max_class:
            return False
        low = (mask & -mask).bit_length() - 1
        for m, ms in masks:
            if m & (1 << low) and m & mask == m:
                chosen.append(ms)
                if rec(mask & ~m, used + 1):
                    return True
                chosen.pop()
        return False

    return list(chosen) if rec((1 << len(pts)) - 1, 0) else None


def _skew_line_cover_oracle(Z, count, per):
    """The former hand-written search of `core.skew_line_cover`."""
    if count * per != len(Z):
        return None
    usable = [(line, ms) for line, ms in collinear_subsets(Z, per) if len(ms) == per]
    index = {p: i for i, p in enumerate(Z.points)}
    masks = [(sum(1 << index[p] for p in ms), line) for line, ms in usable]
    chosen = []

    def rec(mask):
        if mask == 0:
            return True
        low = (mask & -mask).bit_length() - 1
        for m, line in masks:
            if m & (1 << low) and m & mask == m:
                if all(lines_skew(line, c) for c in chosen):
                    chosen.append(line)
                    if rec(mask & ~m):
                        return True
                    chosen.pop()
        return False

    return list(chosen) if rec((1 << len(Z)) - 1) else None


def _line_partition_oracle(Z):
    """The former hand-written search of `spreads.partition_into_lines`,
    which branches on the uncovered point with the fewest lines; None
    when no partition exists."""
    q = Z.field.size
    if len(Z) % (q + 1) != 0:
        return None
    full_lines = collinear_subsets(Z, q + 1)
    index = {p: i for i, p in enumerate(Z.points)}
    line_masks = [sum(1 << index[p] for p in ms) for _, ms in full_lines]
    point_lines = [[] for _ in Z.points]
    for i, lm in enumerate(line_masks):
        for p in range(len(Z)):
            if lm >> p & 1:
                point_lines[p].append(i)
    chosen = []

    def cover(mask):
        if mask == 0:
            return True
        best = None
        m = mask
        while m:
            low = (m & -m).bit_length() - 1
            m &= m - 1
            opts = [i for i in point_lines[low] if line_masks[i] & mask == line_masks[i]]
            if best is None or len(opts) < len(best):
                best = opts
                if len(opts) <= 1:
                    break
        for i in best:
            chosen.append(i)
            if cover(mask & ~line_masks[i]):
                return True
            chosen.pop()
        return False

    return [full_lines[i][0] for i in chosen] if cover((1 << len(Z)) - 1) else None


@functools.lru_cache(maxsize=None)
def _lines_of(spec):
    from geproci.fields import parse_field_spec

    return all_lines(parse_field_spec(spec))


def _hyperbolic_quadric(F):
    """x0·x3 = x1·x2: (q+1)² points, a (q+1, q+1) grid."""
    return PointSet(F, [p for p in enumerate_projective_space(F, 3)
                        if (p.coords[0] * p.coords[3] - p.coords[1] * p.coords[2]).is_zero()], 3)


def _random_line_unions(count):
    """Seeded unions of 2 to 4 random lines, half of them pairwise skew,
    some with a point dropped or added, so that covers by lines both exist
    and fail."""
    from geproci.fields import parse_field_spec

    rng = random.Random(10)
    out = []
    for i in range(count):
        spec = rng.choice(["p=2", "p=3", "p=2;ext=2"])
        F = parse_field_spec(spec)
        lines = []
        for line in rng.sample(_lines_of(spec), 12):
            if i % 2 or all(lines_skew(line, m) for m in lines):
                lines.append(line)
        pts = {p for line in lines[:rng.randrange(2, 5)] for p in line.points()}
        change = rng.randrange(3)
        if change == 1:
            pts.remove(rng.choice(sorted(pts)))
        elif change == 2:
            pts.add(rng.choice(enumerate_projective_space(F, 3).points))
        out.append(PointSet(F, pts, 3))
    return out


@pytest.fixture(scope="module")
def cover_inputs(forty_points_q7, mps7_q3):
    from geproci.fields import parse_field_spec
    from geproci.spreads import complement_points

    named = {f"PG(3,{q})": enumerate_projective_space(parse_field_spec(spec), 3)
             for q, spec in [(2, "p=2"), (3, "p=3"), (4, "p=2;ext=2"), (5, "p=5")]}
    named["mps-q3 complement"] = complement_points(mps7_q3)
    named["40 points"] = forty_points_q7
    named["quadric q=3"] = _hyperbolic_quadric(parse_field_spec("p=3"))
    named.update((f"random {i}", Z) for i, Z in enumerate(_random_line_unions(24)))
    return named


def test_collinear_partition_matches_the_oracle(cover_inputs):
    from geproci.core import _collinear_partition

    found = 0
    for name, Z in cover_inputs.items():
        lines = len(Z) // (Z.field.size + 1)
        for parts in sorted(set(range(2, 8)) | {lines - 1, lines}):
            got = _collinear_partition(Z, parts)
            assert got == _collinear_partition_oracle(Z, parts), (name, parts)
            found += got is not None
    assert found >= 20


def test_collinear_partition_into_many_parts(forty_points_q7):
    """Into 20 classes, the 40 points split into collinear pairs.  A
    search that does not bound the parts left from below tries every
    class of 3 or 4 points first, and takes minutes on it."""
    from geproci.core import _collinear_partition

    part = _collinear_partition(forty_points_q7, 20)
    assert sorted(p for c in part for p in c) == list(forty_points_q7.points)
    assert {len(c) for c in part} == {2}
    assert _collinear_partition(forty_points_q7, 21) is None


def test_skew_line_cover_matches_the_oracle(cover_inputs):
    from geproci.core import skew_line_cover

    found = 0
    for name, Z in cover_inputs.items():
        # the oracle has no prune: covers by 2-point lines of a larger set
        # take it seconds
        for per in range(2 if len(Z) <= 16 else 3, Z.field.size + 2):
            if len(Z) % per == 0:
                got = skew_line_cover(Z, len(Z) // per, per)
                assert got == _skew_line_cover_oracle(Z, len(Z) // per, per), (name, per)
                found += got is not None
    assert found >= 10


def _assert_line_partition(Z, lines):
    q = Z.field.size
    covered = [p for line in lines for p in line.points()]
    assert len(covered) == len(set(covered)) == len(Z) == len(lines) * (q + 1)
    assert all(p in Z for p in covered)


def test_partition_into_lines_matches_the_oracle(cover_inputs, forty_points_q7):
    from geproci.spreads import NoPartition, partition_into_lines

    inputs = dict(cover_inputs)
    inputs["360-point complement"] = enumerate_projective_space(forty_points_q7.field, 3).minus(forty_points_q7)
    found = 0
    for name, Z in inputs.items():
        got = partition_into_lines(Z)
        oracle = _line_partition_oracle(Z)
        assert isinstance(got, NoPartition) == (oracle is None), name
        if oracle is not None:
            _assert_line_partition(Z, oracle)
            _assert_line_partition(Z, got)
            found += 1
    assert found >= 8
