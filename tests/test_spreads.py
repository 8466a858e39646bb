"""Spreads and maximal partial spreads of PG(3,q)."""
import functools
import random

import pytest

from geproci import spreads
from geproci.fields import parse_field_spec
from geproci.projgeom import PointSet, all_lines, enumerate_projective_space, lines_skew
from geproci.spreads import (
    NoPartition,
    PartialSpread,
    SpreadError,
    build_regular_spread,
    complement_points,
    deficiency_window,
    partition_into_lines,
    read_spread,
    search_maximal_partial_spreads,
    spread_fingerprint,
    verify_spread,
    write_spread,
)


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=2;ext=2", "p=5"])
def test_regular_spread(spec):
    F = parse_field_spec(spec)
    q = F.size
    S = build_regular_spread(F)
    assert len(S.lines) == q * q + 1
    rep = verify_spread(S)
    assert rep.clean
    assert not rep.skew_violations and not rep.uncovered and not rep.doubly_covered
    assert len(S.point_cover()) == (q + 1) * (q * q + 1)


def test_spread_of_pg32_count(F2):
    # PG(3,2) has exactly 56 spreads
    res = search_maximal_partial_spreads(F2, sizes=[5], mode="exhaustive")
    assert len(res.spreads) == 56
    assert not res.truncated
    fps = {spread_fingerprint(S) for S in res.spreads}
    assert len(fps) == 1  # all regular, a single equivalence fingerprint


def test_search_first_mode(F3):
    res = search_maximal_partial_spreads(F3, mode="first")
    assert len(res.spreads) == 1
    assert verify_spread(res.spreads[0]).clean


# (nodes, truncated, found, sizes) of each search; `nodes` is a
# deterministic report field of `geproci spread search`
SEARCH_CONTRACT = [
    ("p=2", dict(sizes=[5]), (872, False, 56, [5])),
    ("p=2", dict(), (1212, False, 56, [5])),
    ("p=3", dict(mode="first"), (11, False, 1, [10])),
    ("p=3", dict(node_budget=200), (201, True, 6, [10])),
    ("p=2", dict(mode="sample", seed=5), (1212, False, 56, [5])),
    ("p=3", dict(sizes=[7], mode="sample", seed=3, node_budget=5000), (5001, True, 163, [7])),
    ("p=3", dict(sizes=[7], mode="first", node_budget=10), (11, True, 0, [])),
]


@pytest.mark.parametrize("spec,kwargs,expected", SEARCH_CONTRACT)
def test_search_contract(spec, kwargs, expected):
    res = search_maximal_partial_spreads(parse_field_spec(spec), **kwargs)
    sizes = sorted({len(S.lines) for S in res.spreads})
    assert (res.nodes, res.truncated, len(res.spreads), sizes) == expected
    keys = [tuple(L.key() for L in S.lines) for S in res.spreads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for S in res.spreads:
        assert S.maximal and S.is_pairwise_skew()
    assert res.anomalies == []


def test_search_sample_requires_seed(F2):
    with pytest.raises(SpreadError):
        search_maximal_partial_spreads(F2, mode="sample")


def test_search_budget_truncation(F3):
    res = search_maximal_partial_spreads(F3, node_budget=200)
    assert res.truncated


def test_deficiency_window():
    lo, hi = deficiency_window(9)
    assert lo == 4 and hi == 64


def test_complement_and_fingerprint(mps7_q3):
    S = mps7_q3
    assert len(S.lines) == 7
    assert S.deficiency == 3
    assert verify_spread(S).clean
    assert S.check_maximality()
    Z = complement_points(S)
    assert len(Z) == 12
    fp1 = spread_fingerprint(S)
    assert fp1 == spread_fingerprint(S)  # deterministic


def test_partial_spread_rejects_non_skew(F2):
    lines = all_lines(F2)
    meeting = [L for L in lines if L.contains(lines[0].points()[0])][:2]
    sp = PartialSpread(F2, meeting)
    assert not sp.is_pairwise_skew()


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=2;ext=2", "p=5"])
def test_skew_violations_match_the_rank_test_pairs(spec):
    F = parse_field_spec(spec)
    lines = all_lines(F)
    rng = random.Random(F.size)
    sets = [build_regular_spread(F).lines]
    # seeded sets drawn with replacement, so some repeat a line
    sets += [[rng.choice(lines) for _ in range(rng.randrange(1, 9))] for _ in range(30)]
    for members in sets:
        S = PartialSpread(F, members)
        ls = S.lines
        meeting = [(ls[i], ls[j]) for i in range(len(ls)) for j in range(i + 1, len(ls))
                   if not lines_skew(ls[i], ls[j])]
        assert verify_spread(S).skew_violations == meeting
        assert S.is_pairwise_skew() == (not meeting)


@pytest.mark.parametrize("spec", ["p=2", "p=3", "p=2;ext=2"])
def test_uncovered_points_match_the_enumeration(monkeypatch, spec):
    # a regular spread covers every point, so PG(3,q) is not enumerated;
    # partial spreads and sets with repeated lines list the points that the
    # full enumeration finds uncovered, in its order
    F = parse_field_spec(spec)
    space = enumerate_projective_space(F, 3)
    regular = build_regular_spread(F).lines
    lines = all_lines(F)
    rng = random.Random(F.size)
    partial = [regular[:k] for k in (0, 1, len(regular) - 1)]
    partial += [[rng.choice(lines) for _ in range(rng.randrange(1, 9))] for _ in range(10)]
    for members in partial:
        S = PartialSpread(F, members)
        covered = {p.key() for L in S.lines for p in L.points()}
        want = [p for p in space.points if p.key() not in covered]
        assert want and verify_spread(S).uncovered == want
    monkeypatch.setattr(spreads, "enumerate_projective_space", None)
    rep = verify_spread(PartialSpread(F, regular))
    assert rep.clean and rep.uncovered == []


def test_partition_into_lines_full_space(F2, P3F2):
    part = partition_into_lines(P3F2)
    assert not isinstance(part, NoPartition)
    assert len(part) == 5


def test_partition_into_lines_impossible(mps7_q3):
    # a maximal partial spread complement contains no full line
    Z = complement_points(mps7_q3)
    part = partition_into_lines(Z)
    assert isinstance(part, NoPartition)


def test_spread_file_roundtrip(mps7_q3):
    text = write_spread(mps7_q3)
    back = read_spread(text)
    assert sorted(L.key() for L in back.lines) == sorted(L.key() for L in mps7_q3.lines)
    assert write_spread(back) == text


@functools.lru_cache(maxsize=None)
def _rank_test_meet_masks(spec):
    """Per line of PG(3,q): the bitmask of the other lines it meets, by rank
    tests (independent of the point masks the library uses)."""
    lines = all_lines(parse_field_spec(spec))
    meet = [0] * len(lines)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if not lines_skew(lines[i], lines[j]):
                meet[i] |= 1 << j
                meet[j] |= 1 << i
    return lines, meet


def _fingerprint_oracle(S):
    """The per-point cover count and per-line popcount formula."""
    lines, meet = _rank_test_meet_masks(S.field.spec_string())
    index = {L.key(): i for i, L in enumerate(lines)}
    cover = {p.key(): 0 for p in enumerate_projective_space(S.field, 3)}
    bits = 0
    for L in S.lines:
        bits |= 1 << index[L.key()]
        for p in L.points():
            cover[p.key()] += 1
    return (tuple(sorted(cover.values())),
            tuple(sorted((m & bits).bit_count() for m in meet)))


def test_fingerprint_matches_the_per_line_oracle(F2):
    for S in search_maximal_partial_spreads(F2, sizes=[5]).spreads:
        assert spread_fingerprint(S) == _fingerprint_oracle(S)
    rng = random.Random(11)
    deepest = 0
    for spec in ["p=2", "p=3"] * 25:
        F = parse_field_spec(spec)
        lines = all_lines(F)
        k = rng.randrange(1, 16)
        # with replacement half the time: a repeated member covers its points twice
        members = rng.choices(lines, k=k) if rng.random() < 0.5 else rng.sample(lines, k)
        S = PartialSpread(F, members)
        fp = spread_fingerprint(S)
        assert fp == _fingerprint_oracle(S)
        deepest = max(deepest, fp[0][-1])
    assert deepest >= 4  # some point covered 4+ times: carries reach the third plane


def _maximality_oracle(S):
    """The all-lines scan: no line of PG(3,q) outside S is skew to all of S."""
    return not any(all(lines_skew(c, l) for l in S.lines) and c not in S.lines
                   for c in all_lines(S.field))


def test_check_maximality_matches_the_all_lines_scan(mps7_q3):
    rng = random.Random(3)
    sets = [build_regular_spread(parse_field_spec(spec))
            for spec in ["p=2", "p=3", "p=2;ext=2", "p=5"]]
    sets += [mps7_q3, PartialSpread(mps7_q3.field, mps7_q3.lines[1:])]
    assert [S.check_maximality() for S in sets] == [True] * 5 + [False]
    for spec in ["p=2", "p=3", "p=2;ext=2"]:
        F = parse_field_spec(spec)
        lines = all_lines(F)
        through = [L for L in lines if L.contains(lines[0].points()[0])]
        samples = [[], lines[:1], through[:2], through, lines[:1] + through[1:]]
        samples += [rng.sample(lines, rng.randrange(1, 3 * F.size + 4)) for _ in range(14)]
        sets += [PartialSpread(F, members) for members in samples]
    seen = set()
    for S in sets:
        assert S.check_maximality() == _maximality_oracle(S), (S.field, len(S))
        seen.add((S.is_pairwise_skew(), S.check_maximality()))
    # skew and meeting sets, maximal and not, were all drawn
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
