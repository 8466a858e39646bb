"""Spreads and maximal partial spreads of PG(3,q)."""
import dataclasses
import functools
import random
from itertools import pairwise
import tracemalloc

import pytest

from geproci import spreads
from geproci.fields import parse_field_spec
from geproci.projgeom import PointSet, all_lines, enumerate_projective_space, line_through
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

from oracles import line_contains, lines_skew, spread_search_reference


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
# deterministic report field of `geproci spread search`.  Rows that pin the
# walk itself add the line keys of the first and last spread found, written
# digit by digit: counts alone would not catch a reordered walk.
SEARCH_CONTRACT = [
    ("p=2", dict(sizes=[5]), (872, False, 56, [5])),
    ("p=2", dict(), (1212, False, 56, [5])),
    ("p=3", dict(mode="first"), (11, False, 1, [10])),
    ("p=3", dict(node_budget=200), (201, True, 6, [10])),
    ("p=2", dict(mode="sample", seed=5), (1212, False, 56, [5])),
    ("p=3", dict(sizes=[7], mode="sample", seed=3, node_budget=5000), (5001, True, 163, [7])),
    ("p=3", dict(sizes=[7], mode="first", node_budget=10), (11, True, 0, [])),
    # the exhaustive walk, truncated mid-tree
    ("p=3", dict(sizes=[7], node_budget=1_000_000), (
        1_000_001, True, 35971, [7],
        "00100001 10000100 10010110 10020121 10100111 10110101 10120120",
        "01000011 10100101 10110120 10200110 10220121 11200001 12020012")),
    ("p=3", dict(sizes=[7], mode="sample", seed=3, node_budget=5000), (
        5001, True, 163, [7],
        "01100001 10010102 10020010 10100100 10110121 10200122 12000011",
        "01100001 10010102 10120120 10210101 10220121 11010010 12000012")),
    # a seed is ignored outside sample mode: `first` walks in index order
    ("p=3", dict(sizes=[7], mode="first", seed=3, node_budget=5000), (
        360, False, 1, [7],
        "00100001 10000100 10010110 10020121 10100111 10110101 10120120",
        "00100001 10000100 10010110 10020121 10100111 10110101 10120120")),
]


def _digits(S):
    return " ".join("".join(map(str, L.key())) for L in S.lines)


@pytest.mark.parametrize("spec,kwargs,expected", SEARCH_CONTRACT)
def test_search_contract(spec, kwargs, expected):
    res = search_maximal_partial_spreads(parse_field_spec(spec), **kwargs)
    sizes = sorted({len(S.lines) for S in res.spreads})
    got = (res.nodes, res.truncated, len(res.spreads), sizes)
    if res.spreads:
        got += (_digits(res.spreads[0]), _digits(res.spreads[-1]))
    assert got[:len(expected)] == expected
    keys = [tuple(L.key() for L in S.lines) for S in res.spreads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for S in res.spreads:
        assert S.maximal and S.is_pairwise_skew()
    assert res.anomalies == []


def _skew_by_incidence(spec):
    """Per line of PG(3,q), in all_lines order: the bitmask of the lines
    skew to it, from the incidence oracle."""
    lines, meet = _incidence_meet_masks(spec)
    full = (1 << len(lines)) - 1
    return [full ^ m ^ (1 << i) for i, m in enumerate(meet)]


def _walk(F, sizes, mode, budget):
    res = search_maximal_partial_spreads(F, sizes=sizes, mode=mode, node_budget=budget)
    view = res.spreads
    return res.nodes, res.truncated, [tuple(view.idx[a:b]) for a, b in pairwise(view.ends)]


def _stopped_at(reference, budget, mode):
    """What a walk with `node_budget=budget` gives, read off an exhaustive
    reference walk (nodes, truncated, emitted) that counted past `budget`
    or ran to the end."""
    nodes, truncated, emitted = reference
    assert budget < nodes or not truncated
    if mode == "first" and emitted and emitted[0][0] <= budget:
        return emitted[0][0], False, [emitted[0][1]]
    if budget >= nodes:
        return nodes, False, [run for _, run in emitted]
    return budget + 1, True, [run for at, run in emitted if at <= budget]


def test_search_matches_the_reference_walk_at_every_budget(F2, F3):
    # The search counts the children that can be neither emitted nor
    # expanded (the `dead` tail of each node below min(sizes)) without
    # visiting them; the count, the truncation point and the spreads must
    # still be those of the child-by-child walk at every node budget.
    for sizes, count in ((None, 1212), ([5], 872)):
        reference = spread_search_reference(_skew_by_incidence("p=2"), sizes)
        assert reference[:2] == (count, False)
        for mode in ("exhaustive", "first"):
            for budget in range(reference[0] + 2):
                assert _walk(F2, sizes, mode, budget) == _stopped_at(reference, budget, mode), \
                    (sizes, mode, budget)
    rng = random.Random(28)
    skew3 = _skew_by_incidence("p=3")
    horizon = 60_000  # the reference walk counts this far
    for sizes in ([7, 8, 9], [7, 9]):
        dead = []
        reference = spread_search_reference(skew3, sizes, node_budget=horizon, dead=dead)
        assert reference[:2] == (horizon + 1, True) and len(reference[2]) > 100
        # runs a..z of consecutive dead node numbers (a node's tail, and its
        # parent's when it follows): stop just before a run, inside it, and
        # just after it
        dead = set(dead)
        tails = [(a, next(z for z in range(a, horizon + 1) if z + 1 not in dead))
                 for a in sorted(dead) if a - 1 not in dead]
        tails = rng.sample([(a, z) for a, z in tails if a + 1 < z < horizon], 4)
        budgets = [b for a, z in tails for b in (a - 1, a, (a + z) // 2, z - 1, z, z + 1)]
        budgets += rng.sample(range(1, horizon), 6) + [horizon]
        inside = 0
        for budget in budgets:
            want = _stopped_at(reference, budget, "exhaustive")
            assert _walk(F3, sizes, "exhaustive", budget) == want, (sizes, budget)
            inside += want[1] and any(a <= want[0] <= z for a, z in tails)
        assert inside >= 4 * 4  # the walk stopped in a dead tail, at a, a + 1, ..., z
        for budget in range(400):
            assert _walk(F3, sizes, "first", budget) == _stopped_at(reference, budget, "first")


def test_search_builds_what_the_constructor_builds(F2):
    # the search skips the constructor's sort: its lines come in key order
    res = search_maximal_partial_spreads(F2)
    for S in res.spreads:
        T = PartialSpread(F2, S.lines[::-1], maximal=True)
        assert S == T and S.lines == T.lines and type(S.lines) is tuple
        assert S.maximal is T.maximal is True and S.field is T.field


def test_packed_spreads_build_their_lines_on_first_read(F3):
    # a found spread holds its line-table rows; a fingerprint reads only those
    res = search_maximal_partial_spreads(F3, sizes=[7], node_budget=20_000)
    tab = spreads._line_table(F3)
    assert len(res.spreads) > 100
    for S in res.spreads:
        spread_fingerprint(S)
        assert S._lines is None
        lines = S.lines
        assert type(lines) is tuple and S.lines is lines
        assert lines == tuple(tab.lines[i] for i in S._indices)
        assert lines == PartialSpread(F3, lines[::-1]).lines


SEARCHES = [("p=2", dict()),
            ("p=3", dict(sizes=[7], node_budget=1_000_000)),
            ("p=3", dict(sizes=[7], mode="sample", seed=3, node_budget=5000))]


def test_search_result_spreads_read_like_a_list():
    for spec, kwargs in SEARCHES:
        res = search_maximal_partial_spreads(parse_field_spec(spec), **kwargs)
        view, items = res.spreads, list(res.spreads)
        n = len(items)
        assert len(view) == n > 0 and bool(view)
        assert view[0] == items[0] and view[-1] == items[-1] and view[-n] == items[0]
        assert view[0] is not view[0]  # built on access
        for sl in [slice(None), slice(3, 9), slice(None, None, -7), slice(-5, None),
                   slice(n, None)]:
            assert view[sl] == items[sl]
        assert list(reversed(view)) == items[::-1]
        assert items[n // 2] in view and view.index(items[n // 2]) == n // 2
        assert PartialSpread(view[0].field, view[0].lines[1:]) not in view
        assert [len(S) for S in view] == [len(S) for S in items]
        keys = [tuple(L.key() for L in S.lines) for S in view]
        assert keys == sorted(keys)  # sample mode too
        for k in [n, -n - 1]:
            with pytest.raises(IndexError):
                view[k]
    for spec, kwargs in [SEARCHES[2], SEARCHES[0]]:
        a, b = (search_maximal_partial_spreads(parse_field_spec(spec), **kwargs) for _ in "ab")
        assert a == b and a.spreads == b.spreads and a.spreads is not b.spreads
    F2, F3 = parse_field_spec("p=2"), parse_field_spec("p=3")
    fives = search_maximal_partial_spreads(F2, sizes=[5])
    assert fives.spreads == a.spreads == b.spreads and fives != b  # other node count
    assert (search_maximal_partial_spreads(F3, node_budget=200).spreads
            != search_maximal_partial_spreads(F3, node_budget=2000).spreads)
    # the same indices cut into other runs are other spreads
    merged = dataclasses.replace(fives.spreads, ends=fives.spreads.ends[::2])
    assert merged != fives.spreads and len(merged) == 28
    empty = search_maximal_partial_spreads(F3, sizes=[7], node_budget=5)
    assert not empty.spreads and len(empty.spreads) == 0 and list(empty.spreads) == []


def test_search_anomalies_are_the_spreads_outside_the_window(monkeypatch, F3):
    # no proper maximal partial spread of q <= 3 falls outside the Mesner-Glynn
    # window, so an empty window makes every one found an anomaly
    monkeypatch.setattr(spreads, "deficiency_window", lambda q: (q * q + 2, 0))
    sizes = set()
    for kwargs in [dict(node_budget=5000), dict(mode="sample", seed=1, node_budget=5000)]:
        res = search_maximal_partial_spreads(F3, **kwargs)
        proper = [(S, S.deficiency) for S in res.spreads if S.deficiency]
        assert res.anomalies == proper != []
        sizes |= {len(S) for S in res.spreads}
    assert sizes == {7, 10}  # a spread (size 10) is never an anomaly


def test_search_keeps_under_32_bytes_per_spread(F3):
    search_maximal_partial_spreads(F3, node_budget=1)  # builds the line table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = search_maximal_partial_spreads(F3, sizes=[7], node_budget=1_000_000)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(res.spreads)
    assert n == 35971
    assert (retained - before) / n <= 32 and (peak - before) / n <= 32


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
    meeting = [L for L in lines if line_contains(L, lines[0].points()[0])][:2]
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


def test_read_spread_skips_indented_comments(mps7_q3):
    text = write_spread(mps7_q3)
    head, *rows = text.splitlines()
    noted = "\n".join(["  # note", head, "\t# another", *rows, "   #"])
    assert read_spread(noted) == mps7_q3


def test_spread_file_roundtrip(mps7_q3):
    text = write_spread(mps7_q3)
    back = read_spread(text)
    assert sorted(L.key() for L in back.lines) == sorted(L.key() for L in mps7_q3.lines)
    assert write_spread(back) == text


@functools.lru_cache(maxsize=None)
def _incidence_meet_masks(spec):
    """Per line of PG(3,q): the bitmask of the other lines it meets, from a
    per-point incidence table (independent of the point masks the library
    uses).  Each line lists its points as the combinations of its two
    spanning rows; two lines meet iff they share one of them.  The table is
    checked against the point count of PG(3,q) and, on seeded pairs, against
    rank tests."""
    F = parse_field_spec(spec)
    q, lines = F.size, all_lines(F)
    through = {}  # point key -> bitmask of the lines through it
    for i, L in enumerate(lines):
        for p in L.points():
            through[p.key()] = through.get(p.key(), 0) | 1 << i
    assert len(through) == (q ** 4 - 1) // (q - 1)
    assert {m.bit_count() for m in through.values()} == {q * q + q + 1}
    meet = [0] * len(lines)
    for i, L in enumerate(lines):
        for p in L.points():
            meet[i] |= through[p.key()]
        meet[i] ^= 1 << i
    rng = random.Random(spec)
    for _ in range(200):
        i, j = rng.sample(range(len(lines)), 2)
        assert (meet[i] >> j & 1) == (not lines_skew(lines[i], lines[j]))
    return lines, meet


def _fingerprint_oracle(S):
    """The per-point cover count and per-line popcount formula."""
    lines, meet = _incidence_meet_masks(S.field.spec_string())
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
    assert deepest >= 4  # some point covered 4+ times


def _column_sums(masks, width):
    """`_sorted_lane_sums` of the rows `masks`, given with their byte lanes."""
    lanes = [spreads._widen(m) for m in masks]
    return spreads._sorted_lane_sums(range(len(masks)), masks, lanes, width)


def test_sorted_column_sums_match_a_count_per_column():
    rng = random.Random(17)
    widths = [1, 2, 3, 63, 64, 65, 130, 200] + [rng.randrange(1, 201) for _ in range(12)]
    for width in widths:
        ones = (1 << width) - 1
        for k in [0, 1, 2, 3, 7, 12]:
            # sparse, even and dense rows, and full rows that carry into every plane
            draws = [lambda: rng.getrandbits(width) & rng.getrandbits(width),
                     lambda: rng.getrandbits(width),
                     lambda: rng.getrandbits(width) | rng.getrandbits(width),
                     lambda: ones]
            masks = [rng.choice(draws)() for _ in range(k)]
            naive = tuple(sorted(sum(m >> c & 1 for m in masks) for c in range(width)))
            assert _column_sums(masks, width) == naive, (width, k)
    full = _column_sums([ones] * 12, width)
    assert full == (12,) * width and full is _column_sums([ones] * 12, width)
    # 300 rows: a column sum past 255 needs lanes wider than a byte
    for width in [1, 40, 130]:
        ones = (1 << width) - 1
        masks = [ones] * 150 + [rng.getrandbits(width) | rng.getrandbits(width)
                                for _ in range(150)]
        naive = tuple(sorted(sum(m >> c & 1 for m in masks) for c in range(width)))
        assert naive[-1] > 255 and _column_sums(masks, width) == naive, width
        assert _column_sums([ones] * 300, width) == (300,) * width


def test_fingerprint_survives_a_file_roundtrip(F3):
    # read_spread builds new line objects; the fingerprint reads only keys
    S = search_maximal_partial_spreads(F3, sizes=[7], mode="first").spreads[0]
    back = read_spread(write_spread(S))
    assert back == S and all(a is not b for a, b in zip(back.lines, S.lines))
    assert spread_fingerprint(back) == spread_fingerprint(S) == _fingerprint_oracle(S)


@pytest.mark.parametrize("spec", ["p=2", "p=3"])
def test_fingerprint_paths_match_the_oracle(monkeypatch, spec):
    # disjoint members take the transversal-count path (`_skew_fingerprint`);
    # a repeated member or a meeting pair takes the general path (two
    # column sums, points and profile)
    F = parse_field_spec(spec)
    lines = all_lines(F)
    regular = list(build_regular_spread(F).lines)
    L = regular[0]
    copy = line_through(*L.points()[:2])
    meeting = [M for M in lines if line_contains(M, L.points()[0])][:2]
    cases = [([], "skew"), (regular[:1], "skew"), (regular[:4], "skew"), (regular, "skew"),
             (regular[:3] + [L], "general"), (regular[:3] + [copy], "general"),
             (meeting, "general"), (regular[1:5] + meeting, "general"),
             (meeting + [meeting[0]], "general"),
             ([L] * 300, "general")]  # its points are covered 300 times
    calls = []

    def counted(name):
        f = getattr(spreads, name)
        return lambda *a: calls.append(name) or f(*a)

    for name in ("_sorted_lane_sums", "_skew_fingerprint"):
        monkeypatch.setattr(spreads, name, counted(name))
    for members, path in cases:
        calls.clear()
        S = PartialSpread(F, members)
        assert spread_fingerprint(S) == _fingerprint_oracle(S)
        want = ["_skew_fingerprint"] if path == "skew" else ["_sorted_lane_sums"] * 2
        assert calls == want, (len(members), calls)


def test_skew_fingerprint_matches_the_oracle(monkeypatch):
    # pairwise skew members take the transversal-count path: every k up to
    # a regular spread, a random greedy maximal set of skew lines, and q = 2,
    # 3 search results.  No line of PG(3,2) meets 4 skew lines, so q = 2
    # reads no lanes at all.
    monkeypatch.setattr(spreads, "_line_tables", {})
    rng = random.Random(5)
    for spec in ["p=2", "p=3", "p=2;ext=2", "p=5"]:
        F = parse_field_spec(spec)
        lines, meet = _incidence_meet_masks(spec)
        order, greedy, chosen = list(range(len(lines))), [], 0
        rng.shuffle(order)
        for i in order:
            if not meet[i] & chosen:
                greedy.append(lines[i])
                chosen |= 1 << i
        sets = [build_regular_spread(F).lines, greedy]
        sets = [ls[:k] for ls in sets for k in range(len(ls) + 1)]
        if F.size <= 3:
            sets += [S.lines for S in search_maximal_partial_spreads(F, node_budget=20_000)]
        for members in sets:
            S = PartialSpread(F, members)
            assert S.is_pairwise_skew()
            assert spread_fingerprint(S) == _fingerprint_oracle(S), (spec, len(members))
        if F.size == 2:
            tab = spreads._line_table(F)
            assert len(tab.meet_lanes) == len(tab.point_lanes) == 0


def test_fingerprint_widens_only_the_lanes_it_reads(monkeypatch):
    # The q=7 line table has 2,850 lines; byte lanes for all of them held
    # 9.9 MB (8.7 MB of meet lanes) of the 16.9 MB that the first
    # fingerprint retained.  A regular spread's members are disjoint, so it
    # reads the meet lanes of its 50 members and no point lanes.
    F = parse_field_spec("p=7")
    S = build_regular_spread(F)
    monkeypatch.setattr(spreads, "_line_tables", {})  # built under tracemalloc
    tracemalloc.start()
    try:
        fp = spread_fingerprint(S)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 10e6, retained
    tab = spreads._line_table(F)
    assert len(tab.lines) == 2850 and sorted(tab.meet_lanes) == sorted(S._indices)
    assert len(tab.point_lanes) == 0
    # every point on one member; every other line meets q + 1 = 8 members
    assert fp == ((1,) * 400, (0,) * 50 + (8,) * 2800)


def test_verify_spread_reports_a_repeated_member_by_position(F2):
    # the same line object twice, and an equal but separate copy
    L = all_lines(F2)[3]
    copy = line_through(*L.points()[:2])
    assert copy == L and copy is not L
    for members in ([L, L], [L, copy]):
        rep = verify_spread(PartialSpread(F2, members))
        assert rep.doubly_covered == list(L.points()) and len(rep.doubly_covered) == 3
        assert len(rep.skew_violations) == 1 and not rep.clean


def test_point_cover_names_the_first_doubly_covered_point(F2):
    # a repeated line, an equal copy and a meeting pair: the cover and the
    # complement both refuse them at the first point on two members
    lines = all_lines(F2)
    L = lines[3]
    copy = line_through(*L.points()[:2])
    M = next(M for M in lines if M != L and line_contains(M, L.points()[1]))
    for members, first in ([L, L], L.points()[0]), ([L, copy], L.points()[0]), \
                          ([L, M], L.points()[1]):
        S = PartialSpread(F2, members)
        for cover in (S.point_cover, lambda: complement_points(S)):
            with pytest.raises(SpreadError) as err:
                cover()
            assert str(err.value) == f"point {first} covered twice"


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
        through = [L for L in lines if line_contains(L, lines[0].points()[0])]
        samples = [[], lines[:1], through[:2], through, lines[:1] + through[1:]]
        samples += [rng.sample(lines, rng.randrange(1, 3 * F.size + 4)) for _ in range(14)]
        sets += [PartialSpread(F, members) for members in samples]
    seen = set()
    for S in sets:
        assert S.check_maximality() == _maximality_oracle(S), (S.field, len(S))
        seen.add((S.is_pairwise_skew(), S.check_maximality()))
    # skew and meeting sets, maximal and not, were all drawn
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
