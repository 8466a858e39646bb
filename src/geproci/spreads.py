"""Regular spreads of PG(3,q), maximal partial spread search, complements.

The search works on the skew graph of all lines: vertices are the
canonically ordered lines, adjacency is skewness, and maximal partial
spreads are exactly the maximal cliques.  Adjacency is kept as Python int
bitmasks: the inner loop walks candidate bits in place, found spreads stay
packed as line indices, and fingerprints add the masks in byte lanes.
"""
from __future__ import annotations

import math
import random
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, reduce
from itertools import accumulate, chain, pairwise
from operator import or_
from typing import NamedTuple, Optional

from .projgeom import (
    GeometryError,
    PointSet,
    ProjectiveLine3,
    ProjectivePoint,
    all_lines,
    collinear_classes,
    enumerate_projective_space,
    exact_cover,
    line_through,
    _format_coord,
    _parse_coord,
    _read_header,
)


class SpreadError(Exception):
    pass


class PartialSpread:
    """A list of lines of PG(3,q), canonically ordered by line key.

    Pairwise skewness is an intended invariant but is *verified*, not
    assumed: `verify_spread` reports violations rather than raising.
    """

    __slots__ = ("field", "lines", "maximal", "_indices")

    def __init__(self, field, lines, maximal: Optional[bool] = None):
        self.field = field
        self.lines = tuple(sorted(lines, key=ProjectiveLine3.key))
        self.maximal = maximal
        self._indices = None

    @classmethod
    def _presorted(cls, field, lines: tuple, indices=None):
        """A maximal partial spread from a tuple of lines already in key
        order, as the search emits them; nothing is sorted or checked.
        `indices`, their rows in _line_table(field), spare spread_fingerprint a lookup."""
        S = cls.__new__(cls)
        S.field, S.lines, S.maximal, S._indices = field, lines, True, indices
        return S

    @property
    def q(self):
        return self.field.size

    @property
    def deficiency(self):
        return self.q ** 2 + 1 - len(self.lines)

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    def __eq__(self, other):
        return (
            isinstance(other, PartialSpread)
            and self.field == other.field
            and tuple(l.key() for l in self.lines) == tuple(l.key() for l in other.lines)
        )

    def point_cover(self) -> PointSet:
        """The covered points; a point on two members raises SpreadError."""
        through, _ = _incidence(self.lines)
        doubly = [p for p, m in through.items() if m & (m - 1)]
        if doubly:
            raise SpreadError(f"point {min(doubly)} covered twice")
        return PointSet(self.field, through, 3)

    def is_pairwise_skew(self) -> bool:
        through, _ = _incidence(self.lines)
        return not any(m & (m - 1) for m in through.values())

    def check_maximality(self) -> bool:
        """Whether no line outside the set is skew to all its members.

        Such a line is exactly a full line of uncovered points, so this
        holds for any set of lines, pairwise skew or not."""
        through, _ = _incidence(self.lines)
        rest = [p for p in enumerate_projective_space(self.field, 3) if p not in through]
        q = self.field.size
        return all(len(c) <= q for c in collinear_classes(PointSet(self.field, rest, 3)))

    def __repr__(self):
        return f"<PartialSpread q={self.q} size={len(self.lines)} deficiency={self.deficiency}>"


# ---------------------------------------------------------------------------
# regular spread

def line_at_infinity(field) -> ProjectiveLine3:
    z = field.zero()
    o = field.one()
    return ProjectiveLine3(field, [[z, z, o, z], [z, z, z, o]])


def build_regular_spread(field) -> PartialSpread:
    """The regular spread: q² reguli lines plus the line at infinity.

    Odd q uses a non-square r and lines through (1,0,a,b), (0,1,rb,a);
    even q uses an r with x²+x+r irreducible and lines through
    (1,0,a,b), (0,1,br,a+b).
    """
    from .fields import find_artin_schreier_r, find_nonsquare

    z = field.zero()
    o = field.one()
    even = field.char == 2
    r = find_artin_schreier_r(field) if even else find_nonsquare(field)
    lines = [line_at_infinity(field)]
    for a in field.elements():
        for b in field.elements():
            p1 = ProjectivePoint(field, [o, z, a, b])
            p2 = ProjectivePoint(field, [z, o, b * r, a + b if even else a])
            lines.append(line_through(p1, p2))
    return PartialSpread(field, lines)


# ---------------------------------------------------------------------------
# verification

@dataclass
class SpreadReport:
    size: int
    deficiency: int
    skew_violations: list
    uncovered: list
    doubly_covered: list

    @property
    def clean(self):
        return not (self.skew_violations or self.doubly_covered) and (
            self.deficiency > 0 or not self.uncovered
        )


def verify_spread(S: PartialSpread) -> SpreadReport:
    """Pairwise-skew and cover check; uncovered points only matter for
    deficiency-0 inputs (a valid partial spread never covers everything).
    A point on k members is listed k - 1 times as doubly covered, in point
    order."""
    ls = S.lines
    through, meet = _incidence(ls)
    violations = [(ls[i], ls[j]) for i, m in enumerate(meet)
                  for j in _bit_indices(m >> (i + 1) << (i + 1))]
    doubly = sorted(p for p, m in through.items() for _ in range(m.bit_count() - 1))
    uncovered = []
    q = S.field.size
    if len(through) < q ** 3 + q ** 2 + q + 1:  # some point of PG(3,q) is missing
        space = enumerate_projective_space(S.field, 3)
        uncovered = [p for p in space.points if p not in through]
    return SpreadReport(
        size=len(ls),
        deficiency=S.deficiency,
        skew_violations=violations,
        uncovered=uncovered,
        doubly_covered=doubly,
    )


def _incidence(lines):
    """(through, meet): `through` maps each point on `lines` to the bitmask
    of the lines through it, and meet[i] is the bitmask of the lines that
    share a point with lines[i], itself included.  Two lines of PG(3,q)
    meet exactly when they share a point, so a repeated line meets its
    copies."""
    through: dict = {}
    for i, line in enumerate(lines):
        for p in line.points():
            through[p] = through.get(p, 0) | 1 << i
    meet = [0] * len(lines)
    for m in through.values():
        for i in _bit_indices(m):
            meet[i] |= m
    return through, meet


def complement_points(S: PartialSpread) -> PointSet:
    return enumerate_projective_space(S.field, 3).minus(S.point_cover())


# ---------------------------------------------------------------------------
# search

@dataclass
class SearchResult:
    spreads: Sequence  # a _PackedSpreads view: its items are built on access
    nodes: int
    truncated: bool
    anomalies: list = dataclass_field(default_factory=list)

    def __iter__(self):
        return iter(self.spreads)

    def __len__(self):
        return len(self.spreads)


@dataclass(repr=False)
class _PackedSpreads(Sequence):
    """A search's spreads, packed: spread k is the run idx[ends[k]:ends[k + 1]]
    of ascending indices into the line table `lines`.  Each read of an item
    builds a new PartialSpread, equal to the ones earlier reads built."""
    field: object
    idx: array
    ends: array
    lines: list = dataclass_field(compare=False)

    def __len__(self):
        return len(self.ends) - 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        k = range(len(self))[k]  # negative indices, and IndexError past the end
        return self._build(self.idx[self.ends[k]:self.ends[k + 1]])

    def __iter__(self):
        return (self._build(self.idx[a:b]) for a, b in pairwise(self.ends))

    def _build(self, run):
        return PartialSpread._presorted(self.field, tuple(map(self.lines.__getitem__, run)), run)


def deficiency_window(q: int):
    """Mesner–Glynn window for the deficiency of a proper maximal partial
    spread: sqrt(q)+1 <= d <= (q-1)²."""
    return (math.sqrt(q) + 1, (q - 1) ** 2)


def search_maximal_partial_spreads(
    field,
    sizes=None,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    node_budget: int = 10 ** 8,
) -> SearchResult:
    """Enumerate maximal partial spreads as maximal cliques of the skew graph.

    Branches extend only with lines of larger canonical index, so every
    clique is generated exactly once, in its sorted order.  `sizes` filters
    the emitted sets (None keeps all).  Modes: `exhaustive` walks the whole
    tree, `first` stops at the first emitted spread, `sample` visits
    branches in a seeded pseudorandom order (seed required).  Every child
    counts one node against `node_budget`, in preorder.  In index order, a
    node whose children are `need` lines short of min(sizes) has a dead
    tail: its last `need` children can be neither emitted nor expanded.
    They are counted in one addition, not visited; the tail is last in
    preorder and childless, so the count, the truncation point and the
    spreads found are those of the child-by-child walk.
    """
    if mode not in ("first", "exhaustive", "sample"):
        raise SpreadError(f"unknown mode {mode!r}")
    if mode == "sample" and seed is None:
        raise SpreadError("sample mode requires a seed")
    rng = random.Random(seed) if mode == "sample" else None
    table = _line_table(field)
    lines, skew = table.lines, table.skew
    n = len(lines)
    full = (1 << n) - 1
    # skew_gt[i]: the lines skew to line i with a larger index
    skew_gt = [m >> (i + 1) << (i + 1) for i, m in enumerate(skew)]
    sizes_set = set(sizes) if sizes is not None else None
    min_size = min(sizes_set) if sizes_set else 0

    idx = array(next(c for c in "BHIL" if n <= 256 ** array(c).itemsize))  # a run per spread
    ends = array("L", [0])  # the end of each run in idx
    path = []  # the chosen line indices above the node being expanded
    nodes = 1  # the root
    truncated = node_budget < 1

    def expand(size, cand_gt, cand_all):
        """Count and settle each child of a node, in preorder: emit it if
        nothing extends it, prune it if it cannot reach `min_size`, recurse
        only if it has candidates of its own.  Children have `size` lines.
        Returns True when the search stops (budget or first spread)."""
        nonlocal nodes, truncated
        need = min_size - size  # further lines a child needs to reach min_size
        if need > 0 and rng is None:
            # No child is emitted here, and the last `need` children (the
            # dead tail) have fewer than `need` candidates above them, so
            # only the `live` others are visited.  A node is expanded only
            # with more than `need` candidates, so live > 0.
            live, rest = cand_gt.bit_count() - need, cand_gt  # rest: not yet visited
            while live > 0:
                live -= 1
                low = rest & -rest
                rest ^= low
                nodes += 1
                if nodes > node_budget:
                    truncated = True
                    return True
                i = low.bit_length() - 1
                child_gt = rest & skew_gt[i]
                if child_gt.bit_count() >= need:
                    path.append(i)
                    if expand(size + 1, child_gt, cand_all & skew[i]):
                        return True
                    path.pop()
            nodes += need
            if nodes > node_budget:  # where the per-child count would stop
                nodes = node_budget + 1
                truncated = True
                return True
            return False
        emit = sizes_set is None or size in sizes_set
        order = None
        if rng is not None:
            order = _bit_indices(cand_gt)
            rng.shuffle(order)
            order = iter(order)
        rest = cand_gt  # the children not yet visited
        while rest:
            if order is None:
                low = rest & -rest
                i = low.bit_length() - 1
            else:
                i = next(order)
                low = 1 << i
            rest ^= low
            nodes += 1
            if nodes > node_budget:
                truncated = True
                return True
            child_all = cand_all & skew[i]
            if not child_all:
                if emit:
                    idx.extend((*path, i))
                    ends.append(len(idx))
                    if mode == "first":
                        return True
                continue
            child_gt = cand_gt & skew_gt[i]
            if child_gt and child_gt.bit_count() >= need:
                # lines skipped here reappear in cand_all of siblings, so no
                # maximal clique is lost by the index-increasing restriction
                path.append(i)
                if expand(size + 1, child_gt, child_all):
                    return True
                path.pop()
        return False

    if not truncated and n >= min_size:
        expand(1, full, full)
    if rng is not None:  # preorder with increasing indices emits the others sorted
        runs = sorted(idx[a:b] for a, b in pairwise(ends))
        idx = array(idx.typecode, chain.from_iterable(runs))
        ends = array("L", accumulate(map(len, runs), initial=0))
    found = _PackedSpreads(field, idx, ends, lines)
    lo, hi = deficiency_window(field.size)
    spread_size = field.size ** 2 + 1
    odd = {k for k in range(spread_size) if not lo <= spread_size - k <= hi}
    anomalies = [(found[k], spread_size - b + a) for k, (a, b) in enumerate(pairwise(ends))
                 if b - a in odd]
    return SearchResult(spreads=found, nodes=nodes, truncated=truncated,
                        anomalies=anomalies)


# ---------------------------------------------------------------------------
# per-field line table

class _Lanes(dict):
    """lanes[i] is masks[i] widened to byte lanes (_widen), built on its
    first read: a fingerprint reads the lanes of its members only."""
    __slots__ = ("masks",)

    def __init__(self, masks):
        self.masks = masks

    def __missing__(self, i):
        lane = self[i] = _widen(self.masks[i])
        return lane


class _LineTable(NamedTuple):
    lines: list   # all_lines(field), in key order
    index: dict   # line key -> position in `lines`
    points: list  # per line: bitmask of its points, in `_incidence` order
    skew: list    # per line: bitmask of the lines skew to it
    meet: list    # per line: bitmask of the other lines meeting it
    npts: int
    point_lanes: _Lanes  # `points` and `meet` in byte lanes, built when read
    meet_lanes: _Lanes


_line_tables: dict = {}  # field -> its _LineTable


def _line_table(field) -> _LineTable:
    """The incidence tables of PG(3,q) that the search and the fingerprints
    share, built once per field from the incidence of all its lines."""
    tab = _line_tables.get(field)
    if tab is None:
        lines = all_lines(field)
        through, touching = _incidence(lines)
        points = [0] * len(lines)
        for k, m in enumerate(through.values()):
            for i in _bit_indices(m):
                points[i] |= 1 << k
        full = (1 << len(lines)) - 1
        meet = [m ^ (1 << i) for i, m in enumerate(touching)]
        tab = _LineTable(lines, {l.key(): i for i, l in enumerate(lines)},
                         points, [full ^ m for m in touching], meet, len(through),
                         _Lanes(points), _Lanes(meet))
        _line_tables[field] = tab
    return tab


def _bit_indices(mask) -> list:
    """The positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# fingerprints

def _widen(mask, nbytes=1) -> int:
    """`mask` with bit j moved to the low bit of lane j, lanes `nbytes` wide."""
    pad = "0" * (nbytes - 1)
    digits = format(mask, "b").replace("0", pad + "0").replace("1", pad + "1")
    return int.from_bytes(digits.encode().translate(bytes.maketrans(b"01", b"\0\1")), "big")


def _sorted_lane_sums(rows, masks, lanes, width):
    """The sorted multiset of the `width` column sums of the 0/1 rows
    masks[i], i in rows, added as plain ints in lanes that no sum overflows
    (the byte lanes lanes[i] below 256 rows) and counted off the sum's bytes."""
    if len(rows) < 256:
        cells = sum(map(lanes.__getitem__, rows)).to_bytes(width, sys.byteorder)
    else:  # unsigned long lanes, widened here
        nbytes = array("L").itemsize
        total = sum(_widen(masks[i], nbytes) for i in rows)
        cells = array("L", total.to_bytes(width * nbytes, sys.byteorder))
    histogram = []
    while width:  # columns not yet counted
        histogram.append(cells.count(len(histogram)))
        width -= histogram[-1]
    return _sorted_counts(tuple(histogram))


@lru_cache(maxsize=None)
def _sorted_counts(histogram: tuple) -> tuple:
    """The sorted tuple holding histogram[c] copies of c, shared by every
    call with that histogram (its sum is the width)."""
    return tuple(c for c, n in enumerate(histogram) for _ in range(n))


def spread_fingerprint(S: PartialSpread):
    """Projective-equivalence invariant: sorted point-degree multiset and
    sorted profile of how many spread members each line of PG(3,q) meets.
    Members covering k(q+1) points are disjoint, hence distinct, and their
    point degrees are read off the union of their point masks."""
    tab = _line_table(S.field)
    members = S._indices = S._indices or tuple(
        map(tab.index.__getitem__, map(ProjectiveLine3.key, S.lines)))
    covered = reduce(or_, [tab.points[i] for i in members], 0).bit_count()
    if covered == len(members) * (S.field.size + 1):
        degrees = _sorted_counts((tab.npts - covered, covered))
    else:
        degrees = _sorted_lane_sums(members, tab.points, tab.point_lanes, tab.npts)
        members = set(members)  # a repeated member counts once in the profile
    profile = _sorted_lane_sums(members, tab.meet, tab.meet_lanes, len(tab.lines))
    return (degrees, profile)


# ---------------------------------------------------------------------------
# exact cover by full lines

@dataclass
class NoPartition:
    reason: str


def partition_into_lines(Z: PointSet):
    """Partition Z into full (q+1)-point lines, or report NoPartition."""
    q = Z.field.size
    if len(Z) % (q + 1) != 0:
        return NoPartition(f"|Z| = {len(Z)} is not a multiple of q+1 = {q + 1}")
    # every collinear (q+1)-subset is a complete line of PG(3,q)
    full = [c for c in collinear_classes(Z) if len(c) == q + 1]
    masks = [sum(1 << i for i in c) for c in full]
    chosen = exact_cover(masks, (1 << len(Z)) - 1)
    if chosen is None:
        return NoPartition("no exact cover by full lines exists")
    pts = Z.points
    return [line_through(pts[full[k][0]], pts[full[k][1]]) for k in chosen]


# ---------------------------------------------------------------------------
# spread file format

def write_spread(S: PartialSpread) -> str:
    out = [f"field: {S.field.spec_string()}"]
    for line in S.lines:
        rows = []
        for row in line.rows:
            rows.append(",".join(_format_coord(S.field, r) for r in row))
        out.append("|".join(rows))
    return "\n".join(out) + "\n"


def read_spread(text: str) -> PartialSpread:
    field, _, body = _read_header(text, "spread")
    lines = []
    for ln in body:
        parts = ln.split("|")
        if len(parts) != 2:
            raise GeometryError("each spread line needs two point rows separated by '|'")
        mat = []
        for part in parts:
            mat.append([_parse_coord(field, tok) for tok in part.split(",")])
        lines.append(ProjectiveLine3(field, mat))
    return PartialSpread(field, lines)
