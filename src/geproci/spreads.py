"""Regular spreads of PG(3,q), maximal partial spread search, complements.

The search works on the skew graph of all lines: vertices are the
canonically ordered lines, adjacency is skewness, and maximal partial
spreads are exactly the maximal cliques.  Adjacency is kept as Python int
bitmasks, so the inner loop is a few bit operations per node.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple, Optional

from .fields import parse_field_spec
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
)


class SpreadError(Exception):
    pass


class PartialSpread:
    """A list of lines of PG(3,q), canonically ordered by line key.

    Pairwise skewness is an intended invariant but is *verified*, not
    assumed: `verify_spread` reports violations rather than raising.
    """

    __slots__ = ("field", "lines", "maximal")

    def __init__(self, field, lines, maximal: Optional[bool] = None):
        self.field = field
        self.lines = tuple(sorted(lines, key=ProjectiveLine3.key))
        self.maximal = maximal

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

    def point_cover(self) -> "SpreadPointCover":
        return SpreadPointCover(self)

    def is_pairwise_skew(self) -> bool:
        return not _meeting_pairs(self.lines)

    def check_maximality(self) -> bool:
        """Whether no line outside the set is skew to all its members.

        Such a line is exactly a full line of uncovered points, so this
        holds for any set of lines, pairwise skew or not."""
        covered = {p for l in self.lines for p in l.points()}
        rest = [p for p in enumerate_projective_space(self.field, 3) if p not in covered]
        q = self.field.size
        return all(len(c) <= q for c in collinear_classes(PointSet(self.field, rest, 3)))

    def __repr__(self):
        return f"<PartialSpread q={self.q} size={len(self.lines)} deficiency={self.deficiency}>"


class SpreadPointCover:
    """The covered point set with the unique covering line per point."""

    def __init__(self, spread: PartialSpread):
        cover = {}
        for line in spread.lines:
            for p in line.points():
                if p.key() in cover:
                    raise SpreadError(f"point {p} covered twice")
                cover[p.key()] = (p, line)
        self.spread = spread
        self.covering_line = {k: line for k, (p, line) in cover.items()}
        self.point_set = PointSet(spread.field, [p for p, _ in cover.values()], 3)

    def __len__(self):
        return len(self.point_set)


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
    deficiency-0 inputs (a valid partial spread never covers everything)."""
    ls = S.lines
    violations = [(ls[i], ls[j]) for i, j in _meeting_pairs(ls)]
    seen: dict = {}
    doubly = []
    for line in ls:
        for p in line.points():
            k = p.key()
            if k in seen and seen[k] is not line:
                doubly.append(p)
            seen[k] = line
    uncovered = []
    q = S.field.size
    if len(seen) < q ** 3 + q ** 2 + q + 1:  # some point of PG(3,q) is missing
        space = enumerate_projective_space(S.field, 3)
        uncovered = [p for p in space.points if p.key() not in seen]
    return SpreadReport(
        size=len(ls),
        deficiency=S.deficiency,
        skew_violations=violations,
        uncovered=uncovered,
        doubly_covered=doubly,
    )


def _meeting_pairs(lines) -> list:
    """The pairs (i, j), i < j, of `lines` that meet, in ascending order.

    Two lines of PG(3,q) meet exactly when they share a rational point, so
    each line ORs together the masks of the lines through its points; a
    repeated line meets its copies."""
    through: dict = {}  # point -> bitmask of the lines through it
    for i, line in enumerate(lines):
        for p in line.points():
            through[p] = through.get(p, 0) | 1 << i
    pairs = []
    for i, line in enumerate(lines):
        meet = 0
        for p in line.points():
            meet |= through[p]
        pairs += [(i, j) for j in _bit_indices(meet >> (i + 1) << (i + 1))]
    return pairs


def complement_points(S: PartialSpread) -> PointSet:
    space = enumerate_projective_space(S.field, 3)
    return space.minus(S.point_cover().point_set)


# ---------------------------------------------------------------------------
# search

@dataclass
class SearchResult:
    spreads: list
    nodes: int
    truncated: bool
    anomalies: list = dataclass_field(default_factory=list)

    def __iter__(self):
        return iter(self.spreads)

    def __len__(self):
        return len(self.spreads)


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
    branches in a seeded pseudorandom order (seed required).
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

    found = []
    nodes = 1  # the root
    truncated = node_budget < 1

    def expand(chosen, cand_gt, cand_all):
        """Count and settle each child of a node, in preorder: emit it if
        nothing extends it, prune it if it cannot reach `min_size`, recurse
        only if it has candidates of its own."""
        nonlocal nodes, truncated
        size = len(chosen) + 1
        order = _bit_indices(cand_gt)
        if rng is not None:
            rng.shuffle(order)
        for i in order:
            nodes += 1
            if nodes > node_budget:
                truncated = True
                return
            child_all = cand_all & skew[i]
            child_gt = cand_gt & skew_gt[i]
            if not child_all:
                if sizes_set is None or size in sizes_set:
                    found.append(chosen + (i,))
                    if mode == "first":
                        return
            elif child_gt and (sizes_set is None or size + child_gt.bit_count() >= min_size):
                # lines skipped here reappear in cand_all of siblings, so no
                # maximal clique is lost by the index-increasing restriction
                expand(chosen + (i,), child_gt, child_all)
                if truncated or (found and mode == "first"):
                    return

    if not truncated and n >= min_size:
        expand((), full, full)
    if rng is not None:
        found.sort()  # preorder with increasing indices emits the others sorted
    # in place, so the index tuples are freed as their spreads are built
    for k, t in enumerate(found):
        found[k] = PartialSpread(field, [lines[i] for i in t], maximal=True)
    spreads = found
    lo, hi = deficiency_window(field.size)
    anomalies = [(S, S.deficiency) for S in spreads
                 if S.deficiency > 0 and not (lo <= S.deficiency <= hi)]
    return SearchResult(spreads=spreads, nodes=nodes, truncated=truncated,
                        anomalies=anomalies)


# ---------------------------------------------------------------------------
# per-field line table

class _LineTable(NamedTuple):
    lines: list   # all_lines(field), in key order
    index: dict   # line key -> position in `lines`
    points: list  # per line: bitmask of its points, in enumerate_projective_space order
    skew: list    # per line: bitmask of the lines skew to it
    meet: list    # per line: bitmask of the other lines meeting it
    npts: int


_line_tables: dict = {}


def _line_table(field) -> _LineTable:
    """The incidence tables of PG(3,q) that the search and the fingerprints
    share, built once per field.  Two distinct lines meet exactly when they
    share a point, so meeting is read off the point masks."""
    key = field.spec_string()
    tab = _line_tables.get(key)
    if tab is None:
        lines = all_lines(field)
        space = enumerate_projective_space(field, 3)
        pt_index = {p.key(): i for i, p in enumerate(space.points)}
        points = [sum(1 << pt_index[p.key()] for p in l.points()) for l in lines]
        through = [0] * len(space)  # per point: bitmask of the lines through it
        for i, pm in enumerate(points):
            for p in _bit_indices(pm):
                through[p] |= 1 << i
        full = (1 << len(lines)) - 1
        meet, skew = [], []
        for i, pm in enumerate(points):
            touching = 0
            for p in _bit_indices(pm):
                touching |= through[p]
            meet.append(touching ^ (1 << i))
            skew.append(full ^ touching)
        tab = _LineTable(lines, {l.key(): i for i, l in enumerate(lines)},
                         points, skew, meet, len(space))
        _line_tables[key] = tab
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

def _sorted_column_sums(masks, width):
    """The sorted multiset of the `width` column sums of 0/1 rows given as
    bitmasks.  The rows are added bit-sliced: plane j holds bit j of every
    column's running count, so a row costs a few carries.  `sels[c]` then
    selects the columns whose count is c, and a popcount reads its size."""
    planes = []
    for carry in masks:
        j = 0
        while carry:
            if j == len(planes):
                planes.append(carry)
                break
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            j += 1
    sels = [(1 << width) - 1]
    for plane in planes:
        sels = [s & m for m in (~plane, plane) for s in sels]
    out = []
    for count, sel in enumerate(sels):
        out += [count] * sel.bit_count()
    return tuple(out)


def spread_fingerprint(S: PartialSpread):
    """Projective-equivalence invariant: sorted point-degree multiset and
    sorted profile of how many spread members each line of PG(3,q) meets."""
    tab = _line_table(S.field)
    members = [tab.index[l.key()] for l in S.lines]
    degrees = _sorted_column_sums([tab.points[i] for i in members], tab.npts)
    # a repeated member counts once in the profile: it is a set of lines
    profile = _sorted_column_sums([tab.meet[i] for i in set(members)], len(tab.lines))
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
    rows = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not rows or not rows[0].startswith("field:"):
        raise GeometryError("spread file must start with a 'field:' header")
    field = parse_field_spec(rows[0].split(":", 1)[1].strip())
    lines = []
    for ln in rows[1:]:
        parts = ln.split("|")
        if len(parts) != 2:
            raise GeometryError("each spread line needs two point rows separated by '|'")
        mat = []
        for part in parts:
            mat.append([_parse_coord(field, tok) for tok in part.split(",")])
        lines.append(ProjectiveLine3(field, mat))
    return PartialSpread(field, lines)
