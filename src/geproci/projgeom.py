"""Points and lines of P^n over a finite field: enumeration and incidence."""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Sequence

from .fields import FieldElement, FieldError, parse_field_spec, row_reduce

DEFAULT_POINT_CAP = 10 ** 7


class GeometryError(Exception):
    pass


class EqualPoints(GeometryError):
    pass


class TooLarge(GeometryError):
    pass


def matrix_rank(field, rows) -> int:
    return len(row_reduce(field, rows)[0])


class ProjectivePoint:
    """Homogeneous coordinates, normalized so the first nonzero entry is 1."""

    __slots__ = ("field", "reps")

    def __init__(self, field, coords: Sequence):
        reps = []
        for c in coords:
            e = field.element(c)
            reps.append(e.rep)
        lead = None
        for r in reps:
            if not field.rep_is_zero(r):
                lead = r
                break
        if lead is None:
            raise GeometryError("the zero vector is not a projective point")
        inv = field.inv_rep(lead)
        self.field = field
        self.reps = tuple(field.mul_rep(r, inv) for r in reps)

    @property
    def coords(self) -> tuple:
        return tuple(FieldElement(self.field, r) for r in self.reps)

    @property
    def dim(self) -> int:
        return len(self.reps) - 1

    def key(self) -> tuple:
        return tuple(self.field.rep_to_index(r) for r in self.reps)

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.field == other.field
            and self.reps == other.reps
        )

    def __lt__(self, other):
        return self.key() < other.key()

    def __hash__(self):
        return hash(self.reps)

    def __repr__(self):
        return "(" + ",".join(str(i) for i in self.key()) + ")"


class ProjectiveLine3:
    """A line of P^3 as the row span of a canonical 2x4 RREF matrix."""

    __slots__ = ("field", "rows", "_points", "_key")

    def __init__(self, field, rows: Sequence[Sequence]):
        if any(len(row) != 4 for row in rows):
            raise GeometryError("a line of P^3 needs rows of 4 coordinates")
        rep_rows = []
        for row in rows:
            rep_rows.append([field.element(c).rep for c in row])
        _, reduced = row_reduce(field, rep_rows)
        if len(reduced) != 2:
            raise GeometryError("line requires a rank-2 spanning set")
        self._set_rows(field, reduced)

    @classmethod
    def _from_rref(cls, field, rows):
        """The line of two rows of reps that are already its 2x4 RREF."""
        line = cls.__new__(cls)
        line._set_rows(field, rows)
        return line

    def _set_rows(self, field, rows):
        self.field = field
        self.rows = (tuple(rows[0]), tuple(rows[1]))
        self._points = None
        self._key = tuple(field.rep_to_index(c) for row in self.rows for c in row)

    def key(self) -> tuple:
        return self._key

    def points(self) -> tuple:
        """The q+1 rational points on the line, canonically sorted."""
        if self._points is None:
            f = self.field
            r0, r1 = self.rows
            pts = [ProjectivePoint(f, [FieldElement(f, b) for b in r1])]
            for t in f.elements():
                coords = [
                    FieldElement(f, f.add_rep(a, f.mul_rep(t.rep, b))) for a, b in zip(r0, r1)
                ]
                pts.append(ProjectivePoint(f, coords))
            self._points = tuple(sorted(pts))
        return self._points

    def __eq__(self, other):
        return (
            isinstance(other, ProjectiveLine3)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __lt__(self, other):
        return self.key() < other.key()

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Line[{self.key()}]"


class PointSet:
    """A sorted, duplicate-free set of points of P^n over a fixed field.

    It is immutable, and answers the scheme interface of
    `fatpoints.FatPointScheme` as a scheme of simple points."""

    def __init__(self, field, points: Iterable[ProjectivePoint], dim: int = None):
        members = frozenset(points)
        pts = sorted(members, key=ProjectivePoint.key)
        if dim is None:
            if not pts:
                raise GeometryError("empty point set needs an explicit dimension")
            dim = pts[0].dim
        for p in pts:
            if p.dim != dim:
                raise GeometryError("mixed ambient dimensions")
        self.field = field
        self.dim = dim
        self.points = tuple(pts)
        self._members = members
        self._classes = None  # collinear_classes, computed on first use

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return p in self._members

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.field == other.field
            and self.points == other.points
        )

    def scheme_length(self) -> int:
        return len(self.points)

    def as_projection_entries(self) -> list:
        return [(p, None) for p in self.points]

    def support_points(self) -> "PointSet":
        return self

    def minus(self, other: "PointSet") -> "PointSet":
        return PointSet(self.field, [p for p in self.points if p not in other], self.dim)

    def __repr__(self):
        return f"PointSet({len(self.points)} points in P^{self.dim} over {self.field!r})"


# ---------------------------------------------------------------------------
# operations

def enumerate_projective_space(field, n: int, cap: int = DEFAULT_POINT_CAP) -> PointSet:
    """All points of P^n(F_q), canonically ordered."""
    if n < 1:
        raise GeometryError("ambient dimension must be >= 1")
    q = field.size
    count = (q ** (n + 1) - 1) // (q - 1)
    if count > cap:
        raise TooLarge(f"P^{n}(F_{q}) has {count} points, above cap {cap}")
    pts = []
    elems = list(field.elements())
    one = field.one()
    for pivot in range(n + 1):
        # points with first nonzero coordinate at `pivot`
        def rec(i, acc):
            if i > n:
                pts.append(ProjectivePoint(field, acc))
                return
            for e in elems:
                rec(i + 1, acc + [e])

        rec(pivot + 1, [field.zero()] * pivot + [one])
    return PointSet(field, pts, n)


def line_through(p: ProjectivePoint, q: ProjectivePoint) -> ProjectiveLine3:
    if p == q:
        raise EqualPoints("line through equal points is undefined")
    return ProjectiveLine3(p.field, [p.coords, q.coords])


def all_lines(field) -> list:
    """Every line of PG(3,q) exactly once, in canonical RREF key order."""
    elems = [e.rep for e in field.elements()]
    one, zero = field.one_rep, field.zero_rep

    def rows(pivot, free):
        """Every row with 1 at `pivot`, any values at `free` and 0 elsewhere."""
        return [[dict(zip(free, vals)).get(k, one if k == pivot else zero) for k in range(4)]
                for vals in product(elems, repeat=len(free))]

    # RREF with pivots i < j: free entries right of each pivot, none above j
    lines = [ProjectiveLine3._from_rref(field, [r0, r1])
             for i, j in combinations(range(4), 2)
             for r0 in rows(i, [k for k in range(i + 1, 4) if k != j])
             for r1 in rows(j, range(j + 1, 4))]
    return sorted(lines)


def collinear_classes(Z: PointSet) -> list:
    """Every line meeting Z in at least 2 points, as the ascending tuple of
    the indices of its points in `Z.points`.

    Projects from each point, with no elimination.  For p = Z.points[i]
    with leading coordinate c (which is 1), a later point r has the
    direction d = r - r[c]·p, the point where the line pr meets x_c = 0;
    two points lie on one line through p iff their normalized directions
    are equal.  A class is emitted at its smallest member and ORed into
    `done` of each member, so the projection from a later member skips the
    points already in a class with it.  Over a prime field the directions
    are formed and normalized on plain ints mod p, otherwise by the field's
    rep methods.  The classes are computed once per set; each call returns
    a fresh list.
    """
    if Z._classes is None:
        Z._classes = _collinear_classes(Z)
    return list(Z._classes)


def _collinear_classes(Z: PointSet) -> list:
    F = Z.field
    ints = F.base is None  # a prime field: its reps are ints mod p
    sub, mul, inv, is_zero = F.sub_rep, F.mul_rep, F.inv_rep, F.rep_is_zero
    prime = F.size
    pts = [p.reps for p in Z.points]
    done = [0] * len(pts)
    classes = []
    for i, p in enumerate(pts):
        c = next(j for j, x in enumerate(p) if not is_zero(x))
        skip = done[i]
        buckets: dict = {}
        for k in range(i + 1, len(pts)):
            if skip >> k & 1:
                continue
            r = pts[k]
            t = r[c]
            if ints:
                d = [(x - t * y) % prime for x, y in zip(r, p)]
                s = pow(next(filter(None, d)), -1, prime)
                key = tuple([x * s % prime for x in d])
            else:
                d = [sub(x, mul(t, y)) for x, y in zip(r, p)]
                s = inv(next(x for x in d if not is_zero(x)))
                key = tuple([mul(x, s) for x in d])
            buckets.setdefault(key, [i]).append(k)
        for members in buckets.values():
            mask = sum(1 << k for k in members)
            for k in members:
                done[k] |= mask
            classes.append(tuple(members))
    return classes


def exact_cover(masks: Sequence[int], target: int, parts: int = None):
    """Indices of pairwise disjoint masks covering every bit of `target`
    exactly once, in the order chosen, or None.  A bit outside `target` may
    be used at most once (a secondary column); `parts` fixes the number
    of masks.

    Branches on the lowest uncovered bit of `target`, trying the masks
    through it in the given order.  A node is pruned when the masks that
    still fit cannot cover the bits left, or when the masks still to be
    chosen for `parts` are too few or too many for them; the prunes cut
    only subtrees without a cover, so the cover found is the first one in
    that order.
    """
    sizes = [(m & target).bit_count() for m in masks if m & target]
    widest, narrowest = max(sizes, default=0), min(sizes, default=0)
    chosen = []

    def rec(left, fit):
        # fit: the indices, in order, of the masks disjoint from all chosen
        if not left:
            return parts is None or len(chosen) == parts
        if parts is not None:
            more = parts - len(chosen)
            if not more * narrowest <= left.bit_count() <= more * widest:
                return False
        reach = 0
        for i in fit:
            reach |= masks[i]
        if left & ~reach:
            return False
        low = left & -left
        for i in fit:
            m = masks[i]
            if m & low:
                chosen.append(i)
                if rec(left & ~m, [j for j in fit if not masks[j] & m]):
                    return True
                chosen.pop()
        return False

    return chosen if rec(target, range(len(masks))) else None


def is_coplanar(Z: PointSet) -> bool:
    rows = [list(p.reps) for p in Z.points]
    return matrix_rank(Z.field, rows) <= 3


# ---------------------------------------------------------------------------
# point-set file format

def _format_coord(field, rep) -> str:
    idx = field.rep_to_index(rep)
    return str(idx)


def write_point_set(Z: PointSet) -> str:
    lines = [f"field: {Z.field.spec_string()}; dim: {Z.dim}"]
    for p in Z.points:
        lines.append(",".join(_format_coord(Z.field, r) for r in p.reps))
    return "\n".join(lines) + "\n"


def _parse_coord(field, token: str):
    """The field element whose canonical index, in [0, q), `token` names."""
    i = int(token) if token.strip().isdecimal() else -1
    if not 0 <= i < field.size:
        raise GeometryError(f"coordinate {token.strip()!r} is not an index in [0, {field.size})")
    return field.from_index(i)


def _read_header(text: str, kind: str):
    """(field, dim, body) of a `field: <spec>[; dim: <n>]` file: the
    header's field, its dimension (None if it declares none), and the other
    non-blank, non-comment lines."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("field:"):
        raise GeometryError(f"{kind} file must start with a 'field:' header")
    # the field spec may itself contain ';', so the dim part is found by its key
    spec, _, dim = lines[0].split(":", 1)[1].partition("dim:")
    field = parse_field_spec(spec.strip().rstrip(";"))
    return field, int(dim) if dim else None, lines[1:]


def _parse_point(field, dim, token: str) -> ProjectivePoint:
    """The point of P^dim whose coordinates `token` lists, comma-separated."""
    coords = [_parse_coord(field, tok) for tok in token.split(",")]
    if len(coords) != dim + 1:
        raise GeometryError(f"expected {dim + 1} coordinates, got {len(coords)}")
    return ProjectivePoint(field, coords)


def read_point_set(text: str) -> PointSet:
    field, dim, body = _read_header(text, "point-set")
    if dim is None:
        raise GeometryError("header must declare 'dim:'")
    return PointSet(field, [_parse_point(field, dim, ln) for ln in body], dim)
