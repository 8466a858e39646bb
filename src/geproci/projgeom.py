"""Points and lines of P^n over a finite field: enumeration and incidence."""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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
        rep_rows = []
        for row in rows:
            rep_rows.append([field.element(c).rep for c in row])
        _, reduced, _ = row_reduce(field, rep_rows)
        if len(reduced) != 2:
            raise GeometryError("line requires a rank-2 spanning set")
        self.field = field
        self.rows = (tuple(reduced[0]), tuple(reduced[1]))
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

    def contains(self, p: ProjectivePoint) -> bool:
        f = self.field
        return matrix_rank(f, [list(self.rows[0]), list(self.rows[1]), list(p.reps)]) == 2

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
        pts = sorted(members)
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


def lines_skew(l1: ProjectiveLine3, l2: ProjectiveLine3) -> bool:
    f = l1.field
    rows = [list(l1.rows[0]), list(l1.rows[1]), list(l2.rows[0]), list(l2.rows[1])]
    return matrix_rank(f, rows) == 4


def all_lines(field) -> list:
    """Every line of PG(3,q) exactly once, in canonical RREF key order."""
    elems = list(field.elements())
    one, zero = field.one(), field.zero()
    lines = []
    for i in range(4):
        for j in range(i + 1, 4):
            free0 = [k for k in range(i + 1, 4) if k != j]
            free1 = [k for k in range(j + 1, 4)]
            n0, n1 = len(free0), len(free1)

            def fill(template, positions, values):
                row = list(template)
                for pos, v in zip(positions, values):
                    row[pos] = v
                return row

            base0 = [zero] * 4
            base0[i] = one
            base1 = [zero] * 4
            base1[j] = one
            stack0 = _tuples(elems, n0)
            stack1 = _tuples(elems, n1)
            for v0 in stack0:
                r0 = fill(base0, free0, v0)
                for v1 in stack1:
                    r1 = fill(base1, free1, v1)
                    lines.append(ProjectiveLine3(field, [r0, r1]))
    return sorted(lines)


def _tuples(elems, n):
    if n == 0:
        return [()]
    out = [()]
    for _ in range(n):
        out = [t + (e,) for t in out for e in elems]
    return out


def collinear_classes(Z: PointSet) -> list:
    """Every line meeting Z in at least 2 points, as the ascending tuple of
    the indices of its points in `Z.points`.

    Projects from each point, with no elimination.  For p = Z.points[i]
    with leading coordinate c (which is 1), a later point r has the
    direction d = r - r[c]·p, the point where the line pr meets x_c = 0;
    two points lie on one line through p iff their normalized directions
    are equal.  A class is emitted at its smallest member and ORed into
    `done` of each member, so the projection from a later member skips the
    points already in a class with it.  The classes are computed once per
    set; each call returns a fresh list.
    """
    if Z._classes is None:
        Z._classes = _collinear_classes(Z)
    return list(Z._classes)


def _collinear_classes(Z: PointSet) -> list:
    F = Z.field
    sub, mul, inv, is_zero = F.sub_rep, F.mul_rep, F.inv_rep, F.rep_is_zero
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
            d = [sub(x, mul(t, y)) for x, y in zip(r, p)]
            s = inv(next(x for x in d if not is_zero(x)))
            buckets.setdefault(tuple(mul(x, s) for x in d), [i]).append(k)
        for members in buckets.values():
            mask = sum(1 << k for k in members)
            for k in members:
                done[k] |= mask
            classes.append(tuple(members))
    return classes


def collinear_subsets(Z: PointSet, k: int = 3) -> list:
    """All lines containing at least k points of Z, with their incidences,
    sorted by line key."""
    if k < 2:
        raise GeometryError("threshold must be >= 2")
    pts = Z.points
    out = [(line_through(pts[c[0]], pts[c[1]]), tuple(pts[i] for i in c))
           for c in collinear_classes(Z) if len(c) >= k]
    out.sort(key=lambda lm: lm[0].key())
    return out


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
    token = token.strip()
    if token.startswith("(") and token.endswith(")"):
        coeffs = [int(t) for t in token[1:-1].split()]
        return field.element(coeffs)
    return field.from_index(int(token))


def _read_header(text: str, kind: str):
    """(field, dim, body) of a `field: ...; dim: ...` file: the header's
    field and dimension, and the other non-blank, non-comment lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("field:"):
        raise GeometryError(f"{kind} file must start with a 'field:' header")
    # the field spec may itself contain ';', so the dim part is the tail
    field_part, _, dim_part = lines[0].rpartition(";")
    field = parse_field_spec(field_part.split(":", 1)[1].strip())
    if "dim:" not in dim_part:
        raise GeometryError("header must declare 'dim:'")
    return field, int(dim_part.split(":", 1)[1].strip()), lines[1:]


def read_point_set(text: str) -> PointSet:
    field, dim, body = _read_header(text, "point-set")
    pts = []
    for ln in body:
        coords = [_parse_coord(field, tok) for tok in ln.split(",")]
        if len(coords) != dim + 1:
            raise GeometryError(f"expected {dim + 1} coordinates, got {len(coords)}")
        pts.append(ProjectivePoint(field, coords))
    return PointSet(field, pts, dim)
