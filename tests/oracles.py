"""Incidence of lines and points of PG(3,q), as test oracles.

The library reads incidence off point masks; `lines_skew` and
`line_contains` answer the same questions by the rank of the spanning
rows, independently of it.  `collinear_subsets` lists the lines through
collinear classes with a row reduction each, as the library once did."""
from geproci.projgeom import GeometryError, collinear_classes, line_through, matrix_rank


def lines_skew(l1, l2) -> bool:
    """Whether two lines of PG(3,q) share no point: their rows span F^4."""
    return matrix_rank(l1.field, [*map(list, l1.rows), *map(list, l2.rows)]) == 4


def line_contains(line, p) -> bool:
    """Whether the point `p` lies on `line`: it adds nothing to the row span."""
    return matrix_rank(line.field, [*map(list, line.rows), list(p.reps)]) == 2


def collinear_subsets(Z, k=3) -> list:
    """All lines containing at least k points of Z, with their incidences,
    sorted by line key."""
    if k < 2:
        raise GeometryError("threshold must be >= 2")
    pts = Z.points
    out = [(line_through(pts[c[0]], pts[c[1]]), tuple(pts[i] for i in c))
           for c in collinear_classes(Z) if len(c) >= k]
    out.sort(key=lambda lm: lm[0].key())
    return out
