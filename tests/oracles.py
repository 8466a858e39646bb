"""Test oracles: incidence of lines and points of PG(3,q), and a
Gauss-Jordan row reduction.

The library reads incidence off point masks; `lines_skew` and
`line_contains` answer the same questions by the rank of the spanning
rows, independently of it.  `collinear_subsets` lists the lines through
collinear classes with a row reduction each, as the library once did.
`gauss_jordan` reduces a matrix column by column, as `fields.row_reduce`
once did."""
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


def gauss_jordan(F, rows):
    """(pivots, RREF rows, det) of a matrix of reps over the finite field F,
    by Gauss-Jordan through F's own add/mul/inv.  Each pivot is the first
    nonzero entry of its column at or below the current row; det is the
    product of the pivots times the sign of the row swaps when the matrix
    is square and invertible, and the zero rep otherwise."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, det, r = [], F.one_rep, 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not F.rep_is_zero(rows[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = F.neg_rep(det)
        det = F.mul_rep(det, rows[r][c])
        inv = F.inv_rep(rows[r][c])
        rows[r] = [F.mul_rep(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.rep_is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub_rep(x, F.mul_rep(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if not len(rows) == ncols == r:
        det = F.zero_rep
    return pivots, rows[:r], det
