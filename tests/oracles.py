"""Test oracles: incidence of lines and points of PG(3,q), a Gauss-Jordan
row reduction, and sparse polynomial arithmetic on rep methods.

The library reads incidence off point masks; `lines_skew` and
`line_contains` answer the same questions by the rank of the spanning
rows, independently of it.  `collinear_subsets` lists the lines through
collinear classes with a row reduction each, as the library once did.
`gauss_jordan` reduces a matrix column by column, as `fields.row_reduce`
once did.  The `poly_*` functions act on `MultiPoly.terms` dicts (packed
monomial key -> nonzero rep) through F's own `mul_rep`, `add_rep`,
`sub_rep` and `rep_is_zero`, one call per term product, as `MultiPoly`
once did over every field."""
from geproci.fields import EXP_BITS
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


def poly_add(F, a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        if e in out:
            s = F.add_rep(out[e], v)
            if F.rep_is_zero(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = v
    return out


def poly_neg(F, a: dict) -> dict:
    return {e: F.neg_rep(v) for e, v in a.items()}


def poly_sub(F, a: dict, b: dict) -> dict:
    return poly_add(F, a, poly_neg(F, b))


def poly_scale(F, a: dict, c) -> dict:
    """a times the rep c of F."""
    if F.rep_is_zero(c):
        return {}
    return {e: F.mul_rep(v, c) for e, v in a.items()}


def poly_mul(F, a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            prod = F.mul_rep(v1, v2)
            if e in out:
                s = F.add_rep(out[e], prod)
                if F.rep_is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = prod
    return out


def poly_exact_div(F, nvars: int, a: dict, d: dict) -> dict:
    """The quotient a / d, for a nonzero d in nvars variables; ValueError
    if d does not divide a."""
    def exps(key):
        return [(key >> (i * EXP_BITS)) & ((1 << EXP_BITS) - 1) for i in range(nvars)]

    rem, out = dict(a), {}
    dlead = max(d)
    dinv = F.inv_rep(d[dlead])
    while rem:
        e = max(rem)
        if any(x < y for x, y in zip(exps(e), exps(dlead))):
            raise ValueError("inexact polynomial division")
        qe, qc = e - dlead, F.mul_rep(rem[e], dinv)
        out[qe] = qc
        for de, dv in d.items():
            te = qe + de
            s = F.sub_rep(rem.get(te, F.zero_rep), F.mul_rep(qc, dv))
            if F.rep_is_zero(s):
                rem.pop(te, None)
            else:
                rem[te] = s
    return out
