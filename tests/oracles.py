"""Rank-test incidence of lines and points of PG(3,q), as test oracles.

The library reads incidence off point masks; these answer the same
questions by the rank of the spanning rows, independently of it."""
from geproci.projgeom import matrix_rank


def lines_skew(l1, l2) -> bool:
    """Whether two lines of PG(3,q) share no point: their rows span F^4."""
    return matrix_rank(l1.field, [*map(list, l1.rows), *map(list, l2.rows)]) == 4


def line_contains(line, p) -> bool:
    """Whether the point `p` lies on `line`: it adds nothing to the row span."""
    return matrix_rank(line.field, [*map(list, line.rows), list(p.reps)]) == 2
