"""Test oracles: incidence of lines and points of PG(3,q), a Gauss-Jordan
row reduction, sparse polynomial arithmetic on rep methods, and a field
tower on tuples.

The library reads incidence off point masks; `lines_skew` and
`line_contains` answer the same questions by the rank of the spanning
rows, independently of it.  `collinear_subsets` lists the lines through
collinear classes with a row reduction each, as the library once did.
`spread_search_reference` walks the skew graph child by child in index
order, as `spreads.search_maximal_partial_spreads` did before it counted
dead tails in bulk.
`gauss_jordan` gives the pivot columns and RREF rows of a matrix, column
by column, as `fields.row_reduce` once did.  The `poly_*` functions act
on `MultiPoly.terms` dicts (packed monomial key -> nonzero rep) through
F's own `mul_rep`, `add_rep`, `sub_rep` and `rep_is_zero`, one call per
term product, as `MultiPoly` once did over every field.  `tower_oracle` builds the layers of a spec
`p=p;ext=d1;ext=d2;...` as tuples of lower-layer reps, with the index
order and moduli that spec strings name, as `fields` once did."""
import functools

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


def spread_search_reference(skew, sizes=None, mode="exhaustive", node_budget=10 ** 8,
                            dead=None):
    """(nodes, truncated, emitted) of the maximal-clique walk over the skew
    graph whose line i is skew to the lines of the bitmask skew[i], in
    modes `exhaustive` and `first`.  Children are visited in increasing
    index, each counted as one node in preorder (the root is node 1); a
    child is emitted, as (its node number, its line indices), when no line
    is skew to all of it and its size is in `sizes`.  Node numbers of
    children below min(sizes) that have fewer later siblings than the
    lines they still need are appended to `dead`: they can be neither
    emitted nor expanded."""
    sizes = set(sizes) if sizes is not None else None
    min_size = min(sizes) if sizes else 0
    nodes, emitted, path = 1, [], []

    class Stop(Exception):
        pass

    def expand(size, cand_gt, cand_all):
        nonlocal nodes
        children = [i for i in range(len(skew)) if cand_gt >> i & 1]
        for k, i in enumerate(children):
            nodes += 1
            if nodes > node_budget:
                raise Stop
            if dead is not None and len(children) - 1 - k < min_size - size:
                dead.append(nodes)
            child_all = cand_all & skew[i]
            if not child_all:
                if sizes is None or size in sizes:
                    emitted.append((nodes, (*path, i)))
                    if mode == "first":
                        raise Stop
                continue
            child_gt = cand_gt & skew[i] & -(2 << i)  # skew lines above i
            if child_gt.bit_count() >= max(min_size - size, 1):
                path.append(i)
                expand(size + 1, child_gt, child_all)
                path.pop()

    full = (1 << len(skew)) - 1
    try:
        if node_budget < 1:
            raise Stop
        if len(skew) >= min_size:
            expand(1, full, full)
    except Stop:
        return nodes, nodes > node_budget, emitted
    return nodes, False, emitted


def gauss_jordan(F, rows):
    """(pivots, RREF rows) of a matrix of reps over the finite field F, by
    Gauss-Jordan through F's own add/mul/inv.  Each pivot is the first
    nonzero entry of its column at or below the current row."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not F.rep_is_zero(rows[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv_rep(rows[r][c])
        rows[r] = [F.mul_rep(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.rep_is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub_rep(x, F.mul_rep(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


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


# ---------------------------------------------------------------------------
# a reference tower: F_p, then layers of tuples of lower-layer reps

class PrimeOracle:
    """F_p on ints in range(p)."""

    def __init__(self, p):
        self.p = self.char = self.size = p
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def from_index(self, i):
        return i % self.p

    def index(self, a):
        return a

    def lift(self, sub, a):
        if sub is not self:
            raise ValueError("not a layer of this tower")
        return a


class TowerOracle:
    """F_s[y]/(g) over a reference base of size s, each element the tuple of
    its `degree` base coefficients, low to high, and the index sum
    index(c_j) * s^j.  Products are schoolbook and reduced by long
    division, inverses by the extended Euclidean algorithm: the tuple
    arithmetic the library used before every layer packed its elements.
    With `degree` alone, g is the smallest monic irreducible in index
    order (Rabin's test); `modulus` gives g as base indices instead."""

    def __init__(self, base, degree=None, modulus=None):
        self.base, self.char = base, base.char
        if modulus is None:
            modulus = smallest_irreducible_oracle(base, degree)
        self.modulus = [base.from_index(c) for c in modulus]
        self.degree = len(self.modulus) - 1
        self.size = base.size ** self.degree
        self.zero = tuple([base.zero] * self.degree)
        self.one = self.from_coeffs([base.one])
        if self.size <= 1024:  # small layers: memoized, as the tables were
            for op in ("add", "neg", "mul", "inv"):
                setattr(self, op, functools.lru_cache(maxsize=None)(getattr(self, op)))

    def from_coeffs(self, cs):
        cs = list(cs[: self.degree])
        return tuple(cs + [self.base.zero] * (self.degree - len(cs)))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        B = self.base
        return self.from_coeffs(pmod(B, pmul(B, list(a), list(b)), self.modulus))

    def inv(self, a):
        B = self.base
        r0, r1 = list(self.modulus), pnorm(B, list(a))
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = [], [B.one]
        while r1:
            q, r = pdivmod(B, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, psub(B, s0, pmul(B, q, s1))
        inv = B.inv(r0[-1])
        return self.from_coeffs([B.mul(c, inv) for c in s0])

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def from_index(self, i):
        out = []
        for _ in range(self.degree):
            i, r = divmod(i, self.base.size)
            out.append(self.base.from_index(r))
        return tuple(out)

    def index(self, a):
        idx = 0
        for c in reversed(a):
            idx = idx * self.base.size + self.base.index(c)
        return idx

    def lift(self, sub, a):
        """The rep here of the rep a of the lower layer `sub`."""
        return a if sub is self else self.from_coeffs([self.base.lift(sub, a)])


def tower_oracle(p, degrees):
    """The layers [F_p, F_{p^d1}, ...] of the reference tower `p=p;ext=d1;...`."""
    layers = [PrimeOracle(p)]
    for d in degrees:
        layers.append(TowerOracle(layers[-1], d))
    return layers


def pnorm(F, f):
    while f and F.is_zero(f[-1]):
        f.pop()
    return f


def padd(F, f, g):
    n = max(len(f), len(g))
    return pnorm(F, [F.add(f[i] if i < len(f) else F.zero, g[i] if i < len(g) else F.zero)
                     for i in range(n)])


def psub(F, f, g):
    return padd(F, f, [F.neg(c) for c in g])


def pmul(F, f, g):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    if isinstance(F, PrimeOracle):  # ints: one mod per coefficient
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return pnorm(F, [c % F.p for c in out])
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return pnorm(F, out)


def pdivmod(F, f, g):
    f = pnorm(F, list(f))
    inv_lead = F.inv(g[-1])
    q = [F.zero] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        c, k = F.mul(f[-1], inv_lead), len(f) - len(g)
        q[k] = c
        if isinstance(F, PrimeOracle):
            f[k:] = [(x - c * b) % F.p for x, b in zip(f[k:], g)]
        else:
            for i, b in enumerate(g):
                f[k + i] = F.add(f[k + i], F.neg(F.mul(c, b)))
        pnorm(F, f)
    return pnorm(F, q), f


def pmod(F, f, g):
    return pdivmod(F, f, g)[1]


def pgcd(F, f, g):
    while g:
        f, g = g, pmod(F, f, g)
    return f


def ppowmod(F, f, e, m):
    result, f = [F.one], pmod(F, list(f), m)
    while e:
        if e & 1:
            result = pmod(F, pmul(F, result, f), m)
        f = pmod(F, pmul(F, f, f), m)
        e >>= 1
    return result


def is_irreducible_oracle(F, m):
    """Rabin's test of the monic m of degree n >= 1 over F: x^(s^n) = x mod m,
    and gcd(x^(s^(n/l)) - x, m) = 1 for every prime l | n."""
    n, x = len(m) - 1, [F.zero, F.one]
    if n == 1:
        return True
    if psub(F, ppowmod(F, x, F.size ** n, m), x):
        return False
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    return all(len(pgcd(F, m, psub(F, ppowmod(F, x, F.size ** (n // q), m), x))) == 1
               for q in primes)


def smallest_irreducible_oracle(F, degree):
    """The monic irreducible of the given degree over F with the smallest
    index sum index(c_j) * s^j of its lower coefficients, as base indices."""
    for i in range(F.size ** degree):
        cs, k = [], i
        for _ in range(degree):
            k, r = divmod(k, F.size)
            cs.append(r)
        if is_irreducible_oracle(F, [F.from_index(c) for c in cs] + [F.one]):
            return cs + [1]
    raise ValueError("no irreducible polynomial found")
