"""Exact arithmetic: prime fields, extension towers, and polynomials over them.

Every field here is F_p[t]/(M), M monic irreducible of degree n over F_p,
and an element's raw ``rep`` is one int: the Kronecker-packed sum
c_i << (S*i) of its coefficients, each canonical in [0, p) (see
`_Packing`).  F_p is the one-slot packing of F_p[t]/(t), whose reps are
the ints in range(p), and in every field the integer k is the rep k mod p.
Inner loops work on these ints; the :class:`FieldElement` wrapper adds
operators on top.

A tower layer B[y]/(g) keeps the definition that spec strings name: its
base B, its modulus g over B, and the index order in which sum b_j y^j
has index sum index(b_j) |B|^j.  Over a prime base M = g and the slots
are the index digits.  Over a non-prime base t is an element of the
layer that generates it over F_p, M its minimal polynomial, and two fixed
F_p-linear maps take the slots to the index digits and back (see
`FieldTower`).  Indices, spec strings, point files and reports never see M.

A sum is one int addition and a product one int product folded back
below degree n by the tail of M; one Barrett step then reduces every slot
mod p at once.  A field of at most ``ZECH_MAX_SIZE`` (2^16) elements
multiplies and inverts by table lookup instead: on first use it finds a
primitive element g in index order and tabulates exp[i] = g^i and
log[g^i] = i, so a*b = exp[log a + log b] and 1/a = exp[-log a], the
exponents taken mod q-1.  A larger field inverts by the extended Euclidean
algorithm on the unpacked coefficients mod p.  Rabin's irreducibility test
picks each layer's modulus: over a prime base on packed powers x^(p^k),
over a tower base on coefficient lists of base reps.

`row_reduce`, the one finite-field row reduction, inserts the rows in
order into the RREF basis of the rows before them, one inversion per
pivot.  It works on the packed ints directly: each update adds a
canonical multiplier times a canonical basis entry to a canonical cell,
so one Barrett step keeps every slot in bound (see `_Packing`).

:class:`MultiPoly` is a sparse polynomial over such a field.  Generic-point
mode works in F_q[a,b,c] with these polynomials as its scalars: projected
coordinates are polynomials in a, b, c, so no fraction and no polynomial
gcd is ever needed.  Each monomial is one packed int key: the total degree
in the top field, then one EXP_BITS-wide field per variable, first variable
first.  Int order is then graded-lex order, and a monomial product is one
int addition.  Over a prime field (``F.base is None``) the reps are ints
in range(1, p), so a product or a Bareiss row update ``mul_sub`` sums raw
int products per key and reduces mod p once per key, and ``exact_div``
tests divisibility on the packed keys; over an extension the same
operations call the field's rep methods once per term product.
"""
from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence


class FieldError(Exception):
    pass


class NonPrimeModulus(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


class NotASubfield(FieldError):
    pass


class WrongCharacteristic(FieldError):
    pass


# ---------------------------------------------------------------------------
# univariate polynomial helpers over a field (lists of reps, low-to-high):
# Rabin's test, the powers of a layer's generator, and coprimality on the
# lines of a pencil (multipoly.coprime_certificate)

def _pnorm(f):
    while f and not f[-1]:  # every field's zero rep is 0
        f.pop()
    return f


def _padd(F, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero_rep
        b = g[i] if i < len(g) else F.zero_rep
        out.append(F.add_rep(a, b))
    return _pnorm(out)


def _pneg(F, f):
    return [F.neg_rep(c) for c in f]


def _psub(F, f, g):
    return _padd(F, f, _pneg(F, g))


def _pmul(F, f, g):
    if not f or not g:
        return []
    out = [F.zero_rep] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add_rep(out[i + j], F.mul_rep(a, b))
    return _pnorm(out)


def _pmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    inv_lead = F.inv_rep(g[-1])
    while len(f) >= len(g):
        c = F.mul_rep(f[-1], inv_lead)
        k = len(f) - len(g)
        for i, b in enumerate(g):
            f[k + i] = F.sub_rep(f[k + i], F.mul_rep(c, b))
        _pnorm(f)
    return f


def _pgcd(F, f, g):
    """A gcd of f and g, up to a unit; it is constant iff they are coprime."""
    while g:
        f, g = g, _pmod(F, f, g)
    return f


def _ppowmod(F, f, e, m):
    """f**e mod m by square-and-multiply; e may be a large int."""
    result = [F.one_rep]
    f = _pmod(F, f, m)
    while e:
        if e & 1:
            result = _pmod(F, _pmul(F, result, f), m)
        f = _pmod(F, _pmul(F, f, f), m)
        e >>= 1
    return result


def _inv_mod_p(p: int, m, a) -> list:
    """Inverse of a mod m over F_p by the extended Euclidean algorithm on
    int coefficient lists (low to high).  Each step cancels the leading
    term of r0 by a multiple c*x^k of r1 and subtracts c*x^k*s1 from s0,
    keeping s_i*a = r_i mod m; r0 and r1 swap when r0 drops below r1."""
    r0, r1 = list(m), [c % p for c in a]
    while r1 and not r1[-1]:
        r1.pop()
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    s0, s1 = [], [1]
    while len(r1) > 1:
        inv, d = pow(r1[-1], p - 2, p), len(r1) - 1
        while len(r0) > d:
            c, k = r0.pop() * inv % p, len(r0) - d
            r0[k:] = [(x - c * y) % p for x, y in zip(r0[k:], r1)]
            s0 += [0] * (k + len(s1) - len(s0))
            s0[k:k + len(s1)] = [(x - c * y) % p for x, y in zip(s0[k:], s1)]
            while r0 and not r0[-1]:
                r0.pop()
        if not r0:
            raise ZeroDivisionError("element not invertible")
        r0, r1, s0, s1 = r1, r0, s1, s0
    inv = pow(r1[0], p - 2, p)
    return [c * inv % p for c in s1]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(F, m) -> bool:
    """Rabin's test of a poly m of degree n over F, |F| = s: m is irreducible
    iff x^(s^n) = x mod m and gcd(x^(s^(n/l)) - x, m) = 1 for each prime l | n.

    Over a prime field the powers x^(p^k) come from `_frobenius_orbit`;
    over a tower base each is one square-and-multiply on coefficient lists.
    """
    n = len(m) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [F.zero_rep, F.one_rep]
    if isinstance(F, PrimeField):
        inv = F.inv_rep(m[-1])
        m = [c * inv % F.p for c in m]  # monic, as _Packing needs
        power = _frobenius_orbit(F.p, m).__getitem__
    else:
        def power(k):
            return _ppowmod(F, x, F.size ** k, m)
    if _psub(F, power(n), x):
        return False
    for ell in _prime_factors(n):
        if len(_pgcd(F, _psub(F, power(n // ell), x), m)) != 1:
            return False
    return True


def _frobenius_orbit(p: int, m) -> list:
    """[x^(p^k) mod m for k = 0..n] as coefficient lists, for a monic m of
    degree n >= 2 over F_p.  Each is the p-th power of the one before, by
    square-and-multiply of canonical ints packed as in `_Packing`."""
    K = _Packing(p, m)
    mul, bits = K.mul, bin(p)[3:]
    y = 1 << K.S  # x
    orbit = [y]
    for _ in range(K.n):
        z = y
        for bit in bits:
            z = mul(z, z)
            if bit == "1":
                z = mul(z, y)
        y = z
        orbit.append(y)
    return [K.unpack(y) for y in orbit]


# ---------------------------------------------------------------------------
# fields

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _Field:
    """What every field shares: the element-level API over its reps."""

    def zero(self):
        return FieldElement(self, self.zero_rep)

    def one(self):
        return FieldElement(self, self.one_rep)

    def from_index(self, i: int) -> "FieldElement":
        return FieldElement(self, self.index_to_rep(i))

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.size):
            yield self.from_index(i)

    def __repr__(self):
        return f"F_{self.size}"


class PrimeField(_Field):
    """F_p with elements represented by ints in range(p): the one-slot
    packing of F_p[t]/(t), whose arithmetic is plain ints mod p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.char = p
        self.size = p
        self.degree = 1
        self.base = None
        self.zero_rep = 0
        self.one_rep = 1
        self.packed = _Packing(p, (0, 1))  # one slot: the rep itself
        self._hash = hash(("PrimeField", p))

    # rep-level ops
    def add_rep(self, a, b):
        return (a + b) % self.p

    def sub_rep(self, a, b):
        return (a - b) % self.p

    def neg_rep(self, a):
        return (-a) % self.p

    def mul_rep(self, a, b):
        return (a * b) % self.p

    def inv_rep(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def rep_is_zero(self, a):
        return a % self.p == 0

    def rep_to_index(self, a):
        return a % self.p

    def index_to_rep(self, i):
        return i % self.p

    def digits(self, a) -> list:
        return [a]

    def from_digits(self, digits):
        return digits[0]

    # element-level API
    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldError("element of a different field")
            return value
        return FieldElement(self, int(value) % self.p)

    def lift_rep(self, sub, rep):
        """Lift a rep of the subfield `sub` (a prefix of this tower) to here."""
        if sub is self or sub == self:
            return rep
        raise NotASubfield("not a layer of this tower")

    def spec_string(self) -> str:
        return f"p={self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return self._hash


# Fields up to this size multiply and invert by log/antilog table lookups.
ZECH_MAX_SIZE = 1 << 16


class _Packing:
    """Kronecker packing of F_p[t]/(m): one S-bit slot per coefficient.

    An element c_0 + ... + c_{n-1} t^{n-1} is the integer sum c_i << (S*i)
    with every c_i in [0, p), so one big-int product is the whole
    convolution.  Reduction mod m folds the high part back: with t^n =
    tail(t) mod m, v -> low(v) + high(v) * tail, repeated until the degree
    is below n.  Products and folds leave the slots unreduced, and all
    values stay nonnegative, so no slot borrows from its neighbour.

    `reduce` then takes every slot mod p at once by one Barrett step
    (Barrett, CRYPTO '86).  With every slot below 2^W, k = W + bits(p) and
    m = ceil(2^k / p), the quotient of slot x is (x*m) >> k exactly, since
    x*m/2^k - x/p < 2^W/2^k <= 1/p.  Each x*m is below 2^(W+k) <= 2^S, so
    one product v*m, one shift and one mask give all the quotients.

    W comes from a simulation on the all-(p-1) inputs, which maximize every
    slot of the product and of each fold at once: 2^W exceeds the largest
    slot value anywhere on the way, and a canonical value plus a folded
    product, as a row update in `row_reduce` makes.  The middle slot of the
    product is n(p-1)^2, so a sum of n canonical ints times canonical
    constants is in bound too, as the basis changes of `FieldTower` make.
    `folds` counts the folds.
    """

    def __init__(self, p: int, modulus: Sequence[int]):
        n = len(modulus) - 1
        tail = [(-c) % p for c in modulus[:n]]
        while tail and not tail[-1]:
            tail.pop()
        v = [min(k + 1, 2 * n - 1 - k) * (p - 1) ** 2 for k in range(2 * n - 1)]
        peak, folds = max(v), 0
        while len(v) > n:
            hi, v = v[n:], v[:n] + [0] * max(0, len(v) - 2 * n + len(tail) - 1)
            for i, h in enumerate(hi):
                for j, t in enumerate(tail):
                    v[i + j] += h * t
            peak, folds = max(peak, max(v)), folds + 1
        W = max(peak, p - 1 + max(v)).bit_length()
        k = W + p.bit_length()
        S = W + k
        self.p, self.n, self.W, self.S, self.folds = p, n, W, S, range(folds)
        self.modulus = tuple(modulus)
        self.shifts, self.mask = range(0, n * S, S), (1 << S) - 1
        self.nS, self.low = n * S, (1 << (n * S)) - 1
        self.tail = sum(t << (S * i) for i, t in enumerate(tail))
        self.k, self.m = k, -(-(1 << k) // p)
        self.qmask = sum(((1 << (S - k)) - 1) << s for s in self.shifts)
        self.ps = sum(p << s for s in self.shifts)  # p in every slot

    def pack(self, coeffs) -> int:
        v = 0
        for c, s in zip(coeffs, self.shifts):
            v |= c << s
        return v

    def unpack(self, v) -> list:
        mask = self.mask
        return [(v >> s) & mask for s in self.shifts]

    def reduce(self, v: int) -> int:
        """Every slot of v mod p; exact while every slot is below 2^W."""
        return v - (((v * self.m) >> self.k) & self.qmask) * self.p

    def mul(self, a: int, b: int) -> int:
        v = a * b
        low, nS, tail = self.low, self.nS, self.tail
        for _ in self.folds:
            v = (v & low) + (v >> nS) * tail
        return self.reduce(v)

    def add(self, a: int, b: int) -> int:
        return self.reduce(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.reduce(a + self.ps - b)  # slots in [1, 2p)

    def neg(self, a: int) -> int:
        return self.reduce(self.ps - a)

    def linear(self, src: "_Packing", rows, v: int) -> int:
        """The F_p-linear image of v, packed by src, that sends slot i of
        src to rows[i], packed here; v and the rows are canonical."""
        return self.reduce(sum(c * r for c, r in zip(src.unpack(v), rows)))


class FieldTower(_Field):
    """One extension layer B[y]/(g) of degree d over a base field B.

    `modulus` lists g's coefficients as base-field reps, low to high.  With
    the base it is the layer's definition: spec strings name it, and an
    element sum b_j y^j has index sum index(b_j) |B|^j.  The arithmetic
    runs in F_p[t]/(M) on the packed ints of `packed`, whatever the base.

    Over a prime base M = g, and slot i of a rep is the i-th base-p digit
    of its index.  Over a non-prime base B of degree k over F_p, t is the
    first θ = y + b, b in B in index order, whose powers 1, θ, ..., θ^(n-1)
    span the layer (n = d*k), and M is its minimal polynomial over F_p.
    The index digits of an element are then those of its coefficients b_j,
    k per coefficient.  Row i of the n×n matrix T holds the digits of θ^i,
    so an element with slots u has the digits u·T and the slots c·T^-1 for
    digits c.  One `row_reduce` of [T | I] finds T^-1, and with it M and
    whether θ spans; the rows of T and T^-1, packed, are `_digit_rows` and
    `_slot_rows` (None over a prime base).  A subfield's elements lift by
    the images of its slot basis, built once per subfield.
    """

    def __init__(self, base, modulus: Sequence, check: bool = True):
        self.base = base
        self.char = base.char
        mod = _pnorm(list(modulus))
        if len(mod) < 2:
            raise ReducibleModulus("modulus must have degree >= 1")
        inv = base.inv_rep(mod[-1])
        mod = [base.mul_rep(c, inv) for c in mod]  # monic
        self.modulus = tuple(mod)
        self.degree = len(mod) - 1
        self.size = base.size ** self.degree
        if check and not is_irreducible(base, list(self.modulus)):
            raise ReducibleModulus("modulus is reducible over the base field")
        self._digit_rows = self._slot_rows = None
        self.packed = _Packing(base.p, mod) if base.base is None else self._basis_change()
        self.zero_rep, self.one_rep = 0, 1
        self._log = self._exp = None  # built on first use, see _tables
        self._lifts = {}  # subfield -> images of its slot basis
        self._hash = hash(("FieldTower", base, self.modulus))

    def _basis_change(self) -> _Packing:
        """The packing of F_p[t]/(M) over a non-prime base, setting the
        digit and slot rows (see the class docstring)."""
        B, g, d = self.base, list(self.modulus), self.degree
        n, p, Fp = d * B.packed.n, self.char, PrimeField(self.char)

        def digits(f):  # of the element with coefficients f, low to high
            return [c for b in f + [0] * (d - len(f)) for c in B.digits(b)]

        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(B.size):
            theta, x, powers = [B.index_to_rep(i), 1], [1], []
            for _ in range(n + 1):
                powers.append(digits(x))
                x = _pmod(B, _pmul(B, x, theta), g)
            pivots, rows = row_reduce(Fp, [t + e for t, e in zip(powers, identity)])
            if pivots == list(range(n)):
                break
        else:  # a field has one: fewer than |B| of the y + b lie in proper subfields
            raise ReducibleModulus("modulus is reducible over the base field")
        inverse = [r[n:] for r in rows]
        # θ^n = sum_i m_i θ^i with m = digits(θ^n)·T^-1
        m = [sum(c * r[i] for c, r in zip(powers[n], inverse)) % p for i in range(n)]
        K = _Packing(p, [-c % p for c in m] + [1])
        self._digit_rows = [K.pack(r) for r in powers[:n]]
        self._slot_rows = [K.pack(r) for r in inverse]
        return K

    def digits(self, a) -> list:
        """The n base-p digits of a's index, lowest first."""
        K = self.packed
        return K.unpack(a if self._digit_rows is None else K.linear(K, self._digit_rows, a))

    def from_digits(self, digits):
        """The rep whose index has these base-p digits, lowest first;
        missing ones are zero and those past n are dropped."""
        K = self.packed
        v = K.pack(digits)
        return v if self._slot_rows is None else K.linear(K, self._slot_rows, v)

    def coeffs(self, a) -> list:
        """The base-field reps of a, low to high, `degree` of them."""
        B, digits, k = self.base, self.digits(a), self.base.packed.n
        return [B.from_digits(digits[i:i + k]) for i in range(0, len(digits), k)]

    def from_coeffs(self, coeffs):
        """The rep with the given base-field reps, low to high; missing ones
        are zero and those past `degree` are dropped."""
        B = self.base
        return self.from_digits([c for b in coeffs[: self.degree] for c in B.digits(b)])

    def add_rep(self, a, b):
        return self.packed.add(a, b)

    def sub_rep(self, a, b):
        return self.packed.sub(a, b)

    def neg_rep(self, a):
        return self.packed.neg(a)

    def _tables(self):
        """Build the log/antilog tables (fields of size <= ZECH_MAX_SIZE).

        A primitive element g (g^(q-1) = 1 and g^((q-1)/l) != 1 for every
        prime l | q-1) is found by index order; exp[i] = g^i and
        log[g^i] = i.  exp holds the q-1 powers twice, so a sum of two logs
        needs no reduction, and log maps zero to 2(q-1), past which exp
        holds only zero: a product with zero is one lookup too.
        """
        mul, order = self.packed.mul, self.size - 1
        factors = _prime_factors(order)

        def is_one(g, e):
            r = 1
            while e:
                if e & 1:
                    r = mul(r, g)
                g, e = mul(g, g), e >> 1
            return r == 1

        for i in range(1, self.size):
            g = self.index_to_rep(i)
            if is_one(g, order) and not any(is_one(g, order // ell) for ell in factors):
                break
        else:  # only a ring with zero divisors has no element of order q-1
            raise ReducibleModulus("modulus is reducible over the base field")
        exp, log, x = [], {}, 1
        for i in range(order):
            exp.append(x)
            log[x] = i
            x = mul(x, g)
        log[0] = 2 * order
        self._exp = exp + exp + [0] * (2 * order + 1)
        self._log = log
        return log

    def mul_rep(self, a, b):
        log = self._log
        if log is None:
            if self.size > ZECH_MAX_SIZE:
                return self.packed.mul(a, b)
            log = self._tables()
        return self._exp[log[a] + log[b]]

    def inv_rep(self, a):
        log = self._log
        if log is None:
            if self.size > ZECH_MAX_SIZE:
                K = self.packed
                return K.pack(_inv_mod_p(K.p, K.modulus, K.unpack(a)))
            log = self._tables()
        k = log[a]
        if k == 2 * (self.size - 1):
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.size - 1 - k]

    def rep_is_zero(self, a):
        return not a

    def rep_to_index(self, a):
        idx, p = 0, self.char
        for c in reversed(self.digits(a)):
            idx = idx * p + c
        return idx

    def index_to_rep(self, i):
        digits, p = [], self.char
        for _ in range(self.packed.n):
            i, r = divmod(i, p)
            digits.append(r)
        return self.from_digits(digits)

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            return FieldElement(self, self.lift_rep(value.field, value.rep))
        if isinstance(value, int):  # the image of Z: value mod p, in slot 0
            return FieldElement(self, value % self.char)
        if isinstance(value, (list, tuple)):
            return FieldElement(self, self.from_coeffs([self.base.element(c).rep for c in value]))
        raise FieldError(f"cannot coerce {value!r}")

    def lift_rep(self, sub, rep):
        """Lift a rep of the subfield `sub` (a prefix of this tower) to here:
        its index digits, padded with zeros, are the lift's."""
        if sub is self or sub == self:
            return rep
        if sub.base is None and sub.p == self.char:
            return rep  # slot 0 in every layer
        rows = self._lifts.get(sub)
        if rows is None:
            B = self.base
            rows = self._lifts[sub] = [self.from_digits(B.digits(B.lift_rep(sub, 1 << s)))
                                       for s in sub.packed.shifts]
        return self.packed.linear(sub.packed, rows, rep)

    def spec_string(self) -> str:
        """Read back by parse_field_spec: `;ext=d` for an auto-chosen layer
        (d >= 2) over a tower, else `;mod=` and the modulus as base indices."""
        base, d = self.base, self.degree
        if base.base is not None and d > 1 and self.modulus == _smallest_irreducible(base, d):
            return f"{base.spec_string()};ext={d}"
        coeffs = ",".join(str(base.rep_to_index(c)) for c in self.modulus)
        return f"{base.spec_string()};mod={coeffs}"

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash


def field_degree_over_prime(F) -> int:
    return F.packed.n


class FieldElement:
    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _pair(self, other):
        """Coerce both operands into a common field (the larger tower)."""
        if isinstance(other, int):
            return self, self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is self.field or other.field == self.field:
            return self, other
        try:
            lifted = FieldElement(self.field, self.field.lift_rep(other.field, other.rep))
            return self, lifted
        except NotASubfield:
            pass
        try:
            lifted = FieldElement(other.field, other.field.lift_rep(self.field, self.rep))
            return lifted, other
        except NotASubfield:
            raise FieldError("elements of incompatible fields")

    def __add__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.add_rep(a.rep, b.rep))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.sub_rep(a.rep, b.rep))

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.sub_rep(b.rep, a.rep))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_rep(self.rep))

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.mul_rep(a.rep, b.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.mul_rep(a.rep, a.field.inv_rep(b.rep)))

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return FieldElement(a.field, a.field.mul_rep(b.rep, a.field.inv_rep(a.rep)))

    def __pow__(self, e: int):
        if e < 0:
            return (self.inverse()) ** (-e)
        result = FieldElement(self.field, self.field.one_rep)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        return FieldElement(self.field, self.field.inv_rep(self.rep))

    def is_zero(self) -> bool:
        return self.field.rep_is_zero(self.rep)

    @property
    def index(self) -> int:
        return self.field.rep_to_index(self.rep)

    def __eq__(self, other):
        # no int compares equal: in F_3 both 1 and 4 map to one(), and no
        # hash could agree with both
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            try:
                a, b = self._pair(other)
            except FieldError:
                return False
            return a.rep == b.rep
        return self.rep == other.rep

    def __hash__(self):
        # a lift keeps the index, so equal elements of a subfield and an
        # extension hash alike
        return hash((self.field.char, self.index))

    def __repr__(self):
        return f"<{self.index} in {self.field!r}>"


# ---------------------------------------------------------------------------
# row reduction over a finite field (rows of reps)

def row_reduce(F, rows):
    """Reduced row echelon form of a matrix of reps over the finite field F.

    Returns (pivots, reduced): the pivot columns and the nonzero rows of
    the RREF as lists of reps.  Raises FieldError on rows of unequal
    length.

    The rows are inserted in order into the RREF basis of the rows before
    them.  A row is reduced against every basis row, which touches only
    the columns that are not yet pivots; a nonzero remainder is divided by
    its lead, its pivot column is cleared from the earlier basis rows, and
    it joins the basis.  Rows beyond the rank of a tall matrix thus meet a
    basis with few free entries.

    An update adds f * y, folded, to a cell, where f is the negated
    multiplier and y an entry of a normalized basis row, and reduces the
    sum by one Barrett step: f, y and the cell are canonical, so every
    slot of the sum is below 2^W, the bound of `_Packing.reduce`.  Every
    cell stays canonical, and a zero test is a test of the int.
    """
    lengths = set(map(len, rows))
    if len(lengths) > 1:
        raise FieldError("rows of unequal length")
    ncols = lengths.pop() if lengths else 0
    K = F.packed
    mul, neg, folds = K.mul, K.neg, K.folds
    low, nS, tail, m, k, qmask, p = K.low, K.nS, K.tail, K.m, K.k, K.qmask, K.p
    basis, free = [], list(range(ncols))
    for row in rows:
        r = list(row)
        for c, b in basis:
            v = r[c]
            if not v:
                continue
            f = neg(v)
            for j in free:
                y = b[j]
                if y:  # the fold of K.mul and K.reduce, inline
                    t = f * y
                    for _ in folds:
                        t = (t & low) + (t >> nS) * tail
                    t += r[j]
                    r[j] = t - (((t * m) >> k) & qmask) * p
        c = next((j for j in free if r[j]), None)
        if c is None:
            continue
        inv = F.inv_rep(r[c])
        free.remove(c)
        nz = [(j, mul(r[j], inv)) for j in free if j > c and r[j]]
        for _, b in basis:
            v = b[c]
            if not v:
                continue
            b[c] = 0
            f = neg(v)
            for j, y in nz:
                t = f * y
                for _ in folds:
                    t = (t & low) + (t >> nS) * tail
                t += b[j]
                b[j] = t - (((t * m) >> k) & qmask) * p
        r = [0] * ncols
        r[c] = 1
        for j, y in nz:
            r[j] = y
        basis.append((c, r))
    basis.sort()  # by pivot column; no two are equal
    return [c for c, _ in basis], [b for _, b in basis]


# ---------------------------------------------------------------------------
# construction

def smallest_irreducible(base, degree: int):
    """Lexicographically smallest monic irreducible of given degree.

    Candidates are ordered by the canonical index of their coefficient
    vector (c_0 least significant).  The search is memoized per (base,
    degree); each call returns a fresh list.
    """
    return list(_smallest_irreducible(base, degree))


@functools.lru_cache(maxsize=None)
def _smallest_irreducible(base, degree: int) -> tuple:
    if degree == 1:
        return (base.zero_rep, base.one_rep)
    for i in range(base.size ** degree):
        coeffs = []
        k = i
        for _ in range(degree):
            k, r = k // base.size, k % base.size
            coeffs.append(base.index_to_rep(r))
        cand = coeffs + [base.one_rep]
        if is_irreducible(base, cand):
            return tuple(cand)
    raise FieldError("no irreducible polynomial found")  # unreachable


def make_field(p: int, layers: Iterable = (1,)):
    """Build a field tower over F_p.

    Each layer is either an int degree (modulus auto-chosen as the smallest
    irreducible) or an explicit modulus given as a coefficient list
    (low-to-high, ints or lower-layer elements).
    """
    F = PrimeField(p)
    for layer in layers:
        if isinstance(layer, int):
            if layer < 1:
                raise FieldError("layer degree must be >= 1")
            if layer == 1:
                continue
            F = FieldTower(F, smallest_irreducible(F, layer), check=False)
        else:  # ints are indices, as in spec strings
            F = FieldTower(F, [F.index_to_rep(c) if isinstance(c, int) else c for c in layer])
    return F


@functools.lru_cache(maxsize=None)
def extend_field(F, m: int) -> FieldTower:
    """Degree-m extension of F with the smallest irreducible modulus.

    Memoized per (F, m): every call for one field returns the same tower,
    which then builds its multiplication tables once.
    """
    if m < 2:
        raise FieldError("extension degree must be >= 2")
    return FieldTower(F, smallest_irreducible(F, m), check=False)


def frobenius(x: FieldElement, q: int) -> FieldElement:
    """x -> x**q where q is the size of a subfield of x's field."""
    F = x.field
    p = F.char
    k, n = 0, field_degree_over_prime(F)
    qq = q
    while qq > 1 and qq % p == 0:
        qq //= p
        k += 1
    if qq != 1 or k == 0 or n % k != 0:
        raise NotASubfield(f"{q} is not the size of a subfield of F_{F.size}")
    return x ** q


def find_nonsquare(F) -> FieldElement:
    """Smallest r (canonical order) with x^2 - r irreducible; odd char only."""
    if F.char == 2:
        raise WrongCharacteristic("field has characteristic 2")
    half = (F.size - 1) // 2
    for i in range(1, F.size):
        r = F.from_index(i)
        if (r ** half).index != 1:
            return r
    raise FieldError("no nonsquare found")  # unreachable for q > 1


def find_artin_schreier_r(F) -> FieldElement:
    """Smallest r (canonical order) with x^2 + x + r irreducible; char 2 only."""
    if F.char != 2:
        raise WrongCharacteristic("field has odd characteristic")
    image = {(y * y + y).rep for y in F.elements()}
    for i in range(F.size):
        r = F.from_index(i)
        if r.rep not in image:
            return r
    raise FieldError("no Artin-Schreier element found")  # unreachable


# ---------------------------------------------------------------------------
# field spec strings:  p=<int>[;mod=<c0,c1,...>][;ext=<degree>]

def parse_field_spec(spec: str):
    parts = [s.strip() for s in spec.split(";") if s.strip()]
    p = None
    layers = []
    for part in parts:
        if "=" not in part:
            raise FieldError(f"bad field spec component {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key == "p":
            p = int(val)
        elif key == "mod":
            layers.append([int(c) for c in val.split(",")])
        elif key == "ext":
            layers.append(int(val))
        else:
            raise FieldError(f"unknown field spec key {key!r}")
    if p is None:
        raise FieldError("field spec must contain p=<prime>")
    return make_field(p, layers or [1])


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over a finite coefficient field

# Width in bits of one per-variable exponent field of a packed monomial key.
EXP_BITS = 16
_EXP_MASK = (1 << EXP_BITS) - 1


class MultiPoly:
    """Sparse multivariate polynomial; coefficients are raw field reps.

    ``terms`` maps a packed monomial key to a nonzero rep.  With n = len(names)
    and W = EXP_BITS, the monomial names[0]^e_0 ... names[n-1]^e_{n-1} of
    total degree d has the key

        d << (n*W) | e_0 << ((n-1)*W) | ... | e_{n-1}

    so int order is graded-lex order, the leading term is ``max(terms)``, the
    degree is the key's top field and a monomial product is one int addition.
    Every exponent is at most the total degree, so a product of degree 2^W or
    more raises OverflowError before any field could carry into the next.

    Over a prime field F_p every rep is an int in range(1, p), and ``+``,
    ``-``, ``*``, ``mul_sub`` and ``exact_div`` run on ints: a product sums
    the raw products of its term pairs per key, then reduces each sum mod
    p once and drops the zeros (Monagan and Pearce's packed-exponent
    accumulation).  Over an extension (F_4, F_9, F_{q^m}) they go through
    the field's ``add_rep``, ``mul_rep`` and ``rep_is_zero`` on its packed
    ints, one call per term product.
    """

    __slots__ = ("field", "names", "terms")

    def __init__(self, field, names: tuple, terms: dict):
        self.field = field
        self.names = names
        self.terms = terms  # dict packed key -> nonzero rep

    # constructors -----------------------------------------------------
    @classmethod
    def zero(cls, field, names):
        return cls(field, names, {})

    @classmethod
    def const(cls, field, names, value):
        e = field.element(value)  # lifts an element of a subfield
        if e.is_zero():
            return cls.zero(field, names)
        return cls(field, names, {0: e.rep})

    @classmethod
    def var(cls, field, names, name):
        n = len(names)
        key = 1 << (n * EXP_BITS) | 1 << ((n - 1 - names.index(name)) * EXP_BITS)
        return cls(field, names, {key: field.one_rep})

    # basics -----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def degree(self):
        if not self.terms:
            return -1
        return max(self.terms) >> (len(self.names) * EXP_BITS)

    def exps(self, key: int) -> tuple:
        """The per-variable exponents of a packed key, first variable first."""
        n = len(self.names)
        return tuple((key >> ((n - 1 - i) * EXP_BITS)) & _EXP_MASK for i in range(n))

    def constant_value(self) -> FieldElement:
        return FieldElement(self.field, self.terms.get(0, self.field.zero_rep))

    def leading(self):
        """(key, rep) of the graded-lex leading term."""
        key = max(self.terms)
        return key, self.terms[key]

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPoly.const(self.field, self.names, other)  # one term, key 0
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        F = self.field
        if F.base is None:
            return MultiPoly(F, self.names, _int_sum(F.p, self.terms, other.terms, 1))
        out = dict(self.terms)
        for e, v in other.terms.items():
            if e in out:
                s = F.add_rep(out[e], v)
                if F.rep_is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = v
        return MultiPoly(F, self.names, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        if F.base is None:
            p = F.p
            return MultiPoly(F, self.names, {e: p - v for e, v in self.terms.items()})
        return MultiPoly(F, self.names, {e: F.neg_rep(v) for e, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, FieldElement)):
            return NotImplemented
        F = self.field
        if F.base is None and isinstance(other, MultiPoly):
            return MultiPoly(F, self.names, _int_sum(F.p, self.terms, other.terms, -1))
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        F = self.field
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, FieldElement)):
                return NotImplemented
            c = F.element(other).rep  # lifts an element of a subfield
            if F.rep_is_zero(c):
                return MultiPoly(F, self.names, {})
            if F.base is None:  # nonzero times nonzero is nonzero mod a prime
                p = F.p
                return MultiPoly(F, self.names, {e: v * c % p for e, v in self.terms.items()})
            mul_rep = F.mul_rep
            return MultiPoly(F, self.names, {e: mul_rep(v, c) for e, v in self.terms.items()})
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly(F, self.names, {})
        if F.base is None:
            return MultiPoly(F, self.names, _int_combination(F.p, len(self.names), ((a, b, 1),)))
        shift = len(self.names) * EXP_BITS
        if (max(a) >> shift) + (max(b) >> shift) > _EXP_MASK:
            raise OverflowError(f"a product of degree >= 2^{EXP_BITS} overflows a packed exponent")
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        add_rep, mul_rep, is0 = F.add_rep, F.mul_rep, F.rep_is_zero
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                prod = mul_rep(v1, v2)
                if e in out:
                    s = add_rep(out[e], prod)
                    if is0(s):
                        del out[e]
                    else:
                        out[e] = s
                else:  # a product of nonzero field elements is nonzero
                    out[e] = prod
        return MultiPoly(F, self.names, out)

    __rmul__ = __mul__

    def mul_sub(self, x: "MultiPoly", b: "MultiPoly", y: "MultiPoly") -> "MultiPoly":
        """self*x - b*y for polynomials x, b, y: the row update of
        fraction-free elimination.  Over a prime field both products go
        into one accumulation, reduced once per key."""
        F = self.field
        if F.base is not None:
            return self * x - b * y
        products = ((self.terms, x.terms, 1), (b.terms, y.terms, -1))
        return MultiPoly(F, self.names, _int_combination(F.p, len(self.names), products))

    def __pow__(self, e: int):
        result = MultiPoly.const(self.field, self.names, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no square past the top bit, which could overflow
                base = base * base
        return result

    def __eq__(self, other):
        # no scalar compares equal: the constant 1 of F_3[a,b,c] would have
        # to hash like both the int 1 and F.one(), which hash apart
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.names == other.names and self.terms == other.terms
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.names, tuple(sorted(self.terms.items()))))

    # evaluation & division --------------------------------------------
    def eval(self, values: Sequence[FieldElement]) -> FieldElement:
        """Evaluate at field elements (one per variable)."""
        F = values[0].field if values else self.field
        reps = [v.rep for v in values]
        total = F.zero_rep
        powers: dict = {}
        for key, c in self.terms.items():
            prod = F.lift_rep(self.field, c) if F is not self.field else c
            for i, e in enumerate(self.exps(key)):
                if e:
                    pk = (i, e)
                    if pk not in powers:
                        r = F.one_rep
                        b, k = reps[i], e
                        while k:
                            if k & 1:
                                r = F.mul_rep(r, b)
                            b = F.mul_rep(b, b)
                            k >>= 1
                        powers[pk] = r
                    prod = F.mul_rep(prod, powers[pk])
            total = F.add_rep(total, prod)
        return FieldElement(F, total)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division (raises if the division is not exact)."""
        F = self.field
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if divisor.is_constant():
            inv = F.inv_rep(divisor.constant_value().rep)
            return MultiPoly(F, self.names, {e: F.mul_rep(v, inv) for e, v in self.terms.items()})
        if F.base is None:
            return MultiPoly(F, self.names, _int_exact_div(F, len(self.names), self.terms, divisor.terms))
        rem = dict(self.terms)
        out: dict = {}
        dlead_e, dlead_c = divisor.leading()
        dlead_exps = self.exps(dlead_e)
        dinv = F.inv_rep(dlead_c)
        while rem:
            e = max(rem)
            if any(a < b for a, b in zip(self.exps(e), dlead_exps)):
                raise ValueError("inexact polynomial division")
            qe = e - dlead_e
            qc = F.mul_rep(rem[e], dinv)
            out[qe] = qc
            for de, dv in divisor.terms.items():
                te = qe + de
                s = F.sub_rep(rem.get(te, F.zero_rep), F.mul_rep(qc, dv))
                if F.rep_is_zero(s):
                    rem.pop(te, None)
                else:
                    rem[te] = s
        return MultiPoly(F, self.names, out)

    def __repr__(self):
        return poly_str(self)


def _int_combination(p: int, nvars: int, products) -> dict:
    """The terms of the sum of sign*a*b over the (a, b, sign) in products,
    a and b being terms dicts over F_p."""
    shift = nvars * EXP_BITS
    out: dict = {}
    get = out.get
    for a, b, sign in products:
        if not a or not b:
            continue
        if (max(a) >> shift) + (max(b) >> shift) > _EXP_MASK:
            raise OverflowError(f"a product of degree >= 2^{EXP_BITS} overflows a packed exponent")
        if len(a) > len(b):
            a, b = b, a
        for e1, v1 in a.items():
            v1 *= sign
            for e2, v2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + v1 * v2
    return {e: r for e, v in out.items() if (r := v % p)}


def _int_sum(p: int, a: dict, b: dict, sign: int) -> dict:
    """The terms of a + sign*b over F_p, for sign 1 or -1."""
    out = dict(a)
    get = out.get
    for e, v in b.items():
        s = (get(e, 0) + sign * v) % p
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _int_exact_div(F: PrimeField, nvars: int, a: dict, d: dict) -> dict:
    """The quotient a / d over F_p, or ValueError if d does not divide a.

    The divisor's leading monomial divides the remainder's, e, exactly when
    q = e - lead subtracts exponent by exponent, with no borrow out of an
    exponent field (then q >= 0, as degrees are sums of exponents).  Bit k
    of e ^ lead ^ q is the borrow into bit k of q, so the test reads the
    bits at W, 2W, ..., nvars*W, the lowest bit of every field above the
    last variable's."""
    p = F.p
    borrows = sum(1 << (i * EXP_BITS) for i in range(1, nvars + 1))
    dlead = max(d)
    dinv = F.inv_rep(d[dlead])
    tail = [(e, -v) for e, v in d.items() if e != dlead]
    rem, out = dict(a), {}
    get = rem.get
    while rem:
        e = max(rem)
        q = e - dlead
        if (e ^ dlead ^ q) & borrows:
            raise ValueError("inexact polynomial division")
        c = rem.pop(e) * dinv % p
        out[q] = c
        for te, v in tail:
            te += q
            s = (get(te, 0) + c * v) % p
            if s:
                rem[te] = s
            else:
                del rem[te]
    return out


def poly_str(f: MultiPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for key in sorted(f.terms, reverse=True):
        idx = f.field.rep_to_index(f.terms[key])
        mono = " ".join(
            f"{n}^{e}" if e > 1 else n for n, e in zip(f.names, f.exps(key)) if e
        )
        if not mono:
            parts.append(str(idx))
        elif idx == 1:
            parts.append(mono)
        else:
            parts.append(f"{idx} {mono}")
    return " + ".join(parts)
