"""Exact arithmetic: prime fields, extension towers, and polynomials over them.

Elements carry a raw ``rep`` (an int for a prime field, a tuple of
lower-layer reps for an extension layer) so inner loops can work on plain
Python data; the :class:`FieldElement` wrapper adds operators on top.

An extension layer of at most ``ZECH_MAX_SIZE`` (2^16) elements multiplies
and inverts by table lookup.  On first use it finds a primitive element g
and tabulates exp[i] = g^i and log[g^i] = i; then a*b = exp[log a + log b]
and 1/a = exp[-log a], with the exponents taken mod q-1.  Reps stay tuples,
so element indices, spec strings and point files do not change.

Larger layers (the random-mode extensions) compute polynomially.  Over a
tower base they multiply schoolbook and invert by the extended Euclidean
algorithm, both on lists of base-field reps.  Over a prime base they
multiply by Kronecker packing, one W-bit slot per coefficient in one
Python int, the product folded back below the modulus degree by its high
part times the modulus tail, and invert by the extended Euclidean
algorithm on plain int coefficients mod p.  There `row_reduce`, the one
finite-field row reduction, also runs on packed ints and reduces the
slots mod p only where it reads a value.  W comes from a worst-case slot
bound simulated once per layer.  The same packed products give the
powers x^(p^k) of Rabin's irreducibility test, which picks each layer's
modulus.

:class:`MultiPoly` is a sparse polynomial over such a field.  Generic-point
mode works in F_q[a,b,c] with these polynomials as its scalars: projected
coordinates are polynomials in a, b, c, so no fraction and no polynomial
gcd is ever needed.  Each monomial is one packed int key: the total degree
in the top field, then one EXP_BITS-wide field per variable, first variable
first.  Int order is then graded-lex order, and a monomial product is one
int addition.
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
# univariate polynomial helpers over an arbitrary field (reps, low-to-high)

def _pnorm(f):
    while f and _rep_is_zero(f[-1]):
        f.pop()
    return f


def _rep_is_zero(r):
    if isinstance(r, tuple):
        return all(_rep_is_zero(x) for x in r)
    return r == 0


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
        if _rep_is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add_rep(out[i + j], F.mul_rep(a, b))
    return _pnorm(out)


def _pdivmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    inv_lead = F.inv_rep(g[-1])
    q = [F.zero_rep] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = F.mul_rep(f[-1], inv_lead)
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = F.sub_rep(f[k + i], F.mul_rep(c, b))
        _pnorm(f)
        if not f:
            break
    return _pnorm(q), f


def _pmod(F, f, g):
    return _pdivmod(F, f, g)[1]


def _pgcd(F, f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, _pmod(F, f, g)
    if f:  # make monic
        inv = F.inv_rep(f[-1])
        f = [F.mul_rep(c, inv) for c in f]
    return f


def _ppowmod(F, f, e, m):
    """f**e mod m by square-and-multiply; e may be a large int."""
    result = [F.one_rep]
    f = _pmod(F, list(f), m)
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
    shifts, mask, nW, low, tail = K.mul_layout
    folds = range(K.folds)
    bits = bin(p)[3:]

    def mul(a, b):
        v = a * b
        for _ in folds:
            v = (v & low) + (v >> nW) * tail
        out = 0
        for s in shifts:
            out |= (((v >> s) & mask) % p) << s
        return out

    y = 1 << shifts[1]  # x
    orbit = [y]
    for _ in range(K.n):
        z = y
        for bit in bits:
            z = mul(z, z)
            if bit == "1":
                z = mul(z, y)
        y = z
        orbit.append(y)
    return [[(y >> s) & mask for s in shifts] for y in orbit]


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


class PrimeField:
    """F_p with elements represented by ints in range(p)."""

    packed = None  # row_reduce runs its plain loop here

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

    # element-level API
    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldError("element of a different field")
            return value
        return FieldElement(self, int(value) % self.p)

    def from_index(self, i: int) -> "FieldElement":
        return FieldElement(self, self.index_to_rep(i))

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.size):
            yield FieldElement(self, i)

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
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


# Fields up to this size multiply and invert by log/antilog table lookups.
ZECH_MAX_SIZE = 1 << 16


class _Packing:
    """Kronecker packing of F_p[t]/(m): one W-bit slot per coefficient.

    An element c_0 + ... + c_{n-1} t^{n-1} is the integer sum c_i << (W*i),
    so one big-int product is the whole convolution.  Reduction mod m folds
    the high part back: with t^n = tail(t) mod m, v -> low(v) + high(v) *
    tail, repeated until the degree is below n.  Slots are never reduced
    mod p inside a product or a fold, so all values stay nonnegative and
    no slot borrows from its neighbour; a slot is reduced only when it is
    read (see `row_reduce`).

    The slot bound is simulated once per tower on the all-(p-1) inputs,
    which maximize every slot of the product and of each fold at once:
    `peak` is the largest slot value anywhere on the way, `final` the
    largest slot of a folded product, `folds` the number of folds.
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
        self.p, self.n, self.tail = p, n, tail
        self.peak, self.final, self.folds = peak, max(v), folds
        self._layouts = {}
        self.mul_layout = self.layout(0)

    def layout(self, acc: int):
        """Slot layout for values that take up to `acc` folded products on
        top of a canonical one: (shifts, mask, n*W, low mask, packed tail)."""
        if acc not in self._layouts:
            W = max(self.peak, self.p - 1 + acc * self.final).bit_length()
            nW = self.n * W
            tail = sum(t << (W * i) for i, t in enumerate(self.tail))
            self._layouts[acc] = (range(0, nW, W), (1 << W) - 1, nW, (1 << nW) - 1, tail)
        return self._layouts[acc]


class FieldTower:
    """One extension layer F_s[t]/(m) over a base field of size s."""

    def __init__(self, base, modulus: Sequence, check: bool = True):
        self.base = base
        self.char = base.char
        mod = [base.index_to_rep(c) if isinstance(c, int) else c for c in modulus]
        mod = _pnorm(list(mod))
        if len(mod) < 2:
            raise ReducibleModulus("modulus must have degree >= 1")
        inv = base.inv_rep(mod[-1])
        mod = [base.mul_rep(c, inv) for c in mod]  # monic
        self.modulus = tuple(mod)
        self.degree = len(mod) - 1
        self.size = base.size ** self.degree
        self.zero_rep = tuple([base.zero_rep] * self.degree)
        one = [base.zero_rep] * self.degree
        one[0] = base.one_rep
        self.one_rep = tuple(one)
        if check and not is_irreducible(base, list(self.modulus)):
            raise ReducibleModulus("modulus is reducible over the base field")
        # prime-base layers multiply on packed ints; the large ones (no
        # tables) also eliminate on them, see row_reduce
        self._kron = _Packing(base.p, self.modulus) if isinstance(base, PrimeField) else None
        self.packed = self._kron if self.size > ZECH_MAX_SIZE else None
        self._log = self._exp = None  # built on first use, see _tables

    def _pad(self, f):
        f = list(f) + [self.base.zero_rep] * (self.degree - len(f))
        return tuple(f[: self.degree])

    def add_rep(self, a, b):
        B = self.base
        return tuple(B.add_rep(x, y) for x, y in zip(a, b))

    def sub_rep(self, a, b):
        B = self.base
        return tuple(B.sub_rep(x, y) for x, y in zip(a, b))

    def neg_rep(self, a):
        B = self.base
        return tuple(B.neg_rep(x) for x in a)

    def _tables(self):
        """Build the log/antilog tables (fields of size <= ZECH_MAX_SIZE).

        A primitive element g (g^(q-1) = 1 and g^((q-1)/l) != 1 for every
        prime l | q-1) is found by index order; exp[i] = g^i and
        log[g^i] = i.  exp holds the q-1 powers twice, so a sum of two logs
        needs no reduction, and log maps zero to 2(q-1), past which exp
        holds only zero: a product with zero is one lookup too.
        """
        B, order = self.base, self.size - 1
        factors = _prime_factors(order)

        def is_one(g, e):
            return _ppowmod(B, g, e, list(self.modulus)) == [B.one_rep]

        for i in range(1, self.size):
            g = self.index_to_rep(i)
            if is_one(g, order) and not any(is_one(g, order // ell) for ell in factors):
                break
        else:  # only a ring with zero divisors has no element of order q-1
            raise ReducibleModulus("modulus is reducible over the base field")
        exp, log, x = [], {}, self.one_rep
        for i in range(order):
            exp.append(x)
            log[x] = i
            x = self._mul_poly(x, g)
        log[self.zero_rep] = 2 * order
        self._exp = exp + exp + [self.zero_rep] * (2 * order + 1)
        self._log = log
        return log

    def mul_rep(self, a, b):
        log = self._log
        if log is None:
            if self.size > ZECH_MAX_SIZE:
                return self._mul_poly(a, b)
            log = self._tables()
        try:
            return self._exp[log[a] + log[b]]
        except (KeyError, TypeError):  # a non-canonical rep
            return self._mul_poly(a, b)

    def inv_rep(self, a):
        log = self._log
        if log is None:
            if self.size > ZECH_MAX_SIZE:
                return self._inv_poly(a)
            log = self._tables()
        try:
            k = log[a]
        except (KeyError, TypeError):  # a non-canonical rep
            return self._inv_poly(a)
        if k == 2 * (self.size - 1):
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.size - 1 - k]

    def _mul_poly(self, a, b):
        """Product by polynomial multiplication and reduction."""
        K = self._kron
        if K is not None:
            shifts, mask, nW, low, tail = K.mul_layout
            pa = pb = 0
            for x, y, s in zip(a, b, shifts):
                pa |= x << s
                pb |= y << s
            v = pa * pb
            for _ in range(K.folds):
                v = (v & low) + (v >> nW) * tail
            return tuple(((v >> s) & mask) % K.p for s in shifts)
        B = self.base
        prod = _pmul(B, list(a), list(b))
        if len(prod) >= len(self.modulus):
            prod = _pmod(B, prod, list(self.modulus))
        return self._pad(prod)

    def _inv_poly(self, a):
        """Inverse by the extended Euclidean algorithm on (a, modulus), on
        int coefficients over a prime base and on base-field reps over a
        tower."""
        B = self.base
        if self._kron is not None:
            return self._pad(_inv_mod_p(B.p, self.modulus, a))
        r0, r1 = list(self.modulus), _pnorm(list(a))
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = [], [B.one_rep]
        while r1:
            q, r = _pdivmod(B, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(B, s0, _pmul(B, q, s1))
        inv = B.inv_rep(r0[-1])  # r0 is a nonzero constant for coprime inputs
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible")
        return self._pad([B.mul_rep(c, inv) for c in s0])

    def rep_is_zero(self, a):
        # every tuple rep the library builds has reduced entries, so it is
        # zero iff it equals zero_rep; other sequences are walked
        if type(a) is tuple:
            return a == self.zero_rep
        return all(self.base.rep_is_zero(x) for x in a)

    def rep_to_index(self, a):
        idx = 0
        for c in reversed(a):
            idx = idx * self.base.size + self.base.rep_to_index(c)
        return idx

    def index_to_rep(self, i):
        out = []
        for _ in range(self.degree):
            i, r = divmod(i, self.base.size)
            out.append(self.base.index_to_rep(r))
        return tuple(out)

    def zero(self):
        return FieldElement(self, self.zero_rep)

    def one(self):
        return FieldElement(self, self.one_rep)

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            return FieldElement(self, self.lift_rep(value.field, value.rep))
        if isinstance(value, int):
            # integer -> image of Z in this field (repeated 1s), i.e. value mod p
            c = value % self.char
            rep = [self.base.zero_rep] * self.degree
            rep[0] = self.base.element(c).rep if isinstance(self.base, FieldTower) else c
            return FieldElement(self, tuple(rep))
        if isinstance(value, (list, tuple)):
            rep = [self.base.element(c).rep for c in value]
            rep += [self.base.zero_rep] * (self.degree - len(rep))
            return FieldElement(self, tuple(rep[: self.degree]))
        raise FieldError(f"cannot coerce {value!r}")

    def from_index(self, i: int) -> "FieldElement":
        return FieldElement(self, self.index_to_rep(i))

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.size):
            yield self.from_index(i)

    def lift_rep(self, sub, rep):
        if sub is self or sub == self:
            return rep
        lifted = self.base.lift_rep(sub, rep)
        out = [self.base.zero_rep] * self.degree
        out[0] = lifted
        return tuple(out)

    def spec_string(self) -> str:
        if isinstance(self.base, PrimeField):
            coeffs = ",".join(str(self.base.rep_to_index(c)) for c in self.modulus)
            return f"p={self.base.p};mod={coeffs}"
        return f"{self.base.spec_string()};ext={self.degree}"

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("FieldTower", self.base, self.modulus))

    def __repr__(self):
        return f"F_{self.size}"


def field_degree_over_prime(F) -> int:
    d = 1
    while isinstance(F, FieldTower):
        d *= F.degree
        F = F.base
    return d


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
        # hash on the smallest tower layer holding the element, so that it
        # hashes like its equal images in subfields and extensions
        F, rep = self.field, self.rep
        while isinstance(F, FieldTower) and rep[1:] == F.zero_rep[1:]:
            F, rep = F.base, rep[0]
        return hash((F.size, rep))

    def __repr__(self):
        return f"<{self.index} in {self.field!r}>"


# ---------------------------------------------------------------------------
# row reduction over a finite field (rows of reps)

def row_reduce(F, rows):
    """Reduced row echelon form of a matrix of reps over the finite field F.

    Returns (pivots, reduced, det): the pivot columns, the nonzero rows of
    the RREF as lists of reps, and the determinant, which is the zero rep
    unless the matrix is square and invertible.  Each pivot is the first
    nonzero entry of its column at or below the current row.  The RREF is
    unique, so both paths below give the same result.
    """
    if F.packed is not None:
        return _row_reduce_packed(F, rows)
    return _row_reduce_loop(F, rows)


def _det_of(F, nrows, ncols, pivvals, swaps):
    if not nrows == ncols == len(pivvals):
        return F.zero_rep
    det = F.one_rep
    for v in pivvals:
        det = F.mul_rep(det, v)
    return F.neg_rep(det) if swaps & 1 else det


def _row_reduce_loop(F, rows):
    """Gauss-Jordan on reps through F's own add/mul/inv."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, pivvals, swaps = [], [], 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not F.rep_is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        pivvals.append(rows[r][c])
        inv = F.inv_rep(rows[r][c])
        rows[r] = [F.mul_rep(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.rep_is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub_rep(x, F.mul_rep(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r], _det_of(F, len(rows), ncols, pivvals, swaps)


def _row_reduce_packed(F, rows):
    """Gauss-Jordan on Kronecker-packed ints with lazily reduced slots.

    Entries are packed ints (see _Packing).  A row update adds f' * y,
    folded, to each cell, where f' is the negated row multiplier and y the
    scaled pivot row, both canonical; the cell's slots are left unreduced.
    Slots are reduced mod p only where a value is read: a pivot test, a row
    multiplier, the scaled pivot row, and the final unpack.  A cell is
    updated only by pivots in other rows and in columns left of it, so it
    takes at most min(rows, cols) - 1 folded products between two
    reductions, and the slot width is chosen for exactly that many.
    """
    K = F.packed
    p = K.p
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    shifts, mask, nW, low, tail = K.layout(max(min(nrows, ncols) - 1, 0))
    folds = range(K.folds)

    def canon(v):
        out = 0
        for s in shifts:
            out |= (((v >> s) & mask) % p) << s
        return out

    def pack(rep):
        v = 0
        for x, s in zip(rep, shifts):
            v |= x << s
        return v

    def unpack(v):
        return tuple(((v >> s) & mask) % p for s in shifts)

    M = [[pack(x) for x in row] for row in rows]
    pivots, pivvals, swaps = [], [], 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            v = canon(M[i][c])
            M[i][c] = v
            if v:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            swaps += 1
        prow = M[r]
        pivvals.append(unpack(prow[c]))
        inv = pack(F._inv_poly(pivvals[-1]))
        prow[c] = 1
        nonzero = []
        for j in range(c + 1, ncols):
            x = canon(prow[j])
            if x:
                x *= inv
                for _ in folds:
                    x = (x & low) + (x >> nW) * tail
                x = canon(x)
                nonzero.append((j, x))
            prow[j] = x
        for i, row in enumerate(M):
            v = row[c]
            if i == r or not v:
                continue
            row[c] = 0
            f = 0
            for s in shifts:
                f |= ((-((v >> s) & mask)) % p) << s
            if not f:
                continue
            for j, y in nonzero:
                t = f * y
                for _ in folds:
                    t = (t & low) + (t >> nW) * tail
                row[j] += t
        pivots.append(c)
        r += 1
    reduced = [[unpack(v) for v in row] for row in M[:r]]
    return pivots, reduced, _det_of(F, nrows, ncols, pivvals, swaps)


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
        else:
            F = FieldTower(F, layer, check=True)
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
        return MultiPoly(F, self.names, {e: F.neg_rep(v) for e, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, FieldElement)):
            return NotImplemented
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
            mul_rep = F.mul_rep
            return MultiPoly(F, self.names, {e: mul_rep(v, c) for e, v in self.terms.items()})
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly(F, self.names, {})
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
        if isinstance(other, (int, FieldElement)):
            other = MultiPoly.const(self.field, self.names, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

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
