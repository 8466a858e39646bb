"""General projection, complete-intersection certification, and cones.

The central question: project a point set (or fat-point scheme) of P³ from
a general point P onto the plane w=0, and decide whether the image is the
complete intersection of curves of degrees (alpha, beta).  A point set and
a fat-point scheme answer one scheme interface (`as_projection_entries`,
`scheme_length`), so neither projection nor certification asks which
kind it has; only the line-product hints need a point set.

Two working modes:
  GENERIC — P = (a,b,c,1) with a,b,c independent transcendentals; every
            scalar is a polynomial in F_q[a,b,c] and all linear algebra is
            fraction-free; verdicts are conclusive, except that a
            resultant which vanished at three deterministic
            specializations comes out as a negative without proof.
  RANDOM  — P sampled from a large extension F_{q^m} with a seed;
            positive verdicts are probabilistic (bound reported); a
            negative is conclusive only when a curve space is smaller than
            a complete intersection needs (dimensions only grow under
            specialization).

In both modes P is general in one sense, checked once by `project`: it
lies on no line defined over F_q, so no two images of a set or scheme
over F_q coincide.

A Frobenius cone is transversal to a line of PG(3, q) unless its
restriction to the line is the zero binary form.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .fields import FieldElement, extend_field, row_reduce
from .multipoly import (
    CoprimalityWitness,
    EvaluationMatrix,
    HomogeneousForm,
    KernelBasis,
    ProductForm,
    ScalarRing,
    condition_matrix,
    condition_rank,
    coprime_certificate,
    directional_derivative,
    evaluate,
    hilbert_value,
    kernel_of_conditions,
    monomials,
    restrict_to_line,
    scalar_is_zero,
    specialize_coefficients,
)
from .projgeom import PointSet, all_lines, collinear_classes, exact_cover, is_coplanar, line_through


class CoreError(Exception):
    pass


class CollisionDetected(CoreError):
    pass


class LengthMismatch(CoreError):
    pass


class NotCompleteIntersection(CoreError):
    pass


class SharedGeneratorMissing(CoreError):
    pass


# ---------------------------------------------------------------------------
# the general point

RANDOM_MIN_FIELD = 2 ** 31


class GeneralPoint:
    """Projection center (a,b,c,1): transcendental or randomly sampled."""

    def __init__(self, mode, ring, coords, m=None, seed=None):
        self.mode = mode
        self.ring = ring
        self.coords = coords  # 4 scalars, last = 1
        self.m = m
        self.seed = seed

    @classmethod
    def generic(cls, field) -> "GeneralPoint":
        ring = ScalarRing(field, names=("a", "b", "c"))
        a, b, c = ring.gens()
        return cls("generic", ring, [a, b, c, ring.one()])

    @classmethod
    def random(cls, field, seed: int, avoid: Optional[PointSet] = None) -> "GeneralPoint":
        """Sample from F_{q^m}, q^m >= 2^31, off every line defined over F_q.

        This is the rule `project` checks for every finite center: every
        secant or tangent line of a set or scheme over F_q is such a line,
        so no two of its images collide.  `avoid` is accepted for older
        callers and not read.
        """
        m = 1
        while field.size ** m < RANDOM_MIN_FIELD:
            m += 1
        E = extend_field(field, m) if m > 1 else field
        ring = ScalarRing(E)
        rng = random.Random(seed)
        for _ in range(1000):
            coords = [E.from_index(rng.randrange(E.size)) for _ in range(3)]
            coords.append(E.one())
            if not _on_rational_line(field, E, [c.rep for c in coords]):
                return cls("random", ring, coords, m=m, seed=seed)
        raise CoreError("could not sample a general point off all secants")


def _on_rational_line(F, E, coords) -> bool:
    """Whether the point with reps `coords` in E lies on a line over F.

    E is F or a one-layer extension of it.  Writing each coordinate in
    its F-coefficients gives a 4×m matrix V over F, and the smallest
    F-subspace whose span over E holds the point is the column span of V.
    So the point is on a line defined over F iff rank V <= 2 (a rational
    point, rank 1, lies on many).
    """
    rows = [[x] for x in coords] if E == F else [E.coeffs(x) for x in coords]
    return len(row_reduce(F, rows)[0]) <= 2


# ---------------------------------------------------------------------------
# projection

@dataclass
class ProjectedScheme:
    ring: ScalarRing
    entries: list  # (coords3, None) or (coords3, tangent_dir3)
    point: GeneralPoint

    @property
    def length(self):
        return sum(1 if d is None else 2 for _, d in self.entries)

    def condition_rows(self, degree: int) -> EvaluationMatrix:
        return condition_matrix(self.ring, self.entries, degree, 3)


def _image_coords(ring: ScalarRing, P: GeneralPoint, point) -> list:
    """Image of Q under projection from P=(a,b,c,1) onto w=0."""
    q = ring.coerce_point_coords(point)
    a, b, c, _ = P.coords
    return [q[0] - q[3] * a, q[1] - q[3] * b, q[2] - q[3] * c]


def project(Z, P: GeneralPoint) -> ProjectedScheme:
    """Project a PointSet or fat-point scheme from P onto the plane w=0.

    Points already on the target plane map to themselves and come first,
    which keeps later eliminations cheap (their condition rows are free of
    the transcendentals).  P must be general, by one rule in both modes:
    read as (a:b:c:1), it lies on no line defined over F_q = Z.field.  The
    line through two points over F_q, or through a doubled point and its
    tangent direction, is such a line, so no two images coincide and no
    tangent degenerates.  A polynomial center must be the transcendental
    (a:b:c:1), which has transcendence degree 3 over F_q.  A finite center
    must have its coordinates in F_q or a one-layer extension of it, where
    `_on_rational_line` decides, as GeneralPoint.random draws it.  Any
    other center raises CollisionDetected.
    """
    ring = P.ring
    if not ring.finite and P.coords != [*ring.gens(), ring.one()]:
        raise CollisionDetected("a polynomial center must be (a:b:c:1); P is not general")
    if ring.finite:
        F, E = Z.field, ring.field
        reps = [E.element(c).rep for c in P.coords]
        if (E != F and E.base != F) or reps[3] != E.one_rep or _on_rational_line(F, E, reps):
            raise CollisionDetected(
                "a finite center must be (a:b:c:1) with coordinates in F_q or a one-layer "
                "extension, and lie on no line defined over F_q; P is not general"
            )
    constant_entries = []
    moving_entries = []
    for point, direction in Z.as_projection_entries():
        img = _image_coords(ring, P, point)
        dir_img = None if direction is None else _image_coords(ring, P, direction)
        on_plane = point.coords[3].is_zero()
        (constant_entries if on_plane and direction is None else moving_entries).append(
            (img, dir_img)
        )
    return ProjectedScheme(ring=ring, entries=constant_entries + moving_entries, point=P)


def interpolate_curve(S: ProjectedScheme, degree: int) -> KernelBasis:
    """All plane curves of the given degree through the projected scheme."""
    if degree < 1:
        raise CoreError("degree must be >= 1")
    return kernel_of_conditions(S.condition_rows(degree))


# ---------------------------------------------------------------------------
# Frobenius cone

def frobenius_cone(field, P: GeneralPoint) -> HomogeneousForm:
    """det of rows (a,b,c,d), (a^q,..), (x,y,z,w), (x^q,..), degree q+1.

    Expanded by Laplace along the two scalar rows: the complementary-minor
    pairing gives six terms (p_i p_j^q - p_j p_i^q) * (x_k x_l^q - x_l x_k^q).
    """
    q = field.size
    ring = P.ring
    p = P.coords
    pq = [c ** q for c in p]
    coeffs: dict = {}

    def add_term(exps, c):
        if exps in coeffs:
            coeffs[exps] = coeffs[exps] + c
        else:
            coeffs[exps] = c

    idx = list(range(4))
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = [t for t in idx if t not in (i, j)]
            # minor of rows (P, P^q) in columns (i, j)
            m = p[i] * pq[j] - p[j] * pq[i]
            if scalar_is_zero(m):
                continue
            sign = (-1) ** (i + j + 1)
            m = m * sign
            # complementary minor of rows (X, X^q) in columns (k, l)
            e1 = [0, 0, 0, 0]
            e1[k] = 1
            e1[l] = q
            add_term(tuple(e1), m)
            e2 = [0, 0, 0, 0]
            e2[k] = q
            e2[l] = 1
            add_term(tuple(e2), ring.zero() - m)
    return HomogeneousForm(ring, 4, q + 1, coeffs)


def frobenius_membership_terms(field, P: GeneralPoint):
    """The six I(P)^(q+1) generators whose signed sum is the cone.

    Each term is (p_i x_j - p_j x_i)^q * (p_k x_l - p_l x_k) with the
    Laplace sign; both factors vanish at P, so the product sits in
    I(P)^(q+1).  Used to certify cone membership by a syntactic identity.
    """
    q = field.size
    ring = P.ring
    p = P.coords
    terms = []
    idx = list(range(4))
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = [t for t in idx if t not in (i, j)]
            sign = (-1) ** (i + j)
            lin1 = {_unit4(j): p[i], _unit4(i): ring.zero() - p[j]}
            lin2 = {_unit4(l): p[k], _unit4(k): ring.zero() - p[l]}
            f1 = HomogeneousForm(ring, 4, 1, lin1)
            f2 = HomogeneousForm(ring, 4, 1, lin2)
            power = f1
            for _ in range(q - 1):
                power = power * f1
            terms.append(((i, j), sign, power * f2))
    return terms


def _unit4(i):
    e = [0, 0, 0, 0]
    e[i] = 1
    return tuple(e)


def frobenius_membership_check(field, P: GeneralPoint) -> bool:
    """Verify det == signed sum of the six I(P)^(q+1) products."""
    F = frobenius_cone(field, P)
    total = None
    for _, sign, term in frobenius_membership_terms(field, P):
        signed = term if sign == 1 else term.scale(P.ring.const(-1))
        total = signed if total is None else total + signed
    return total is not None and total == F


def restrict_to_plane(F: HomogeneousForm) -> HomogeneousForm:
    """Set w=0; for a cone with vertex (a,b,c,1) this is its plane curve."""
    out = {e[:3]: c for e, c in F.coeffs.items() if e[3] == 0}
    return HomogeneousForm(F.ring, 3, F.degree, out)


@dataclass
class TransversalityReport:
    total: int
    violations: list

    @property
    def all_transversal(self):
        return not self.violations


def cone_line_transversality(F: HomogeneousForm, field) -> TransversalityReport:
    """Flag every line of PG(3, q) on which F vanishes identically.

    A line with F_q rows A and B is flagged exactly when the restriction
    F(u·A + s·B), whose coefficients are computed over the scalars of F, is
    the zero binary form.  The test holds for a form of any degree.
    """
    lines = all_lines(field)
    violations = []
    for line in lines:
        A, B = ([FieldElement(field, c) for c in row] for row in line.rows)
        if restrict_to_line(F, A, B).is_zero():
            violations.append(line)
    return TransversalityReport(total=len(lines), violations=violations)


# ---------------------------------------------------------------------------
# unexpected cones

def unexpected_cone_dim(Z: PointSet, d: int, P: GeneralPoint):
    """(lhs, rhs, unexpected): lhs = dim [I(Z) ∩ I(P)^d]_d.

    Degree-d forms in I(P)^d are exactly pullbacks of plane degree-d
    curves under projection from P, so lhs equals the corank of the
    projected point conditions M, a much smaller matrix than the stacked
    4-variable one.  At the generic center, lhs is first bounded from both
    sides with no elimination over F_q[a,b,c] (`_corank_bounds`); only
    when the bounds differ does fraction-free elimination
    (`condition_rank`) decide.
    """
    if d < 1:
        raise CoreError("degree must be >= 1")
    S = project(Z, P)
    # a finite center has no bounds: its rank is one finite elimination
    lower, upper = (0, None) if S.ring.finite else _corank_bounds(Z, S, d)
    if lower == upper:
        lhs = lower
    else:
        mat = S.condition_rows(d)
        lhs = mat.ncols - condition_rank(mat)
    n = Z.dim
    rhs = max(0, hilbert_value(Z, d) - math.comb(d + n - 1, n))
    return lhs, rhs, lhs > rhs


def _corank_bounds(Z, S: ProjectedScheme, d: int) -> tuple:
    """(lower, upper) bounds on the corank of the degree-d conditions of
    the generic projection S, from one specialization.

    Setting (a,b,c) to the seeded center R = GeneralPoint.random(F, 0)
    can only lower the rank, so the corank at R is an upper bound.  Each
    structural hint of degree e <= d that vanishes on S, checked factor by
    factor, times every monomial of degree d − e lies in the kernel; a
    nonzero minor of these members at R is a nonzero minor generically,
    so their rank at R is a lower bound.  The upper bound comes first:
    when it is 0, so is lhs, and no hint is built; when the hints have
    fewer members than it, the bounds cannot meet, and 0 is returned as
    the lower bound with no hint checked."""
    R = GeneralPoint.random(Z.field, 0)
    E, monos = R.ring.field, monomials(3, d)
    mat = project(Z, R).condition_rows(d)
    upper = mat.ncols - condition_rank(mat)
    if upper == 0:
        return 0, 0
    hints = _structural_hints(Z, S, range(1, d + 1))
    if sum(math.comb(d - h.degree + 2, 2) for h in hints) < upper:
        return 0, upper
    col = {e: i for i, e in enumerate(monos)}
    members = []
    for h in hints:
        if not _vanishes_on(h, S):
            continue
        terms = specialize_coefficients(h, R.ring, R.coords[:3]).coeffs.items()
        for m in monomials(3, d - h.degree):
            row = [E.zero_rep] * len(monos)
            for e, c in terms:
                row[col[tuple(x + y for x, y in zip(e, m))]] = c.rep
            members.append(row)
    return len(row_reduce(E, members)[0]), upper


def unexpectedness_inequality(q: int):
    """C(q²−q+2, 2) > C(q²+4, 3) − (q²+1)(q+1) − C(q²+3, 3), exactly."""
    if q < 2:
        raise CoreError("q must be >= 2")
    lhs = math.comb(q * q - q + 2, 2)
    rhs = math.comb(q * q + 4, 3) - (q * q + 1) * (q + 1) - math.comb(q * q + 3, 3)
    return lhs, rhs, lhs > rhs


# ---------------------------------------------------------------------------
# certification

@dataclass
class GeprociCertificate:
    alpha: int
    beta: int
    f: HomogeneousForm
    g: HomogeneousForm
    coprimality: CoprimalityWitness
    length: int
    mode: str
    seed: Optional[int] = None
    m: Optional[int] = None
    flags: dict = dataclass_field(default_factory=dict)

    def recheck(self, S: ProjectedScheme) -> bool:
        """Self-contained re-verification against the projected scheme."""
        if self.alpha * self.beta != S.length:
            return False
        # each form whole (a one-factor product), not factor by factor as
        # the hints were tested
        if not all(_vanishes_on(ProductForm([h]), S) for h in (self.f, self.g)):
            return False
        return isinstance(coprime_certificate(self.f, self.g), CoprimalityWitness)

    def to_dict(self) -> dict:
        return {
            "degrees": [self.alpha, self.beta],
            "forms": [self.f.serialize(), self.g.serialize()],
            "coprimality": {
                "variable": self.coprimality.variable,
                "resultant_nonzero": self.coprimality.resultant_nonzero,
            },
            "length": self.length,
            "flags": self.flags,
            "mode": self.mode,
            "seed": self.seed,
            "m": self.m,
        }


def _vanishes_on(f: HomogeneousForm, S: ProjectedScheme) -> bool:
    """Whether the form f vanishes on the projected scheme; a ProductForm
    is tested factor by factor.

    The scalars form a domain, so a product vanishes at a point iff a
    factor does; by the product rule its D_v at a doubled point vanishes
    iff two factors vanish there or the one that does has D_v = 0."""
    factors = f.factors if isinstance(f, ProductForm) else [f]
    for coords, direction in S.entries:
        zeros = (h for h in factors if scalar_is_zero(evaluate(h, coords)))
        h = next(zeros, None)
        if h is None:
            return False
        if direction is not None and next(zeros, None) is None:
            if not scalar_is_zero(directional_derivative(h, coords, direction)):
                return False
    return True


def certify_complete_intersection(
    S: ProjectedScheme, alpha: int, beta: int, hints: Optional[list] = None
) -> GeprociCertificate:
    """Decide whether the scheme is a complete intersection of type (alpha, beta).

    A certificate is a pair of coprime curves of degrees a <= b through the
    scheme; its length ab is all Bézout allows, so the pair cuts out
    exactly the scheme.  Coprime pairs of vanishing structural hints, a
    ProductForm tested factor by factor, are tried first, with
    no kernel.  Otherwise the Hilbert function decides
    (Eisenbud–Green–Harris, Cayley–Bacharach theorems and conjectures,
    Bull. AMS 33 (1996)).  Let the scheme be cut out by (f0, g0) and let
    I_d be the curves of degree d through it.  Then I_a = <f0> if a < b and
    I_a = <f0, g0> if a = b, and I_b = f0·S_{b−a} ⊕ <g0>, of dimension
    C(b−a+2, 2) + 1.  Take f in I_a (for a < b, f0 up to a unit).  A form
    of I_b outside f·S_{b−a} is f·h + c·g0 with c ≠ 0, so it is coprime to
    f; for a = b, any form of I_a not proportional to f is such a form.  A
    basis of I_b has a member outside f·S_{b−a}, so f with the hints and
    the basis of I_b decides.  Raises NotCompleteIntersection with the
    criterion that fails.
    """
    if S.length != alpha * beta:
        raise LengthMismatch(f"scheme length {S.length} != {alpha}*{beta}")
    a, b = sorted((alpha, beta))
    hints = [h for h in hints or [] if h.degree in (a, b) and _vanishes_on(h, S)]
    hints_a = [h for h in hints if h.degree == a]
    hints_b = [h for h in hints if h.degree == b]

    def certify(f, candidates):
        for g in candidates:
            if g.proportional_to(f):
                continue
            w = coprime_certificate(f, g)
            if isinstance(w, CoprimalityWitness):
                f_, g_ = (f, g) if alpha <= beta else (g, f)
                return GeprociCertificate(
                    alpha=alpha, beta=beta, f=f_, g=g_, coprimality=w,
                    length=S.length, mode="random" if S.ring.finite else "generic",
                    seed=S.point.seed, m=S.point.m,
                )
        return None

    def curves(degree, need):
        kernel = interpolate_curve(S, degree)
        if kernel.dimension != need:
            raise NotCompleteIntersection(
                f"dim I_{degree} = {kernel.dimension}, a complete intersection "
                f"of type ({a},{b}) needs {need}"
            )
        return kernel.forms

    for f in hints_a:
        cert = certify(f, hints_b)
        if cert is not None:
            return cert
    forms_a = curves(a, 2 if a == b else 1)
    f = (hints_a + forms_a)[0]
    # a hint f has already met every hint of degree b
    cert = certify(f, [] if hints_a else hints_b)
    if cert is None:
        cert = certify(f, forms_a if a == b else curves(b, math.comb(b - a + 2, 2) + 1))
    if cert is None:
        raise NotCompleteIntersection(
            f"every form of I_{b} shares a factor with the degree-{a} generator"
        )
    return cert


# ---------------------------------------------------------------------------
# structural candidate curves

def line_product_candidates(Z, S: ProjectedScheme, degree: int) -> list:
    """The degree-d product of projected lines from a d-class collinear
    cover, kept factored."""
    if not isinstance(Z, PointSet):
        return []
    part = _collinear_partition(Z, degree)
    if part is None:
        return []
    ring = S.ring
    P = S.point
    lines = []
    for members in part:
        a = _image_coords(ring, P, members[0])
        b = _image_coords(ring, P, members[1])
        # line through two plane points: coefficients are the 2x2 minors
        lin = {
            (1, 0, 0): a[1] * b[2] - a[2] * b[1],
            (0, 1, 0): a[2] * b[0] - a[0] * b[2],
            (0, 0, 1): a[0] * b[1] - a[1] * b[0],
        }
        lines.append(HomogeneousForm(ring, 3, 1, lin))
    return [ProductForm(lines)]


def _collinear_partition(Z: PointSet, parts: int):
    """Partition Z into exactly `parts` collinear classes (each >= 2 pts)."""
    if parts * (Z.field.size + 1) < len(Z):  # a line has q + 1 points
        return None
    classes = collinear_classes(Z)
    # try larger classes first so the part count shrinks fastest
    classes.sort(key=lambda c: (-len(c), c))
    masks = [sum(1 << i for i in c) for c in classes]
    chosen = exact_cover(masks, (1 << len(Z)) - 1, parts)
    if chosen is None:
        return None
    return [tuple(Z.points[i] for i in classes[k]) for k in chosen]


def frobenius_curve_candidate(Z, S: ProjectedScheme, degree: int, field) -> list:
    """The Frobenius cone's plane curve, valid whenever Z is F_q-rational."""
    if degree != field.size + 1:
        return []
    F = frobenius_cone(field, S.point)
    return [restrict_to_plane(F)]


# ---------------------------------------------------------------------------
# the main verdict

@dataclass
class GeprociVerdict:
    geproci: bool
    alpha: int
    beta: int
    mode: str
    certificate: Optional[GeprociCertificate]
    trials: int = 1
    failure_bound: Optional[str] = None
    reason: str = ""

    def to_dict(self) -> dict:
        d = {
            "geproci": self.geproci,
            "degrees": [self.alpha, self.beta],
            "mode": self.mode,
            "trials": self.trials,
            "reason": self.reason,
        }
        if self.failure_bound:
            d["failure_bound"] = self.failure_bound
        if self.certificate:
            d["certificate"] = self.certificate.to_dict()
        return d


def _structural_hints(Z, S: ProjectedScheme, degrees) -> list:
    """The cone curve and line products of the given degrees."""
    hints = []
    for degree in sorted(set(degrees)):
        hints.extend(frobenius_curve_candidate(Z, S, degree, Z.field))
        hints.extend(line_product_candidates(Z, S, degree))
    return hints


def geproci_check(
    Z,
    alpha: int,
    beta: int,
    mode: str = "generic",
    trials: int = 3,
    seed: int = 0,
) -> GeprociVerdict:
    """Decide whether Z is (alpha, beta)-geproci.

    GENERIC mode runs once and is conclusive, except that a resultant
    which vanished at three deterministic specializations comes out as
    `geproci: False` without proof.  RANDOM mode runs `trials`
    seeded instances and stops at the first negative.  Curve spaces can
    only grow under specialization, so a dim I_d below the complete
    intersection value refutes; one above it, or a shared factor, at a
    sampled point is not a proof.  Uniform success is reported with a
    polynomial-identity-testing failure bound.
    """
    field = Z.field
    length = Z.scheme_length()
    if length != alpha * beta:
        raise LengthMismatch(f"scheme length {length} != {alpha}*{beta}")
    if mode == "generic":
        P = GeneralPoint.generic(field)
        S = project(Z, P)
        hints = _structural_hints(Z, S, (alpha, beta))
        try:
            cert = certify_complete_intersection(S, alpha, beta, hints)
        except NotCompleteIntersection as e:
            return GeprociVerdict(False, alpha, beta, mode, None, reason=str(e))
        return GeprociVerdict(True, alpha, beta, mode, cert, reason="complete intersection certified")
    if mode != "random":
        raise CoreError(f"unknown mode {mode!r}")

    cert = None
    m = None
    for t in range(trials):
        # off every F_q-line, so off every secant: no two images collide
        P = GeneralPoint.random(field, (seed + t) * 1000)
        m = P.m
        S = project(Z, P)
        hints = _structural_hints(Z, S, (alpha, beta))
        try:
            cert = certify_complete_intersection(S, alpha, beta, hints)
        except NotCompleteIntersection as e:
            return GeprociVerdict(
                False, alpha, beta, mode, None, trials=t + 1,
                reason=f"trial {t}: {e}",
            )
    degree_bound = alpha * beta + alpha + beta
    bound = f"{trials} * {degree_bound} / {field.size}^{m}"
    return GeprociVerdict(
        True, alpha, beta, mode, cert, trials=trials,
        failure_bound=bound, reason="all trials certified (probabilistic)",
    )


# ---------------------------------------------------------------------------
# classification

@dataclass
class ClassificationFlags:
    degenerate: bool
    grid: bool
    half_grid_cover: bool
    nontrivial: bool

    def to_dict(self):
        return {
            "degenerate": self.degenerate,
            "grid": self.grid,
            "half_grid_cover": self.half_grid_cover,
            "nontrivial": self.nontrivial,
        }


def skew_line_cover(Z: PointSet, count: int, per: int):
    """Cover of Z by `count` pairwise-skew lines with exactly `per` points
    of Z each, or None.

    A line's mask holds all q+1 of its points, those off Z at bits past
    len(Z).  Lines covering Z exactly can meet only off Z, so using each
    of those bits at most once makes them pairwise skew.  When per = q+1
    a line lies in Z and its members are all its points."""
    return _skew_line_cover(Z, count, per, ())


def _skew_line_cover(Z: PointSet, count: int, per: int, avoid):
    """skew_line_cover by lines other than those of `avoid`."""
    if count * per != len(Z):
        return None
    pts = Z.points
    usable = sorted(((line_through(pts[c[0]], pts[c[1]]), c) for c in collinear_classes(Z)
                     if len(c) == per), key=lambda lc: lc[0].key())
    usable = [(line, c) for line, c in usable if line not in avoid]
    index = {p: i for i, p in enumerate(pts)}
    masks = []
    for line, c in usable:
        on = [pts[i] for i in c] if per == Z.field.size + 1 else line.points()
        for p in on:
            index.setdefault(p, len(index))
        masks.append(sum(1 << index[p] for p in on))
    chosen = exact_cover(masks, (1 << len(Z)) - 1)
    return None if chosen is None else [usable[k][0] for k in chosen]


def classify(Z: PointSet, alpha: int, beta: int) -> ClassificationFlags:
    """Combinatorial flags: degenerate / grid / half grid cover / nontrivial.

    A grid has two covers by skew lines, one per ruling.  Lines of
    different rulings meet, so no cover mixes them, and when alpha = beta
    the second cover is sought among the lines outside the first."""
    degenerate = is_coplanar(Z)
    cover_ab = skew_line_cover(Z, alpha, beta)
    if alpha != beta:
        cover_ba = skew_line_cover(Z, beta, alpha)
    else:
        cover_ba = cover_ab and _skew_line_cover(Z, beta, alpha, cover_ab)
    grid = cover_ab is not None and cover_ba is not None
    half = (cover_ab is not None or cover_ba is not None) and not grid
    return ClassificationFlags(
        degenerate=degenerate,
        grid=grid and not degenerate,
        half_grid_cover=half and not degenerate,
        nontrivial=not degenerate and not grid and not half,
    )


# ---------------------------------------------------------------------------
# residual sets

@dataclass
class ResidualVerdict:
    verdict: Optional[GeprociVerdict]
    degenerate_case: bool
    shared_generator: Optional[HomogeneousForm]


def residual_check(Z: PointSet, Zp: PointSet, alpha: int, gamma: int, beta: int) -> ResidualVerdict:
    """If Z is {alpha,beta}- and Z' {gamma,beta}-geproci with a shared
    degree-beta generator, the residual Z∖Z' is {alpha−gamma, beta}-geproci."""
    for p in Zp.points:
        if p not in Z:
            raise CoreError("Z' must be a subset of Z")
    if len(Zp) == len(Z):
        return ResidualVerdict(None, True, None)
    P = GeneralPoint.generic(Z.field)
    S = project(Z, P)
    # I(Z) ⊆ I(Z'), so any degree-beta curve through the projection of Z
    # works for both; structural candidates are tried before interpolation
    hints = _structural_hints(Z, S, (beta,))
    Sp = project(Zp, P)
    candidates = [h for h in hints if _vanishes_on(h, S)] + interpolate_curve(S, beta).forms
    shared = next((h for h in candidates if _vanishes_on(h, Sp)), None)
    if shared is None:
        raise SharedGeneratorMissing(f"no degree-{beta} curve through both projections")
    Zpp = Z.minus(Zp)
    verdict = geproci_check(Zpp, alpha - gamma, beta, mode="generic")
    return ResidualVerdict(verdict, False, shared)
