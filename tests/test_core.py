"""General projections, Frobenius cones, unexpectedness, certification."""
import random

import pytest

from geproci import core, fatpoints, multipoly, projgeom
from geproci.cli import fixture_text
from geproci.fields import FieldElement, extend_field, parse_field_spec
from geproci.multipoly import HomogeneousForm, evaluate, scalar_is_zero, ScalarRing
from geproci.projgeom import (
    PointSet,
    ProjectiveLine3,
    ProjectivePoint,
    all_lines,
    enumerate_projective_space,
    matrix_rank,
)
from geproci.spreads import complement_points

from oracles import collinear_subsets, lines_skew


def test_generic_point_shape(F2):
    P = core.GeneralPoint.generic(F2)
    assert P.mode == "generic"
    a, b, c, w = P.coords
    assert w == P.ring.one()


def test_random_point_avoids_secants(F2, P3F2):
    P = core.GeneralPoint.random(F2, seed=0)
    assert P.m >= 31  # 2^m >= 2^31
    S = core.project(P3F2, P)  # would raise CollisionDetected on a secant
    assert S.length == 15


def _rank_on_line(p, line, E):
    rows = [[E.lift_rep(line.field, c) for c in row] for row in line.rows]
    return matrix_rank(E, rows + [list(p.reps)]) == 2


def _point_on(line, E, rng):
    """A point of E-coordinates on the E-span of an F-rational line."""
    r0, r1 = ([E.lift_rep(line.field, c) for c in row] for row in line.rows)
    s, t = (E.index_to_rep(rng.randrange(1, E.size)) for _ in range(2))
    return ProjectivePoint(E, [FieldElement(E, E.add_rep(E.mul_rep(s, x), E.mul_rep(t, y)))
                              for x, y in zip(r0, r1)])


@pytest.mark.parametrize("spec,m,seed", [("p=7", 12, 5), ("p=2;ext=2", 3, 2)])
def test_on_rational_line_agrees_with_rank_test(forty_points_q7, spec, m, seed):
    F = parse_field_spec(spec)
    E = extend_field(F, m)
    lines = all_lines(F)
    rng = random.Random(seed)
    Z = forty_points_q7 if F.size == 7 else PointSet(F, list(enumerate_projective_space(F, 3))[:12], 3)
    # points built on a secant of Z are on a rational line; so is each
    # point of Z, in E and in its own field
    for line, _ in collinear_subsets(Z, 2)[::7]:
        p = _point_on(line, E, rng)
        assert core._on_rational_line(F, E, p.reps) and _rank_on_line(p, line, E)
    for p in Z.points[::5]:
        assert core._on_rational_line(F, F, p.reps)
        assert core._on_rational_line(F, E, [E.lift_rep(F, x) for x in p.reps])
    # random points, and points on random rational lines, against the
    # rank oracle over every line of PG(3, q)
    points = [ProjectivePoint(E, [E.from_index(rng.randrange(E.size)) for _ in range(3)] + [1])
              for _ in range(3)]
    points += [_point_on(rng.choice(lines), E, rng) for _ in range(3)]
    for p in points:
        assert core._on_rational_line(F, E, p.reps) == any(_rank_on_line(p, L, E) for L in lines)
    assert [core._on_rational_line(F, E, p.reps) for p in points] == [False] * 3 + [True] * 3


def _secant_sampler_center(field, seed, avoid):
    """Reference secant sampler: the index coordinates of the first
    candidate with a coordinate off F_q and on no secant of `avoid`, each
    secant tested by the four 3×3 minors of its first two points and the
    candidate."""
    m = 1
    while field.size ** m < core.RANDOM_MIN_FIELD:
        m += 1
    E = extend_field(field, m)
    rng = random.Random(seed)
    pts = avoid.points
    secants = [(pts[c[0]].reps, pts[c[1]].reps) for c in projgeom.collinear_classes(avoid)]
    F = field
    add, sub, mul = F.add_rep, F.sub_rep, F.mul_rep

    def on_secant(coords, U, V):
        def minor(a, b):
            return sub(mul(U[a], V[b]), mul(U[b], V[a]))

        for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            a, b, c = minor(j, k), F.neg_rep(minor(i, k)), minor(i, j)
            for x, y, z in zip(coords[i], coords[j], coords[k]):
                if not F.rep_is_zero(add(add(mul(x, a), mul(y, b)), mul(z, c))):
                    return False
        return True

    for _ in range(1000):
        coords = [E.from_index(rng.randrange(E.size)) for _ in range(3)] + [E.one()]
        if any(c.index >= field.size for c in coords[:3]):
            cs = [E.coeffs(c.rep) for c in coords]
            if not any(on_secant(cs, U, V) for U, V in secants):
                return [c.index for c in coords]
    raise AssertionError("the secant sampler found no center")


def test_random_center_matches_the_secant_sampler(forty_points_q7):
    sets = [forty_points_q7, fatpoints.example_concurrent_nine(parse_field_spec("p=2")).support_points()]
    sets += [PointSet(F, enumerate_projective_space(F, 3), 3)
             for F in map(parse_field_spec, ("p=2", "p=3", "p=2;ext=2", "p=5"))]
    for Z in sets:
        for seed in sorted({*range(40), *range(0, 60000, 1000)}):
            P = core.GeneralPoint.random(Z.field, seed)
            assert [c.index for c in P.coords] == _secant_sampler_center(Z.field, seed, Z)


def test_projection_images_and_collision(F2, P3F2):
    P = core.GeneralPoint.generic(F2)
    S = core.project(P3F2, P)
    assert S.length == 15
    keys = [tuple(str(c) for c in coords) for coords, _ in S.entries]
    assert len(set(keys)) == 15


def test_projection_collision_detected(F3):
    # a base-field point always lies on secants of P^3(F_q)
    Z = PointSet(F3, enumerate_projective_space(F3, 3), 3)
    bad = core.GeneralPoint.generic(F3)
    one = bad.ring.one()
    bad.coords = [one, one, one, one]  # rational point: many collisions
    with pytest.raises(core.CollisionDetected):
        core.project(Z, bad)


def _pairwise_first_collision(entries):
    imgs = [coords for coords, _ in entries]
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            if multipoly.proportional(imgs[i], imgs[j]):
                return i, j
    return None


NOT_GENERAL = "lie on no line defined over F_q; P is not general"


def _center_on(line, E, rng):
    """A center of E-coordinates, scaled to w = 1, on the E-span of a line
    defined over the base field."""
    while True:
        coords = _point_on(line, E, rng).coords
        if not coords[3].is_zero():
            return [c / coords[3] for c in coords]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_projection_collision_on_a_secant(forty_points_q7, seed):
    Z = forty_points_q7
    good = core.GeneralPoint.random(Z.field, seed=seed)
    E = good.ring.field
    S = core.project(Z, good)  # off every secant: no collision
    assert S.length == 40 and _pairwise_first_collision(S.entries) is None
    # a point of E on the secant through two points of Z: two images
    # coincide, and the center is refused before any image is computed
    rng = random.Random(seed)
    u, v = rng.sample(Z.points, 2)
    bad = core.GeneralPoint("random", good.ring, _center_on(projgeom.line_through(u, v), E, rng),
                            m=good.m)
    assert _pairwise_first_collision([(core._image_coords(bad.ring, bad, p), None) for p in Z.points])
    with pytest.raises(core.CollisionDetected, match=NOT_GENERAL):
        core.project(Z, bad)


def test_random_projection_refuses_a_rational_line_off_the_secants(forty_points_q7):
    # a line of PG(3, 7) with at most one point of Z is no secant, so no
    # two images of Z coincide from a center on it; the center is still
    # on a line defined over F_7, and so not general
    Z = forty_points_q7
    good = core.GeneralPoint.random(Z.field, seed=0)
    E, rng = good.ring.field, random.Random(7)
    members = set(Z.points)
    lines = [L for L in all_lines(Z.field) if sum(p in members for p in L.points()) <= 1]
    for line in rng.sample(lines, 3):
        bad = core.GeneralPoint("random", good.ring, _center_on(line, E, rng), m=good.m)
        images = [(core._image_coords(bad.ring, bad, p), None) for p in Z.points]
        assert _pairwise_first_collision(images) is None
        with pytest.raises(core.CollisionDetected, match=NOT_GENERAL):
            core.project(Z, bad)


def test_random_projection_refuses_a_center_on_a_tangent_line():
    # the doubled point at A = (1:0:0:0) has tangent direction B = (0:0:0:1);
    # from a center (s:0:0:1) on the line A-B, B's image is a multiple of
    # A's, while the three supports keep distinct images
    F2 = parse_field_spec("p=2")
    Z = fatpoints.example_strange_conic_six(F2)
    good = core.GeneralPoint.random(F2, seed=0)
    E = good.ring.field
    s = E.from_index(2)  # not in F_2
    bad = core.GeneralPoint("random", good.ring, [s, E.zero(), E.zero(), E.one()], m=good.m)
    supports = [(core._image_coords(bad.ring, bad, p), None) for p, _ in Z.as_projection_entries()]
    assert _pairwise_first_collision(supports) is None
    with pytest.raises(core.CollisionDetected, match=NOT_GENERAL):
        core.project(Z, bad)
    assert core.project(Z, good).length == 6


def test_random_projection_refuses_a_center_two_layers_up(P3F2):
    # a center sampled for F_4 lies in a degree-16 layer over F_4, off
    # every F_4-line and so off every F_2-line, but two layers above F_2:
    # its coordinates have no F_2-coefficients to test
    F4 = parse_field_spec("p=2;ext=2")
    P = core.GeneralPoint.random(F4, seed=0)
    assert P.ring.field.base == F4
    with pytest.raises(core.CollisionDetected, match="one-layer extension"):
        core.project(P3F2, P)
    assert core.project(PointSet(F4, enumerate_projective_space(F4, 3).points[:9], 3), P).length == 9


def test_random_projection_refuses_a_center_with_w_other_than_1(P3F3):
    # images are taken from (a:b:c:1); here (s:s:1:t) is off every F_3-line
    # but (s:s:1:1) is on the line through (1:1:0:0) and (0:0:1:1)
    good = core.GeneralPoint.random(P3F3.field, seed=0)
    s, t = good.coords[:2]
    E = good.ring.field
    bad = core.GeneralPoint("random", good.ring, [s, s, E.one(), t], m=good.m)
    assert not core._on_rational_line(P3F3.field, E, [c.rep for c in bad.coords])
    assert _pairwise_first_collision([(core._image_coords(bad.ring, bad, p), None) for p in P3F3.points])
    with pytest.raises(core.CollisionDetected, match=NOT_GENERAL):
        core.project(P3F3, bad)


def test_random_projection_from_a_point_of_the_set(F3):
    # the center's own image is zero and coincides with every other image
    Z = PointSet(F3, [ProjectivePoint(F3, c) for c in ([1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 0, 1])], 3)
    ring = ScalarRing(F3)
    for pt in Z.points:
        P = core.GeneralPoint("random", ring, list(pt.coords), m=1)
        with pytest.raises(core.CollisionDetected, match=NOT_GENERAL):
            core.project(Z, P)


def test_projection_makes_no_inversion(forty_points_q7, monkeypatch):
    P = core.GeneralPoint.random(forty_points_q7.field, seed=0)
    E, calls = P.ring.field, []
    inv_rep = E.inv_rep
    monkeypatch.setattr(E, "inv_rep", lambda a: calls.append(a) or inv_rep(a))
    assert core.project(forty_points_q7, P).length == 40
    assert calls == []


@pytest.mark.parametrize("center", [(1, 1, 1, 1), (1, 2, 0, 1), (0, 0, 1, 1)])
def test_random_projection_names_the_first_collision(P3F3, center):
    # a rational center: many images coincide, and its own image is zero
    ring = ScalarRing(P3F3.field)
    P = core.GeneralPoint("random", ring, [ring.const(c) for c in center], m=1)
    assert _pairwise_first_collision([(core._image_coords(ring, P, p), None) for p in P3F3.points])
    with pytest.raises(core.CollisionDetected, match=NOT_GENERAL):
        core.project(P3F3, P)


def test_random_point_sampling_can_fail(F2, monkeypatch):
    # with no extension every candidate lies in F_q, so none is accepted
    monkeypatch.setattr(core, "RANDOM_MIN_FIELD", 2)
    with pytest.raises(core.CoreError, match="could not sample a general point off all secants"):
        core.GeneralPoint.random(F2, seed=0)


@pytest.mark.parametrize("spec,q", [("p=2", 2), ("p=3", 3), ("p=2;ext=2", 4)])
def test_frobenius_cone_vanishes_and_membership(spec, q):
    F = parse_field_spec(spec)
    P = core.GeneralPoint.generic(F)
    cone = core.frobenius_cone(F, P)
    assert cone.degree == q + 1
    for pt in enumerate_projective_space(F, 3):
        assert scalar_is_zero(evaluate(cone, P.ring.coerce_point_coords(pt)))
    assert core.frobenius_membership_check(F, P)


def test_transversality_tests_the_restriction_in_any_degree(F2):
    # G = (z w^2 - z^2 w)(w^2 + w z + z^2) vanishes at every point of
    # P^1(F_4) in (z : w), so it vanishes at all rational parameters of
    # every line and at every F_4 one; yet on a line where (z, w) are
    # independent its restriction is a nonzero quintic.  It is zero exactly
    # on the lines meeting z = w = 0, where (z, w) has rank at most 1.
    ring = ScalarRing(F2)
    one = F2.one()
    G = (HomogeneousForm(ring, 4, 3, {(0, 0, 1, 2): one, (0, 0, 2, 1): -one})
         * HomogeneousForm(ring, 4, 2, {(0, 0, 0, 2): one, (0, 0, 1, 1): one, (0, 0, 2, 0): one}))
    report = core.cone_line_transversality(G, F2)
    assert report.total == 35
    assert ProjectiveLine3(F2, [[0, 0, 1, 0], [0, 0, 0, 1]]) not in report.violations
    xy_axis = ProjectiveLine3(F2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert report.violations == [L for L in all_lines(F2) if not lines_skew(L, xy_axis)]
    assert len(report.violations) == 19
    # in degree 0, a nonzero constant vanishes on no line and 0 on every line
    constant = HomogeneousForm(ring, 4, 0, {(0, 0, 0, 0): one})
    assert core.cone_line_transversality(constant, F2).violations == []
    assert len(core.cone_line_transversality(constant.scale(F2.zero()), F2).violations) == 35


@pytest.mark.parametrize("spec,q,nplane", [("p=2", 2, 7), ("p=3", 3, 13), ("p=2;ext=2", 4, 21),
                                           ("p=5", 5, 31)])
def test_transversality_flags_the_lines_of_the_plane_x_0(spec, q, nplane):
    F = parse_field_spec(spec)
    form = HomogeneousForm(ScalarRing(F), 4, q + 1, {(q + 1, 0, 0, 0): F.one()})
    report = core.cone_line_transversality(form, F)
    assert report.total == (q * q + 1) * (q * q + q + 1)
    in_plane = [L for L in all_lines(F) if all(F.rep_is_zero(row[0]) for row in L.rows)]
    assert report.violations == in_plane
    assert len(in_plane) == q * q + q + 1 == nplane


def test_frobenius_cone_is_transversal_at_q5(F5):
    # the cone's monomials are x_k x_l^5, and C(5, j) vanishes mod 5 for
    # 0 < j < 5, so each fifth power restricts to two terms; no line of
    # PG(3,5) lies on the cone
    cone = core.frobenius_cone(F5, core.GeneralPoint.generic(F5))
    report = core.cone_line_transversality(cone, F5)
    assert (report.total, len(report.violations)) == (806, 0)


def test_collinear_classes_are_computed_once_per_set(monkeypatch, forty_points_q7):
    # they depend on Z alone: three trials, each sampling a point off the
    # secants and partitioning Z for degrees 5 and 8, compute them once
    calls = []
    compute = projgeom._collinear_classes

    def counting(Z):
        calls.append(Z)
        return compute(Z)

    monkeypatch.setattr(projgeom, "_collinear_classes", counting)
    Z = PointSet(forty_points_q7.field, forty_points_q7.points, 3)
    assert core.geproci_check(Z, 5, 8, mode="random", trials=3).geproci
    assert len(calls) == 1
    # each call returns a fresh list, which a caller may sort in place
    classes = projgeom.collinear_classes(Z)
    classes.reverse()
    assert projgeom.collinear_classes(Z) == classes[::-1] != classes
    assert len(calls) == 1


def test_scalar_ring_refuses_a_scalar_ring(F2):
    with pytest.raises(TypeError):
        ScalarRing(core.GeneralPoint.generic(F2).ring)


def test_frobenius_vertex_multiplicity(F2):
    # every term of the cone uses at most one power of w beyond the plane
    # part; the restriction to w=0 is a plane curve of the same degree
    P = core.GeneralPoint.generic(F2)
    cone = core.frobenius_cone(F2, P)
    curve = core.restrict_to_plane(cone)
    assert curve.degree == 3 and not curve.is_zero()


def test_unexpected_cone_small(F2, P3F2):
    P = core.GeneralPoint.generic(F2)
    lhs, rhs, unexpected = core.unexpected_cone_dim(P3F2, 3, P)
    assert (lhs, rhs, unexpected) == (1, 0, True)


def _bareiss_corank(S, d):
    mat = S.condition_rows(d)
    return mat.ncols - multipoly.condition_rank(mat)


@pytest.mark.parametrize("q,degrees", [(2, range(1, 6)), (3, range(1, 5))])
def test_corank_sandwich_meets_bareiss_on_full_spaces(q, degrees):
    F = parse_field_spec(f"p={q}")
    Z = PointSet(F, enumerate_projective_space(F, 3), 3)
    S = core.project(Z, core.GeneralPoint.generic(F))
    for d in degrees:
        lower, upper = core._corank_bounds(Z, S, d)
        assert lower == upper == _bareiss_corank(S, d), d


def test_corank_sandwich_falls_back_to_bareiss_when_the_bounds_differ(monkeypatch):
    calls = []
    echelon = multipoly._bareiss_echelon
    monkeypatch.setattr(multipoly, "_bareiss_echelon", lambda mat: calls.append(mat) or echelon(mat))
    rng = random.Random(27)
    differed = 0
    for q in (2, 2, 3, 3):
        F = parse_field_spec(f"p={q}")
        space = enumerate_projective_space(F, 3).points
        Z = PointSet(F, rng.sample(space, rng.randrange(4, 12)), 3)
        P = core.GeneralPoint.generic(F)
        S = core.project(Z, P)
        for d in (q + 1, q + 2):
            lower, upper = core._corank_bounds(Z, S, d)
            calls.clear()
            lhs, _, _ = core.unexpected_cone_dim(Z, d, P)
            assert lower <= lhs <= upper
            assert bool(calls) == (lower != upper)
            if lower != upper:
                assert lhs == _bareiss_corank(S, d)
                differed += 1
    assert differed >= 4


def test_corank_sandwich_builds_no_hint_it_cannot_use(monkeypatch, P3F2):
    def must_not_run(*args):
        raise AssertionError("a hint was built or checked")

    # 15 points impose independent conditions on the 6 conics: upper = 0
    S = core.project(P3F2, core.GeneralPoint.generic(P3F2.field))
    with monkeypatch.context() as m:
        m.setattr(core, "_structural_hints", must_not_run)
        assert core._corank_bounds(P3F2, S, 2) == (0, 0)
    # a frame of PG(3,3): two line pairs (6 members) and the Frobenius
    # quartic (1) at d = 4, fewer than the 15 - 4 = 11 the bounds need
    F3 = parse_field_spec("p=3")
    Z = PointSet(F3, [ProjectivePoint(F3, c) for c in
                      ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])], 3)
    P = core.GeneralPoint.generic(F3)
    S = core.project(Z, P)
    monkeypatch.setattr(core, "_vanishes_on", must_not_run)
    assert core._corank_bounds(Z, S, 4) == (0, 11)
    assert core.unexpected_cone_dim(Z, 4, P)[0] == _bareiss_corank(S, 4) == 11


def test_unexpected_cones_of_full_spaces_need_no_elimination(monkeypatch, P3F2, P3F3):
    import math

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran on the sandwich path")

    # the center test runs only at the finite seeded center: once as it
    # is sampled and once as the set is projected from it
    fields, on_rational_line = [], core._on_rational_line
    monkeypatch.setattr(core, "_on_rational_line",
                        lambda F, E, coords: fields.append((F, E)) or on_rational_line(F, E, coords))
    monkeypatch.setattr(multipoly, "_bareiss_echelon", must_not_run)
    monkeypatch.setattr(multipoly, "proportional", must_not_run)
    monkeypatch.setattr(math, "prod", must_not_run)
    for Z, d, expected in ((P3F2, 3, (1, 0, True)), (P3F2, 4, (3, 0, True)),
                           (P3F2, 5, (7, 6, True)), (P3F3, 4, (1, 0, True))):
        assert core.unexpected_cone_dim(Z, d, core.GeneralPoint.generic(Z.field)) == expected
    assert len(fields) == 8 and all(E.base == F for F, E in fields)


def test_generic_check_keeps_the_line_product_factored(monkeypatch, P3F3):
    import math

    def must_not_run(*args, **kwargs):
        raise AssertionError("expanded the product or tested a finite center")

    monkeypatch.setattr(core, "_on_rational_line", must_not_run)
    monkeypatch.setattr(multipoly, "proportional", must_not_run)
    monkeypatch.setattr(math, "prod", must_not_run)
    v = core.geproci_check(P3F3, 4, 10, mode="generic")
    g = v.certificate.g
    assert v.geproci and isinstance(g, multipoly.ProductForm) and g._coeffs is None
    assert len(g.factors) == 10 and g.degree == 10
    monkeypatch.undo()
    S = core.project(P3F3, core.GeneralPoint.generic(P3F3.field))
    assert v.certificate.recheck(S)
    S.entries.append(([S.ring.one(), *S.ring.gens()[:2]], None))
    assert not v.certificate.recheck(S)


def test_generic_projection_refuses_any_other_polynomial_center(F2, P3F2):
    P = core.GeneralPoint.generic(F2)
    a, b, c, one = P.coords
    for coords in ([b, a, c, one], [a, b, c, a], [a, b, a + c, one]):
        P.coords = coords
        with pytest.raises(core.CollisionDetected, match="must be"):
            core.project(P3F2, P)


def test_unexpectedness_inequality_values():
    lhs, rhs, holds = core.unexpectedness_inequality(2)
    assert (lhs, rhs, holds) == (6, 6, False)
    lhs, rhs, holds = core.unexpectedness_inequality(3)
    assert (lhs, rhs, holds) == (28, 26, True)
    with pytest.raises(core.CoreError):
        core.unexpectedness_inequality(1)


def test_geproci_check_generic_q2(P3F2):
    v = core.geproci_check(P3F2, 3, 5, mode="generic")
    assert v.geproci
    cert = v.certificate
    assert (cert.alpha, cert.beta) == (3, 5)
    assert cert.length == 15
    assert cert.recheck(core.project(P3F2, core.GeneralPoint.generic(P3F2.field)))


def test_geproci_check_length_mismatch(P3F2):
    with pytest.raises(core.LengthMismatch):
        core.geproci_check(P3F2, 3, 4, mode="generic")


def test_geproci_check_negative(F3):
    # 12 points containing no (3,4) structure: 3 full lines minus nothing
    # won't work; take points of a plane (13 points) minus one -> 12 points,
    # coplanar, whose projection is 12 collinear-image-free points on a line
    plane = [p for p in enumerate_projective_space(F3, 3) if p.reps[3] == 0]
    Z = PointSet(F3, plane[:12], 3)
    for mode in ("generic", "random"):
        v = core.geproci_check(Z, 3, 4, mode=mode, trials=1)
        assert v.geproci is False
        assert "dim I_3 = 0, a complete intersection of type (3,4) needs 1" in v.reason


@pytest.mark.parametrize("mode", ["generic", "random"])
def test_geproci_check_refutations(F3, mode):
    line = all_lines(F3)[0].points()
    off = next(p for p in enumerate_projective_space(F3, 3) if p not in line)
    # four collinear points: the conics through them are the line times
    # any linear form, a net where a (2,2) complete intersection has a pencil
    v = core.geproci_check(PointSet(F3, line, 3), 2, 2, mode=mode, trials=1)
    assert v.geproci is False
    assert v.reason.endswith("dim I_2 = 3, a complete intersection of type (2,2) needs 2")
    # three collinear points and one more: a pencil of conics, all through the line
    v = core.geproci_check(PointSet(F3, line[:3] + (off,), 3), 2, 2, mode=mode, trials=1)
    assert v.geproci is False
    assert v.reason.endswith("every form of I_2 shares a factor with the degree-2 generator")
    # the line and a quartic through its four points
    v = core.geproci_check(PointSet(F3, line, 3), 1, 4, mode=mode, trials=1)
    assert v.geproci is True


def test_certification_computes_only_the_kernels_it_reads(monkeypatch, mps7_q3, forty_points_q7, F2):
    degrees = []
    interpolate = core.interpolate_curve

    def recording(S, degree):
        degrees.append(degree)
        return interpolate(S, degree)

    monkeypatch.setattr(core, "interpolate_curve", recording)
    checks = [
        (lambda: core.geproci_check(complement_points(mps7_q3), 3, 4, mode="generic"), [3]),
        (lambda: fatpoints.scheme_geproci_check(
            fatpoints.example_concurrent_nine(F2), 3, 3, mode="generic"), [3]),
        (lambda: core.geproci_check(forty_points_q7, 5, 8, mode="random", trials=1), [5]),
    ]
    for check, expected in checks:
        degrees.clear()
        assert check().geproci
        assert degrees == expected


def test_coprime_certificate_shears_only_the_usable_candidate(monkeypatch, forty_points_q7):
    # the cone pair of the 40-point set has no pure powers and its first
    # shear scalars are F_7-rational, so several pencil centers lie on a
    # curve; they are skipped by one evaluation each, and only the chosen
    # center's first test line is restricted to: one line per form
    calls = []
    restrict = multipoly.restrict_to_line

    def counting(*args):
        calls.append(args)
        return restrict(*args)

    monkeypatch.setattr(multipoly, "restrict_to_line", counting)
    v = core.geproci_check(forty_points_q7, 5, 8, mode="random", seed=0, trials=1)
    assert v.geproci
    assert len(calls) == 2
    witness = v.certificate.coprimality
    assert (witness.variable, witness.shear) == ("x", ("x", "0", "7"))


# the generic checks of the fixtures, with the shear of their witness
_GENERIC_CHECKS = {
    "PG(3,2)": (lambda get: core.geproci_check(get("P3F2"), 3, 5, mode="generic"), "2"),
    "PG(3,3)": (lambda get: core.geproci_check(get("P3F3"), 4, 10, mode="generic"), "3"),
    "mps-q3": (lambda get: core.geproci_check(complement_points(get("mps7_q3")), 3, 4,
                                              mode="generic"), "3"),
    "concurrent-nine": (lambda get: fatpoints.scheme_geproci_check(
        fatpoints.read_scheme(fixture_text("concurrent-nine-q2.scheme")), 3, 3,
        mode="generic"), "1"),
}


@pytest.mark.parametrize("name", list(_GENERIC_CHECKS))
def test_resultant_test_points_from_the_top_of_the_pool(monkeypatch, request, name):
    # the first scalars of the pool are roots of the sheared resultant on
    # these sets; from the top, the first test point decides, and the
    # witness (elimination variable and shear) is the one of index order
    check, t2 = _GENERIC_CHECKS[name]
    calls = []
    resultant = multipoly._univariate_resultant

    def counting(*args):
        calls.append(args)
        return resultant(*args)

    monkeypatch.setattr(multipoly, "_univariate_resultant", counting)
    v = check(request.getfixturevalue)
    assert v.geproci
    witness = v.certificate.coprimality
    assert (witness.variable, witness.shear) == ("x", ("x", "0", t2))
    assert len(calls) == 1


def test_random_mode_agrees_with_generic(P3F2):
    g = core.geproci_check(P3F2, 3, 5, mode="generic")
    for seed in (0, 1, 2):
        r = core.geproci_check(P3F2, 3, 5, mode="random", seed=seed, trials=1)
        assert r.geproci == g.geproci
        assert r.failure_bound is not None


def test_random_trial_t_samples_once_at_seed_plus_t_times_1000(P3F2):
    v = core.geproci_check(P3F2, 3, 5, mode="random", seed=4, trials=2)
    assert v.certificate.seed == 5000
    S = fatpoints.example_concurrent_nine(P3F2.field)
    assert fatpoints.scheme_geproci_check(S, 3, 3, mode="random", seed=2, trials=1).certificate.seed == 2000


def test_verdict_to_dict_roundtrips_to_json(P3F2):
    import json

    v = core.geproci_check(P3F2, 3, 5, mode="generic")
    blob = json.dumps(v.to_dict())
    assert "\"geproci\": true" in blob


def test_classify_half_grid(F2, P3F2):
    L = all_lines(F2)[0]
    Z = P3F2.minus(PointSet(F2, L.points(), 3))
    flags = core.classify(Z, 3, 4)
    assert flags.half_grid_cover and not flags.grid and not flags.degenerate


def test_classify_degenerate(F3):
    plane = [p for p in enumerate_projective_space(F3, 3) if p.reps[3] == 0][:12]
    flags = core.classify(PointSet(F3, plane, 3), 3, 4)
    assert flags.degenerate


def test_residual_line_removal(F2, P3F2):
    """Removing one line from P^3(F_2) via a shared degree-3 generator
    leaves a (4,3)-geproci residual of 12 points."""
    L = all_lines(F2)[0]
    Zp = PointSet(F2, L.points(), 3)
    res = core.residual_check(P3F2, Zp, alpha=5, gamma=1, beta=3)
    assert not res.degenerate_case
    assert res.shared_generator is not None
    assert res.verdict.geproci


def test_residual_subset_required(F2, P3F2, F3):
    Z3 = PointSet(F3, enumerate_projective_space(F3, 3), 3)
    other = PointSet(F3, list(Z3.points)[:3], 3)
    with pytest.raises(core.CoreError):
        core.residual_check(P3F2, other, 5, 1, 3)


def test_skew_line_cover(mps7_q3):
    Z = complement_points(mps7_q3)
    cover = core.skew_line_cover(Z, 4, 3)
    assert cover is not None and len(cover) == 4
    assert core.skew_line_cover(Z, 3, 4) is None  # no 4-point lines inside


def _random_line(ring, rng):
    """A nonzero linear form in x, y, z; over F_3[a,b,c] its coefficients
    have degree <= 1 in a, b, c."""
    while True:
        coeffs = []
        for _ in range(3):
            c = ring.const(rng.randrange(3))
            for g in ring.gens():
                c = c + g * ring.const(rng.randrange(3))
            coeffs.append(c)
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        line = multipoly.HomogeneousForm(ring, 3, 1, dict(zip(units, coeffs)))
        if not line.is_zero():
            return line


def _line_coeffs(line):
    zero = line.ring.zero()
    return [line.coeffs.get(e, zero) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _product_vanishes(prod, coords, direction):
    """The test on the expanded product: its value and, at a doubled point,
    its derivative along the direction."""
    if not scalar_is_zero(evaluate(prod, coords)):
        return False
    return direction is None or scalar_is_zero(
        multipoly.directional_derivative(prod, coords, direction))


@pytest.mark.parametrize("names", [(), ("a", "b", "c")])
def test_vanishes_on_factors_matches_the_expanded_product(F3, names):
    ring = ScalarRing(F3, names)
    rng = random.Random(11)

    def vector():
        return _line_coeffs(_random_line(ring, rng))

    seen = set()
    for _ in range(200):
        factors = [_random_line(ring, rng) for _ in range(rng.randint(1, 4))]
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        i, j = rng.randrange(len(factors)), rng.randrange(len(factors))
        # a point on none, one or two of the lines
        coords = rng.choice([
            vector(),
            _cross(_line_coeffs(factors[i]), vector()),
            _cross(_line_coeffs(factors[i]), _line_coeffs(factors[j])),
        ])
        # no direction, one along line i, or one across it
        direction = rng.choice([None, _cross(_line_coeffs(factors[i]), vector()), vector()])
        if all(scalar_is_zero(c) for c in coords) or (
                direction is not None and multipoly.proportional(coords, direction)):
            continue
        S = core.ProjectedScheme(ring, [(coords, direction)], None)
        expected = _product_vanishes(prod, coords, direction)
        assert core._vanishes_on(factors, S) == expected
        zeros = sum(scalar_is_zero(evaluate(f, coords)) for f in factors)
        seen.add((min(zeros, 2), direction is not None, expected))
    # every branch of the factor rule was taken
    assert seen >= {(0, False, False), (1, False, True), (2, False, True),
                    (0, True, False), (1, True, True), (1, True, False), (2, True, True)}


def test_vanishes_on_factors_refutes_an_extra_image_point(P3F2):
    S = core.project(P3F2, core.GeneralPoint.generic(P3F2.field))
    [(prod, lines)] = core.line_product_candidates(P3F2, S, 5)
    assert len(lines) == 5 and core._vanishes_on(lines, S)
    a, b, _ = S.ring.gens()
    extra = [S.ring.one(), a, b]
    assert not any(scalar_is_zero(evaluate(l, extra)) for l in lines)
    S.entries.append((extra, None))
    assert not core._vanishes_on(lines, S)
    assert not core._vanishes_on([prod], S)


def test_hints_are_tested_line_by_line(monkeypatch, P3F3):
    # the degree-10 product of a spread's lines vanishes on the projection
    # of PG(3,3); the hint filter evaluates only its lines and the degree-4
    # cone curve, while recheck evaluates the certificate's forms (the
    # product line by line, inside `evaluate`)
    degrees = []
    evaluate_ = core.evaluate

    def recording(f, point):
        degrees.append(f.degree)
        return evaluate_(f, point)

    monkeypatch.setattr(core, "evaluate", recording)
    v = core.geproci_check(P3F3, 4, 10, mode="generic")
    assert v.geproci and v.certificate.g.degree == 10
    assert degrees and max(degrees) <= 4
    degrees.clear()
    assert v.certificate.recheck(core.project(P3F3, core.GeneralPoint.generic(P3F3.field)))
    assert 10 in degrees
