"""General projections, Frobenius cones, unexpectedness, certification."""
import random

import pytest

from geproci import core, fatpoints
from geproci.fields import extend_field, parse_field_spec
from geproci.multipoly import evaluate, scalar_is_zero, ScalarRing
from geproci.projgeom import (
    PointSet,
    ProjectivePoint,
    all_lines,
    collinear_subsets,
    enumerate_projective_space,
    matrix_rank,
)
from geproci.spreads import complement_points


def test_generic_point_shape(F2):
    P = core.GeneralPoint.generic(F2)
    assert P.mode == "generic"
    a, b, c, w = P.coords
    assert w == P.ring.one()


def test_random_point_avoids_secants(F2, P3F2):
    P = core.GeneralPoint.random(F2, seed=0, avoid=P3F2)
    assert P.m >= 31  # 2^m >= 2^31
    S = core.project(P3F2, P)  # would raise CollisionDetected on a secant
    assert S.length == 15


def _rank_on_line(p, line, E):
    rows = [[E.lift_rep(line.field, c) for c in row] for row in line.rows]
    return matrix_rank(E, rows + [list(p.reps)]) == 2


def test_on_line_agrees_with_rank_test(forty_points_q7):
    Z = forty_points_q7
    F = Z.field
    E = extend_field(F, 12)
    secants = collinear_subsets(Z, 2)
    rng = random.Random(5)
    for _ in range(3):
        p = ProjectivePoint(E, [E.from_index(rng.randrange(E.size)) for _ in range(3)] + [1])
        for line, (u, v, *_) in secants:
            assert core._on_secant(p, u, v, E) == _rank_on_line(p, line, E)
    # points built on a secant are on it; in E and in the line's own field
    for line, (u, v, *_) in secants[::10]:
        r0, r1 = ([E.lift_rep(F, c) for c in row] for row in line.rows)
        for _ in range(3):
            s, t = (E.index_to_rep(rng.randrange(1, E.size)) for _ in range(2))
            p = ProjectivePoint(E, [E.add_rep(E.mul_rep(s, x), E.mul_rep(t, y))
                                    for x, y in zip(r0, r1)])
            assert core._on_secant(p, u, v, E) and _rank_on_line(p, line, E)
        for p in Z.points:
            assert core._on_secant(p, u, v, F) == _rank_on_line(p, line, F)
        assert sum(core._on_secant(p, u, v, F) for p in line.points()) == F.size + 1


def test_on_line_over_a_tower_base(F4):
    Z = PointSet(F4, list(enumerate_projective_space(F4, 3))[:12], 3)
    E = extend_field(F4, 3)
    rng = random.Random(2)
    for line, (u, v, *_) in collinear_subsets(Z, 2):
        r0, r1 = ([E.lift_rep(F4, c) for c in row] for row in line.rows)
        s, t = (E.index_to_rep(rng.randrange(1, E.size)) for _ in range(2))
        on = ProjectivePoint(E, [E.add_rep(E.mul_rep(s, x), E.mul_rep(t, y))
                                 for x, y in zip(r0, r1)])
        off = ProjectivePoint(E, [E.from_index(rng.randrange(E.size)) for _ in range(3)] + [1])
        for p in (on, off):
            assert core._on_secant(p, u, v, E) == _rank_on_line(p, line, E)
        assert core._on_secant(on, u, v, E)


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


@pytest.mark.parametrize("spec,q", [("p=2", 2), ("p=3", 3), ("p=2;ext=2", 4)])
def test_frobenius_cone_vanishes_and_membership(spec, q):
    F = parse_field_spec(spec)
    P = core.GeneralPoint.generic(F)
    cone = core.frobenius_cone(F, P)
    assert cone.degree == q + 1
    for pt in enumerate_projective_space(F, 3):
        assert scalar_is_zero(evaluate(cone, P.ring.coerce_point_coords(pt)))
    assert core.frobenius_membership_check(F, P)


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


def test_random_mode_agrees_with_generic(P3F2):
    g = core.geproci_check(P3F2, 3, 5, mode="generic")
    for seed in (0, 1, 2):
        r = core.geproci_check(P3F2, 3, 5, mode="random", seed=seed, trials=1)
        assert r.geproci == g.geproci
        assert r.failure_bound is not None


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
