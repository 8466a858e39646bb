"""Fat-point schemes with infinitely-near multiplicity-2 structure."""
import pytest

from geproci import fatpoints as fp
from geproci.fields import parse_field_spec
from geproci.multipoly import (
    HomogeneousForm,
    ScalarRing,
    hilbert_value,
    kernel_of_conditions,
    scalar_is_zero,
)
from geproci.projgeom import ProjectivePoint


def _pt(F, *coords):
    return ProjectivePoint(F, list(coords))


def test_scheme_length_and_rows(F2):
    S = fp.example_concurrent_nine(F2)
    assert S.scheme_length() == 9
    mat = S.condition_rows(3)
    assert len(mat.rows) == 1 + 2 * 4  # one per simple, two per doubled
    assert mat.ncols == 20


def test_support_and_direction_must_differ(F2):
    p = _pt(F2, 1, 0, 0, 0)
    with pytest.raises(fp.SchemeError):
        fp.FatPointScheme(F2, [], [(p, p)], 3)


@pytest.mark.parametrize("shape", ["simple and doubled", "doubled twice"])
def test_a_point_listed_twice_is_rejected(F2, shape):
    A, B, C = _pt(F2, 1, 0, 0, 0), _pt(F2, 0, 1, 0, 0), _pt(F2, 0, 0, 1, 0)
    simple, doubled = ([A], [(A, B)]) if shape == "simple and doubled" else ([], [(A, B), (A, C)])
    with pytest.raises(fp.SchemeError, match="listed twice"):
        fp.FatPointScheme(F2, simple, doubled, 3)


def test_infinitesimal_conditions_distinguish_direction(F2):
    """Two schemes with the same supports but different directions have
    different cubic kernels."""
    e1, e2 = _pt(F2, 1, 0, 0, 0), _pt(F2, 0, 1, 0, 0)
    hub1, hub2 = _pt(F2, 1, 1, 1, 1), _pt(F2, 0, 0, 1, 1)
    A = fp.FatPointScheme(F2, [], [(e1, hub1), (e2, hub1)], 3)
    B = fp.FatPointScheme(F2, [], [(e1, hub2), (e2, hub2)], 3)
    assert hilbert_value(A, 2) == hilbert_value(B, 2)  # same counts...
    ka = {f.serialize() for f in kernel_of_conditions(A.condition_rows(2)).forms}
    kb = {f.serialize() for f in kernel_of_conditions(B.condition_rows(2)).forms}
    assert ka != kb  # ...but different ideals


def test_concurrent_nine_is_33_geproci(F2):
    S = fp.example_concurrent_nine(F2)
    assert hilbert_value(S, 3) == 11
    v = fp.scheme_geproci_check(S, 3, 3, mode="generic")
    assert v.geproci


def test_strange_conic_six_is_23_geproci(F2):
    S = fp.example_strange_conic_six(F2)
    assert S.scheme_length() == 6
    v = fp.scheme_geproci_check(S, 2, 3, mode="generic")
    assert v.geproci


def test_strange_conic_quadric_cone_in_kernel(F2):
    """c xy + b xz + a yz + ab w^2 vanishes doubly on the scheme: the w
    derivative of w^2 is zero in characteristic 2."""
    S = fp.example_strange_conic_six(F2)
    ring = ScalarRing(F2, names=("a", "b", "c"))
    a, b, c = ring.gens()
    mat = S.condition_rows(2, ring)
    quadric = HomogeneousForm(ring, 4, 2, {
        (1, 1, 0, 0): c, (1, 0, 1, 0): b, (0, 1, 1, 0): a, (0, 0, 0, 2): a * b,
    })
    vec = quadric.coeff_vector(mat.monos)
    for row in mat.rows:
        total = ring.zero()
        for r, v in zip(row, vec):
            total = total + r * v
        assert scalar_is_zero(total)


def test_cuspidal_nine_is_33_geproci(F2):
    S = fp.example_cuspidal_nine(F2)
    v = fp.scheme_geproci_check(S, 3, 3, mode="generic")
    assert v.geproci


def test_scheme_random_mode_agrees(F2):
    S = fp.example_concurrent_nine(F2)
    for seed in (0, 1):
        v = fp.scheme_geproci_check(S, 3, 3, mode="random", seed=seed, trials=1)
        assert v.geproci


def test_concurrent_tangents_char2_vs_char3(F2, F3):
    for F, expected in ((F2, True), (F3, False)):
        ring = ScalarRing(F)
        one = F.from_index(1)
        conic = HomogeneousForm(ring, 3, 2,
                                {(1, 1, 0): one, (1, 0, 1): one, (0, 1, 1): one})
        pts = [_pt(F, 1, 0, 0), _pt(F, 0, 1, 0), _pt(F, 0, 0, 1)]
        assert fp.concurrent_tangents_check(conic, pts, _pt(F, 1, 1, 1)) is expected


def test_concurrent_tangents_point_off_conic_fails(F2):
    ring = ScalarRing(F2)
    one = F2.from_index(1)
    conic = HomogeneousForm(ring, 3, 2,
                            {(1, 1, 0): one, (1, 0, 1): one, (0, 1, 1): one})
    assert not fp.concurrent_tangents_check(conic, [_pt(F2, 1, 1, 1)], _pt(F2, 1, 1, 1))


def test_scheme_accepts_scheme_argument_for_tangents(F2):
    ring = ScalarRing(F2)
    one = F2.from_index(1)
    conic = HomogeneousForm(ring, 3, 2,
                            {(1, 1, 0): one, (1, 0, 1): one, (0, 1, 1): one})
    hub3 = _pt(F2, 1, 1, 1)
    S = fp.FatPointScheme(F2, [], [
        (_pt(F2, 1, 0, 0), hub3), (_pt(F2, 0, 1, 0), hub3), (_pt(F2, 0, 0, 1), hub3),
    ], 2)
    assert fp.concurrent_tangents_check(conic, S, hub3)


def test_scheme_file_roundtrip(F2):
    S = fp.example_cuspidal_nine(F2)
    text = fp.write_scheme(S)
    back = fp.read_scheme(text)
    assert back.scheme_length() == S.scheme_length()
    assert fp.write_scheme(back) == text


def test_scheme_file_rejects_garbage(F2):
    with pytest.raises(Exception):
        fp.read_scheme("field: p=2; dim: 3\ntriple: 1,0,0,0\n")


def test_examples_require_char_2(F3):
    with pytest.raises(fp.SchemeError):
        fp.example_concurrent_nine(F3)
