"""Fat-point schemes: simple points plus points infinitely near a support
along a declared line, in the multiplicity-2 sense I(L) + I(A)^2.

A doubled point imposes two linear conditions in every degree: vanishing
at the support, and vanishing of the directional derivative along the
declared line.  In characteristic 2 the derivative of any square is zero,
which is what makes the strange-conic examples work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .multipoly import (
    EvaluationMatrix,
    HomogeneousForm,
    ScalarRing,
    condition_matrix,
    derivative_row,
    evaluation_row,
    form_value,
    scalar_is_zero,
)
from .projgeom import (
    GeometryError,
    PointSet,
    ProjectivePoint,
    _format_coord,
    _parse_point,
    _read_header,
)


class SchemeError(Exception):
    pass


class FatPointScheme:
    """Simple points plus (support, direction) doubled points."""

    def __init__(self, field, simple, doubled, dim: int = 3):
        self.field = field
        self.dim = dim
        self.simple = tuple(simple)
        self.doubled = tuple(doubled)
        for A, B in self.doubled:
            if A == B:
                raise SchemeError("support and direction points must be distinct")
        listed = self.simple + tuple(A for A, _ in self.doubled)
        if len(set(listed)) != len(listed):
            raise SchemeError("a point is listed twice (as simple or doubled points)")

    def scheme_length(self) -> int:
        return len(self.simple) + 2 * len(self.doubled)

    def as_projection_entries(self):
        out = [(p, None) for p in self.simple]
        out.extend((A, B) for A, B in self.doubled)
        return out

    def support_points(self) -> PointSet:
        pts = list(self.simple)
        for A, B in self.doubled:
            pts.extend((A, B))
        return PointSet(self.field, pts, self.dim)

    def condition_rows(self, degree: int, ring: Optional[ScalarRing] = None) -> EvaluationMatrix:
        """One row per simple point, two per doubled point."""
        if degree < 1:
            raise SchemeError("degree must be >= 1")
        return condition_matrix(ring or ScalarRing(self.field), self.as_projection_entries(),
                                degree, self.dim + 1)

    def __repr__(self):
        return (
            f"<FatPointScheme dim={self.dim} simple={len(self.simple)} "
            f"doubled={len(self.doubled)} length={self.scheme_length()}>"
        )


def scheme_geproci_check(S: FatPointScheme, alpha: int, beta: int, mode: str = "generic",
                         trials: int = 3, seed: int = 0):
    """CI certification of the projected scheme, lengths with multiplicity."""
    from .core import geproci_check

    return geproci_check(S, alpha, beta, mode=mode, trials=trials, seed=seed)


def concurrent_tangents_check(conic: HomogeneousForm, points, focus) -> bool:
    """Do the conic's tangent lines at the given points all pass through
    `focus`?  True exactly in the strange-point situation of char 2.

    `points` may be a FatPointScheme (its doubled supports are used) or an
    iterable of plane points.  Points off the conic fail the check.
    """
    if isinstance(points, FatPointScheme):
        pts = [A for A, _ in points.doubled]
    else:
        pts = list(points)
    ring = conic.ring
    monos = list(conic.coeffs)
    fc = ring.coerce_point_coords(focus)
    for p in pts:
        coords = ring.coerce_point_coords(p)
        # p is on the conic, and its tangent line passes through the focus
        rows = (evaluation_row(ring, coords, monos), derivative_row(ring, coords, fc, monos))
        if any(not scalar_is_zero(form_value(conic, row)) for row in rows):
            return False
    return True


# ---------------------------------------------------------------------------
# scheme file format

def write_scheme(S: FatPointScheme) -> str:
    out = [f"field: {S.field.spec_string()}; dim: {S.dim}"]
    for p in S.simple:
        out.append("simple: " + ",".join(_format_coord(S.field, r) for r in p.reps))
    for A, B in S.doubled:
        out.append(
            "double: "
            + ",".join(_format_coord(S.field, r) for r in A.reps)
            + " | toward: "
            + ",".join(_format_coord(S.field, r) for r in B.reps)
        )
    return "\n".join(out) + "\n"


def read_scheme(text: str) -> FatPointScheme:
    field, dim, body = _read_header(text, "scheme")
    if dim is None:
        raise GeometryError("header must declare 'dim:'")
    simple = []
    doubled = []
    for ln in body:
        if ln.startswith("simple:"):
            simple.append(_parse_point(field, dim, ln.split(":", 1)[1].strip()))
        elif ln.startswith("double:"):
            left, _, right = ln.split(":", 1)[1].partition("|")
            if "toward:" not in right:
                raise GeometryError("doubled point needs a '| toward:' part")
            A = _parse_point(field, dim, left.strip())
            B = _parse_point(field, dim, right.split(":", 1)[1].strip())
            doubled.append((A, B))
        else:
            raise GeometryError(f"unrecognized scheme line: {ln!r}")
    return FatPointScheme(field, simple, doubled, dim)


# ---------------------------------------------------------------------------
# the characteristic-2 example schemes

def example_concurrent_nine(field) -> FatPointScheme:
    """Four doubled frame points toward (1,1,1,1), plus (1,1,1,1); length 9."""
    if field.char != 2:
        raise SchemeError("this scheme needs characteristic 2")
    P = lambda *c: ProjectivePoint(field, list(c))
    e = [P(1, 0, 0, 0), P(0, 1, 0, 0), P(0, 0, 1, 0), P(0, 0, 0, 1)]
    hub = P(1, 1, 1, 1)
    return FatPointScheme(field, [hub], [(p, hub) for p in e], 3)


def example_strange_conic_six(field) -> FatPointScheme:
    """Three doubled frame points toward (0,0,0,1); length 6."""
    if field.char != 2:
        raise SchemeError("this scheme needs characteristic 2")
    P = lambda *c: ProjectivePoint(field, list(c))
    hub = P(0, 0, 0, 1)
    supports = [P(1, 0, 0, 0), P(0, 1, 0, 0), P(0, 0, 1, 0)]
    return FatPointScheme(field, [], [(p, hub) for p in supports], 3)


def example_cuspidal_nine(field) -> FatPointScheme:
    """Four doubled points toward (0,0,0,1), plus (0,0,0,1) itself; length 9."""
    if field.char != 2:
        raise SchemeError("this scheme needs characteristic 2")
    P = lambda *c: ProjectivePoint(field, list(c))
    hub = P(0, 0, 0, 1)
    supports = [P(1, 0, 0, 0), P(1, 1, 0, 0), P(0, 1, 0, 0), P(0, 0, 1, 0)]
    return FatPointScheme(field, [hub], [(p, hub) for p in supports], 3)
