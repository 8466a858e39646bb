"""The four benchmark workloads: their seeded inputs, their jobs and the
exact results each job must give.

Building a workload (`build`) is the set-up: fixture parsing, field
construction, point enumeration and seeded input generation.  A job is
one call into the library that a user would wait for; its check runs
after the timed pass and returns a list of problems (empty when correct).

Why these four:
  generic    conclusive certification over F_q(a,b,c): the function-field
             kernel and the sympy-backed gcd do nearly all the work.
  random     certification at a random point of F_{q^m}, q^m >= 2^31:
             prime-base tower arithmetic, extend_field, finite kernels and
             secant avoidance; no sympy, no RationalFunction.
  incidence  spreads and projective geometry only, no polynomials: the
             control for every algebra change, and where a search or
             memory change shows.
  cones      Frobenius cones in generic mode: tower-over-tower arithmetic
             (F_4 lifted to F_16) and RationalFunction evaluation, with no
             elimination and no gcd.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from geproci import cli, core, fatpoints, spreads
from geproci.cli import fixture_text
from geproci.fields import parse_field_spec
from geproci.projgeom import (
    PointSet,
    ProjectivePoint,
    enumerate_projective_space,
    matrix_rank,
    read_point_set,
)

EXPECTED_REPORTS = Path(__file__).resolve().parent / "expected_reports.json"

# Report fields left out of the comparison: those that differ between two
# runs of one command, the format version, and the certificate text, which
# a change may rescale by a unit; GeprociCertificate.recheck checks the
# certificates themselves.
_VOLATILE = {"seconds", "command", "timings", "schema", "forms", "coprimality"}


@dataclass
class Job:
    name: str
    sizes: dict
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    seed: int
    out_dir: Path
    jobs: list


def deterministic_fields(value):
    """A report with its run-dependent and certificate-text fields removed."""
    if isinstance(value, dict):
        return {k: deterministic_fields(v) for k, v in value.items() if k not in _VOLATILE}
    if isinstance(value, list):
        return [deterministic_fields(v) for v in value]
    return value


def _expect(label, got, want) -> list:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# seeded coordinate changes

def random_coordinate_change(F, rng: random.Random):
    """A uniformly drawn invertible 4x4 matrix over F, as rep rows."""
    while True:
        rows = [[F.index_to_rep(rng.randrange(F.size)) for _ in range(4)] for _ in range(4)]
        if matrix_rank(F, [list(r) for r in rows]) == 4:
            return rows


def _apply(F, M, p: ProjectivePoint) -> ProjectivePoint:
    coords = []
    for row in M:
        acc = F.zero_rep
        for m, x in zip(row, p.reps):
            acc = F.add_rep(acc, F.mul_rep(m, x))
        coords.append(acc)
    return ProjectivePoint(F, coords)


def move(Z, M):
    """Image of a point set or fat-point scheme under the matrix M."""
    F = Z.field
    if isinstance(Z, fatpoints.FatPointScheme):
        return fatpoints.FatPointScheme(
            F, [_apply(F, M, p) for p in Z.simple],
            [(_apply(F, M, a), _apply(F, M, b)) for a, b in Z.doubled], Z.dim)
    return PointSet(F, [_apply(F, M, p) for p in Z.points], 3)


def _size_of(Z) -> dict:
    if isinstance(Z, fatpoints.FatPointScheme):
        return {"field": Z.field.spec_string(), "length": Z.scheme_length()}
    return {"field": Z.field.spec_string(), "points": len(Z)}


# ---------------------------------------------------------------------------
# jobs

def _reproduce(wl: Workload, target: str, sizes: dict) -> Job:
    out = wl.out_dir / f"{target}.json"

    def run():
        return cli.main(["--out", str(out), "reproduce", target])

    def check(rc):
        problems = _expect("exit code", rc, 0)
        want = json.loads(EXPECTED_REPORTS.read_text())[target]
        with open(out) as fh:
            got = deterministic_fields(json.load(fh))
        for key, value in want.items():
            problems += _expect(f"report[{key!r}]", got.get(key), value)
        return problems

    return Job(f"reproduce:{target}", dict(sizes, target=target), run, check)


def _certify(name: str, Z, alpha: int, beta: int, mode: str, seed: int = 0) -> Job:
    is_scheme = isinstance(Z, fatpoints.FatPointScheme)

    def run():
        # looked up at call time, so the tracer's wrappers see the call
        check_fn = fatpoints.scheme_geproci_check if is_scheme else core.geproci_check
        return check_fn(Z, alpha, beta, mode=mode, seed=seed)

    def check(v):
        return (_expect("geproci", v.geproci, True)
                + _expect("degrees", [v.certificate.f.degree, v.certificate.g.degree]
                          if v.certificate else None, [alpha, beta])
                + _expect("certificate length", v.certificate.length if v.certificate
                          else None, alpha * beta))

    sizes = dict(_size_of(Z), degrees=[alpha, beta], mode=mode)
    if mode == "random":
        sizes["seed"] = seed
    return Job(name, sizes, run, check)


def _cone_dim(P3, d: int, expected) -> Job:
    def run():
        return core.unexpected_cone_dim(P3, d, core.GeneralPoint.generic(P3.field))

    def check(result):
        lhs, rhs, unexpected = result
        return _expect(f"unexpected_cone_dim d={d}", (lhs, rhs, unexpected), expected)

    return Job(f"unexpected_cone_dim:d={d}", dict(_size_of(P3), degree=d), run, check)


def _space(spec: str) -> PointSet:
    F = parse_field_spec(spec)
    return PointSet(F, enumerate_projective_space(F, 3), 3)


def _mps_complement():
    return spreads.complement_points(spreads.read_spread(fixture_text("mps7-q3.spread")))


def _forty():
    return read_point_set(fixture_text("complement-40-q7.points"))


def build_generic(wl: Workload):
    P3F2, P3F3 = _space("p=2"), _space("p=3")
    return [
        _reproduce(wl, "thm1-q2", {"field": "p=2", "points": 15, "degrees": [3, 5]}),
        _reproduce(wl, "mps-q3", {"field": "p=3", "points": 12, "degrees": [3, 4]}),
        _reproduce(wl, "fatpoint-ex7", {"field": "p=2", "length": 9, "degrees": [3, 3]}),
        _certify("geproci_check:PG(3,3)", P3F3, 4, 10, "generic"),
        _cone_dim(P3F2, 3, (1, 0, True)),
        _cone_dim(P3F2, 4, (3, 0, True)),
    ]


def build_random(wl: Workload):
    rng = random.Random(wl.seed)
    inputs = [
        ("40pt-q7", _forty(), 5, 8),
        ("mps-q3-complement", _mps_complement(), 3, 4),
        ("PG(3,3)", _space("p=3"), 4, 10),
        ("concurrent-nine", fatpoints.read_scheme(fixture_text("concurrent-nine-q2.scheme")), 3, 3),
    ]
    jobs = [_reproduce(wl, "ex-40pt-q7", {"field": "p=7", "points": 40, "degrees": [5, 8],
                                          "seeds": [0, 1, 2], "trials": 3})]
    for label, Z, a, b in inputs:
        moved = move(Z, random_coordinate_change(Z.field, rng))
        jobs.append(_certify(f"geproci_check:{label}:moved", moved, a, b, "random", wl.seed))
    return jobs


def build_incidence(wl: Workload):
    F3 = parse_field_spec("p=3")
    regular_fields = [parse_field_spec(f"p={q}") for q in (2, 3, 5, 7)]
    Z12, Z40 = _mps_complement(), _forty()
    state = {}  # the search result, which the fingerprint job reads

    def search():
        state["search"] = spreads.search_maximal_partial_spreads(
            F3, sizes=[7, 8, 9], mode="exhaustive")
        return state["search"]

    def check_search(res):
        return (_expect("truncated", res.truncated, False)
                + _expect("sizes", sorted({len(S.lines) for S in res.spreads}), [7])
                + _expect("spreads found", len(res.spreads), 168480)
                + _expect("anomalies", len(res.anomalies), 0))

    def fingerprints():
        return {spreads.spread_fingerprint(S) for S in state["search"].spreads}

    def regular():
        out = []
        for F in regular_fields:
            S = spreads.build_regular_spread(F)
            rep = spreads.verify_spread(S)
            out.append((F.size, len(S.lines), rep.clean, len(S.point_cover())))
        return out

    def check_regular(rows):
        return _expect("regular spreads (q, size, clean, covered)", rows,
                       [(q, q * q + 1, True, (q + 1) * (q * q + 1)) for q in (2, 3, 5, 7)])

    def classify():
        return core.classify(Z12, 3, 4).to_dict(), core.classify(Z40, 5, 8).to_dict()

    def check_classify(flags):
        half, nontrivial = flags
        return (_expect("mps-q3 complement flags", half, {
                    "degenerate": False, "grid": False, "half_grid_cover": True,
                    "nontrivial": False})
                + _expect("40-point flags", nontrivial, {
                    "degenerate": False, "grid": False, "half_grid_cover": False,
                    "nontrivial": True}))

    return [
        Job("search_maximal_partial_spreads:q=3", {"field": "p=3", "lines": 130,
                                                   "sizes": [7, 8, 9]}, search, check_search),
        Job("spread_fingerprint:all", {"field": "p=3", "spreads": 168480}, fingerprints,
            lambda fps: _expect("fingerprint classes", len(fps), 1)),
        Job("regular_spreads:q=2,3,5,7", {"fields": ["p=2", "p=3", "p=5", "p=7"]},
            regular, check_regular),
        Job("classify:mps-q3,40pt", {"points": [12, 40], "degrees": [[3, 4], [5, 8]]},
            classify, check_classify),
    ]


def build_cones(wl: Workload):
    jobs = []
    for spec, q, nlines in (("p=2", 2, 35), ("p=3", 3, 130), ("p=2;ext=2", 4, 357)):
        F = parse_field_spec(spec)

        def run(F=F):
            P = core.GeneralPoint.generic(F)
            cone = core.frobenius_cone(F, P)
            member = core.frobenius_membership_check(F, P)
            trans = core.cone_line_transversality(cone, F)
            return cone.degree, member, trans.total, len(trans.violations)

        def check(result, q=q, nlines=nlines):
            return _expect("(degree, membership, lines, violations)", result,
                           (q + 1, True, nlines, 0))

        jobs.append(Job(f"frobenius_cone:q={q}", {"field": spec, "degree": q + 1,
                                                  "lines": nlines}, run, check))
    return jobs


WORKLOAD_JOBS = {
    "generic": build_generic,
    "random": build_random,
    "incidence": build_incidence,
    "cones": build_cones,
}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    os.makedirs(out_dir, exist_ok=True)
    wl = Workload(seed, out_dir, [])
    wl.jobs = WORKLOAD_JOBS[name](wl)
    return wl
