"""Command-line front end: file I/O, JSON run reports, and named
end-to-end reproduction targets."""
from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from . import core, fatpoints, spreads
from .fields import field_degree_over_prime, parse_field_spec
from .multipoly import HomogeneousForm, ScalarRing, hilbert_value
from .projgeom import (
    PointSet,
    ProjectivePoint,
    collinear_classes,
    collinear_subsets,
    enumerate_projective_space,
    read_point_set,
    write_point_set,
)


def fixture_text(name: str) -> str:
    return (resources.files("geproci") / "fixtures" / name).read_text()


def _load_points(path: str) -> PointSet:
    with open(path) as fh:
        return read_point_set(fh.read())


def _default_mode(field) -> str:
    # the F_q[a,b,c] elimination cost of generic mode grows quickly with q
    return "generic" if field.size <= 3 else "random"


class RunReport:
    """Deterministic, JSON-serializable record of one command."""

    def __init__(self, argv):
        self.data = {"schema": 1, "command": list(argv), "anomalies": []}
        self._t0 = time.monotonic()

    def __setitem__(self, key, value):
        self.data[key] = value

    def anomaly(self, text: str):
        self.data["anomalies"].append(text)

    def finish(self, out_path=None):
        self.data["seconds"] = round(time.monotonic() - self._t0, 3)
        if out_path:
            with open(out_path, "w") as fh:
                json.dump(self.data, fh, indent=2, sort_keys=True)
                fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_field_info(args, report):
    F = parse_field_spec(args.field)
    info = {
        "spec": F.spec_string(),
        "characteristic": F.char,
        "size": F.size,
        "degree_over_prime": field_degree_over_prime(F),
    }
    report["field"] = info
    for k, v in info.items():
        print(f"{k}: {v}")


def cmd_enumerate(args, report):
    F = parse_field_spec(args.field)
    pts = enumerate_projective_space(F, args.dim)
    Z = PointSet(F, pts, args.dim)
    text = write_point_set(Z)
    report["field"] = F.spec_string()
    report["count"] = len(pts)
    print(text, end="")
    print(f"# {len(pts)} points", file=sys.stderr)


def cmd_spread_build(args, report):
    F = parse_field_spec(args.field)
    S = spreads.build_regular_spread(F)
    rep = spreads.verify_spread(S)
    report["field"] = F.spec_string()
    report["size"] = len(S.lines)
    report["clean"] = rep.clean
    if not rep.clean:
        report.anomaly("regular spread failed verification")
    print(spreads.write_spread(S), end="")
    print(f"# {len(S.lines)} lines, verified={rep.clean}", file=sys.stderr)


def cmd_spread_search(args, report):
    F = parse_field_spec(args.field)
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else None
    res = spreads.search_maximal_partial_spreads(
        F, sizes=sizes, mode=args.mode, seed=args.seed, node_budget=args.node_budget
    )
    report["field"] = F.spec_string()
    report["found"] = len(res.spreads)
    report["nodes"] = res.nodes
    report["truncated"] = res.truncated
    report["sizes"] = sorted({len(s.lines) for s in res.spreads})
    for a in res.anomalies:
        report.anomaly(str(a))
    print(f"found {len(res.spreads)} maximal partial spreads "
          f"(sizes {report.data['sizes']}), {res.nodes} nodes, "
          f"truncated={res.truncated}")
    if res.spreads and args.save:
        with open(args.save, "w") as fh:
            fh.write(spreads.write_spread(res.spreads[0]))
        print(f"first witness written to {args.save}")


def cmd_spread_verify(args, report):
    with open(args.file) as fh:
        S = spreads.read_spread(fh.read())
    rep = spreads.verify_spread(S)
    maximal = S.check_maximality()
    report["field"] = S.field.spec_string()
    report["size"] = len(S.lines)
    report["deficiency"] = S.deficiency
    report["clean"] = rep.clean
    report["maximal"] = maximal
    report["fingerprint"] = [list(part) for part in spreads.spread_fingerprint(S)]
    print(f"{len(S.lines)} lines, deficiency {S.deficiency}, "
          f"pairwise-skew and simply covering: {rep.clean}, maximal: {maximal}")


def cmd_complement(args, report):
    with open(args.file) as fh:
        S = spreads.read_spread(fh.read())
    Z = spreads.complement_points(S)
    report["field"] = S.field.spec_string()
    report["count"] = len(Z.points)
    print(write_point_set(Z), end="")
    if args.save:
        with open(args.save, "w") as fh:
            fh.write(write_point_set(Z))


def _check_args_mode(args, field):
    return args.mode or _default_mode(field)


def cmd_geproci_check(args, report):
    Z = _load_points(args.file)
    mode = _check_args_mode(args, Z.field)
    v = core.geproci_check(Z, args.alpha, args.beta, mode=mode,
                           trials=args.trials, seed=args.seed)
    report["field"] = Z.field.spec_string()
    report["verdict"] = v.to_dict()
    report["mode"] = mode
    report["seed"] = args.seed
    print(f"({args.alpha},{args.beta})-geproci: {v.geproci}  [{mode}] {v.reason}")
    if v.failure_bound:
        print(f"failure bound: {v.failure_bound}")


def cmd_geproci_classify(args, report):
    Z = _load_points(args.file)
    flags = core.classify(Z, args.alpha, args.beta)
    report["field"] = Z.field.spec_string()
    report["classification"] = flags.to_dict()
    for k, v in flags.to_dict().items():
        print(f"{k}: {v}")


def cmd_cones_frobenius(args, report):
    F = parse_field_spec(args.field)
    P = core.GeneralPoint.generic(F)
    cone = core.frobenius_cone(F, P)
    membership = core.frobenius_membership_check(F, P)
    trans = core.cone_line_transversality(cone, F)
    van = True
    from .multipoly import evaluate, scalar_is_zero

    for pt in enumerate_projective_space(F, 3):
        coords = P.ring.coerce_point_coords(pt)
        if not scalar_is_zero(evaluate(cone, coords)):
            van = False
            break
    report["field"] = F.spec_string()
    report["degree"] = cone.degree
    report["vanishes_on_rational_points"] = van
    report["membership_identity"] = membership
    report["lines_checked"] = trans.total
    report["transversality_violations"] = len(trans.violations)
    if trans.violations:
        report.anomaly("transversality violations found")
    print(f"degree {cone.degree} cone; vanishes on all rational points: {van}; "
          f"I(P)^(q+1) membership identity: {membership}; "
          f"transversal on {trans.total - len(trans.violations)}/{trans.total} lines")


def cmd_cones_dim(args, report):
    Z = _load_points(args.file)
    P = core.GeneralPoint.generic(Z.field)
    lhs, rhs, unexpected = core.unexpected_cone_dim(Z, args.degree, P)
    report["field"] = Z.field.spec_string()
    report["degree"] = args.degree
    report["lhs"] = lhs
    report["rhs"] = rhs
    report["unexpected"] = unexpected
    print(f"degree {args.degree}: dim = {lhs}, expected dim = {rhs}, "
          f"unexpected: {unexpected}")


def cmd_cones_inequality(args, report):
    qs = [int(s) for s in args.q.split(",")]
    rows = []
    for q in qs:
        lhs, rhs, holds = core.unexpectedness_inequality(q)
        rows.append({"q": q, "lhs": lhs, "rhs": rhs, "holds": holds})
        print(f"q={q}: {lhs} > {rhs} is {holds}")
    report["inequality"] = rows


def cmd_hilbert(args, report):
    Z = _load_points(args.file)
    val = hilbert_value(Z, args.degree)
    report["field"] = Z.field.spec_string()
    report["degree"] = args.degree
    report["value"] = val
    print(f"dim [I(Z)]_{args.degree} = {val}")


def cmd_scheme_check(args, report):
    with open(args.file) as fh:
        S = fatpoints.read_scheme(fh.read())
    mode = _check_args_mode(args, S.field)
    v = fatpoints.scheme_geproci_check(S, args.alpha, args.beta, mode=mode,
                                       trials=args.trials, seed=args.seed)
    report["field"] = S.field.spec_string()
    report["length"] = S.scheme_length()
    report["verdict"] = v.to_dict()
    report["mode"] = mode
    print(f"scheme length {S.scheme_length()}; "
          f"({args.alpha},{args.beta})-geproci: {v.geproci}  [{mode}] {v.reason}")


# ---------------------------------------------------------------------------
# reproduction targets

def _reproduce_thm1_q2(report):
    F = parse_field_spec("p=2")
    Z = PointSet(F, enumerate_projective_space(F, 3), 3)
    v = core.geproci_check(Z, 3, 5, mode="generic")
    report["points"] = len(Z.points)
    report["verdict"] = v.to_dict()
    print(f"P^3(F_2): {len(Z.points)} points, (3,5)-geproci: {v.geproci}")


def _reproduce_mps_q3(report):
    S = spreads.read_spread(fixture_text("mps7-q3.spread"))
    rep = spreads.verify_spread(S)
    Z = spreads.complement_points(S)
    triples = [t for t in collinear_subsets(Z, 3) if len(t[1]) == 3]
    v = core.geproci_check(Z, 3, 4, mode="generic")
    flags = core.classify(Z, 3, 4)
    report["spread_size"] = len(S.lines)
    report["spread_clean"] = rep.clean
    report["spread_maximal"] = S.check_maximality()
    report["complement_points"] = len(Z.points)
    report["collinear_triples"] = len(triples)
    report["verdict"] = v.to_dict()
    report["classification"] = flags.to_dict()
    print(f"7-line maximal partial spread verified: {rep.clean and S.check_maximality()}")
    print(f"complement: {len(Z.points)} points, {len(triples)} collinear triples, "
          f"(3,4)-geproci: {v.geproci}, half grid: {flags.half_grid_cover}")


def _reproduce_ex_40pt_q7(report):
    Z = read_point_set(fixture_text("complement-40-q7.points"))
    F = Z.field
    report["points"] = len(Z.points)
    report["hilbert_4"] = hilbert_value(Z, 4)
    max_meet = max(map(len, collinear_classes(Z)))
    comp = enumerate_projective_space(F, 3).minus(Z)
    part = spreads.partition_into_lines(comp)
    if isinstance(part, spreads.NoPartition):
        report.anomaly(f"complement does not partition into lines: {part.reason}")
        report["complement_spread_size"] = 0
    else:
        sp = spreads.PartialSpread(F, list(part), maximal=True)
        srep = spreads.verify_spread(sp)
        report["complement_spread_size"] = len(sp.lines)
        report["complement_spread_clean"] = srep.clean
        report["complement_spread_maximal"] = sp.check_maximality()
    report["max_line_meet"] = max_meet
    verdicts = []
    for seed in (0, 1, 2):
        v = core.geproci_check(Z, 5, 8, mode="random", seed=seed)
        verdicts.append(v.to_dict())
        print(f"seed {seed}: (5,8)-geproci: {v.geproci}  ({v.failure_bound})")
    report["verdicts"] = verdicts
    print(f"hilbert_value(Z,4) = {report.data['hilbert_4']}, "
          f"complement partitions into "
          f"{report.data['complement_spread_size']} skew lines, "
          f"no line meets Z in more than {max_meet} points")


def _reproduce_fatpoint_ex7(report):
    S = fatpoints.read_scheme(fixture_text("concurrent-nine-q2.scheme"))
    F = S.field
    v = fatpoints.scheme_geproci_check(S, 3, 3, mode="generic")
    h3 = hilbert_value(S, 3)
    ring = ScalarRing(F)
    one = F.one()
    conic = HomogeneousForm(ring, 3, 2, {(1, 1, 0): one, (1, 0, 1): one, (0, 1, 1): one})
    frame = [ProjectivePoint(F, [1, 0, 0]), ProjectivePoint(F, [0, 1, 0]),
             ProjectivePoint(F, [0, 0, 1])]
    focus = ProjectivePoint(F, [1, 1, 1])
    concurrent = fatpoints.concurrent_tangents_check(conic, frame, focus)
    report["length"] = S.scheme_length()
    report["hilbert_3"] = h3
    report["verdict"] = v.to_dict()
    report["concurrent_tangents"] = concurrent
    print(f"length-9 scheme: (3,3)-geproci: {v.geproci}, dim [I(Z)]_3 = {h3}, "
          f"tangents of xy+xz+yz concurrent at (1,1,1): {concurrent}")


REPRODUCE = {
    "thm1-q2": _reproduce_thm1_q2,
    "mps-q3": _reproduce_mps_q3,
    "ex-40pt-q7": _reproduce_ex_40pt_q7,
    "fatpoint-ex7": _reproduce_fatpoint_ex7,
}


def cmd_reproduce(args, report):
    report["target"] = args.target
    REPRODUCE[args.target](report)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="geproci",
                                description="Exact finite-geometry toolkit for PG(3,q)")
    p.add_argument("--out", help="write a JSON run report to this path")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("field-info", help="describe a field spec")
    sp.add_argument("--field", required=True)
    sp.set_defaults(func=cmd_field_info)

    sp = sub.add_parser("enumerate", help="list the points of P^n(F_q)")
    sp.add_argument("--field", required=True)
    sp.add_argument("--dim", type=int, default=3)
    sp.set_defaults(func=cmd_enumerate)

    spread = sub.add_parser("spread", help="spread operations").add_subparsers(
        dest="subcmd", required=True)
    sp = spread.add_parser("build", help="build the regular spread")
    sp.add_argument("--field", required=True)
    sp.set_defaults(func=cmd_spread_build)
    sp = spread.add_parser("search", help="search maximal partial spreads")
    sp.add_argument("--field", required=True)
    sp.add_argument("--sizes", help="comma-separated size filter")
    sp.add_argument("--mode", choices=["first", "exhaustive", "sample"],
                    default="exhaustive")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--node-budget", type=int, default=10 ** 8)
    sp.add_argument("--save", help="write the first witness to this path")
    sp.set_defaults(func=cmd_spread_search)
    sp = spread.add_parser("verify", help="verify a spread file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_spread_verify)

    sp = sub.add_parser("complement", help="points off a partial spread")
    sp.add_argument("file")
    sp.add_argument("--save")
    sp.set_defaults(func=cmd_complement)

    gep = sub.add_parser("geproci", help="geproci certification").add_subparsers(
        dest="subcmd", required=True)
    sp = gep.add_parser("check", help="certify a point set")
    sp.add_argument("file")
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--beta", type=int, required=True)
    sp.add_argument("--mode", choices=["generic", "random"])
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_geproci_check)
    sp = gep.add_parser("classify", help="grid / half grid / nontrivial flags")
    sp.add_argument("file")
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--beta", type=int, required=True)
    sp.set_defaults(func=cmd_geproci_classify)

    cones = sub.add_parser("cones", help="cone computations").add_subparsers(
        dest="subcmd", required=True)
    sp = cones.add_parser("frobenius", help="Frobenius cone diagnostics")
    sp.add_argument("--field", required=True)
    sp.set_defaults(func=cmd_cones_frobenius)
    sp = cones.add_parser("dim", help="unexpected-cone dimension count")
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_cones_dim)
    sp = cones.add_parser("inequality", help="unexpectedness parameter count")
    sp.add_argument("--q", required=True, help="comma-separated prime powers")
    sp.set_defaults(func=cmd_cones_inequality)

    sp = sub.add_parser("hilbert", help="dim [I(Z)]_d for a point-set file")
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_hilbert)

    scheme = sub.add_parser("scheme", help="fat-point schemes").add_subparsers(
        dest="subcmd", required=True)
    sp = scheme.add_parser("check", help="certify a scheme file")
    sp.add_argument("file")
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--beta", type=int, required=True)
    sp.add_argument("--mode", choices=["generic", "random"])
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_scheme_check)

    sp = sub.add_parser("reproduce", help="run a named end-to-end example")
    sp.add_argument("target", choices=sorted(REPRODUCE))
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = RunReport(argv)
    try:
        args.func(args, report)
    except Exception as exc:  # report the module error name, exit nonzero
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report.finish(args.out)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report.finish(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
