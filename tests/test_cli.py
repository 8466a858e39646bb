"""Command-line interface: subcommands, JSON reports, fixtures."""
import json

import pytest

from geproci import spreads
from geproci.cli import REPRODUCE, fixture_text, main
from geproci.fatpoints import read_scheme, write_scheme
from geproci.fields import parse_field_spec
from geproci.projgeom import GeometryError, read_point_set, write_point_set
from geproci.spreads import read_spread, write_spread

FIXDIR = "src/geproci/fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_field_info(capsys):
    code, out = run(capsys, "field-info", "--field", "p=3;ext=2")
    assert code == 0
    assert "size: 9" in out


def test_enumerate_canonical(capsys):
    code, out = run(capsys, "enumerate", "--field", "p=2", "--dim", "3")
    assert code == 0
    body = [ln for ln in out.splitlines() if ln and not ln.startswith("field:")]
    assert len(body) == 15
    assert body == sorted(body)  # canonical order is deterministic


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code != 0


def test_error_report_propagates_module_error(tmp_path, capsys):
    missing = tmp_path / "nope.points"
    out_path = tmp_path / "r.json"
    code = main(["--out", str(out_path), "hilbert", str(missing), "--degree", "2"])
    capsys.readouterr()
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["error"]["type"] == "FileNotFoundError"


def test_json_report_schema(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = main(["--out", str(out_path), "cones", "inequality", "--q", "2,3"])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == 1
    assert report["inequality"][0] == {"q": 2, "lhs": 6, "rhs": 6, "holds": False}
    assert "seconds" in report


def test_report_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    blobs = []
    for p in paths:
        main(["--out", str(p), "cones", "inequality", "--q", "3,4,5"])
        capsys.readouterr()
        blob = json.loads(p.read_text())
        del blob["seconds"]
        del blob["command"]
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_spread_verify_fixture(capsys):
    code, out = run(capsys, "spread", "verify", f"{FIXDIR}/mps7-q3.spread")
    assert code == 0
    assert "7 lines" in out and "maximal: True" in out


@pytest.mark.parametrize("row", ["1,0,0|0,1,0", "1,0,0,0,0|0,1,0,0,0"])
def test_spread_rows_need_4_coordinates(tmp_path, capsys, row):
    text = f"field: p=2\n{row}\n"
    with pytest.raises(GeometryError, match="rows of 4 coordinates"):
        read_spread(text)
    src, out_path = tmp_path / "bad.spread", tmp_path / "r.json"
    src.write_text(text)
    code = main(["--out", str(out_path), "spread", "verify", str(src)])
    capsys.readouterr()
    assert code == 1
    assert json.loads(out_path.read_text())["error"]["type"] == "GeometryError"


def test_headers_of_point_files_need_a_dim_and_spread_headers_do_not(F4):
    for text in ("field: p=2\n", "field: p=2\n1,0,0,0\n"):
        with pytest.raises(GeometryError, match="must declare 'dim:'"):
            read_point_set(text)
    with pytest.raises(GeometryError, match="must declare 'dim:'"):
        read_scheme("field: p=2\n")
    # a field spec holding ';' is read whole when no dim follows it
    S = spreads.build_regular_spread(F4)
    assert write_spread(S).startswith("field: p=2;mod=1,1,1\n")
    assert read_spread(write_spread(S)) == S


@pytest.mark.parametrize("coord", ["3", "5", "-1", "(1 1)", "x", ""])
def test_point_file_coordinates_are_indices_in_range(tmp_path, capsys, coord):
    # over F_3 a coordinate is one of the indices 0, 1, 2; anything else,
    # a coefficient list included, is rejected by every reader
    with pytest.raises(GeometryError, match="not an index in"):
        read_point_set(f"field: p=3; dim: 3\n1,0,0,{coord}\n")
    with pytest.raises(GeometryError, match="not an index in"):
        read_spread(f"field: p=3\n1,0,0,0|0,1,0,{coord}\n")
    with pytest.raises(GeometryError, match="not an index in"):
        read_scheme(f"field: p=3; dim: 3\nsimple: 1,{coord},0,0\n")
    src, out_path = tmp_path / "bad.points", tmp_path / "r.json"
    src.write_text(f"field: p=3; dim: 3\n1,0,0,0\n0,1,0,{coord}\n")
    code = main(["--out", str(out_path), "hilbert", str(src), "--degree", "2"])
    capsys.readouterr()
    assert code == 1
    assert json.loads(out_path.read_text())["error"]["type"] == "GeometryError"
    assert read_point_set("field: p=3; dim: 3\n1, 0 ,2,0\n").points[0].coords[2].index == 2


def test_complement_count(capsys, tmp_path):
    dest = tmp_path / "z.points"
    code, out = run(capsys, "complement", f"{FIXDIR}/mps7-q3.spread",
                    "--save", str(dest))
    assert code == 0
    Z = read_point_set(dest.read_text())
    assert len(Z) == 12


def test_hilbert_subcommand(capsys):
    code, out = run(capsys, "hilbert", f"{FIXDIR}/complement-40-q7.points",
                    "--degree", "4")
    assert code == 0
    assert "= 5" in out


def test_geproci_check_subcommand(capsys, tmp_path):
    src = tmp_path / "z.points"
    main(["complement", f"{FIXDIR}/mps7-q3.spread", "--save", str(src)])
    capsys.readouterr()
    code, out = run(capsys, "geproci", "check", str(src),
                    "--alpha", "3", "--beta", "4")
    assert code == 0
    assert "True" in out


def test_geproci_classify_subcommand(capsys, tmp_path):
    src = tmp_path / "z.points"
    main(["complement", f"{FIXDIR}/mps7-q3.spread", "--save", str(src)])
    capsys.readouterr()
    code, out = run(capsys, "geproci", "classify", str(src),
                    "--alpha", "3", "--beta", "4")
    assert code == 0
    assert "half_grid_cover: True" in out


def test_scheme_check_subcommand(capsys):
    code, out = run(capsys, "scheme", "check",
                    f"{FIXDIR}/concurrent-nine-q2.scheme",
                    "--alpha", "3", "--beta", "3")
    assert code == 0
    assert "scheme length 9" in out and "True" in out


def test_cones_frobenius_subcommand(capsys):
    code, out = run(capsys, "cones", "frobenius", "--field", "p=2")
    assert code == 0
    assert "degree 3 cone" in out and "35/35" in out


def test_spread_search_first(capsys):
    code, out = run(capsys, "spread", "search", "--field", "p=2",
                    "--mode", "first")
    assert code == 0
    assert "found 1" in out


@pytest.mark.parametrize("spec,budget", [("p=2", 10 ** 8), ("p=3", 300_000)])
def test_spread_search_reports_sizes_without_building_spreads(
        monkeypatch, tmp_path, capsys, spec, budget):
    # the sizes are the run lengths of the packed result; only --save
    # builds a PartialSpread, its first witness
    res = spreads.search_maximal_partial_spreads(parse_field_spec(spec), node_budget=budget)
    want = (len(res.spreads), res.nodes, sorted({len(S.lines) for S in res.spreads}))
    built = []
    presorted = spreads.PartialSpread._presorted
    monkeypatch.setattr(spreads.PartialSpread, "_presorted",
                        staticmethod(lambda *a: built.append(a) or presorted(*a)))
    out_path = tmp_path / "r.json"
    for save in ([], ["--save", str(tmp_path / "w.spread")]):
        built.clear()
        code = main(["--out", str(out_path), "spread", "search", "--field", spec,
                     "--node-budget", str(budget), *save])
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert code == 0 and (report["found"], report["nodes"], report["sizes"]) == want
        assert len(built) == (1 if save else 0)
    assert read_spread((tmp_path / "w.spread").read_text()) == res.spreads[0]


def test_reproduce_targets_cover_acceptance_ids():
    assert set(REPRODUCE) == {"thm1-q2", "mps-q3", "ex-40pt-q7", "fatpoint-ex7"}


def test_reproduce_thm1_q2(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = main(["--out", str(out_path), "reproduce", "thm1-q2"])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["points"] == 15
    assert report["verdict"]["geproci"] is True
    assert report["verdict"]["degrees"] == [3, 5]


def test_every_fixture_roundtrips():
    pts = fixture_text("complement-40-q7.points")
    assert write_point_set(read_point_set(pts)) == pts
    sp = fixture_text("mps7-q3.spread")
    assert write_spread(read_spread(sp)) == sp
    sch = fixture_text("concurrent-nine-q2.scheme")
    assert write_scheme(read_scheme(sch)) == sch
