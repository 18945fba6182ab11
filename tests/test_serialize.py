"""Round-trip guarantees for the curve JSON and report CSV formats."""
import json

import pytest

import selfcontract as sc
from selfcontract.errors import GeometryError
from selfcontract.serialize import (
    bound_report_csv_rows,
    curve_from_json,
    curve_to_json,
    dumps,
    parse_csv_rows,
    parse_config_file,
    parse_point_spec,
    write_json_atomic,
)
from selfcontract.widths import spider_jump_curve, tree_length_bound


def test_curve_roundtrip_is_exact(plane, rng):
    pts = [plane.point(tuple(rng.uniform(-1, 1, 2))) for _ in range(7)]
    curve = sc.make_curve(pts, times=[0.1 * i + 0.01 for i in range(7)],
                          mode="geodesic")
    doc = curve_to_json(curve)
    back = curve_from_json(json.loads(dumps(doc)))
    assert back.mode == curve.mode
    assert back.times == curve.times
    for (t1, p1), (t2, p2) in zip(curve.samples, back.samples):
        assert p1.data == p2.data  # bit-exact through repr round-trip


def test_curve_roundtrip_all_spaces(rng):
    spaces = [sc.EuclideanSpace(3), sc.SpiderSpace(4), sc.BookSpace(2),
              sc.HyperbolicPlane(),
              sc.load_tree_file("edge a b 1.0\nedge b c 0.5"),
              sc.ProductSpace(sc.EuclideanSpace(1), sc.SpiderSpace(3))]
    for space in spaces:
        pts = [space.random_point(rng, 1.0) for _ in range(4)]
        curve = sc.make_curve(pts)
        back = curve_from_json(json.loads(dumps(curve_to_json(curve))))
        assert back.space == space
        for p1, p2 in zip(curve.points, back.points):
            assert space.distance(p1, sc.Point(space, p2.data)) <= 1e-15


def test_curve_json_rejects_garbage():
    with pytest.raises(GeometryError):
        curve_from_json({"not": "a curve"})
    with pytest.raises(GeometryError):
        curve_from_json({"schema_version": 99, "space": {"kind": "euclidean",
                         "dim": 1}, "samples": [{"t": 0, "p": [0.0]}]})


def test_atomic_write(tmp_path):
    path = tmp_path / "sub" / "report.json"
    write_json_atomic(path, {"x": 0.1})
    assert json.loads(path.read_text()) == {"x": 0.1}
    # overwrite in place
    write_json_atomic(path, {"x": 0.2})
    assert json.loads(path.read_text()) == {"x": 0.2}
    assert not list(path.parent.glob(".tmp-*"))


def test_bound_csv_roundtrip():
    curve = spider_jump_curve(4)
    report = tree_length_bound(curve.space, curve)
    text = bound_report_csv_rows([report])
    rows = parse_csv_rows(text)
    assert len(rows) == 1
    assert rows[0]["bound"] == "tree"
    assert float(rows[0]["ratio"]) == report.ratio
    assert rows[0]["passed"] == "1"


def test_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nspace = spider:3\nseed = 42\n\ntau = 0.5\n")
    opts = parse_config_file(cfg)
    assert opts == {"space": "spider:3", "seed": "42", "tau": "0.5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("space spider:3\n")
    with pytest.raises(GeometryError):
        parse_config_file(bad)


def test_parse_point_spec(plane, spider3):
    p = parse_point_spec(plane, "1.5, -2.0")
    assert p.data == (1.5, -2.0)
    q = parse_point_spec(spider3, "2, 0.75")
    assert q.data == (2, 0.75)
    with pytest.raises(GeometryError):
        parse_point_spec(plane, "")


@pytest.mark.parametrize("spec, text", [
    ("spider:3", "2,abc"),
    ("spider:3", "2"),
    ("spider:3", "inf,0.5"),
    ("product:[euclidean:1|spider:3]", "0.5,2,0.25"),
    ("spider:3", "2.7,0.5"),
    ("spider:3", "1,0.5,0.2"),
    ("book:2", "1.5,0.5,0.5"),
    ("book:2", "0,inf,0"),
])
def test_parse_point_spec_rejects_unparsable(spec, text):
    with pytest.raises(GeometryError):
        parse_point_spec(sc.parse_space_spec(spec), text)


def test_curve_json_rejects_nan_time():
    doc = curve_to_json(sc.make_curve([sc.EuclideanSpace(1).point((0.0,))] * 2))
    doc["samples"][1]["t"] = float("nan")
    with pytest.raises(GeometryError):
        curve_from_json(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("field, value", [
    ("t", "abc"), ("domain_end", "abc"), ("leg", float("nan")), ("leg", 2.5),
    ("fields", None),
])
def test_curve_json_rejects_malformed_fields(field, value):
    doc = curve_to_json(spider_jump_curve(3))
    if field == "t":
        doc["samples"][1]["t"] = value
    elif field == "leg":
        doc["samples"][1]["p"][0] = value
    elif field == "fields":
        doc["samples"][1]["p"].append(0.25)
    else:
        doc[field] = value
    with pytest.raises(GeometryError):
        curve_from_json(json.loads(json.dumps(doc)))
