import json
import random
import re
from fractions import Fraction

import pytest

from nsc.cli import main
from nsc.curveio import (
    _curve_from_text,
    curve_from_jsonable,
    curve_to_jsonable,
    dump_curve,
    load_curve,
    parse_divisor,
    parse_point,
)
from nsc.curves import (
    INF,
    MAX_BASIS_ENTRIES,
    MAX_MARKED_POINTS,
    MAX_SPEC_BYTES,
    SPEC_CACHE_SIZE,
    Branch,
    CurveModel,
    Divisor,
    MarkedPoint,
    SingularPoint,
    arithmetic_genus,
)
from nsc.errors import ValidationError
from nsc.rational import format_rational, parse_rational
from nsc.zoo import ZOO_IDS, zoo

CCUSP2_DOC = {
    "components": ["c0"],
    "singularities": [
        {
            "branches": [{"component": "c0", "point": "0"}],
            "jet_order": 6,
            "conductor": 3,
            "algebra_basis": [
                ["1", "0", "0", "0", "0", "0"],
                ["0", "0", "0", "1", "0", "0"],
                ["0", "0", "0", "0", "1", "0"],
                ["0", "0", "0", "0", "0", "1"],
            ],
        }
    ],
    "marked": [{"component": "c0", "point": "inf", "tangent": "1", "weight": 2}],
}


def test_rational_literals():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == 17
    assert format_rational(Fraction(10, 27)) == "10/27"
    for bad in ("1.5", "3/-4", "1/0", "a", "", "\u0662", "1/\u0663", "2\u00b2"):
        with pytest.raises(ValidationError):
            parse_rational(bad)


def test_point_literals():
    assert parse_point("inf") is INF
    assert parse_point("5/3") == Fraction(5, 3)


def test_spec_grammar_accepts_deep_cusp_document():
    cur = curve_from_jsonable(CCUSP2_DOC)
    assert cur.marked_points[0].point is INF
    assert cur.singularities[0].conductor == 3


def test_round_trip_all_zoo_curves(tmp_path):
    for case in ZOO_IDS + tuple(f"ccusp{a}" for a in (1, 3)):
        cur = zoo(case)
        path = tmp_path / f"{case}.json"
        dump_curve(cur, str(path))
        loaded = load_curve(str(path))
        assert loaded == cur
        # serialization is canonical: dumping again is byte-identical
        text1 = path.read_text()
        dump_curve(loaded, str(path))
        assert path.read_text() == text1


def test_emitted_document_matches_grammar():
    doc = curve_to_jsonable(zoo("IIc-C0"))
    assert set(doc) == {"components", "singularities", "marked"}
    sing = doc["singularities"][0]
    assert set(sing) == {"branches", "jet_order", "conductor", "algebra_basis"}
    assert all(isinstance(x, str) for vec in sing["algebra_basis"] for x in vec)
    assert doc["marked"][0]["point"] == "1"
    assert doc["marked"][1]["point"] == "inf"
    json.dumps(doc)  # JSON-serializable as-is


def test_malformed_documents_rejected():
    with pytest.raises(ValidationError):
        curve_from_jsonable({"components": ["c0"], "marked": []})
    bad = dict(CCUSP2_DOC, marked=[{"component": "c0", "point": "0.5"}])
    with pytest.raises(ValidationError):
        curve_from_jsonable(bad)
    bad = dict(CCUSP2_DOC, singularities=[dict(CCUSP2_DOC["singularities"][0], jet_order="six")])
    with pytest.raises(ValidationError):
        curve_from_jsonable(bad)


def test_divisor_grammar():
    cur = zoo("Ia")
    assert parse_divisor("2*p0", cur) == Divisor.of({"p0": 2})
    assert parse_divisor("3*p0+1*p1", cur) == Divisor.of({"p0": 3, "p1": 1})
    assert parse_divisor("2*p0-1*p1", cur) == Divisor.of({"p0": 2, "p1": -1})
    assert parse_divisor("-2*p1", cur) == Divisor.of({"p1": -2})
    c0 = zoo("IIc-C0")
    assert parse_divisor("2*pinf", c0) == Divisor.of({"p1": 2})
    for bad in ("p0", "2*", "2*p9", "2 p0", "*p0"):
        with pytest.raises(ValidationError):
            parse_divisor(bad, cur)


def test_equal_curves_loaded_twice_share_one_validation_entry(tmp_path):
    from nsc.curves import _validate_cached, validate

    path = tmp_path / "ccusp7.json"
    dump_curve(zoo("ccusp7"), str(path))
    first, second = load_curve(str(path)), load_curve(str(path))
    assert first is second and first == second
    assert hash(first) == hash(second)
    assert hash(first.singularities[0]) == hash(second.singularities[0])
    validate(first)
    size = _validate_cached.cache_info().currsize
    validate(second)
    assert _validate_cached.cache_info().currsize == size
    assert {first: 1}[second] == 1


def test_equal_bytes_load_as_one_curve(tmp_path):
    # the text is the key, not the path
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_curve(zoo("Ib"), str(a))
    b.write_bytes(a.read_bytes())
    assert load_curve(str(a)) is load_curve(str(b)) is load_curve(str(a))


def test_rewritten_file_loads_the_new_curve(tmp_path):
    path = tmp_path / "spec.json"
    dump_curve(zoo("ccusp3"), str(path))
    assert arithmetic_genus(load_curve(str(path))) == 3
    dump_curve(zoo("ccusp4"), str(path))
    assert load_curve(str(path)) == zoo("ccusp4")
    assert arithmetic_genus(load_curve(str(path))) == 4


def test_invalid_spec_raises_on_every_load_and_is_not_cached(tmp_path):
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({"components": ["c0", "c1"], "singularities": [], "marked": []}))
    _curve_from_text.cache_clear()
    for _ in range(2):
        with pytest.raises(ValidationError, match="^disconnected curve$"):
            load_curve(str(path))
    info = _curve_from_text.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 2)


def test_malformed_json_names_the_path_of_each_load(tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths + paths:
        path.write_text("{not json")
        with pytest.raises(ValidationError, match=f"^invalid JSON in {re.escape(str(path))}: "):
            load_curve(str(path))


def test_spec_cache_is_bounded(tmp_path):
    # more distinct texts than the cache holds (the same curve, padded with
    # whitespace): it stays at its bound, and an evicted text loads again
    # to an equal curve
    path = tmp_path / "spec.json"
    text = json.dumps(curve_to_jsonable(zoo("Ia")))
    for n in range(SPEC_CACHE_SIZE + 8):
        path.write_text(text + " " * n)
        load_curve(str(path))
    assert _curve_from_text.cache_info().currsize == SPEC_CACHE_SIZE
    path.write_text(text)
    assert load_curve(str(path)) == zoo("Ia")


def padded_spec(path, size):
    text = json.dumps(curve_to_jsonable(zoo("Ia")))
    path.write_text(text + " " * (size - len(text)))
    assert path.stat().st_size == size


def test_a_spec_over_the_size_limit_exits_2_and_is_not_cached(tmp_path, capsys):
    path = tmp_path / "padded.json"
    padded_spec(path, MAX_SPEC_BYTES + 1)
    _curve_from_text.cache_clear()
    assert main(["curve", "genus", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert doc["diagnostics"] == [f"spec file {path} is out of range: the limit is {MAX_SPEC_BYTES} bytes"]
    assert _curve_from_text.cache_info().currsize == 0


def test_the_largest_admitted_spec_loads(tmp_path):
    path = tmp_path / "padded.json"
    padded_spec(path, MAX_SPEC_BYTES)
    assert load_curve(str(path)) == zoo("Ia")
    # the widest dense spec that validates, 63 basis vectors of two-digit
    # fractions on two branches of jet order 32, fits three times over
    rng = random.Random(2)
    basis = []
    for _ in range(63):
        v = [Fraction(rng.choice((-1, 1)) * rng.randint(10, 99), rng.randint(10, 99)) for _ in range(64)]
        v[32] = v[0]
        basis.append(tuple(v))
    sing = SingularPoint((Branch("c0", Fraction(0)), Branch("c0", Fraction(1))), 32, 32, tuple(basis))
    dump_curve(CurveModel(("c0",), (sing,), (MarkedPoint("c0", Fraction(5), Fraction(1)),)), str(path))
    assert 3 * path.stat().st_size < MAX_SPEC_BYTES


def test_curves_past_the_entry_and_marked_point_bounds_exit_2_and_are_not_cached(tmp_path, capsys):
    # two specs under the size limit that parse to megabytes: 15 smooth
    # points of jet order 64 whose bases are the whole jet space, written
    # compactly, and 5,000 marked points
    whole = [["1" if s == t else "0" for s in range(64)] for t in range(64)]
    smooth = {"components": ["c0"], "marked": [{"component": "c0", "point": "1000"}],
              "singularities": [{"branches": [{"component": "c0", "point": str(10 + p)}], "jet_order": 64,
                                 "conductor": 1, "algebra_basis": whole} for p in range(15)]}
    marked = {"components": ["c0"], "singularities": [],
              "marked": [{"component": "c0", "point": str(p), "tangent": "1"} for p in range(5000)]}
    cases = ((smooth, f"61440 algebra basis entries in all is out of range: the limit is {MAX_BASIS_ENTRIES}"),
             (marked, f"5000 marked points is out of range: the limit is {MAX_MARKED_POINTS}"))
    _curve_from_text.cache_clear()
    for doc, diagnostic in cases:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc, separators=(",", ":")))
        assert path.stat().st_size <= MAX_SPEC_BYTES
        assert main(["curve", "genus", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["diagnostics"] == [diagnostic]
    assert _curve_from_text.cache_info().currsize == 0


def test_the_widest_dense_spec_and_ccusp31_load_within_the_bounds(tmp_path):
    # 63 dense basis vectors on two branches of jet order 32, 4,032 entries,
    # with small integer entries, and the most marked points admitted
    rng = random.Random(3)
    basis = []
    for _ in range(63):
        v = [Fraction(rng.randint(-9, 9)) for _ in range(64)]
        v[32] = v[0]
        basis.append(tuple(v))
    sing = SingularPoint((Branch("c0", Fraction(0)), Branch("c0", Fraction(1))), 32, 32, tuple(basis))
    marked = tuple(MarkedPoint("c0", Fraction(p + 2), Fraction(1)) for p in range(MAX_MARKED_POINTS))
    for cur, entries in ((CurveModel(("c0",), (sing,), marked), 4032), (zoo("ccusp31"), 2112)):
        path = tmp_path / "spec.json"
        dump_curve(cur, str(path))
        assert load_curve(str(path)) == cur
        assert sum(len(v) for s in cur.singularities for v in s.algebra_basis) == entries <= MAX_BASIS_ENTRIES
