"""Curve spec JSON grammar and the divisor string grammar.

Spec documents look like

    {"components": ["c0"],
     "singularities": [{"branches": [{"component": "c0", "point": "0"}],
                        "jet_order": 6, "conductor": 3,
                        "algebra_basis": [["1","0","0","0","0","0"], ...]}],
     "marked": [{"component": "c0", "point": "1", "tangent": "1", "weight": 2}]}

Points and scalars are decimal-free rational literals "p/q" or "inf";
algebra basis vectors list jet coefficients branch by branch, degree
ascending.  A spec file is at most MAX_SPEC_BYTES long.  Divisor strings
follow  INT "*" POINT_ID ("+"|"-" ...)  as in "2*p0" or "3*p1-1*p0", with
|multiplicity| <= MAX_MULTIPLICITY at each point.
"""

from __future__ import annotations

import functools
import io
import json
import re
from json.encoder import encode_basestring_ascii

from .curves import (
    INF,
    Branch,
    CurveModel,
    Divisor,
    MarkedPoint,
    SingularPoint,
    format_point,
    validate,
)
from .errors import ValidationError
from .rational import INTEGER, format_rational, parse_rational

# load_curve interns the curves of at most SPEC_CACHE_SIZE spec files, above
# the 48 of the seeded CLI queries of a benchmark round and the 0 of its
# canonical-parameter jobs.  MAX_SPEC_BYTES is the largest spec file it
# reads.  The widest dense spec that validates, 63 basis vectors on two
# branches of jet order 32 written by dump_curve, takes 78,914 bytes with
# two-digit fractions and 87,025 with three-digit ones; the limit leaves
# three times that.  The spec cache thus keeps at most SPEC_CACHE_SIZE x
# MAX_SPEC_BYTES = 32 MiB of file bytes as its keys, besides the curves they
# parse to.  Those are bounded by curves.MAX_BASIS_ENTRIES and
# curves.MAX_MARKED_POINTS: at both bounds (one point of 64 x 64 entries, 64
# marked points) a curve holds 0.27 MB of objects with one-digit entries and
# 0.57 MB with 28-digit ones, the longest that fit in the file, so at most
# about 74 MB at SPEC_CACHE_SIZE.  Resident memory grew by 0.32, 0.54 and
# 0.90 MB a spec with one-, two- and three-digit entries, the rest being what
# validation's elimination leaves in the allocator.  Before these bounds, a
# 249 KB spec of 15 whole jet spaces of order 64 kept 3.6 MB, and one of
# 5,000 marked points 1.8 MB.
SPEC_CACHE_SIZE = 128
MAX_SPEC_BYTES = 256 * 1024
# load_curve reads at most this much at a time: one read of the whole bound
# allocates 256 KiB on every load, for specs of a few KB
SPEC_READ_CHUNK = 64 * 1024


def parse_point(text: str, what: str = "point"):
    if isinstance(text, str) and text.strip() == "inf":
        return INF
    return parse_rational(text, f"{what} (or 'inf')")


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _integer(value) -> bool:
    """True for a JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list(entry: dict, key: str) -> list:
    """The list under key (empty when the key is absent)."""
    value = entry.get(key, [])
    _require(isinstance(value, list), f"{key} must be a list")
    return value


def curve_from_jsonable(doc) -> CurveModel:
    """Build and validate a CurveModel from a parsed spec document."""
    _require(isinstance(doc, dict), "curve spec must be a JSON object")
    for key in ("components", "singularities", "marked"):
        _require(key in doc, f"curve spec missing key {key!r}")
    comps = doc["components"]
    _require(isinstance(comps, list) and all(isinstance(c, str) for c in comps),
             "components must be a list of labels")
    sings = []
    for entry in _list(doc, "singularities"):
        _require(isinstance(entry, dict), "singularity entries must be objects")
        branches = []
        for br in _list(entry, "branches"):
            _require(isinstance(br, dict) and isinstance(br.get("component"), str) and "point" in br,
                     "branch entries need component and point")
            branches.append(Branch(br["component"], parse_point(br["point"], "branch point")))
        _require(_integer(entry.get("jet_order")), "jet_order must be an integer")
        _require(_integer(entry.get("conductor")), "conductor must be an integer")
        basis = []
        for vec in _list(entry, "algebra_basis"):
            _require(isinstance(vec, list), "algebra basis vectors must be lists")
            basis.append(tuple(parse_rational(x, "algebra_basis entry") for x in vec))
        sings.append(SingularPoint(tuple(branches), entry["jet_order"], entry["conductor"], tuple(basis)))
    marked = []
    for entry in _list(doc, "marked"):
        _require(isinstance(entry, dict) and isinstance(entry.get("component"), str) and "point" in entry,
                 "marked entries need component and point")
        tangent = parse_rational(entry.get("tangent", "1"), "marked tangent")
        weight = entry.get("weight")
        _require(weight is None or _integer(weight), "weight must be an integer when present")
        point = parse_point(entry["point"], "marked point")
        marked.append(MarkedPoint(entry["component"], point, tangent, weight))
    return validate(CurveModel(tuple(comps), tuple(sings), tuple(marked)))


def curve_to_jsonable(curve: CurveModel) -> dict:
    sings = []
    for s in curve.singularities:
        sings.append({
            "branches": [{"component": b.component, "point": format_point(b.point)} for b in s.branches],
            "jet_order": s.jet_order,
            "conductor": s.conductor,
            "algebra_basis": [[format_rational(x) for x in vec] for vec in s.algebra_basis],
        })
    marked = []
    for mp in curve.marked_points:
        entry = {
            "component": mp.component,
            "point": format_point(mp.point),
            "tangent": format_rational(mp.tangent),
        }
        if mp.weight is not None:
            entry["weight"] = mp.weight
        marked.append(entry)
    return {"components": list(curve.components), "singularities": sings, "marked": marked}


def load_curve(path: str) -> CurveModel:
    """The spec file's validated curve; equal files give one CurveModel object.

    At most MAX_SPEC_BYTES + 1 bytes are read, SPEC_READ_CHUNK at a time,
    and a longer file is rejected before anything is parsed."""
    chunks, left = [], MAX_SPEC_BYTES + 1
    with open(path, "rb") as fh:
        # a buffered read returns fewer bytes than asked only at the end of the file
        while left:
            ask = min(left, SPEC_READ_CHUNK)
            chunks.append(fh.read(ask))
            left -= len(chunks[-1])
            if len(chunks[-1]) < ask:
                break
    data = b"".join(chunks)
    _require(len(data) <= MAX_SPEC_BYTES,
             f"spec file {path} is out of range: the limit is {MAX_SPEC_BYTES} bytes")
    try:
        return _curve_from_text(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


# keyed on the file's bytes, not the path: an edited file parses afresh, a
# JSON error names the path that failed, and an invalid spec raises and
# stores nothing.  The bytes are decoded as open(path, encoding="utf-8")
# would decode them, newlines translated.
@functools.lru_cache(maxsize=SPEC_CACHE_SIZE)
def _curve_from_text(data: bytes) -> CurveModel:
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    return curve_from_jsonable(json.loads(text))


def dump_curve(curve: CurveModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(curve_to_jsonable(curve)) + "\n")


def dumps(doc) -> str:
    """Exactly json.dumps(doc, sort_keys=True, indent=2), for documents of
    str, int, bool, None, lists, tuples and dicts with str keys; anything
    else raises TypeError.  With an indent, json runs its pure-Python
    generator encoder; this one joins each container's items once, in about
    half the time."""
    return _dumps(doc, "\n")


def _dumps(o, newline: str) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in o]) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [encode_basestring_ascii(key) + ": " + _dumps(o[key], inner) for key in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


MAX_MULTIPLICITY = 64

_DIVISOR_TERM = re.compile(rf"({INTEGER})\*(p(?:[0-9]+|inf))")


def parse_divisor(text: str, curve: CurveModel) -> Divisor:
    """Parse INT "*" POINT_ID ("+"|"-" ...), e.g. "2*p0" or "3*p0-1*p1"."""
    _require(isinstance(text, str) and text.strip(), "empty divisor spec")
    compact = text.replace(" ", "")
    chunks = re.split(r"(?<=[0-9a-z])([+-])(?=[0-9])", compact)
    mapping: dict = {}
    sign = 1
    for chunk in chunks:
        if chunk == "+":
            sign = 1
            continue
        if chunk == "-":
            sign = -1
            continue
        m = _DIVISOR_TERM.fullmatch(chunk)
        _require(m is not None, f"divisor: bad term {chunk!r}, expected INT*p<index> or INT*pinf "
                                "in ASCII digits, as in 2*p0-1*p1")
        n = sign * int(m.group(1))
        pid = f"p{curve.point_index(m.group(2), 'divisor point id')}"
        mapping[pid] = mapping.get(pid, 0) + n
        sign = 1
    for pid, n in mapping.items():
        _require(abs(n) <= MAX_MULTIPLICITY,
                 f"divisor multiplicity {n} at {pid} is out of range: the limit is |n| <= {MAX_MULTIPLICITY}")
    return Divisor.of(mapping)
