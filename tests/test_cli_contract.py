"""Property tests of the CLI contract: whatever the arguments or the spec
file, `nsc` prints exactly one JSON document with status, payload and
diagnostics, exits 0 (pass), 1 (mathematical mismatch) or 2 (usage or input
error), and never prints a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nsc.cli import main
from nsc.curveio import curve_to_jsonable
from nsc.zoo import zoo

STATUS_BY_EXIT = {0: "pass", 1: "fail", 2: "error"}
CASES = ("IIc-C0", "Ia", "ccusp2")
POINTS = ("p0", "p1", "p2", "pinf", "px")


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run_main(argv)
    assert code in STATUS_BY_EXIT, (argv, code)
    doc = json.loads(out)  # exactly one document: trailing text fails to parse
    assert isinstance(doc, dict) and set(doc) == {"status", "payload", "diagnostics"}, (argv, out)
    assert doc["status"] == STATUS_BY_EXIT[code], (argv, doc)
    assert isinstance(doc["diagnostics"], list)
    assert "Traceback" not in err, (argv, err)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """The zoo's spec files, written once for the module."""
    root = tmp_path_factory.mktemp("specs")
    for case in CASES:
        (root / f"{case}.json").write_text(json.dumps(curve_to_jsonable(zoo(case))))
    return root


def _literal_or(structured):
    # a well-formed value, or any short text
    return st.one_of(structured, st.text(max_size=10))


divisors = _literal_or(
    st.lists(st.tuples(st.integers(-3, 6), st.sampled_from(POINTS)), min_size=1, max_size=3).map(
        lambda terms: "+".join(f"{n}*{p}" for n, p in terms).replace("+-", "-"))
)
weights = _literal_or(st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(
    lambda ws: ",".join(map(str, ws))))
points = _literal_or(st.sampled_from(POINTS))
m_maxes = _literal_or(st.integers(-2, 8).map(str))


def _option(name, values):
    # "--name=value", so that a value starting with "-" is never read as an option
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    operation=st.sampled_from(("genus", "h0", "h1", "alphabeta", "canonical", "fit")),
    case=st.sampled_from(CASES),
    options=st.tuples(_option("divisor", divisors), _option("weights", weights),
                      _option("point", points), _option("m-max", m_maxes)),
)
def test_curve_commands_keep_the_contract(spec_dir, operation, case, options):
    argv = ["curve", operation, str(spec_dir / f"{case}.json")]
    for option in options:
        argv += option
    assert_contract(argv)


def _field_paths(node, path=()):
    """Every (path, key) of a dict entry in a parsed spec, nested ones too."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _field_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _field_paths(value, path + (i,))


SPECS = {case: curve_to_jsonable(zoo(case)) for case in CASES}
FIELDS = [(case, path) for case, doc in SPECS.items() for path in _field_paths(doc)]

# many draws are values a spec could hold, so that some replaced specs load
spec_literals = st.integers(-2, 8) | st.sampled_from(("0", "1", "-1", "3", "1/2", "inf", "c0", "c1"))
json_values = spec_literals | st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    field=st.sampled_from(FIELDS),
    value=json_values,
    argv=st.sampled_from((["genus"], ["h0", "--divisor=2*p0"], ["h1", "--divisor=1*p0-1*p1"],
                          ["alphabeta", "--point=p0"], ["canonical", "--point=p0", "--m-max=6"],
                          ["fit", "--point=p0"])),
)
def test_spec_files_with_one_field_replaced_keep_the_contract(spec_dir, field, value, argv):
    case, path = field
    spec = spec_dir / "fuzzed.json"
    spec.write_text(json.dumps(_replaced(SPECS[case], path, value)))
    assert_contract(["curve", argv[0], str(spec), *argv[1:]])
