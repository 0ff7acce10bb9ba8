import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nsc.cli import main
from nsc.errors import ValidationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_s_table_contains_reference_value(capsys):
    code, doc = run_json(capsys, "s-table", "--genus", "2", "--m-max", "5", "--j-max", "2")
    assert code == 0 and doc["status"] == "pass"
    assert {"m": 3, "j": 1, "value": "-5/6"} in doc["payload"]["entries"]


# SHA-256 of `nsc s-table --genus g` (default m-max and j-max), recorded
# before the closed-form composition engine; any change to a byte fails.
S_TABLE_SHA256 = {
    2: "2d4985310ff775405fc4a7a1d50cdbe44515e9c2478d7c42b7315bfe2ee87623",
    3: "6745be80b89962afcdc00f53dc965740596f4dd3b23bbfeb6360968733ed64e0",
    4: "ad59735839e7964c7850c2522f0b440723121ff444003b38d1e1e1ce93da788b",
    5: "acf7a26c8689bcdebcb95db88e5a0ab9d4e24d228ba4168808a0138bd068c26a",
    6: "6dce671ac1395688ed9b4dca87f328e06676c01a482d8f646997507e0b560961",
    7: "91631027ee75ca6912b3a851a1cde5b43c0e690e00e969d806cbc7a44b0018ad",
    8: "b629a14b6b44cd6b10f494cb8d220ae25869cfc092e5f7f97e7736e41eb042a6",
}


@pytest.mark.parametrize("g", sorted(S_TABLE_SHA256))
def test_s_table_bytes_pinned(capsys, g):
    code, out = run_cli(capsys, "s-table", "--genus", str(g))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == S_TABLE_SHA256[g]


def test_largest_admitted_s_table_bytes_pinned(capsys):
    # the slowest s-table the limits admit; its numerators reach 234 bits
    code, out = run_cli(capsys, "s-table", "--genus", "2", "--m-max", "64", "--j-max", "16")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ba37ea76216cf0f045e84d4a7ea0fa48d22d89552ce83a0d42bfdd67ec7e3119"
    )


# SHA-256 of the stdout of the two largest recursion commands the limits
# admit at g = 48, the bytes the CI's standard-library step compares too
LARGEST_RECURSION_SHA256 = {
    "s-table --genus 48 --m-max 64 --j-max 16": "3bdda6f7857cfa145180aeb20bb2faba951d060d6005e2ea7a58d661be702f6e",
    "verify --suite closed-forms --genus-range 2..48": "4907a43fda47c9b23551739873bf4918f8f90745b01ceeb43387430ffaf2ab5a",
}


@pytest.mark.parametrize("argv", list(LARGEST_RECURSION_SHA256))
def test_largest_genus_recursion_bytes_pinned(capsys, argv):
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGEST_RECURSION_SHA256[argv]


def test_s_table_empty_table_passes(capsys):
    code, doc = run_json(capsys, "s-table", "--genus", "2", "--m-max", "3", "--j-max", "0")
    assert code == 0
    assert doc["payload"]["entries"] == []


def test_s_table_usage_errors(capsys):
    code, _ = run_cli(capsys, "s-table", "--genus", "1")
    assert code == 2
    code, _ = run_cli(capsys, "s-table", "--genus", "3", "--m-max", "3")
    assert code == 2
    code, _ = run_cli(capsys, "s-table", "--genus", "2", "--json")  # JSON is the default, not an option
    assert code == 2


def test_s_table_table_format(capsys):
    code, out = run_cli(capsys, "s-table", "--genus", "2", "--m-max", "4", "--j-max", "1", "--table")
    assert code == 0
    assert "3\t1\t-5/6" in out


def test_verify_exit_codes(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "closed-forms", "--genus-range", "2..4")
    assert code == 0 and doc["status"] == "pass"
    code, doc = run_json(capsys, "verify", "--suite", "buchberger", "--perturb", "c1")
    assert code == 1 and doc["status"] == "fail"


def test_verify_bad_range_is_usage_error(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "closed-forms", "--genus-range", "banana")
    assert code == 2


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


def test_zoo_list_and_emit_round_trip(tmp_path, capsys):
    code, doc = run_json(capsys, "zoo", "list")
    assert code == 0 and len(doc["payload"]["cases"]) == 8
    out = tmp_path / "tacnode.json"
    code, doc = run_json(capsys, "zoo", "emit", "IIb-tacnode", str(out))
    assert code == 0 and out.exists()
    code, doc = run_json(capsys, "curve", "genus", str(out))
    assert code == 0 and doc["payload"]["genus"] == 2


# SHA-256 of the file `zoo emit` writes, per case
ZOO_EMIT_SHA256 = {
    "Ia": "a40ebfb38c25e4a3f3c1a777ff7460c4a4d32190cecc646465b1bd61ddd79569",
    "Ib": "eca06ba09b4a94324a84615e7ac10e2933746d07e9b68097a36d16f748c5881b",
    "Ic": "c89f72f98d4c7eb2ae5652018b1bcbd6ac9d28e5630e40aaa6ace43acca18cc7",
    "IIa": "98a97e8963a8cd75764dec184c6cd61847dcb929ee64545c5eac6317840ab1be",
    "IIb-tacnode": "81753d81c2bc6e949a55203e9e341ebc587bbd95c0b6ed93bbe261753913d452",
    "IIb-cusp-node": "dac6f6416651a66be863779ab9dbf735e51da2f4f6b842c72267f592c836a536",
    "IIc-ccusp2": "7ec1da2a58055a7673dc44fefa4e71f7c89c35652663c1a500f620284b1b8b79",
    "IIc-C0": "8975aa9825d0506dd48f67dc139910f964f641faeec905aa717f5cfd02ddfb86",
    "ccusp1": "c557d6eded29df8eef313021bdbfaeed6f668babf487c0b1184cf8de8210e521",
    "ccusp31": "098f3a7ac824f14db105fe4ae39620e0f0936d4456cdc2d7d5fa6d7faba34c47",
}


def test_zoo_emit_bytes_pinned(tmp_path, capsys):
    from nsc.zoo import ZOO_IDS

    assert set(ZOO_EMIT_SHA256) == {*ZOO_IDS, "ccusp1", "ccusp31"}
    for case, digest in ZOO_EMIT_SHA256.items():
        out = tmp_path / f"{case}.json"
        code, _ = run_cli(capsys, "zoo", "emit", case, str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, case


def test_zoo_emit_unknown_case(capsys, tmp_path):
    code, _ = run_cli(capsys, "zoo", "emit", "IIz", str(tmp_path / "x.json"))
    assert code == 2


def test_curve_h0_h1_fit_alphabeta(tmp_path, capsys):
    c0 = tmp_path / "C0.json"
    run_json(capsys, "zoo", "emit", "IIc-C0", str(c0))
    code, doc = run_json(capsys, "curve", "h0", str(c0), "--divisor", "2*p0")
    assert code == 0 and doc["payload"]["dimension"] == 1
    code, doc = run_json(capsys, "curve", "h0", str(c0), "--divisor", "2*pinf")
    assert code == 0 and doc["payload"]["dimension"] == 2
    code, doc = run_json(capsys, "curve", "h1", str(c0), "--divisor", "2*pinf")
    assert code == 0 and doc["payload"]["h1"] == 1
    code, doc = run_json(capsys, "curve", "alphabeta", str(c0), "--point", "p0")
    assert code == 0 and doc["payload"]["alpha"] != "0"
    code, doc2 = run_json(capsys, "curve", "alphabeta", str(c0), "--point", "p0", "--weights", "1,1")
    assert code == 0 and doc2["payload"] == doc["payload"]

    cc2 = tmp_path / "ccusp2.json"
    run_json(capsys, "zoo", "emit", "ccusp2", str(cc2))
    code, doc = run_json(capsys, "curve", "fit", str(cc2), "--point", "p0")
    assert code == 0
    assert doc["payload"] == {"q1": "0", "q20": "0", "q21": "0", "q30": "0", "q31": "0"}
    code, doc = run_json(capsys, "curve", "canonical", str(cc2), "--point", "p0", "--weights", "2,0")
    assert code == 0
    assert all(v == "0" for v in doc["payload"]["coefficients"].values())


def test_curve_usage_errors(tmp_path, capsys):
    c0 = tmp_path / "C0.json"
    run_json(capsys, "zoo", "emit", "IIc-C0", str(c0))
    code, _ = run_cli(capsys, "curve", "h0", str(c0))  # missing --divisor
    assert code == 2
    code, _ = run_cli(capsys, "curve", "h0", str(c0), "--divisor", "2*p7")
    assert code == 2
    code, _ = run_cli(capsys, "curve", "genus", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "curve", "genus", str(bad))
    assert code == 2
    # fitting at the special point at infinity is an input error
    code, doc = run_json(capsys, "curve", "fit", str(c0), "--point", "pinf")
    assert code == 2 and doc == {
        "diagnostics": ["marked point is a Weierstrass-type point: h1(2p) != 0, no fit exists"],
        "payload": None, "status": "error"}


@pytest.mark.parametrize("operation, extra, option", [
    ("h0", ["--divisor=2*p0", "--point", "p9"], "--point"),
    ("h1", ["--divisor=2*p0", "--point", "p0"], "--point"),
    ("genus", ["--point", "p0"], "--point"),
    ("genus", ["--divisor=2*p0"], "--divisor"),
    ("alphabeta", ["--point", "p0", "--divisor=2*p0"], "--divisor"),
    ("canonical", ["--point", "p0", "--divisor=2*p0"], "--divisor"),
    ("fit", ["--point", "p0", "--divisor=2*p0"], "--divisor"),
    ("alphabeta", ["--point", "p0", "--m-max", "6"], "--m-max"),
    *((op, [*extra, "--weights", "2,0"], "--weights") for op, extra in
      (("genus", []), ("h0", ["--divisor=2*p0"]), ("h1", ["--divisor=2*p0"]), ("fit", ["--point", "p0"]))),
    *((op, [*extra, "--m-max", "6"], "--m-max") for op, extra in
      (("genus", []), ("h0", ["--divisor=2*p0"]), ("h1", ["--divisor=2*p0"]), ("fit", ["--point", "p0"]))),
])
def test_curve_options_that_do_not_apply_are_usage_errors(tmp_path, capsys, operation, extra, option):
    # each option reaches only the operations that read it: a point that does
    # not exist is not ignored by h0, nor a divisor by canonical
    spec = tmp_path / "Ia.json"
    run_json(capsys, "zoo", "emit", "Ia", str(spec))
    code, doc = run_json(capsys, "curve", operation, str(spec), *extra)
    assert code == 2 and doc == {"diagnostics": [f"{option} does not apply to curve {operation}"],
                                 "payload": None, "status": "error"}


@pytest.mark.parametrize("operation, extra", [("alphabeta", []), ("canonical", ["--m-max", "6"])])
def test_empty_weights_are_not_the_default(tmp_path, capsys, operation, extra):
    spec = tmp_path / "Ia.json"
    run_json(capsys, "zoo", "emit", "Ia", str(spec))
    code, doc = run_json(capsys, "curve", operation, str(spec), "--point", "p0", "--weights", "", *extra)
    assert code == 2 and doc["diagnostics"] == [
        "--weights: expected 2 comma-separated integers in ASCII digits, one per marked point, got ''"]


@pytest.mark.parametrize("extra", [["Ia"], ["Ia", "out.json"]])
def test_zoo_list_takes_no_case_or_file(capsys, extra):
    code, doc = run_json(capsys, "zoo", "list", *extra)
    assert code == 2 and doc["diagnostics"] == ["zoo list takes no CASE_ID or OUT_FILE"]


@pytest.mark.parametrize("option, value, limit", [
    ("--j-max", "100000", "limit is 16"),
    ("--m-max", "100000", "limit is 64"),
    ("--genus", "100000", "limit is 48"),
])
def test_unbounded_s_table_inputs_are_usage_errors(option, value, limit):
    argv = {"--genus": "2", option: value}
    proc, doc = run_bounded("s-table", *(x for kv in argv.items() for x in kv))
    assert proc.returncode == 2 and doc["status"] == "error"
    assert limit in doc["diagnostics"][0] and option[2:] in doc["diagnostics"][0]


def run_bounded(*argv):
    """Run nsc in a subprocess, so that unbounded work fails the test by its
    timeout: (the process, its JSON document)."""
    proc = subprocess.run(
        [sys.executable, "-m", "nsc.cli", *argv],
        capture_output=True, text=True, check=False, env=_checkout_env(), timeout=20,
    )
    return proc, json.loads(proc.stdout)


@pytest.mark.parametrize("argv, diagnostic", [
    (["closed-forms", "--genus-range", "2..99999999999999"],
     "genus 99999999999999 is out of range: the limit is 48"),
    (["closed-forms", "--genus-range", "2..49"], "genus 49 is out of range: the limit is 48"),
    (["c0", "--perturb", "c1"], "--perturb applies to --suite buchberger only"),
    (["grading", "--genus-range", "2..3"], "--genus-range applies to --suite closed-forms only"),
])
def test_verify_options_are_bounded_and_suite_specific(argv, diagnostic):
    proc, doc = run_bounded("verify", "--suite", *argv)
    assert proc.returncode == 2 and doc["status"] == "error" and doc["diagnostics"] == [diagnostic]


def _one_point_spec(branches, jet_order):
    return {"components": ["c0"], "marked": [],
            "singularities": [{"branches": [{"component": "c0", "point": str(b)} for b in range(branches)],
                               "jet_order": jet_order, "conductor": 1, "algebra_basis": []}]}


@pytest.mark.parametrize("branches, jet_order", [(1, 65), (1, 4000), (33, 2)])
def test_wide_jet_spaces_are_usage_errors(tmp_path, branches, jet_order):
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps(_one_point_spec(branches, jet_order)))
    proc, doc = run_bounded("curve", "genus", str(spec))
    assert proc.returncode == 2 and doc["status"] == "error"
    assert "limit is branches x jet_order <= 64" in doc["diagnostics"][0]


@pytest.mark.parametrize("case, code", [("ccusp31", 0), ("ccusp32", 2), ("ccusp120", 2)])
def test_zoo_cusps_are_bounded_by_the_jet_width(tmp_path, case, code):
    proc, doc = run_bounded("zoo", "emit", case, str(tmp_path / "cusp.json"))
    assert proc.returncode == code
    if code:
        assert doc["status"] == "error" and "limit is branches x jet_order <= 64" in doc["diagnostics"][0]
    else:
        proc, doc = run_bounded("curve", "genus", str(tmp_path / "cusp.json"))
        assert proc.returncode == 0 and doc["payload"] == {"genus": 31}


def _cusp_spec():
    """(spec, its parts by name): the cusp y^2 = x^3 at 0, jet order 4, one
    marked point."""
    cusp = {"branches": [{"component": "c0", "point": "0"}], "jet_order": 4, "conductor": 2,
            "algebra_basis": [["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    doc = {"components": ["c0"], "singularities": [cusp], "marked": [{"component": "c0", "point": "1"}]}
    return doc, {"spec": doc, "singularity": cusp, "branch": cusp["branches"][0], "marked": doc["marked"][0]}


@pytest.mark.parametrize("entry, key", [
    ("spec", "singularities"), ("spec", "marked"), ("singularity", "branches"), ("singularity", "algebra_basis"),
    ("branch", "component"), ("marked", "component"),
])
def test_spec_fields_of_the_wrong_type_are_usage_errors(tmp_path, capsys, entry, key):
    # a list where a label belongs, 5 where a list belongs
    value, diagnostic = ((["c0"], f"{entry} entries need component and point") if key == "component"
                         else (5, f"{key} must be a list"))
    doc, target = _cusp_spec()
    target[entry][key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out = run_json(capsys, "curve", "genus", str(spec))
    assert code == 2 and out["status"] == "error" and out["diagnostics"] == [diagnostic]


@pytest.mark.parametrize("entry, key, value, diagnostic", [
    ("singularity", "jet_order", True, "jet_order must be an integer"),
    ("singularity", "conductor", True, "conductor must be an integer"),
    ("marked", "weight", True, "weight must be an integer when present"),
    ("marked", "weight", False, "weight must be an integer when present"),
])
def test_json_booleans_are_not_integers(tmp_path, capsys, entry, key, value, diagnostic):
    # json loads true/false as bool, which isinstance counts as int
    doc, target = _cusp_spec()
    target[entry][key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out = run_json(capsys, "curve", "genus", str(spec))
    assert code == 2 and out["status"] == "error" and out["diagnostics"] == [diagnostic]


@pytest.mark.parametrize("vectors, code", [(4, 0), (5, 2), (1603, 2)])
def test_algebra_basis_is_bounded_by_the_jet_width(tmp_path, vectors, code):
    # the cusp's three vectors, then the jet s^2 again and again: a spanning
    # set is accepted up to the jet width 4, and the subalgebra check, which
    # is quadratic in the count, never sees a longer one
    doc, target = _cusp_spec()
    basis = target["singularity"]["algebra_basis"]
    basis += [basis[1]] * (vectors - len(basis))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    proc, out = run_bounded("curve", "genus", str(spec))
    assert proc.returncode == code
    if code:
        assert out["diagnostics"] == [
            f"algebra_basis has {vectors} vectors: the limit is the jet width, branches x jet_order = 4"]
    else:
        assert out["payload"] == {"genus": 1}


def test_unexpected_exceptions_print_one_error_document(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr("nsc.cli._cmd_zoo", broken)
    code = main(["zoo", "list"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"status": "error", "payload": None,
                                        "diagnostics": ["internal error: KeyError: 'boom'"]}
    assert "Traceback" not in captured.err


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("nsc.cli._cmd_zoo", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["zoo", "list"])


def test_s_table_limits_reach_the_closed_forms(capsys):
    from nsc.normalform import closed_form_s1, closed_form_s2
    from nsc.rational import format_rational

    code, doc = run_json(capsys, "s-table", "--genus", "40", "--m-max", "43", "--j-max", "2")
    assert code == 0
    values = {(e["m"], e["j"]): e["value"] for e in doc["payload"]["entries"]}
    assert values[(41, 1)] == format_rational(closed_form_s1(40))
    assert values[(41, 2)] == format_rational(closed_form_s2(40))
    code, _ = run_cli(capsys, "s-table", "--genus", "48", "--m-max", "64", "--j-max", "1")
    assert code == 0


def test_bad_weights_literal_is_usage_error(tmp_path, capsys):
    ia = tmp_path / "Ia.json"
    run_json(capsys, "zoo", "emit", "Ia", str(ia))
    code, doc = run_json(capsys, "curve", "canonical", str(ia), "--point", "p0", "--weights", "x,0")
    assert code == 2 and doc["status"] == "error"


@pytest.mark.parametrize("argv, names", [
    (["curve", "canonical", "Ia.json", "--point", "p0", "--weights", "\u0662,0"], "--weights"),
    (["curve", "canonical", "Ia.json", "--point", "p0", "--weights", "x,0"], "--weights"),
    (["curve", "h0", "Ia.json", "--divisor", "\u0662*p0"], "divisor"),
    (["curve", "alphabeta", "Ia.json", "--point", "p\u00b2"], "--point"),
    (["curve", "alphabeta", "Ia.json", "--point", "p\u0661"], "--point"),
    (["verify", "--suite", "closed-forms", "--genus-range", "2..3\u00b2"], "--genus-range"),
    (["s-table", "--genus", "\u0662"], "argument --genus"),
    (["zoo", "emit", "ccusp\u0662", "out.json"], "zoo case"),
])
def test_integers_are_ascii_digits_only(tmp_path, monkeypatch, capsys, argv, names):
    # \d, str.isdigit and int() also accept other scripts' digits, and int()
    # rejects superscripts with a message that names no option
    monkeypatch.chdir(tmp_path)
    run_json(capsys, "zoo", "emit", "Ia", "Ia.json")
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["status"] == "error"
    assert names in doc["diagnostics"][0] and "invalid literal" not in doc["diagnostics"][0]
    assert not (tmp_path / "out.json").exists()


def test_directory_as_curve_file_is_usage_error(tmp_path, capsys):
    code, doc = run_json(capsys, "curve", "genus", str(tmp_path))
    assert code == 2 and doc["status"] == "error"


def test_canonical_without_steps_is_usage_error(tmp_path, capsys):
    # --m-max at or below the weight at the point leaves nothing to compute
    ia = tmp_path / "Ia.json"
    run_json(capsys, "zoo", "emit", "Ia", str(ia))
    code, doc = run_json(capsys, "curve", "canonical", str(ia), "--point", "p0", "--m-max", "1")
    assert code == 2 and doc["status"] == "error"
    assert "m_max = 1" in doc["diagnostics"][0] and "a_i = 2" in doc["diagnostics"][0]


def test_unbounded_divisor_multiplicity_is_usage_error(tmp_path, capsys):
    ia = tmp_path / "Ia.json"
    run_json(capsys, "zoo", "emit", "Ia", str(ia))
    for divisor in ("99999999999*p0", "-65*p0", "40*p0+40*p0"):
        code, doc = run_json(capsys, "curve", "h0", str(ia), f"--divisor={divisor}")
        assert code == 2 and doc["status"] == "error"
        assert "|n| <= 64" in doc["diagnostics"][0]
    code, doc = run_json(capsys, "curve", "h1", str(ia), "--divisor", "64*p0")
    assert code == 0 and doc["payload"]["h1"] == 0


def test_unbounded_canonical_m_max_is_usage_error(tmp_path, capsys):
    ia = tmp_path / "Ia.json"
    run_json(capsys, "zoo", "emit", "Ia", str(ia))
    code, doc = run_json(capsys, "curve", "canonical", str(ia), "--point", "p0", "--m-max", "100000")
    assert code == 2 and doc["status"] == "error"
    assert "limit is 32" in doc["diagnostics"][0]


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["s-table", "--genus", "two"], "argument --genus: invalid int value: 'two'"),
    (["verify", "--suite", "c0", "--perturb", "c9"], "argument --perturb: invalid choice: 'c9'"),
    (["curve", "h0", "Ia.json", "--divisor", "-65*p0"], "argument --divisor: expected one argument"),
    (["zoo", "list", "Ia", "out.json", "extra"], "unrecognized arguments: extra"),
])
def test_parse_errors_print_one_error_document(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2
    assert doc["status"] == "error" and doc["payload"] is None
    assert len(doc["diagnostics"]) == 1 and message in doc["diagnostics"][0]
    assert "usage: nsc" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["curve", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert "usage: nsc" in capsys.readouterr().out


def exit_and_stdout_sha256(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


# SHA-256 of "<exit code>\n<stdout>" per `nsc verify` argument list: every
# suite, every perturbation, a genus range, option misuses (both options given
# to a suite that reads neither reports --perturb first) and an unknown suite,
# whose message lists the suites in argparse's wording
VERIFY_SHA256 = {
    "--suite closed-forms": "b9d3c873378264b2c603f333364f0e9e4529ff735b5bef7f463ed56b1f90eace",
    "--suite buchberger": "d953ba9da39b371e54890ba7283c0537534cd0ddd4cf1a21c99d16a2f617748e",
    "--suite grading": "9fa39c67b5250777525b6e135e1d2e42533caeef11e88b1d6b0e237d08234237",
    "--suite zoo-genus": "f025d86b223a6e271869e6bcecabc16427a422cd718c989447e9903a13d582aa",
    "--suite c0": "9c23cc67bfe87d32dec8b72e0d4516515e6aaa19bc5e6fe443ccf8eadc0275df",
    "--suite ab-equivalence": "5f8026ddea4b30bfe35b4b271ff371d79718c22d53ec34f4f7f1538d4651f4c6",
    "--suite buchberger --perturb c1": "541ed826b7fab3b87ec5f05ad7a5c197a2be48ed0d42fe3f0139a0053520a36d",
    "--suite buchberger --perturb c2": "c65a3b2e9cae94e94caa54ccedf460c3d5218de1e5a17ad5a51226aea26901dd",
    "--suite buchberger --perturb c3": "92727b78103a3120aad2014442c31bb52eef38e3ad879e31dfe7e0a46144f288",
    "--suite closed-forms --genus-range 2..20": "40e618726c32d7223bf0237c77a1169a399cacbe1f5c2484759f283c1d2c85ef",
    "--suite c0 --perturb c1": "6ccd079fd5a9cf2e99502e4dcc4d59ef158e3d46d7e724ec75f7243e36044101",
    "--suite grading --genus-range 2..3": "0b822ab8e91045453836e7301658a83f93159b9012f3b0455a2e6e1fd531c3d7",
    "--suite zoo-genus --perturb c2 --genus-range 2..3":
        "6ccd079fd5a9cf2e99502e4dcc4d59ef158e3d46d7e724ec75f7243e36044101",
    "--suite buchberger --perturb c1 --genus-range 2..3":
        "0b822ab8e91045453836e7301658a83f93159b9012f3b0455a2e6e1fd531c3d7",
    "--suite nope": "333df279b8a5305865750422fdf340f283b160473297c2df7c85eefcb1ec135a",
}


@pytest.mark.parametrize("argv", list(VERIFY_SHA256))
def test_verify_bytes_pinned(capsys, argv):
    assert exit_and_stdout_sha256(capsys, "verify", *argv.split()) == VERIFY_SHA256[argv]


def test_suite_names_in_order():
    from nsc.suites import SUITE_NAMES

    assert SUITE_NAMES == ("closed-forms", "buchberger", "grading", "zoo-genus", "c0", "ab-equivalence")


def test_run_suite_refuses_an_option_its_suite_does_not_read():
    # the same refusal, in the same words, as `nsc verify` gives
    from nsc.suites import run_suite

    with pytest.raises(ValidationError, match=r"^--perturb applies to --suite buchberger only$"):
        run_suite("c0", perturb="c1")
    with pytest.raises(ValidationError, match=r"^--genus-range applies to --suite closed-forms only$"):
        run_suite("grading", genus_range=range(2, 4))
    with pytest.raises(ValidationError, match="--perturb applies"):
        run_suite("zoo-genus", perturb="c2", genus_range=range(2, 4))
    with pytest.raises(ValidationError, match="unknown suite option 'tangent'"):
        run_suite("c0", tangent=2)
    assert run_suite("c0", perturb=None, genus_range=None)[0]


# the same per `nsc curve` argument list, the case's emitted spec in place of
# its name; fit at p1 of IIc-C0, its Weierstrass point, is refused
CURVE_SHA256 = {
    "genus Ia": "110dc9ed08a532aebfc0764b0cc047206cd49df660ecc77d18305bf1d62f00c1",
    "h0 Ia --divisor=2*p0": "da19cccf5c409ca1d61fb6119f232d2f76ca0596de9142f6a5ba7a666c00f006",
    "h1 Ia --divisor=2*p0-1*p1": "958c426ff593e54f59a9448d7e633c6655fd52099a8afd6a6e1b20e70feb5754",
    "alphabeta Ia --point p0": "a64cadb38133b2d0f178ae2484ccc83fd66d240767d1672bd66f4d5c33155d31",
    "canonical Ia --point p0": "7c317e7e64c59973f6debdd1bf5f7a045f5d050ebc39efe06ffe1425916d88df",
    "fit Ia --point p0": "41a899f396c4456d808c30fdfbe2f774fe2bdfd1ef30f75d6d209f794f40f3c0",
    "fit Ia --point p1": "3f54257ec876bb65c9b439c816ce153abd40340cd8e98539f0e30eac6709b916",
    "genus IIc-C0": "110dc9ed08a532aebfc0764b0cc047206cd49df660ecc77d18305bf1d62f00c1",
    "h0 IIc-C0 --divisor=2*p1": "e9f7eb5a416a533a372615fd9a72ff5e466763aab7061e52ad0d7f96bfe513b5",
    "h1 IIc-C0 --divisor=2*p1": "2f0dc6e48b34166a420efab9986b78f32ef55684ea1d49c8f6d2a864902ef95a",
    "alphabeta IIc-C0 --point p0": "a0b71bf0b635518498eac8f24c75633d3b82a4fb523f0b3901d9db4bcbc4bc05",
    "canonical IIc-C0 --point p0": "c0718a3e8ca6e5597a99cc5c833a94a2af21098de6cf9d3c1308eb7d6a2c31db",
    "fit IIc-C0 --point p0": "48b00379b5a2cf63c2bcb3b01edc07ae13328339fd85823ae3e977625ade4a06",
    "fit IIc-C0 --point p1": "6115d0f15dcf83c81c9d6e347bc2ab5a594388cbd37a7bc93bd56fa5f8ba31db",
    # corrections at a finite point, weights split between the points, and a
    # deep canonical parameter at the pinched curve's point at infinity
    "canonical Ia --point p1 --m-max 8": "39a8d746fd60a2a79b84364f9115325752175e92d18ad7efeab4d8b4f9ef52fc",
    "canonical Ia --point p0 --weights 1,1": "ff9c8d7fa415572c4349bead4ed7a1c6b01ecb15e74397058dcbe117905ff0e8",
    "alphabeta Ia --point p1 --weights 1,1": "4bb3324915642b1e945e029f72e01e704749a6994757516430d2c170888f71e9",
    "canonical IIc-C0 --point p0 --m-max 12": "1430572d114535c3ff72ebe8ebbd42533e591c51e10682f901d0303222971856",
    # the Weierstrass point of the pinched <2,5>-curve: the first section
    # solve is no triangular system, and its elimination finds no f_1[-3]
    "canonical IIc-C0 --point p1": "1228eca2eccb1e274b6298d91c6927738a5cb079a81a6c8771b54f67388dc81b",
    # bases of two and four functions, and a diagnostic that holds a
    # non-ASCII character, escaped as \u00e9
    "h0 Ia --divisor=4*p0-1*p1": "7c3ad15e685092e3189dc29b9c18a13cd1a344e00cecad81ffeccc160f9c826f",
    "h0 IIc-C0 --divisor=3*p0+2*p1": "3689f77cb1fe47b78abff6729f2e1154a03fa5f23675f809e1071ebc78e4bd93",
    "h1 Ia --divisor=2*pé": "2e4e1d2d0ab4b377ad6ffd4142a81b8e1ca36e452d5a418e18ba0789be3d8e80",
}


def test_curve_bytes_pinned(tmp_path, capsys):
    specs = {}
    for case in ("Ia", "IIc-C0"):
        specs[case] = str(tmp_path / f"{case}.json")
        assert run_cli(capsys, "zoo", "emit", case, specs[case])[0] == 0
    for argv, digest in CURVE_SHA256.items():
        op, case, *options = argv.split()
        assert exit_and_stdout_sha256(capsys, "curve", op, specs[case], *options) == digest, argv


def test_output_byte_identical_across_runs(capsys):
    _, out1 = run_cli(capsys, "verify", "--suite", "c0")
    _, out2 = run_cli(capsys, "verify", "--suite", "c0")
    assert out1 == out2
    _, out3 = run_cli(capsys, "verify", "--suite", "ab-equivalence")
    _, out4 = run_cli(capsys, "verify", "--suite", "ab-equivalence")
    assert out3 == out4


def _checkout_env():
    # a subprocess imports this checkout's package, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nsc.cli", "zoo", "list"],
        capture_output=True, text=True, check=False, env=_checkout_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"


def test_closed_stdout_exits_two_without_traceback():
    # stdout is a pipe whose read end is closed before the child writes, as
    # when the output is piped into a reader that has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nsc.cli", "verify", "--suite", "c0"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, check=False,
            env=_checkout_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
