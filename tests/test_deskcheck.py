import hashlib
import json
from fractions import Fraction

import pytest

from nsc import deskcheck
from nsc.deskcheck import contraction_point_report, pinched_curve_alpha_table


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_passes_with_single_scale():
    rep = contraction_point_report()
    assert rep.passed
    assert rep.scale == Fraction(-1, 2)
    assert len(rep.matched) == 12
    assert all(row["match"] for row in rep.matched)


def test_exponent_zero_column_is_the_normalized_coordinate():
    rep = contraction_point_report()
    assert len(rep.discrepancies) == 4
    for row in rep.discrepancies:
        assert row["exponent"] == 0
        assert row["alpha"] == "0"
        assert row["s"] != "0"
        assert "note" in row


def test_alpha_table_stable_under_deeper_canonical_parameter():
    # the canonical parameter must reach depth m + q + 2; anything deeper
    # cannot change the reported entries
    base = pinched_curve_alpha_table(m_max=5, q_max=1)
    deep = pinched_curve_alpha_table(m_max=6, q_max=2)
    for key, value in base.items():
        assert deep[key] == value


def test_report_is_json_ready():
    doc = contraction_point_report().to_jsonable()
    json.dumps(doc)
    assert doc["status"] == "pass"
    assert doc["scale_c"] == "-1/2"


def test_report_and_alpha_table_bytes_pinned():
    # the whole report, as perfbench hashes it, and a table deeper than the
    # report's, byte for byte
    report = json.dumps(contraction_point_report().to_jsonable(), sort_keys=True, indent=2)
    assert sha256(report) == "dfa947baf15224e3b2db26ac17dc0637675a16129b2f1a6ba147183476d158d2"
    table = repr(sorted(pinched_curve_alpha_table(m_max=8, q_max=4).items()))
    assert sha256(table) == "a2637b8b0ba097f0c41eab26a4f8f49531034b3cbf3336e750182e13a8534609"


@pytest.mark.parametrize("key", [(m, q) for m in range(3, 7) for q in (-1, 1, 2)])
def test_one_changed_alpha_entry_fails_the_report(monkeypatch, key):
    # every coordinate entry is compared: the fitted entries included, a
    # change to one alpha fails the report
    table = pinched_curve_alpha_table()
    changed = {**table, key: table[key] + 1}
    monkeypatch.setattr(deskcheck, "pinched_curve_alpha_table", lambda: changed)
    rep = contraction_point_report()
    assert not rep.passed
    assert rep.to_jsonable()["status"] == "fail"


def test_exponent_zero_entries_are_not_compared(monkeypatch):
    table = pinched_curve_alpha_table()
    changed = {**table, **{(m, 0): Fraction(1) for m in range(3, 7)}}
    monkeypatch.setattr(deskcheck, "pinched_curve_alpha_table", lambda: changed)
    assert contraction_point_report().passed
