import hashlib
import json
import re
import tracemalloc
from fractions import Fraction

import pytest

from nsc.curveio import curve_to_jsonable
from nsc.curves import INF, arithmetic_genus, delta_invariant, validate
from nsc.errors import ValidationError
from nsc.zoo import ZOO_IDS, deep_cusp, glued_cusps, zoo


def test_zoo_ids_are_eight():
    # suite_ab_equivalence draws its points in this order
    assert ZOO_IDS == ("Ia", "Ib", "Ic", "IIa", "IIb-tacnode", "IIb-cusp-node", "IIc-ccusp2", "IIc-C0")


# SHA-256 of glued_cusps(a1, a2) written as a spec file's JSON
GLUED_CUSPS_SHA256 = {
    (1, 1): "244380a9fbdc43953f57df654a873bee0b0bfd3e35ab67268d9b260f3576bb4c",
    (2, 3): "158560b11b3e3bc87ef5d29e9d1f7e13bdbd0c5b75e2bb29aa81e97774f54af8",
    (3, 5): "f433e9da2664ed1f2f221ed8f0f50b8a69577d3a4d78e6f432624e1db79b8324",
    (4, 4): "4ac068b957ee77406f7d41e2886e08629edf9c3dc08bb70ba6bc2f6876317b45",
    (5, 7): "739c1e5ff07112a8e417d34cb4c0930a6d2bbf3af0473286fb215015b1861938",
}


@pytest.mark.parametrize("orders", sorted(GLUED_CUSPS_SHA256))
def test_glued_cusps_bytes_pinned(orders):
    text = json.dumps(curve_to_jsonable(glued_cusps(*orders)), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GLUED_CUSPS_SHA256[orders]


def test_wide_glued_cusps_are_refused_before_any_basis_is_built():
    # jet width 2 x 202: a basis built first would take about 4 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="jet width 2 x 202"):
            glued_cusps(100, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_cusp_orders_must_be_positive_ints():
    # a delta or cusp order is an int >= 1, bools refused, checked before
    # anything is built: delta 0 would be a smooth point
    for bad in (-1, 0, True, False, 2.0, Fraction(2), "2", None):
        with pytest.raises(ValidationError, match=f"^delta {re.escape(repr(bad))} must be an int >= 1$"):
            deep_cusp("c0", Fraction(0), bad)
        with pytest.raises(ValidationError, match=f"^cusp order a1 {re.escape(repr(bad))} must be an int >= 1$"):
            glued_cusps(bad, 2)
        with pytest.raises(ValidationError, match=f"^cusp order a2 {re.escape(repr(bad))} must be an int >= 1$"):
            glued_cusps(2, bad)
    assert deep_cusp("c0", Fraction(0), 1).conductor == 2


def test_all_cases_validate_and_have_genus_two():
    for case in ZOO_IDS:
        cur = zoo(case)
        validate(cur)
        assert arithmetic_genus(cur) == 2


def test_singularity_budgets():
    deltas = {
        "Ia": [1, 1],
        "Ib": [1, 1],
        "Ic": [1, 1],
        "IIa": [2],
        "IIb-tacnode": [2],
        "IIb-cusp-node": [2],
        "IIc-ccusp2": [2],
        "IIc-C0": [2],
    }
    for case, expected in deltas.items():
        cur = zoo(case)
        assert sorted(delta_invariant(cur, s) for s in cur.singularities) == sorted(expected)


def test_branch_counts():
    assert len(zoo("IIa").singularities[0].branches) == 3
    assert len(zoo("IIb-tacnode").singularities[0].branches) == 2
    assert len(zoo("IIc-C0").singularities[0].branches) == 1


def test_cusp_family():
    for a in (1, 4, 8):
        cur = zoo(f"ccusp{a}")
        assert arithmetic_genus(cur) == a
        assert cur.marked_points[0].point is INF
        assert cur.marked_points[0].weight == a


def test_c0_default_markings():
    cur = zoo("IIc-C0")
    assert cur.marked_points[0].point == Fraction(1)
    assert cur.marked_points[1].point is INF
    assert cur.point_index("pinf") == 1


def test_unknown_case_rejected():
    with pytest.raises(ValidationError):
        zoo("IIz")
    with pytest.raises(ValidationError):
        zoo("ccusp0")
