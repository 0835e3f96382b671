"""Tests for the property verifier."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pam.geometry import ConvexPolygon, Matrix2, Point, region_area, symdiff_area
from pam.mapmodel import build_map, parse_definition, standard_definition_text, standard_map
from pam.verifier import (
    ConeCertificate,
    ConeSpec,
    ZeroUpperLeftEntry,
    _decimal,
    _preimage_parts,
    cone_certificate,
    serialize_reports,
    _segment_interval,
    verify_cone_stability,
    verify_fixed_points,
    verify_map,
    verify_markov,
    verify_top_attraction,
)

# ---------------------------------------------------------------------------
# cone certificates

# matrix entries -> exact (gamma1, gamma2) at C = 2
CONE_ORACLES = [
    ((10, F(19, 2), 0, F(1, 2)), F(0), F(21, 40)),
    ((25, F(45, 2), 0, F(5, 2)), F(0), F(11, 20)),
    ((10, F(23, 2), 0, F(5, 2)), F(0), F(33, 40)),
    ((-40, 38, 0, 2), F(0), F(21, 40)),
]


def test_cone_certificate_exact_values():
    for entries, g1, g2 in CONE_ORACLES:
        cert = cone_certificate(Matrix2.of(*entries))
        assert cert == ConeCertificate(g1, g2, True)


def test_identity_keeps_any_cone():
    cert = cone_certificate(Matrix2.identity(), ConeSpec(F(1)))
    assert cert == ConeCertificate(F(0), F(1), True)


def test_shear_tilts_the_cone():
    cert = cone_certificate(Matrix2.of(1, 0, 1, 1))
    assert cert.gamma1 == 2
    assert cert.gamma2 is None
    assert not cert.holds


def test_zero_upper_left_entry_rejected():
    with pytest.raises(ZeroUpperLeftEntry):
        cone_certificate(Matrix2.of(0, 1, 1, 0))


def test_cone_spec_must_be_positive():
    with pytest.raises(ValueError):
        ConeSpec(F(0))


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_certificate_holds_iff_gammas_small(a, b, c, d):
    if a == 0:
        return
    cert = cone_certificate(Matrix2.of(a, b, c, d))
    assert cert.holds == (
        cert.gamma1 < 1 and cert.gamma2 is not None and cert.gamma2 <= 1
    )


def test_decimal_formatting():
    assert _decimal(F(21, 40)) == "0.525"
    assert _decimal(F(11, 20)) == "0.55"
    assert _decimal(F(33, 40)) == "0.825"
    assert _decimal(F(0)) == "0"
    assert _decimal(F(-3, 8)) == "-0.375"
    assert _decimal(F(7)) == "7"
    assert _decimal(F(1, 3)) == "1/3"  # non-terminating: fall back to p/q


# ---------------------------------------------------------------------------
# full battery on the bundled map


def test_every_property_passes():
    reports = verify_map()
    assert [r.property_id for r in reports] == sorted(r.property_id for r in reports)
    assert len(reports) == 10
    for r in reports:
        assert r.passed, f"{r.property_id}: {r.witnesses}"
    text = serialize_reports(reports)
    assert "FAIL" not in text


def test_report_contains_exact_gamma_and_eigen_lines():
    text = serialize_reports(verify_map())
    for needle in (
        "gamma = 0, 0.525",
        "gamma = 0, 0.55",
        "gamma = 0, 0.825",
        "eigenvalues 5/3, 5/4",
        "eigenvalues 5/2, 1",
        "all 16 ordered products",
    ):
        assert needle in text, needle


def test_reports_are_deterministic():
    assert serialize_reports(verify_map()) == serialize_reports(verify_map())


def test_preimage_residual_is_the_central_slab():
    t = standard_map()
    _, preimage, _, residual = _preimage_parts(t)
    assert region_area(preimage) == F(453, 200)
    assert region_area(residual) == F(27, 100)
    assert symdiff_area(residual, [t.region("OO^tC^cC")]) == 0


def test_top_attraction_is_certified_exactly():
    report = verify_top_attraction(standard_map())
    assert report.status == "pass"
    assert not report.notes
    assert any("NWA, NAB, NBO, NOC, NCD, NDE" in w for w in report.witnesses)
    assert report.witnesses[-1] == (
        "‖Tᵏp − N‖∞ <= (3/2)·2⁻ᵏ for every p ∈ NWE and k >= 0"
    )


def test_top_attraction_fails_when_a_base_image_drops():
    # O now maps to O^t on y = 4/5 instead of onto y = 3/2: the map stays
    # continuous, but two top pieces lose the exact halving of 2 − y
    data = parse_definition(standard_definition_text())
    data.images["O"] = data.vertices["O^t"]
    data.image_names["O"] = "O^t"
    tampered = build_map(data)

    report = {r.property_id: r for r in verify_map(tampered)}["02-top-attraction"]
    assert report.status == "fail"
    failures = [w for w in report.witnesses if w.startswith("FAIL")]
    assert any(w.startswith("FAIL: NBO: bottom row") for w in failures)
    assert failures[-1].startswith("FAIL: ‖Tᵏp − N‖∞")


def test_tampered_map_fails_verification():
    # redirecting one vertex image keeps the map continuous and
    # well-defined but breaks the Markov property, which the verifier
    # must catch with a concrete witness
    data = parse_definition(standard_definition_text())
    data.images["C^c"] = data.vertices["C^c"]
    data.image_names["C^c"] = "C^c"
    tampered = build_map(data)

    markov = verify_markov(tampered)
    assert markov.status == "fail"
    assert any("FAIL" in w for w in markov.witnesses)

    cone = verify_cone_stability(tampered)
    assert cone.status == "fail"


# ---------------------------------------------------------------------------
# fixed segment


def test_segment_interval_is_exact():
    square = ConvexPolygon([Point.of(0, 0), Point.of(1, 0), Point.of(1, 1), Point.of(0, 1)])
    across = _segment_interval(square, Point.of(-1, F(1, 2)), Point.of(2, F(1, 2)))
    assert across == (F(1, 3), F(2, 3))
    assert _segment_interval(square, Point.of(0, 0), Point.of(1, 0)) == (0, 1)
    assert _segment_interval(square, Point.of(1, 1), Point.of(2, 2)) is None
    assert _segment_interval(square, Point.of(2, 0), Point.of(3, 5)) is None


def test_fixed_segment_is_certified_from_the_pieces():
    report = verify_fixed_points(standard_map())
    assert report.status == "pass"
    assert report.witnesses[2] == (
        "W^cA^cS fixes both ends of its part [(-3/4, 1/2) (0, 0)] of [W^c S], "
        "hence all of it"
    )
    assert report.witnesses[-1] == "these parts cover [W^c S] = [(-3/4, 1/2) (0, 0)]"


def test_fixed_segment_fails_when_its_end_moves():
    # W^c now maps to W: the map still builds, but the piece carrying
    # the segment no longer fixes its upper end
    data = parse_definition(standard_definition_text())
    data.images["W^c"] = data.vertices["W"]
    data.image_names["W^c"] = "W"
    tampered = build_map(data)

    report = verify_fixed_points(tampered)
    assert report.status == "fail"
    failures = [w for w in report.witnesses if w.startswith("FAIL")]
    assert failures == [
        "FAIL: W^cA^cS fixes both ends of its part [(-3/4, 1/2) (0, 0)] of [W^c S], "
        "hence all of it [T((-3/4, 1/2)) = (-3/2, 1)]"
    ]


def test_flattened_piece_fails_the_properties_that_need_its_inverse():
    # the same tampered map: W^cA^tW^t is flattened onto a segment, so
    # the properties stated through images and preimages cannot hold
    data = parse_definition(standard_definition_text())
    data.images["W^c"] = data.vertices["W"]
    data.image_names["W^c"] = "W"
    tampered = build_map(data)

    reports = verify_map(tampered)
    assert [r.property_id for r in reports] == [r.property_id for r in verify_map()]
    singular = {
        r.property_id: r.witnesses
        for r in reports
        if "FAIL: every piece is invertible [NonInvertiblePiece: W^cA^tW^t]" in r.witnesses
    }
    assert sorted(singular) == [
        "07-preimage-new", "08-folding", "09-left-right", "10-was-analysis"
    ]
    # the witnesses gathered before the inverse was needed are kept
    assert all(w[-1].startswith("FAIL: every piece is invertible") for w in singular.values())
    assert {pid: len(w) for pid, w in singular.items()} == {
        "07-preimage-new": 1, "08-folding": 1, "09-left-right": 2, "10-was-analysis": 5
    }
    assert singular["09-left-right"][0] == "T(DES) ⊆ WAS ∪ NEW"
    status = {r.property_id: r.status for r in reports}
    assert all(status[pid] == "fail" for pid in singular)
    # the fixed-segment failure is the one the previous test pins down
    assert [status[pid] for pid in sorted(status) if pid not in singular] == [
        "fail", "pass", "pass", "pass", "pass", "pass"
    ]
