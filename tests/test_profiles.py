"""Profile construction, bridging, validation and serialization tests.

Expected values for analytic pieces are closed forms; bridge expectations
are structural (exactness at band ends, certified slack, monotonicity)
rather than hand-picked numbers, because the construction itself is the
object under test.
"""

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuspgrowth import profiles
from cuspgrowth.errors import BridgeConstructionError, CatalogError, DomainError, ProfileError
from cuspgrowth.profiles import (
    _GRID,
    _JOIN_TOL,
    _RATIO_SLOP,
    _SAMPLES_PER_PIECE,
    _SLOPE_TOL,
    _THETA_LADDER,
    CATALOG_IDS,
    CatalogParams,
    CurvatureBounds,
    Profile,
    ProfilePiece,
    ValidationReport,
    _cubic_coeffs,
    _Envelope,
    _piece_sample_grid,
    _poly_integral,
    _ramp_plateau_ramp,
    _SegmentTable,
    _transition_piece,
    assemble_profile,
    catalog_companions,
    catalog_profile,
    default_catalog_params,
    poly_piece,
    profile_to_text,
    pure_piece,
    validate_profile,
)

INF = float("inf")


def _simple_profile(rate: float = 2.0) -> Profile:
    return assemble_profile(CurvatureBounds(a=rate, b=rate),
                            [pure_piece(0.0, INF, rate)])


class TestAnalyticPieces:
    def test_pure_exp_values(self):
        prof = _simple_profile(2.0)
        assert prof.log_value(3.0) == -6.0
        assert prof.dlog(3.0) == -2.0
        assert prof.d2log(3.0) == 0.0
        assert prof.curvature_ratio(3.0) == 4.0

    def test_poly_exp_values(self):
        prof = assemble_profile(
            CurvatureBounds(a=1.0, b=3.0, eps=10.0),
            [poly_piece(1.0, INF, 2.5, 3.0)])
        t = 2.0
        assert prof.log_value(t) == pytest.approx(2.5 * math.log(2.0) - 6.0, rel=1e-15)
        assert prof.dlog(t) == pytest.approx(2.5 / 2.0 - 3.0, rel=1e-15)
        # ratio = (alpha/t - c)^2 - alpha/t^2
        assert prof.curvature_ratio(t) == pytest.approx((-1.75) ** 2 - 0.625, rel=1e-14)

    def test_vectorized_eval(self):
        prof = _simple_profile(1.0)
        t = np.array([0.0, 1.0, 2.0, 10.0])
        np.testing.assert_allclose(prof.log_value(t), -t, rtol=0, atol=0)

    def test_below_start_rejected(self):
        prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                                [pure_piece(1.0, INF, 1.0)])
        with pytest.raises(DomainError):
            prof.log_value(0.5)

    def test_poly_needs_positive_start(self):
        with pytest.raises(ProfileError):
            poly_piece(0.0, INF, 2.0, 1.0)


class TestBridge:
    def test_wide_band_meets_default_slack(self):
        piece = _transition_piece(_Envelope(0.0, 1.0), _Envelope(0.0, 3.0),
                                  10.0, 2000.0)
        assert piece.t0 == 10.0 and piece.t1 == 2000.0
        assert len(piece.params["segments"]) == 3

        prof = assemble_profile(
            CurvatureBounds(a=1.0, b=3.0, eps=0.1),
            [pure_piece(0.0, 10.0, 1.0), piece, pure_piece(2000.0, INF, 3.0)])
        report = validate_profile(prof)
        assert report.passed, report.summary()
        assert report.convex

    def test_exact_at_band_ends(self):
        piece = _transition_piece(_Envelope(0.0, 1.0), _Envelope(0.0, 3.0),
                                  10.0, 2000.0)
        # the piece's own table: its last cubic extends through r
        table = _SegmentTable.compile([piece])
        ends = np.array([10.0, 2000.0])
        # starts on the left envelope exactly
        assert table(ends, 0)[0] == -10.0
        # lands on the right envelope to rounding error, C^2 at both ends
        assert table(ends, 0)[1] == pytest.approx(-6000.0, rel=1e-12)
        np.testing.assert_allclose(table(ends, 1), [-1.0, -3.0], rtol=1e-12)
        np.testing.assert_allclose(table(ends, 2), [0.0, 0.0], atol=1e-12)

    def test_identical_envelopes_collapse(self):
        piece = _transition_piece(_Envelope(0.0, 2.0), _Envelope(0.0, 2.0),
                                  2.0, 4.0)
        assert [seg["kind"] for seg in piece.params["segments"]] == ["analytic"]
        prof = assemble_profile(CurvatureBounds(a=2.0, b=2.0),
                                [pure_piece(0.0, 2.0, 2.0), piece,
                                 pure_piece(4.0, INF, 2.0)])
        t = np.linspace(0.0, 8.0, 50)
        np.testing.assert_allclose(prof.log_value(t), -2.0 * t, rtol=0, atol=1e-12)

    def test_rising_gap_is_impossible(self):
        # Right envelope value at r sits above left value at q; a monotone
        # decreasing transition cannot exist.
        with pytest.raises(BridgeConstructionError):
            _transition_piece(_Envelope(0.0, 3.0), _Envelope(0.0, 1.0), 1.0, 1.5)

    @settings(max_examples=25, deadline=None)
    @given(rate_hi=st.floats(min_value=2.1, max_value=6.0),
           width=st.floats(min_value=200.0, max_value=5000.0))
    def test_transition_is_c2_and_monotone(self, rate_hi, width):
        q = 10.0
        piece = _transition_piece(_Envelope(0.0, 1.0), _Envelope(0.0, rate_hi),
                                  q, q + width)
        prof = assemble_profile(
            CurvatureBounds(a=1.0, b=rate_hi, eps=INF),
            [pure_piece(0.0, q, 1.0), piece, pure_piece(q + width, INF, rate_hi)])
        t = np.linspace(0.0, q + width + 50.0, 2001)
        g = prof.log_value(t)
        assert np.all(np.diff(g) < 0)
        report = validate_profile(prof)
        assert report.worst_join_gap <= 1e-9
        assert report.worst_slope_gap <= 1e-6


class TestValidator:
    def test_detects_value_jump(self):
        prof = assemble_profile(
            CurvatureBounds(a=1.0, b=2.0, eps=10.0),
            [pure_piece(0.0, 1.0, 1.0), pure_piece(1.0, INF, 2.0)])
        report = validate_profile(prof)
        assert not report.passed
        assert any("jump" in m for m in report.messages)

    def test_detects_non_monotone(self):
        # t^2 e^{-t} increases until t = 2.
        prof = assemble_profile(
            CurvatureBounds(a=1.0, b=1.0, eps=10.0),
            [poly_piece(0.5, INF, 2.0, 1.0)])
        report = validate_profile(prof)
        assert not report.passed

    def test_detects_ratio_outside_window(self):
        # Declared slack 0 but actual ratio equals 4 while bounds say [1, 1].
        prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0, eps=0.0),
                                [pure_piece(0.0, INF, 2.0)])
        report = validate_profile(prof)
        assert not report.passed
        assert report.implied_eps == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("name, params", [
        *((name, None) for name in CATALOG_IDS),
        # an implied slack above 1e6, which a probe at eps = 1e6 would fail
        ("exotic-div-5.3b", CatalogParams(rate_fast=1e3))])
    def test_catalog_profiles_report_as_a_fresh_validation(self, name, params):
        # a catalog profile keeps the report made while its slack was fixed
        for prof in (catalog_profile(name, params),
                     *catalog_companions(name, params)):
            fresh = validate_profile(Profile(bounds=prof.bounds, pieces=prof.pieces))
            assert fresh.passed
            assert validate_profile(prof) == fresh

    def test_gap_between_pieces_rejected_at_assembly(self):
        with pytest.raises(ProfileError):
            assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                             [pure_piece(0.0, 1.0, 1.0), pure_piece(2.0, INF, 1.0)])

    def test_final_piece_must_be_infinite(self):
        with pytest.raises(ProfileError):
            assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                             [pure_piece(0.0, 1.0, 1.0)])

    def test_final_cubic_segment_rejected(self):
        # a cubic log-slope extrapolated to infinity turns the profile
        # back up (ln T = -1, -1.75, 1.0, 1630.25 at t = 1, 2, 3, 10)
        cubic = {"kind": "cubic", "t0": 1.0, "t1": INF, "anchor": -1.0,
                 "coeffs": (-1.0, 0.0, 0.0, 1.0)}
        pieces = [pure_piece(0.0, 1.0, 1.0),
                  ProfilePiece(1.0, INF, "bridge", {"segments": (cubic,)})]
        with pytest.raises(ProfileError, match="final segment"):
            assemble_profile(CurvatureBounds(a=1.0, b=1.0), pieces)

    def test_final_law_of_each_catalog_profile(self):
        want = {"sparse-5.2": (0.0, 1.0, 3.0 ** 14),
                "exotic-conv-5.3a": (2.2, 3.0, 40.0),
                "exotic-div-5.3b": (3.0, 3.0, 20.0),
                "critical-finite-5.4a": (1.0, 1.5, 3.0 ** 8),
                "critical-infinite-5.4b": (1.0, 1.5, 3.0 ** 8)}
        for name, law in want.items():
            assert catalog_profile(name).final_law() == law
        assert catalog_companions("critical-infinite-5.4b")[0].final_law() == (1.5, 3.0, 20.0)

    def test_final_law_of_a_bridge_ending_in_an_analytic_flank(self):
        transition = _transition_piece(_Envelope(0.0, 1.0), _Envelope(1.0, 2.0),
                                       2.0, 12.0)
        flank = {"kind": "analytic", "t0": 12.0, "t1": INF,
                 "power": 1.0, "rate": 2.0}
        bridge = ProfilePiece(2.0, INF, "bridge", {
            "segments": (*transition.params["segments"], flank)})
        prof = assemble_profile(CurvatureBounds(a=1.0, b=2.0, eps=10.0),
                                [pure_piece(0.0, 2.0, 1.0), bridge])
        assert prof.final_law() == (1.0, 2.0, 12.0)


def _rebuild(text: str) -> Profile:
    """A profile from the bounds and pieces of its JSON text, as parsed."""
    doc = json.loads(text)
    pieces = tuple(ProfilePiece(p["t0"], p["t1"], p["form"], p["params"])
                   for p in doc["pieces"])
    return Profile(bounds=CurvatureBounds(**doc["bounds"]), pieces=pieces)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        prof = catalog_profile("sparse-5.2")
        text = profile_to_text(prof)
        back = _rebuild(text)
        assert back.bounds == prof.bounds
        assert len(back.pieces) == len(prof.pieces)
        t = np.linspace(0.0, 800.0, 4001)
        a = prof.log_value(t)
        b = back.log_value(t)
        assert np.array_equal(a, b)  # bit-identical, not just close
        assert profile_to_text(back) == text

    def test_round_trip_all_catalog_ids(self):
        for name in CATALOG_IDS:
            prof = catalog_profile(name)
            back = _rebuild(profile_to_text(prof))
            t = np.linspace(prof.t_start, 500.0, 997)
            assert np.array_equal(prof.log_value(t), back.log_value(t)), name

    # sha256 of profile_to_text at the default parameters, frozen when the
    # bridge ladder moved onto one shared grid per transition: a bridge that
    # picks another ramp fraction, or any float that moves, changes them
    FROZEN_DIGESTS = {
        "sparse-5.2": (
            "c8e94d9307fe208247d8ce1703138b19e6c89706500bd5f9e447433601cec3c0",),
        "exotic-conv-5.3a": (
            "8707ce3418ea612f37a33c055c89126c523410a73594ad6b7014161f703bd9ca",),
        "exotic-div-5.3b": (
            "fd49182f6f9852d94ac4004961cb26f4f7ddf01b7ff92b4b94cba83ffd36b447",),
        "critical-finite-5.4a": (
            "bd93d735cdc1e0727b710fd675831d758521e524f85d28014777e4de97d6f355",),
        "critical-infinite-5.4b": (
            "ac2ad27be74aaff086c385b03c58963add4a57a0254262ead9da5b15c80fe880",
            "ab0d005d1ee0db6c794d208a55926f84eead7322ca3a60273840141bc10de75d"),
    }

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_catalog_text_frozen(self, name):
        digests = tuple(hashlib.sha256(profile_to_text(p).encode()).hexdigest()
                        for p in _with_companions(name))
        assert digests == self.FROZEN_DIGESTS[name]


class TestCatalog:
    def test_all_ids_construct_and_validate(self):
        for name in CATALOG_IDS:
            prof = catalog_profile(name)
            report = validate_profile(prof)
            assert report.passed, f"{name}: {report.summary()}"
            for comp in catalog_companions(name):
                assert validate_profile(comp).passed, name

    def test_desk_scale_slack_is_recorded_honestly(self):
        # Narrow desk-scale bands cannot be 0.1-pinched; the bounds must
        # carry the achieved slack rather than pretending.
        prof = catalog_profile("sparse-5.2")
        report = validate_profile(prof)
        assert prof.bounds.eps >= report.implied_eps
        assert report.implied_eps > 1.0

    def test_sparse_window_layout(self):
        # m=3 first window: slow band to 121.5, fast band [162, 182.25],
        # recovery complete at 729.
        prof = catalog_profile("sparse-5.2", CatalogParams(m=3, windows=1))
        starts = [p.t0 for p in prof.pieces]
        assert starts == pytest.approx([0.0, 121.5, 162.0, 182.25, 729.0])
        assert prof.log_value(100.0) == -100.0
        assert prof.log_value(170.0) == -510.0
        assert prof.log_value(1000.0) == -1000.0

    def test_critical_window_layout(self):
        prof = catalog_profile("critical-finite-5.4a",
                               CatalogParams(m=3, windows=1, head=2.0))
        starts = [p.t0 for p in prof.pieces]
        assert starts == pytest.approx([0.0, 2.0, 9.0, 10.125,
                                        11.25, 18.5625, 81.0])
        # Fast band carries t^{2.5} e^{-3t} exactly.
        t = 12.0
        assert prof.log_value(t) == pytest.approx(2.5 * math.log(t) - 3.0 * t, rel=1e-14)

    def test_companion_only_for_divergent_critical(self):
        assert catalog_companions("sparse-5.2") == ()
        assert catalog_companions("exotic-div-5.3b") == ()
        comps = catalog_companions("critical-infinite-5.4b")
        assert len(comps) == 1
        # Companion tail is t^{1+gamma} e^{-b t}.
        tail = comps[0].pieces[-1]
        assert tail.form == "poly_exp"
        assert tail.params["power"] == pytest.approx(1.5)
        assert tail.params["rate"] == pytest.approx(3.0)

    def test_tight_slack_configs(self):
        # Wide-band configurations reach the requested 0.1 pinching slack.
        configs = {
            "sparse-5.2": CatalogParams(m=701, windows=1),
            "exotic-conv-5.3a": CatalogParams(head=10.0, band_ratio=140.0),
            "exotic-div-5.3b": CatalogParams(head=10.0, gap=2690.0,
                                             fast_len=10.0, tail_start=4510.0),
            "critical-finite-5.4a": CatalogParams(m=1500, mu=0.0015, windows=1,
                                                  head=10.0),
            "critical-infinite-5.4b": CatalogParams(m=1500, mu=0.0015, windows=1,
                                                    head=10.0, band_ratio=140.0),
        }
        for name, params in configs.items():
            prof = catalog_profile(name, params)
            assert prof.bounds.eps <= 0.1, (name, prof.bounds.eps)
            report = validate_profile(prof)
            assert report.passed, f"{name}: {report.summary()}"
            assert report.convex, name
            for comp in catalog_companions(name, params):
                assert comp.bounds.eps <= 0.1, name
                assert validate_profile(comp).passed, name

    def test_bad_parameters_rejected(self):
        with pytest.raises(CatalogError):
            catalog_profile("sparse-5.2", CatalogParams(m=2))
        with pytest.raises(CatalogError):
            catalog_profile("sparse-5.2", CatalogParams(rate_fast=1.5))
        with pytest.raises(CatalogError):
            catalog_profile("critical-finite-5.4a", CatalogParams(gamma=1.5))
        with pytest.raises(CatalogError):
            catalog_profile("critical-infinite-5.4b",
                            CatalogParams(beta=3.9, gamma=0.5))
        with pytest.raises(CatalogError):
            catalog_profile("no-such-id")

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_fast_rate_whose_square_overflows_rejected(self, name):
        params = CatalogParams(rate_fast=1e200, head=2.0)
        with pytest.raises(CatalogError, match="its square overflows"):
            catalog_profile(name, params)
        if name == "critical-infinite-5.4b":
            with pytest.raises(CatalogError, match="its square overflows"):
                catalog_companions(name, params)

    def test_mu_clamp_keeps_band_open(self):
        # Large mu must not silently produce an empty transition band.
        with pytest.raises(CatalogError):
            catalog_profile("critical-finite-5.4a",
                            CatalogParams(m=3, mu=0.45, head=2.0))

    def test_default_params_per_family(self):
        assert default_catalog_params("sparse-5.2").head == 4.0
        assert default_catalog_params("critical-finite-5.4a").head == 2.0


class TestPieceBreaks:
    def test_breaks_cover_joins_and_bridge_segments(self):
        prof = catalog_profile("exotic-div-5.3b")
        breaks = prof.piece_breaks()
        # Piece joins at 4, 8, 12, 20 must all appear.
        for pt in (4.0, 8.0, 12.0, 20.0):
            assert np.any(np.isclose(breaks, pt)), pt
        assert np.all(np.diff(breaks) > 0)


# -- segment table against the two-level reference ------------------------------
#
# The evaluator below is the dispatch that the segment table replaced:
# pieces by form string, then bridge segments by their own start array.
# The table must agree with it bit for bit, sign bits included.


def _ref_analytic(power, rate, t, order):
    if power == 0.0:
        if order == 0:
            return -rate * t
        if order == 1:
            return np.full_like(t, -rate)
        return np.zeros_like(t)
    if order == 0:
        return power * np.log(t) - rate * t
    if order == 1:
        return power / t - rate
    return -power / (t * t)


def _ref_segment(seg, t, order):
    if seg["kind"] == "analytic":
        return _ref_analytic(seg["power"], seg["rate"], t, order)
    w = seg["t1"] - seg["t0"]
    u = (t - seg["t0"]) / w
    c0, c1, c2, c3 = seg["coeffs"]
    if order == 1:
        return c0 + u * (c1 + u * (c2 + u * c3))
    if order == 2:
        return (c1 + u * (2.0 * c2 + u * 3.0 * c3)) / w
    integ = u * (c0 + u * (c1 / 2.0 + u * (c2 / 3.0 + u * c3 / 4.0)))
    return seg["anchor"] + w * integ


def _ref_piece(piece, t, order):
    if piece.form == "pure_exp":
        return _ref_analytic(0.0, piece.params["rate"], t, order)
    if piece.form == "poly_exp":
        return _ref_analytic(piece.params["power"], piece.params["rate"], t, order)
    segs = piece.params["segments"]
    starts = np.array([s["t0"] for s in segs])
    idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(segs) - 1)
    out = np.empty_like(t)
    for i, seg in enumerate(segs):
        mask = idx == i
        if mask.any():
            out[mask] = _ref_segment(seg, t[mask], order)
    return out


def _ref_eval(prof, t, order):
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.maximum(np.atleast_1d(arr).astype(float), prof.t_start)
    starts = np.array([p.t0 for p in prof.pieces])
    idx = np.clip(np.searchsorted(starts, arr, side="right") - 1,
                  0, len(prof.pieces) - 1)
    out = np.empty_like(arr)
    for i, piece in enumerate(prof.pieces):
        mask = idx == i
        if mask.any():
            out[mask] = _ref_piece(piece, arr[mask], order)
    return float(out[0]) if scalar else out


def _ref_breaks(prof):
    pts = []
    for p in prof.pieces:
        pts.append(p.t0)
        if p.form == "bridge":
            pts.extend(s["t0"] for s in p.params["segments"][1:])
    pts.append(prof.pieces[-1].t0)
    return np.unique(np.asarray(pts[1:], dtype=float))


def _with_companions(name):
    return (catalog_profile(name),) + catalog_companions(name)


def _bit_equal(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _probe_points(prof):
    breaks = _ref_breaks(prof)
    edges = np.concatenate([[prof.t_start], breaks])
    # one ulp below t_start is inside the start tolerance and clamps
    near = np.concatenate([np.nextafter(edges, -INF), edges,
                           np.nextafter(edges, INF)])
    dense = np.linspace(prof.t_start, 2.0 * edges[-1] + 100.0, 200_001)
    return dense, near


class TestSegmentTable:
    @pytest.mark.parametrize("name", CATALOG_IDS)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_matches_two_level_reference(self, name, order):
        for prof in _with_companions(name):
            dense, near = _probe_points(prof)
            method = (prof.log_value, prof.dlog, prof.d2log)[order]
            for t in (dense, near, dense[::-1].copy()):
                assert _bit_equal(method(t), _ref_eval(prof, t, order))
            for x in near:
                got = method(float(x))
                assert isinstance(got, float)
                assert _bit_equal(got, _ref_eval(prof, float(x), order)), x

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_breaks_unchanged(self, name):
        for prof in _with_companions(name):
            assert _bit_equal(prof.piece_breaks(), _ref_breaks(prof))

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_starts_strictly_increase(self, name):
        for prof in _with_companions(name):
            starts = prof._table.starts
            assert np.all(np.diff(starts) > 0)
            assert len(prof._table.rows) == starts.size

    def test_zero_width_segment_gets_no_row(self):
        # the theta = 1/2 ramp/plateau/ramp candidate leaves its plateau
        # no room; the pieces keep it, the table drops it
        for name in ("critical-finite-5.4a", "critical-infinite-5.4b"):
            prof = catalog_profile(name)
            empty = [seg["t0"] for p in prof.pieces if p.form == "bridge"
                     for seg in p.params["segments"] if seg["t1"] == seg["t0"]]
            assert empty == [5.5]
            assert np.count_nonzero(prof._table.starts == 5.5) == 1
            segments = sum(len(p.params["segments"]) if p.form == "bridge" else 1
                           for p in prof.pieces)
            assert len(prof._table.rows) == segments - 1

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_slope_range_brackets_the_sampled_slope(self, name):
        rng = np.random.default_rng(7)
        for prof in _with_companions(name):
            starts = prof._table.starts
            edges = np.append(starts, 2.0 * starts[-1] + 100.0)
            for a, b in zip(edges[:-1], edges[1:]):
                x, y = np.sort(rng.uniform(a, b, 2))
                for lo, hi in ((a, b), (x, y)):
                    t = np.linspace(lo, hi, 4001)
                    s = prof.dlog(t)
                    least, most = prof._dlog_range(np.array([lo]), np.array([hi]))
                    slack = 1e-9 * max(1.0, float(np.max(np.abs(s))))
                    assert least[0] <= s.min() + slack and most[0] >= s.max() - slack
                    # closed form, so attained up to the sampling step
                    assert least[0] >= s.min() - 1e-6 and most[0] <= s.max() + 1e-6


# -- bridge ladder and validator against the per-candidate reference ----------
#
# The evaluation below is the one the shared-grid ladder replaced: each
# ramp fraction rebuilt the band's grid, evaluated both envelopes on it
# afresh and read its segment table through three masked calls, and the
# validator read each piece's table the same way.  It checks every ramp
# fraction in full (proxy, monotonicity and sandwich) and keeps the first
# of strictly least slack, where the ladder ranks first and checks the
# sandwich lazily.  The chosen segments, the profile text and every
# report field must agree with it bit for bit.


@dataclass(frozen=True)
class _Candidate:
    segments: tuple
    proxy_slack: float
    monotone: bool
    sandwiched: bool


def _ref_transition_candidate(left, right, q, r, theta):
    width = r - q
    s_q = float(left(q, 1))
    s_r = float(right(r, 1))
    d_q = float(left(q, 2))
    d_r = float(right(r, 2))
    gap = float(right(r)) - float(left(q))

    # Plateau level from the exact area constraint: integral of sigma over
    # [q, r] equals the log-value gap between the envelopes.
    s_star = (gap / width
              - theta * (s_q + s_r) / 2.0
              - theta * theta * width * (d_q - d_r) / 12.0) / (1.0 - theta)

    w_ramp = theta * width
    seg1 = {
        "kind": "cubic",
        "t0": q, "t1": q + w_ramp,
        "anchor": float(left(q)),
        "coeffs": _cubic_coeffs(s_q, s_star, d_q * w_ramp, 0.0),
    }
    a1 = seg1["anchor"] + w_ramp * _poly_integral(seg1["coeffs"])
    seg2 = {
        "kind": "cubic",
        "t0": q + w_ramp, "t1": r - w_ramp,
        "anchor": a1,
        "coeffs": (s_star, 0.0, 0.0, 0.0),
    }
    a2 = a1 + (width - 2.0 * w_ramp) * s_star
    seg3 = {
        "kind": "cubic",
        "t0": r - w_ramp, "t1": r,
        "anchor": a2,
        "coeffs": _cubic_coeffs(s_star, s_r, 0.0, d_r * w_ramp),
    }
    segments = (seg1, seg2, seg3)

    t = np.linspace(q, r, _GRID)
    table = _SegmentTable.compile(
        [ProfilePiece(q, r, "bridge", {"segments": segments})])
    g = table(t, 0)
    d1 = table(t, 1)
    d2 = table(t, 2)
    ratio = d2 + d1 * d1

    lo_rate = min(left.rate, right.rate)
    hi_rate = max(left.rate, right.rate)
    achieved = max(0.0,
                   lo_rate * lo_rate - float(np.min(ratio)),
                   float(np.max(ratio)) - hi_rate * hi_rate)

    monotone = bool(np.all(d1 < 0.0))
    lo_env = np.minimum(left(t), right(t))
    hi_env = np.maximum(left(t), right(t))
    slack = 1e-9 * np.maximum(1.0, np.abs(g))
    sandwiched = bool(np.all(g >= lo_env - slack) and np.all(g <= hi_env + slack))

    return _Candidate(segments=segments, proxy_slack=achieved,
                      monotone=monotone, sandwiched=sandwiched)


def _ref_transition_piece(left, right, q, r):
    if left == right:
        seg = {"kind": "analytic", "t0": q, "t1": r,
               "power": left.power, "rate": left.rate}
        return ProfilePiece(q, r, "bridge", {"segments": (seg,)})
    if float(left(q, 1)) >= 0 or float(right(r, 1)) >= 0:
        raise BridgeConstructionError(
            "envelope not decreasing at a transition endpoint")
    best = None
    for theta in _THETA_LADDER:
        cand = _ref_transition_candidate(left, right, q, r, theta)
        if not (cand.monotone and cand.sandwiched):
            continue
        if best is None or cand.proxy_slack < best.proxy_slack:
            best = cand
    if best is None:
        raise BridgeConstructionError(
            f"no monotone sandwiched transition on [{q}, {r}] between "
            f"(power={left.power}, rate={left.rate}) and "
            f"(power={right.power}, rate={right.rate})")
    return ProfilePiece(q, r, "bridge", {"segments": best.segments})


def _ref_validate_profile(profile):
    msgs = []
    a2 = profile.bounds.a ** 2
    b2 = profile.bounds.b ** 2
    eps = profile.bounds.eps

    worst_join = 0.0
    worst_slope = 0.0
    # one table per piece: a join is checked with each side's own law
    tables = [_SegmentTable.compile([piece]) for piece in profile.pieces]
    for k, leftp in enumerate(profile.pieces[:-1]):
        t = np.array([leftp.t1])
        gl = float(tables[k](t, 0)[0])
        gr = float(tables[k + 1](t, 0)[0])
        rel = abs(gl - gr) / max(1.0, abs(gl))
        worst_join = max(worst_join, rel)
        if rel > _JOIN_TOL:
            msgs.append(f"log-value jump {rel:.3g} at t={leftp.t1}")
        for order in (1, 2):
            dl = float(tables[k](t, order)[0])
            dr = float(tables[k + 1](t, order)[0])
            srel = abs(dl - dr) / max(1.0, abs(dl))
            worst_slope = max(worst_slope, srel)
            if srel > _SLOPE_TOL:
                msgs.append(
                    f"order-{order} derivative jump {srel:.3g} at t={leftp.t1}")

    ratio_min = INF
    ratio_max = -INF
    for piece, table in zip(profile.pieces, tables):
        t = _piece_sample_grid(piece, _SAMPLES_PER_PIECE)
        g = table(t, 0)
        d1 = table(t, 1)
        d2 = table(t, 2)
        if not np.all(np.isfinite(g)):
            msgs.append(f"non-finite log value in piece at t0={piece.t0}")
            continue
        if np.any(d1 > 1e-12):
            msgs.append(f"non-decreasing log profile in piece at t0={piece.t0}")
        if np.any(np.diff(g) >= 0):
            msgs.append(f"sampled values not strictly decreasing in piece at t0={piece.t0}")
        ratio = d2 + d1 * d1
        ratio_min = min(ratio_min, float(np.min(ratio)))
        ratio_max = max(ratio_max, float(np.max(ratio)))
        if float(np.min(ratio)) < a2 - eps - _RATIO_SLOP:
            msgs.append(
                f"curvature proxy {float(np.min(ratio)):.6g} below "
                f"a^2 - eps = {a2 - eps:.6g} in piece at t0={piece.t0}")
        if float(np.max(ratio)) > b2 + eps + _RATIO_SLOP:
            msgs.append(
                f"curvature proxy {float(np.max(ratio)):.6g} above "
                f"b^2 + eps = {b2 + eps:.6g} in piece at t0={piece.t0}")

    implied = max(0.0, a2 - ratio_min, ratio_max - b2)
    return ValidationReport(passed=not msgs,
                            messages=tuple(msgs),
                            ratio_range=(ratio_min, ratio_max),
                            implied_eps=implied,
                            worst_join_gap=worst_join,
                            worst_slope_gap=worst_slope,
                            convex=ratio_min >= -_RATIO_SLOP)


def _catalog_build(name, params, *, reference):
    """The family's main profile and companions, or the error they raise;
    ``reference`` builds them through the per-candidate bridge and the
    table-evaluated validator."""
    with contextlib.ExitStack() as stack:
        if reference:
            stack.enter_context(mock.patch.object(
                profiles, "_transition_piece", _ref_transition_piece))
            stack.enter_context(mock.patch.object(
                profiles, "validate_profile", _ref_validate_profile))
        try:
            return ((catalog_profile(name, params),)
                    + catalog_companions(name, params))
        except (BridgeConstructionError, CatalogError) as exc:
            return type(exc), str(exc)


def _assert_same_build(name, params):
    got = _catalog_build(name, params, reference=False)
    want = _catalog_build(name, params, reference=True)
    if not isinstance(want[0], Profile):
        assert got == want
        return
    assert len(got) == len(want)
    for prof, ref in zip(got, want):
        # bridge segments compare with ==; the text's shortest round-trip
        # reprs also tell -0.0 from 0.0
        assert [p.params for p in prof.pieces] == [p.params for p in ref.pieces]
        assert profile_to_text(prof) == profile_to_text(ref)
        report = validate_profile(prof)
        expected = _ref_validate_profile(prof)
        assert report == expected
        assert repr(report) == repr(expected)


@st.composite
def _in_range_params(draw):
    # beta in (1 + gamma, 2 + gamma), as critical-infinite-5.4b needs
    gamma = draw(st.floats(0.05, 0.95))
    return CatalogParams(
        m=draw(st.integers(3, 5)),
        mu=draw(st.floats(0.01, 0.3)),
        band_ratio=draw(st.floats(1.5, 40.0)),
        head=draw(st.floats(0.5, 8.0)),
        rate_fast=draw(st.floats(2.05, 8.0)),
        beta=gamma + draw(st.floats(1.05, 1.95)),
        gamma=gamma,
        windows=draw(st.integers(1, 3)))


class TestLadderAgainstReference:
    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_default_families(self, name):
        _assert_same_build(name, default_catalog_params(name))

    @pytest.mark.parametrize("name", CATALOG_IDS)
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(params=_in_range_params())
    def test_in_range_parameters(self, name, params):
        _assert_same_build(name, params)

    # The three bands below were found by searching random envelope pairs
    # and bands with the reference, then frozen.

    @staticmethod
    def _assert_same_piece(left, right, q, r):
        got = _transition_piece(left, right, q, r)
        want = _ref_transition_piece(left, right, q, r)
        # repr tells -0.0 from 0.0 in every coefficient
        assert repr(got) == repr(want)
        return got

    def test_slack_tie_won_past_an_unsandwiched_candidate(self):
        left = _Envelope(2.0083462509581183, 4.518231569603959)
        right = _Envelope(0.033707827467932105, 2.2025275909780304)
        q, r = 0.6612510318460889, 9.201297564815158
        cands = [_ref_transition_candidate(left, right, q, r, theta)
                 for theta in _THETA_LADDER]
        ranked = sorted((c.proxy_slack, k) for k, c in enumerate(cands)
                        if c.monotone)
        # theta = 1/2 ranks first and fails the sandwich; 1/16 ties with
        # it and wins, while 1/8, sandwiched too, is one ulp worse
        assert [k for _, k in ranked[:4]] == [1, 3, 4, 5]
        assert len({slack for slack, _ in ranked[:4]}) == 1
        assert [cands[k].sandwiched for k in (1, 2, 3)] == [False, True, True]
        assert cands[2].proxy_slack > cands[3].proxy_slack
        piece = self._assert_same_piece(left, right, q, r)
        assert piece.params["segments"] == cands[3].segments

    def test_half_ramps_that_round_past_each_other(self):
        left = _Envelope(0.46639426933909545, 2.272022856006579)
        right = _Envelope(2.709371063234318, 4.767373057410012)
        q, r = 0.513271550585291, 2.9263515616838047
        half = 0.5 * (r - q)
        assert q + half > r - half
        piece = self._assert_same_piece(left, right, q, r)
        # the theta = 1/2 candidate wins; its plateau ends before it
        # starts, so its table has no plateau row
        plateau = piece.params["segments"][1]
        assert (plateau["t0"], plateau["t1"]) == (q + half, r - half)
        table = _SegmentTable.compile([piece])
        assert table.starts.tolist() == [q, r - half]

    def test_ladder_that_rejects_every_candidate(self):
        left = _Envelope(1.0158925378501862, 3.75781405251292)
        right = _Envelope(0.0, 3.5713558008720816)
        q, r = 7.984691105518831, 23.225573944283866
        cands = [_ref_transition_candidate(left, right, q, r, theta)
                 for theta in _THETA_LADDER]
        # every ramp fraction is monotone, so each reaches the sandwich
        assert all(c.monotone and not c.sandwiched for c in cands)
        with pytest.raises(BridgeConstructionError) as want:
            _ref_transition_piece(left, right, q, r)
        with pytest.raises(BridgeConstructionError) as got:
            _transition_piece(left, right, q, r)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("no monotone sandwiched transition")

    def test_report_of_a_failing_profile(self):
        # value and slope jumps at both joins, a rising stretch (t^2 e^{-t}
        # on [1, 2)) and a curvature proxy on both sides of the window
        prof = assemble_profile(
            CurvatureBounds(a=2.0, b=2.5),
            [pure_piece(0.0, 1.0, 1.0), poly_piece(1.0, 3.0, 2.0, 1.0),
             pure_piece(3.0, INF, 3.0)])
        report = validate_profile(prof)
        for kind in ("log-value jump", "order-1 derivative jump",
                     "order-2 derivative jump", "non-decreasing",
                     "not strictly decreasing", "below", "above"):
            assert any(kind in m for m in report.messages), kind
        assert report == _ref_validate_profile(prof)


class TestPlateauConstants:
    """The ladder reads the plateau row (s*, 0, 0, 0) without evaluating
    it: (ln T)' as s*, (ln T)'' as +0.0 and the proxy as s*^2.  These are
    checked here against the cubic's log-slope polynomial and its
    derivative, written out, on finite u inside and outside [0, 1]."""

    U = np.array([-1e6, -2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.3, 1.0,
                  1.0 + 2.0 ** -52, 7.0, 1e6])
    S_STAR = (-3.7, -1e-300, -5e-324, -1e300, -INF, -0.0, 0.0, 2.5, INF,
              float("nan"))

    @staticmethod
    def _polynomial(coeffs, u, width):
        c0, c1, c2, c3 = coeffs
        d1 = c0 + u * (c1 + u * (c2 + u * c3))
        d2 = (c1 + u * (2.0 * c2 + u * 3.0 * c3)) / width
        return d1, d2

    @pytest.mark.parametrize("zeros", [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
                                       (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0)])
    def test_flat_row_against_the_polynomial(self, zeros):
        for s_star in self.S_STAR:
            for width in (1e-3, 1.0, 7.0):
                with np.errstate(over="ignore"):
                    d1, d2 = self._polynomial((s_star, *zeros), self.U, width)
                    proxy = d2 + d1 * d1
                assert _bit_equal(proxy, np.full_like(self.U, s_star * s_star))
                assert np.array_equal(d1 < 0.0, np.full(self.U.shape, s_star < 0.0))
                if s_star != 0.0:
                    assert _bit_equal(d1, np.full_like(self.U, s_star))
                if not np.any(np.signbit(zeros)):
                    assert _bit_equal(d2, np.zeros_like(self.U))
                else:
                    assert np.all(d2 == 0.0)

    def test_negative_zero_coefficients_change_the_sign_of_d2(self):
        # why the constants hold for the ladder's own plateau row, whose
        # zeros are +0.0, and not for every flat cubic
        _, d2 = self._polynomial((-1.0, -0.0, -0.0, -0.0), self.U[7:8], 1.0)
        assert np.signbit(d2[0])
        ends = ((-1.0, -1.0, 0.0), (-9.0, -3.0, 0.0))
        for theta in _THETA_LADDER:
            plateau = _ramp_plateau_ramp(1.0, 3.0, theta, ends)[1]
            assert not np.any(np.signbit(plateau["coeffs"][1:]))


class TestJets:
    @staticmethod
    def _assert_jets_match_call(table, t):
        for order, got in enumerate(table.jets(t)):
            assert _bit_equal(got, table(t, order)), order

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_matches_call_on_sorted_grids(self, name):
        for prof in _with_companions(name):
            table = prof._table
            starts = table.starts
            # starts below the first start (which reads the first row)
            self._assert_jets_match_call(
                table, np.linspace(starts[0] - 1.0, 2.0 * starts[-1] + 100.0,
                                   100_001))
            # every start hit exactly, with its neighbouring floats
            self._assert_jets_match_call(table, np.sort(np.concatenate(
                [np.nextafter(starts, -INF), starts,
                 np.nextafter(starts, INF)])))
            # repeated abscissae, one point, no point
            self._assert_jets_match_call(table, np.repeat(starts, 3))
            self._assert_jets_match_call(table, starts[-1:] + 1.0)
            self._assert_jets_match_call(table, np.empty(0))

    def test_spans_a_dropped_zero_width_plateau(self):
        # the head transition of the critical ids is the theta = 1/2
        # candidate on [2, 9]: its plateau at 5.5 has no room
        prof = catalog_profile("critical-finite-5.4a")
        piece = next(p for p in prof.pieces if p.form == "bridge")
        assert [(s["t0"], s["t1"]) for s in piece.params["segments"]] == [
            (2.0, 5.5), (5.5, 5.5), (5.5, 9.0)]
        table = _SegmentTable.compile([piece])
        assert len(table.rows) == 2
        t = np.linspace(2.0, 9.0, _GRID)
        assert np.count_nonzero(t == 5.5) == 1
        self._assert_jets_match_call(table, t)
        self._assert_jets_match_call(table, np.array([5.5]))
        self._assert_jets_match_call(
            table, np.array([np.nextafter(5.5, -INF), 5.5, 5.5]))
