"""Profile construction, bridging, validation and serialization tests.

Expected values for analytic pieces are closed forms; bridge expectations
are structural (exactness at band ends, certified slack, monotonicity)
rather than hand-picked numbers, because the construction itself is the
object under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuspgrowth.errors import BridgeConstructionError, CatalogError, DomainError, ProfileError
from cuspgrowth.profiles import (
    CATALOG_IDS,
    BridgeRequest,
    CatalogParams,
    CurvatureBounds,
    Profile,
    assemble_profile,
    build_bridge,
    catalog_companions,
    catalog_profile,
    default_catalog_params,
    poly_piece,
    profile_from_text,
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
        req = BridgeRequest(p=5.0, q=10.0, r=2000.0, s=2100.0,
                            left_power=0.0, left_rate=1.0,
                            right_power=0.0, right_rate=3.0, eps=0.1)
        piece = build_bridge(req)
        assert piece.t0 == 5.0 and piece.t1 == 2100.0
        assert len(piece.params["segments"]) == 5

        prof = assemble_profile(
            CurvatureBounds(a=1.0, b=3.0, eps=0.1),
            [pure_piece(0.0, 5.0, 1.0), piece, pure_piece(2100.0, INF, 3.0)])
        report = validate_profile(prof)
        assert report.passed, report.summary()
        assert report.convex

    def test_exact_at_band_ends(self):
        req = BridgeRequest(p=5.0, q=10.0, r=2000.0, s=2100.0,
                            left_power=0.0, left_rate=1.0,
                            right_power=0.0, right_rate=3.0, eps=0.1)
        piece = build_bridge(req)
        prof = assemble_profile(
            CurvatureBounds(a=1.0, b=3.0, eps=0.1),
            [pure_piece(0.0, 5.0, 1.0), piece, pure_piece(2100.0, INF, 3.0)])
        # Flanks evaluate the analytic laws exactly.
        assert prof.log_value(5.0) == -5.0
        assert prof.log_value(10.0) == -10.0
        assert prof.log_value(2050.0) == -3.0 * 2050.0
        # Transition lands on the right envelope to rounding error.
        assert prof.log_value(2000.0) == pytest.approx(-6000.0, rel=1e-12)

    def test_narrow_band_rejected_with_achieved_slack(self):
        req = BridgeRequest(p=10.0, q=10.0, r=20.0, s=20.0,
                            left_power=0.0, left_rate=1.0,
                            right_power=0.0, right_rate=3.0, eps=0.1)
        with pytest.raises(BridgeConstructionError) as exc:
            build_bridge(req)
        assert exc.value.achieved_eps > 0.1

    def test_identical_envelopes_collapse(self):
        req = BridgeRequest(p=1.0, q=2.0, r=4.0, s=5.0,
                            left_power=0.0, left_rate=2.0,
                            right_power=0.0, right_rate=2.0, eps=0.0)
        piece = build_bridge(req)
        prof = assemble_profile(CurvatureBounds(a=2.0, b=2.0),
                                [pure_piece(0.0, 1.0, 2.0), piece,
                                 pure_piece(5.0, INF, 2.0)])
        t = np.linspace(0.0, 8.0, 50)
        np.testing.assert_allclose(prof.log_value(t), -2.0 * t, rtol=0, atol=1e-12)

    def test_rising_gap_is_impossible(self):
        # Right envelope value at r sits above left value at q; a monotone
        # decreasing transition cannot exist.
        with pytest.raises(BridgeConstructionError):
            build_bridge(BridgeRequest(p=1.0, q=1.0, r=1.5, s=1.5,
                                       left_power=0.0, left_rate=3.0,
                                       right_power=0.0, right_rate=1.0,
                                       eps=100.0))

    @settings(max_examples=25, deadline=None)
    @given(rate_hi=st.floats(min_value=2.1, max_value=6.0),
           width=st.floats(min_value=200.0, max_value=5000.0))
    def test_transition_is_c2_and_monotone(self, rate_hi, width):
        q = 10.0
        req = BridgeRequest(p=q, q=q, r=q + width, s=q + width,
                            left_power=0.0, left_rate=1.0,
                            right_power=0.0, right_rate=rate_hi,
                            eps=INF)
        piece = build_bridge(req)
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

    def test_gap_between_pieces_rejected_at_assembly(self):
        with pytest.raises(ProfileError):
            assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                             [pure_piece(0.0, 1.0, 1.0), pure_piece(2.0, INF, 1.0)])

    def test_final_piece_must_be_infinite(self):
        with pytest.raises(ProfileError):
            assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                             [pure_piece(0.0, 1.0, 1.0)])


class TestSerialization:
    def test_round_trip_bit_exact(self):
        prof = catalog_profile("sparse-5.2")
        text = profile_to_text(prof)
        back = profile_from_text(text)
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
            back = profile_from_text(profile_to_text(prof))
            t = np.linspace(prof.t_start, 500.0, 997)
            assert np.array_equal(prof.log_value(t), back.log_value(t)), name

    def test_malformed_text_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_text("not json at all {")
        with pytest.raises(ProfileError):
            profile_from_text('{"format": "something-else"}')


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
