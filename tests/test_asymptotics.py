"""Cusp-area integrals and growth estimators against closed forms.

The excursion integral has an elementary closed form for pure exponential
profiles, and the finiteness-criterion integrand collapses to an explicit
power law on polynomial-tail profiles; both serve as frozen oracles that
were derived independently before the implementation.
"""

import bisect
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cuspgrowth import asymptotics, numerics
from cuspgrowth.errors import DomainError, QuadratureError
from cuspgrowth.asymptotics import (
    CuspModel,
    cuspidal_chain_check,
    sample_orbital_parabolic,
    GrowthClass,
    GrowthSeries,
    classify_growth,
    critical_exponent_chain_bound,
    log_cuspidal,
    estimate_exponents,
    log_orbital_parabolic,
    series_log_integrand,
    series_convergence_at,
    poincare_abscissa,
    sample_cuspidal,
)
from cuspgrowth.convolution import CuspidalInterpolant, cuspidal_interpolants
from cuspgrowth.numerics import log_tail_integral
from cuspgrowth.profiles import (
    CATALOG_IDS,
    CatalogParams,
    CurvatureBounds,
    assemble_profile,
    catalog_companions,
    catalog_profile,
    default_catalog_params,
    poly_piece,
    pure_piece,
)
from cuspgrowth.taxonomy import _CACHE_STEP, catalog_spec
from simpson_reference import simpson_log_integral

INF = float("inf")


def _pure_cusp(rate: float = 1.0, n: int = 2, c_norm: float = 1.0) -> CuspModel:
    prof = assemble_profile(CurvatureBounds(a=rate, b=rate, n=n),
                            [pure_piece(0.0, INF, rate)])
    return CuspModel(profile=prof, c_norm=c_norm)


class TestHoroArea:
    def test_area_law(self):
        # A(t) = c_norm T(t)^{n-1}, read back through v_P(R) = 1 / A(R/2):
        # ln A(1.5) = ln 5 + 2 * (-2 * 1.5)
        cusp = _pure_cusp(rate=2.0, n=3, c_norm=5.0)
        assert log_orbital_parabolic(cusp, 3.0) == pytest.approx(
            6.0 - math.log(5.0), rel=1e-14)

    @staticmethod
    def _ratio_bounds(cusp: CuspModel, t1: float, t2: float) -> tuple[float, float]:
        """Bounds on ln(A(t2) / A(t1)) from the closed-form log-slope
        ranges of the segment rows that [t1, t2] crosses."""
        starts = cusp.profile._table.starts
        cuts = np.concatenate(([t1], starts[(starts > t1) & (starts < t2)], [t2]))
        least, most = cusp.profile._dlog_range(cuts[:-1], cuts[1:])
        widths = np.diff(cuts)
        n1 = cusp.dim - 1
        return n1 * float(least @ widths), n1 * float(most @ widths)

    @staticmethod
    def _log_ratio(cusp: CuspModel, t1: float, t2: float) -> float:
        prof = cusp.profile
        return (cusp.dim - 1) * (prof.log_value(t2) - prof.log_value(t1))

    def test_ratio_bounds_tight_for_constant_curvature(self):
        cusp = _pure_cusp(rate=2.0, n=2)
        lo, hi = self._ratio_bounds(cusp, 1.0, 3.0)
        assert lo == hi == -4.0
        assert self._log_ratio(cusp, 1.0, 3.0) == -4.0

    def test_ratio_bounds_contain_catalog_profile(self):
        prof = catalog_profile("sparse-5.2", CatalogParams(m=701, windows=1))
        cusp = CuspModel(profile=prof)
        for t1, t2 in [(1.0, 50.0), (100.0, 5e5), (1e7, 5e10), (2e11, 1e12)]:
            lo, hi = self._ratio_bounds(cusp, t1, t2)
            actual = self._log_ratio(cusp, t1, t2)
            slack = 1e-9 * max(1.0, abs(actual))
            assert lo - slack <= actual <= hi + slack, (t1, t2)


class TestCuspidalFunction:
    def test_pure_exponential_closed_form(self):
        # For T = e^{-a t}, n = 2:  F(R) = (2/a) (e^{a R / 2} - 1).
        cusp = _pure_cusp(rate=1.0)
        got = log_cuspidal(cusp, 10.0)
        assert got == pytest.approx(math.log(2.0 * (math.exp(5.0) - 1.0)), abs=1e-8)

    def test_pure_exponential_other_rate(self):
        cusp = _pure_cusp(rate=2.0)
        got = log_cuspidal(cusp, 6.0)
        assert got == pytest.approx(math.log(math.exp(6.0) - 1.0), abs=1e-8)

    def test_higher_dimension(self):
        # T = e^{-t}, n = 3: integrand is e^{R - t}, total e^R (1 - e^{-R}).
        cusp = _pure_cusp(rate=1.0, n=3)
        got = log_cuspidal(cusp, 8.0)
        assert got == pytest.approx(8.0 + math.log(1.0 - math.exp(-8.0)), abs=1e-8)

    def test_normalization_cancels(self):
        a = log_cuspidal(_pure_cusp(c_norm=1.0), 7.0)
        b = log_cuspidal(_pure_cusp(c_norm=50.0), 7.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_below_start_is_empty(self):
        assert log_cuspidal(_pure_cusp(), 0.0) == -math.inf

    def test_piecewise_against_brute_force(self):
        # Independent trapezoid evaluation on a dense linear grid,
        # stabilized by factoring out the max; checks the breakpoint
        # handling on a genuinely piecewise profile.
        prof = catalog_profile("exotic-div-5.3b")
        cusp = CuspModel(profile=prof)
        r = 30.0

        t = np.linspace(prof.t_start, r, (1 << 17) + 1)
        y = (prof.log_value(t) - prof.log_value((r + t) / 2.0))
        m = float(np.max(y))
        brute = m + math.log(np.trapezoid(np.exp(y - m), t))

        got = log_cuspidal(cusp, r)
        assert got == pytest.approx(brute, abs=5e-5)

    def test_sample_series(self):
        cusp = _pure_cusp()
        series = sample_cuspidal(cusp, [2.0, 4.0, 8.0], label="demo")
        assert series.label == "demo"
        assert len(series) == 3
        assert series.log_values[2] == pytest.approx(
            math.log(2.0 * (math.exp(4.0) - 1.0)), abs=1e-5)


def _excursion_profiles():
    """The five catalog profiles and the critical-infinite-5.4b companion."""
    return ([(name, catalog_profile(name)) for name in CATALOG_IDS]
            + [("critical-infinite-5.4b-companion",
                catalog_companions("critical-infinite-5.4b")[0])])


def _excursion_cuts(prof, r):
    """[t_start, R] cut at the breaks b and at 2b - R, as log_cuspidal cuts it."""
    breaks = prof.piece_breaks()
    inner = np.concatenate([breaks, 2.0 * breaks - r])
    return sorted({prof.t_start, r,
                   *(float(b) for b in inner if prof.t_start < b < r)})


def _adaptive_log_cuspidal(cusp, r, rel_tol):
    """The former path: one adaptive Simpson integral per radius."""
    prof = cusp.profile
    n1 = cusp.dim - 1

    def f_log(t):
        return n1 * (prof.log_value(t) - prof.log_value((r + t) / 2.0))

    return simpson_log_integral(f_log, prof.t_start, r, rel_tol=rel_tol,
                                breakpoints=_excursion_cuts(prof, r))


class TestBatchedExcursion:
    def test_scalar_and_array_bit_identical(self):
        for name in ("sparse-5.2", "critical-finite-5.4a"):
            cusp = CuspModel(catalog_profile(name))
            radii = np.concatenate([[-1.0, 0.0], np.linspace(0.5, 500.0, 96)])
            batch = log_cuspidal(cusp, radii, rel_tol=1e-8)
            one_by_one = [log_cuspidal(cusp, float(r), rel_tol=1e-8) for r in radii]
            assert all(isinstance(v, float) for v in one_by_one)
            assert np.array_equal(batch, one_by_one)
            assert batch[0] == batch[1] == -INF
            shaped = log_cuspidal(cusp, radii[2:].reshape(4, -1)[::-1], rel_tol=1e-8)
            assert np.array_equal(shaped, batch[2:].reshape(4, -1)[::-1])

    def test_blocks_and_chunks_do_not_change_a_bit(self, monkeypatch):
        cusp = CuspModel(catalog_profile("critical-infinite-5.4b"))
        radii = np.linspace(1.0, 500.0, 60)
        whole = log_cuspidal(cusp, radii, rel_tol=1e-8)
        monkeypatch.setattr(asymptotics, "_BLOCK_RADII", 7)
        monkeypatch.setattr(asymptotics, "_CHUNK_PANELS", 16)
        assert np.array_equal(log_cuspidal(cusp, radii, rel_tol=1e-8), whole)

    def test_rejects_non_finite_radius(self):
        with pytest.raises(DomainError, match="finite"):
            log_cuspidal(_pure_cusp(), np.array([2.0, INF]))
        with pytest.raises(DomainError, match="finite"):
            log_cuspidal(_pure_cusp(), float("nan"))

    @pytest.mark.parametrize("rel_tol", [float("nan"), INF, -1.0, 0.0])
    @pytest.mark.parametrize("call", [
        lambda cusp, tol: log_cuspidal(cusp, 10.0, rel_tol=tol),
        lambda cusp, tol: CuspidalInterpolant(cusp, 10.0, rel_tol=tol),
        lambda cusp, tol: cuspidal_interpolants([cusp], 10.0, rel_tol=tol),
    ], ids=["log_cuspidal", "CuspidalInterpolant", "cuspidal_interpolants"])
    def test_rejects_bad_rel_tol(self, monkeypatch, call, rel_tol):
        # rejected by name before any integration; 0 must not surface as
        # a QuadratureError, which the command line reports as exit 4
        def integrate(*args):
            raise AssertionError("integrated before checking rel_tol")

        monkeypatch.setattr(asymptotics, "_log_excursion_block", integrate)
        with pytest.raises(DomainError, match="rel_tol"):
            call(CuspModel(catalog_profile("sparse-5.2")), rel_tol)

    def test_miss_at_minimum_budget_raises(self, monkeypatch):
        # at rel_tol 1e-10 the 8-point rule on the companion's R = 8 panels
        # misses its halved-panel check by about 2e-9, and one halving mends it
        cusp = CuspModel(catalog_companions("critical-infinite-5.4b")[0])
        assert math.isfinite(log_cuspidal(cusp, 8.0, rel_tol=1e-10))
        monkeypatch.setattr(numerics, "_MAX_HALVINGS", 0)
        with pytest.raises(QuadratureError, match="R=8.0") as exc:
            log_cuspidal(cusp, 8.0, rel_tol=1e-10)
        assert exc.value.log_partial == pytest.approx(
            _adaptive_log_cuspidal(cusp, 8.0, 1e-10), abs=1e-8)
        with pytest.raises(QuadratureError):
            log_cuspidal(cusp, np.array([4.0, 8.0, 12.0]), rel_tol=1e-10)
        with pytest.raises(QuadratureError):
            sample_cuspidal(cusp, [4.0, 8.0, 12.0], rel_tol=1e-10)

    def test_panel_budget_raises(self, monkeypatch):
        cusp = CuspModel(catalog_profile("sparse-5.2"))
        monkeypatch.setattr(asymptotics, "_MAX_RADIUS_PANELS", 4)
        with pytest.raises(QuadratureError, match="R=200.0 needs"):
            log_cuspidal(cusp, np.array([3.0, 200.0]))

    @pytest.mark.parametrize("name, b", [("exotic-div-5.3b", 1e50),
                                         ("critical-finite-5.4a", 1e30),
                                         ("exotic-conv-5.3a", 1e150)])
    def test_panel_count_past_int64_raises(self, name, b):
        # the panel count overflows int64; the budget must see it unwrapped
        params = dataclasses.replace(default_catalog_params(name), rate_fast=b)
        cusp = CuspModel(catalog_profile(name, params))
        radii = np.array([8.0, 248.0])
        with pytest.raises(QuadratureError, match="over the budget"):
            log_cuspidal(cusp, radii)


class TestExcursionAgainstAdaptive:
    @pytest.mark.parametrize("name,prof", _excursion_profiles(),
                             ids=[n for n, _ in _excursion_profiles()])
    def test_full_cache_grid(self, name, prof):
        # the step-2 grid that run_example caches at its default horizon
        cusp = CuspModel(prof)
        cache = CuspidalInterpolant(cusp, 501.0, step=_CACHE_STEP, rel_tol=1e-10)
        ref = np.array([_adaptive_log_cuspidal(cusp, float(r), 1e-10)
                        for r in cache.nodes])
        assert cache.nodes.size == 251
        assert np.max(np.abs(cache.values - ref)) <= 1e-9


def _mp_log_profile(table, starts, t):
    """ln T(t) in mpmath arithmetic from the segment table's rows."""
    row = table.rows[max(bisect.bisect_right(starts, float(t)) - 1, 0)]
    if hasattr(row, "coeffs"):
        c0, c1, c2, c3 = row.coeffs
        u = (t - row.t0) / row.width
        return row.anchor + row.width * u * (
            c0 + u * (c1 / 2 + u * (c2 / 3 + u * c3 / 4)))
    return (row.power * mpmath.log(t) if row.power else 0) - row.rate * t


def _mp_log_cuspidal(prof, r):
    """Gauss-Legendre quadrature in 20-digit arithmetic over the same
    segments, each split into pieces of length at most 8; pieces more than
    60 nats below the peak (by their end values and the slope bound 3 of
    the catalog rates) are left out."""
    table = prof._table
    starts = table.starts.tolist()
    cuts = _excursion_cuts(prof, r)
    pts = []
    for a, b in zip(cuts, cuts[1:]):
        pts.extend(np.linspace(a, b, math.ceil((b - a) / 8.0) + 1)[:-1].tolist())
    pts.append(r)
    with mpmath.workdps(20):
        def f_log(t):
            return (_mp_log_profile(table, starts, t)
                    - _mp_log_profile(table, starts, (r + t) / 2))

        ends = [float(f_log(mpmath.mpf(x))) for x in pts]
        top = max(ends)
        total = 0
        for a, b, fa, fb in zip(pts, pts[1:], ends, ends[1:]):
            if max(fa, fb) + 3.0 * (b - a) < top - 60.0:
                continue
            value, err = mpmath.quad(lambda t: mpmath.exp(f_log(t)), [a, b],
                                     method="gauss-legendre", error=True)
            assert err <= 1e-15 * value
            total += value
        return float(mpmath.log(total))


class TestExcursionAgainstMpmath:
    @pytest.mark.parametrize("name", [
        n for n in CATALOG_IDS
        if any(p.form == "bridge" for p in catalog_profile(n).pieces)])
    def test_bridge_bearing_catalog_profiles(self, name):
        prof = catalog_profile(name)
        cusp = CuspModel(prof)
        for r in (30.0, 200.0, 500.0):
            got = log_cuspidal(cusp, r, rel_tol=1e-10)
            assert got == pytest.approx(_mp_log_cuspidal(prof, r), abs=1e-10), r


class TestParabolicGrowth:
    def test_pure_profile_growth(self):
        cusp = _pure_cusp(rate=1.0)
        assert log_orbital_parabolic(cusp, 10.0) == pytest.approx(5.0, rel=1e-14)

    def test_vectorized(self):
        cusp = _pure_cusp(rate=2.0, n=3)
        r = np.array([2.0, 4.0])
        np.testing.assert_allclose(log_orbital_parabolic(cusp, r), 2.0 * r, rtol=1e-14)

    def test_critical_exponent_pure(self):
        # For rate c in dimension n the parabolic exponent is (n-1) c / 2.
        assert poincare_abscissa(_pure_cusp(rate=1.0)) == 0.5

    def test_critical_exponent_dimension_scaling(self):
        assert poincare_abscissa(_pure_cusp(rate=2.0, n=3)) == 2.0

    @pytest.mark.parametrize("name, want", [
        ("sparse-5.2", 0.5),               # final law e^{-t}
        ("exotic-conv-5.3a", 1.5),         # t^2.2 e^{-3t}
        ("exotic-div-5.3b", 1.5),          # t^3 e^{-3t}
        ("critical-finite-5.4a", 0.75),    # t e^{-1.5t}
        ("critical-infinite-5.4b", 0.75),  # t e^{-1.5t}
    ])
    def test_catalog_abscissa_is_exact(self, name, want):
        assert poincare_abscissa(CuspModel(profile=catalog_profile(name))) == want


class TestMeasureCriterion:
    def test_divergence_critical_integrand_is_inverse_square(self):
        # Tail T = t^3 e^{-3t} at s = 3/2, n = 2: the integrand collapses
        # to 8 / t^2 exactly once t/2 is inside the tail piece.
        cusp = CuspModel(profile=catalog_profile("exotic-div-5.3b"))
        f = series_log_integrand(cusp, 1.5)
        for t in (50.0, 123.0, 4096.0):
            assert float(f(t)) == pytest.approx(math.log(8.0 / t ** 2), rel=1e-12)

    def test_divergence_critical_tail_mass(self):
        # Integral of 8/t^2 over [40, inf) = 0.2; the window ratio is
        # exactly 1/2 so the geometric closure is exact.
        cusp = CuspModel(profile=catalog_profile("exotic-div-5.3b"))
        res = series_convergence_at(cusp, 1.5)
        assert res.converges
        assert res.log_tail == pytest.approx(math.log(8.0 / 40.0), abs=1e-6)

    def test_convergent_critical_family(self):
        # Tail t^{2+gamma} e^{-bt}: integrand ~ t^{-(1+gamma)}, finite.
        cusp = CuspModel(profile=catalog_profile("critical-finite-5.4a"))
        res = series_convergence_at(cusp, 1.5)
        assert res.converges

    def test_divergent_companion(self):
        # Companion tail t^{1+gamma} e^{-bt}: integrand ~ t^{-gamma},
        # infinite mass for gamma in (0, 1).
        comp = catalog_companions("critical-infinite-5.4b")[0]
        res = series_convergence_at(CuspModel(profile=comp), 1.5)
        assert res.diverges


class TestClosedFormTail:
    def test_at_the_abscissa_only_the_power_decides(self):
        # pure e^{-t}: at s* = 1/2 the integrand is t, divergent; t e^{-t}
        # gives the constant 2, still divergent; t^3 e^{-3t} gives 8/t^2
        # with mass 8/T
        res = series_convergence_at(_pure_cusp(), 0.5)
        assert res.diverges and res.log_tail == INF
        prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                                [poly_piece(1.0, INF, 1.0, 1.0)])
        res = series_convergence_at(CuspModel(profile=prof), 0.5)
        assert res.diverges and res.log_tail == INF
        cusp = CuspModel(profile=catalog_profile("exotic-div-5.3b"))
        res = series_convergence_at(cusp, 1.5, t_min=64.0)
        assert res.converges
        assert res.log_tail == pytest.approx(math.log(8.0 / 64.0), rel=0, abs=1e-15)

    def test_below_the_abscissa_diverges(self):
        res = series_convergence_at(
            CuspModel(profile=catalog_profile("exotic-div-5.3b")), 1.4999)
        assert res.diverges and res.log_tail == INF

    def test_above_the_abscissa_is_an_incomplete_gamma(self):
        # from t_min = 2: integral of t e^{-t/2} is 8/e; c_norm divides
        res = series_convergence_at(_pure_cusp(), 1.0)
        assert res.log_tail == pytest.approx(math.log(8.0) - 1.0, abs=1e-14)
        res = series_convergence_at(_pure_cusp(c_norm=math.exp(2.0)), 1.0)
        assert res.log_tail == pytest.approx(math.log(8.0) - 3.0, abs=1e-14)

    @pytest.mark.parametrize("name, s, t_min", [
        ("exotic-conv-5.3a", 1.6, None),
        ("critical-finite-5.4a", 0.9, None),
        ("exotic-div-5.3b", 1.7, 30.0),    # [30, 40] crosses a bridge
        ("exotic-div-5.3b", 1.5, 10.0),
    ])
    def test_mass_matches_the_window_scan(self, name, s, t_min):
        cusp = CuspModel(profile=catalog_profile(name))
        res = series_convergence_at(cusp, s, t_min=t_min)
        start = t_min or 2.0 * cusp.profile.pieces[-1].t0
        ref = log_tail_integral(series_log_integrand(cusp, s), start)
        assert res.converges and ref.converges
        assert res.log_tail == pytest.approx(ref.log_tail, rel=0, abs=1e-8)

    def test_bad_arguments_rejected(self):
        with pytest.raises(DomainError):
            series_convergence_at(_pure_cusp(), 1.0, t_min=0.0)
        with pytest.raises(DomainError):
            series_convergence_at(_pure_cusp(), math.nan)


def _scan_bracket(cusp: CuspModel, *, tol: float = 1e-6,
                  r_start: float = 8.0) -> tuple[float, float]:
    """The former abscissa search, kept as a reference: bisection on s of
    a doubling-window scan of e^{-s R} v_P(R), where an undecided scan
    counts as divergent.  Returns the final bracket."""
    def converges(s: float) -> bool:
        def f_log(rr):
            return -s * rr + log_orbital_parabolic(cusp, rr)
        return log_tail_integral(f_log, r_start).verdict is True

    bounds = cusp.profile.bounds
    lo = tol / 4.0
    hi = (cusp.dim - 1) * math.sqrt(bounds.b ** 2 + bounds.eps) / 2.0 + 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestAgainstWindowScan:
    """The closed form against the doubling-window scan it replaced."""

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_verdicts_agree_at_the_ambient_exponent(self, name):
        spec = catalog_spec(name)
        for cusp in spec.cusps:
            s = spec.vgamma.delta
            ref = log_tail_integral(series_log_integrand(cusp, s),
                                    2.0 * cusp.profile.pieces[-1].t0)
            assert ref.verdict is not None
            assert series_convergence_at(cusp, s).verdict is ref.verdict

    def test_scan_brackets_the_sparse_abscissa(self):
        lo, hi = _scan_bracket(CuspModel(profile=catalog_profile("sparse-5.2")))
        assert lo <= 0.5 <= hi

    def test_scan_misses_the_exotic_div_abscissa(self):
        # just below s* = 3/2 the integrand e^{(s*-s) t} 8 / t^2 still
        # falls across every scanned window, so the scan reads convergence
        # there and its bisection settles at 1.4999687, 31 tolerances low;
        # the weighted scan at that abscissa stays undecided, where the
        # closed form diverges below s* and converges at it (8 / t^2)
        cusp = CuspModel(profile=catalog_profile("exotic-div-5.3b"))
        lo, hi = _scan_bracket(cusp)
        old = 0.5 * (lo + hi)
        assert hi < 1.5 - 30e-6
        assert old == pytest.approx(1.4999687, abs=1e-7)
        assert poincare_abscissa(cusp) == 1.5
        ref = log_tail_integral(series_log_integrand(cusp, old), 40.0)
        assert ref.verdict is None
        assert series_convergence_at(cusp, old).diverges
        assert series_convergence_at(cusp, 1.5).converges


class TestGrowthSeries:
    def test_validation(self):
        with pytest.raises(DomainError):
            GrowthSeries(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            GrowthSeries(np.array([1.0, 2.0]), np.array([0.0, math.nan]))


def _series(fn, r_max=64.0, n=513) -> GrowthSeries:
    radii = np.linspace(r_max / n, r_max, n)
    return GrowthSeries(radii, fn(radii))


class TestEstimateExponents:
    def test_exact_exponential(self):
        est = estimate_exponents(_series(lambda r: 2.0 * r))
        assert est.omega_plus == pytest.approx(2.0, abs=1e-12)
        assert est.omega_minus == pytest.approx(2.0, abs=1e-12)
        assert est.converged_plus and est.converged_minus

    def test_distinct_envelopes(self):
        # ln f oscillates between slopes 1 and 2 with doubling period:
        # the windows see both envelopes.
        def fn(r):
            phase = np.sin(2.0 * math.pi * np.log2(np.maximum(r, 1e-9)))
            return 1.5 * r + 0.5 * r * phase

        est = estimate_exponents(_series(fn))
        assert est.omega_plus == pytest.approx(2.0, abs=0.05)
        assert est.omega_minus == pytest.approx(1.0, abs=0.05)

    @settings(max_examples=20, deadline=None)
    @given(log_scale=st.floats(min_value=-5.0, max_value=5.0))
    def test_rescaling_sensitivity_is_exactly_bounded(self, log_scale):
        base = _series(lambda r: 2.0 * r)
        scaled = GrowthSeries(base.radii, base.log_values + log_scale)
        e0 = estimate_exponents(base)
        e1 = estimate_exponents(scaled)
        bound = abs(log_scale) / e0.r_tail_min + 1e-12
        assert abs(e1.omega_plus - e0.omega_plus) <= bound
        assert abs(e1.omega_minus - e0.omega_minus) <= bound

    def test_sparse_sampling_rejected(self):
        s = GrowthSeries(np.array([1.0, 2.0, 60.0, 64.0]), np.zeros(4))
        with pytest.raises(DomainError):
            estimate_exponents(s)


class TestClassifyGrowth:
    def test_pure(self):
        s = _series(lambda r: 2.0 * r + 0.4 * np.cos(r))
        got = classify_growth(s, 2.0)
        assert got.kind is GrowthClass.PURE
        assert got.oscillation <= 1.0

    def test_lower(self):
        s = _series(lambda r: 2.0 * r - 1.2 * np.log(np.maximum(r, 1e-9)))
        got = classify_growth(s, 2.0)
        assert got.kind is GrowthClass.LOWER
        assert got.trend_peak < -0.4

    def test_upper(self):
        s = _series(lambda r: 2.0 * r + 0.5 * np.sqrt(r))
        got = classify_growth(s, 2.0)
        assert got.kind is GrowthClass.UPPER

    def test_indeterminate(self):
        # Doubling-periodic residual with amplitude above the band but no
        # window-to-window trend.
        def fn(r):
            return 2.0 * r + 2.0 * np.sin(2.0 * math.pi * np.log2(np.maximum(r, 1e-9)))

        got = classify_growth(_series(fn), 2.0)
        assert got.kind is GrowthClass.INDETERMINATE


class TestChainBound:
    def test_sparse_values(self):
        # omega+ = 3/2, omega- = 1/2: the doubled gap dominates.
        assert critical_exponent_chain_bound(1.5, 0.5) == pytest.approx(2.0)

    def test_tight_gap(self):
        assert critical_exponent_chain_bound(3.0, 2.9) == pytest.approx(3.0)

    def test_order_enforced(self):
        with pytest.raises(DomainError):
            critical_exponent_chain_bound(1.0, 2.0)


class TestOrbitalParabolic:
    def test_target_offset_shifts_argument(self):
        # (R + h_y)/2 = 6 for R=10, h_y=2.
        assert log_orbital_parabolic(_pure_cusp(), 10.0, h_y=2.0) == pytest.approx(6.0)

    def test_normalization_divides(self):
        got = log_orbital_parabolic(_pure_cusp(c_norm=math.exp(2.0)), 10.0)
        assert got == pytest.approx(3.0, rel=1e-12)

    def test_sampled_series(self):
        s = sample_orbital_parabolic(_pure_cusp(), [2.0, 4.0, 8.0])
        np.testing.assert_allclose(s.log_values, [1.0, 2.0, 4.0], rtol=1e-14)


class TestChainCheck:
    def test_hyperbolic_chain_tight(self):
        rep = cuspidal_chain_check(_pure_cusp(), 200.0)
        assert rep.passed
        assert rep.delta_plus == pytest.approx(0.5, abs=1e-6)
        assert rep.delta_minus == pytest.approx(0.5, abs=1e-6)
        # The excursion integral's ln 2 prefactor inflates the windowed
        # upper rate by at most ln(2 e)/R on the innermost window.
        assert rep.omega_plus_f == pytest.approx(0.5, abs=0.06)
        assert rep.upper_margin > -0.06

    def test_sparse_catalog_chain(self):
        rep = cuspidal_chain_check(CuspModel(profile=catalog_profile("sparse-5.2")), 500.0)
        assert rep.passed
        assert rep.delta_plus == pytest.approx(1.5, abs=0.01)
        assert rep.delta_minus == pytest.approx(0.5, abs=0.01)
        assert rep.chain_bound == pytest.approx(2.0, abs=0.02)
        assert rep.omega_plus_f <= 2.0
