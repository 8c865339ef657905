"""Convolutions, the gauge sandwich, and the counting/volume envelopes."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from cuspgrowth import convolution, h2_oracle, taxonomy
from cuspgrowth.asymptotics import (
    CuspModel,
    GrowthSeries,
    log_cuspidal,
    log_orbital_parabolic,
)
from cuspgrowth.convolution import (
    _SERIES_CUTOFF,
    _log_exp_linear,
    Band,
    CuspidalInterpolant,
    VGammaModel,
    conv_continuous,
    conv_gauge,
    counting_band,
    cuspidal_interpolants,
    sandwich_check,
    volume_band,
)
from cuspgrowth.errors import DomainError
from cuspgrowth.profiles import (
    CATALOG_IDS,
    CurvatureBounds,
    assemble_profile,
    catalog_profile,
    default_catalog_params,
    poly_piece,
    pure_piece,
)
from cuspgrowth.taxonomy import catalog_spec

import band_reference

INF = float("inf")


def _hyperbolic_cusp() -> CuspModel:
    prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                            [pure_piece(0.0, INF, 1.0)])
    return CuspModel(prof)


def _flat_series(count: int, delta: float, level: float = 0.0) -> GrowthSeries:
    radii = delta * np.arange(1, count + 1)
    return GrowthSeries(radii, np.full(count, level))


def _exact_hyperbolic_excursion(u):
    # ln of 2 (e^{u/2} - 1), the constant-curvature excursion integral.
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = math.log(2.0) + u / 2.0 + np.log1p(-np.exp(-u / 2.0))
    return np.where(u > 0, out, -np.inf)


class TestAmbientModel:
    def test_default_factor_is_unit(self):
        assert VGammaModel(1.0).log_value(7.0) == pytest.approx(7.0, abs=1e-12)

    def test_power_decay(self):
        vg = VGammaModel(1.5, 0.5)
        assert vg.log_value(3.0) == pytest.approx(4.5 - 0.5 * math.log(4.0), abs=1e-12)

    def test_power_decay_bounded_at_zero(self):
        assert VGammaModel(1.0, 2.0).log_value(0.0) == 0.0

    def test_vectorized(self):
        vg = VGammaModel(2.0)
        out = vg.log_value(np.array([1.0, 2.0]))
        assert np.allclose(out, [2.0, 4.0])
        assert isinstance(vg.log_value(1.0), float)

    def test_parameter_validation(self):
        for delta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="delta"):
                VGammaModel(delta)
        for decay in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                VGammaModel(1.0, decay)


# The factor classes the decay number replaced evaluated ln v(R) as
# delta * R + ln factor(R), with ln factor(R) = ln(1.0) = 0.0 for the unit
# constant and -gamma * log1p(max(R, 0)) for the power decay.
_RADII = np.concatenate((
    [0.0, 1e-300, 5e-324, 1e-12, 0.5, 1.0, math.pi, 1e3, 13122.0, 1e15],
    np.random.default_rng(3).uniform(0.0, 2e3, 500)))


class TestAmbientModelAgainstFactorClasses:
    @pytest.mark.parametrize("delta", [1.0, 1.1, 1.5, 1.5 + 1.0 / 12.0, 2.0])
    def test_zero_decay_bit_for_bit(self, delta):
        got = VGammaModel(delta).log_value(_RADII)
        want = delta * _RADII + np.full_like(_RADII, math.log(1.0))
        assert np.array_equal(got, want)
        assert [VGammaModel(delta).log_value(float(r)) for r in _RADII] \
            == want.tolist()

    @pytest.mark.parametrize("delta, decay", [
        (1.5, 0.5), (1.5, 1.2), (1.5, 1.0 - 0.5), (1.5, 2.2 - 1.0),
        (1.0, 2.0), (3.0, 1e-6), (1.25, 7.0)])
    def test_power_decay_bit_for_bit(self, delta, decay):
        got = VGammaModel(delta, decay).log_value(_RADII)
        want = delta * _RADII + -decay * np.log1p(np.maximum(_RADII, 0.0))
        assert np.array_equal(got, want)
        assert [VGammaModel(delta, decay).log_value(float(r))
                for r in _RADII] == want.tolist()


class TestGaugeConvolution:
    def test_unit_functions(self):
        f = _flat_series(6, 1.0)
        assert conv_gauge(f, f, 1.0, 5.0) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_linear_against_unit(self):
        radii = np.arange(1.0, 7.0)
        f = GrowthSeries(radii, np.log(radii))
        g = _flat_series(6, 1.0)
        assert conv_gauge(f, g, 1.0, 4.0) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_no_admissible_pair(self):
        f = _flat_series(4, 1.0)
        assert conv_gauge(f, f, 1.0, 1.5) == -INF

    def test_depends_only_on_step_count(self):
        f = _flat_series(8, 1.0)
        assert conv_gauge(f, f, 1.0, 5.0) == conv_gauge(f, f, 1.0, 5.7)

    def test_bit_exact_symmetry(self):
        rng = np.random.default_rng(7)
        radii = 0.5 * np.arange(1, 40)
        f = GrowthSeries(radii, np.cumsum(rng.uniform(0, 1, 39)))
        g = GrowthSeries(radii, np.cumsum(rng.uniform(0, 1, 39)))
        for r in (3.0, 9.75, 19.0):
            assert conv_gauge(f, g, 0.5, r) == conv_gauge(g, f, 0.5, r)

    def test_missing_grid_point(self):
        f = GrowthSeries([2.0, 3.0, 4.0], [0.0, 0.0, 0.0])
        g = _flat_series(4, 1.0)
        with pytest.raises(DomainError, match="^first series has no sample"):
            conv_gauge(f, g, 1.0, 5.0)
        with pytest.raises(DomainError, match="^second series has no sample"):
            conv_gauge(g, f, 1.0, 5.0)

    def test_bad_gauge(self):
        f = _flat_series(4, 1.0)
        with pytest.raises(DomainError):
            conv_gauge(f, f, 0.0, 5.0)


class TestContinuousConvolution:
    def test_exponential_square(self):
        def f(t):
            return np.asarray(t, dtype=float)
        assert conv_continuous(f, f, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_unit_square(self):
        def one(t):
            return np.zeros_like(np.asarray(t, dtype=float))
        assert conv_continuous(one, one, 7.0) == pytest.approx(math.log(7.0), abs=1e-9)

    def test_growth_against_excursion(self):
        vg = VGammaModel(1.0)
        got = conv_continuous(vg.log_value, _exact_hyperbolic_excursion, 10.0)
        assert got == pytest.approx(10.67962568166097, abs=1e-7)

    def test_nonpositive_radius(self):
        def one(t):
            return np.zeros_like(np.asarray(t, dtype=float))
        assert conv_continuous(one, one, 0.0) == -INF

    def test_breakpoints_sharpen_kinks(self):
        # integrand with a kink at t = 2: exact integral of
        # e^{min(t, 2)} over [0, 5] is (e^2 - 1) + 3 e^2.
        def f(t):
            return np.minimum(np.asarray(t, dtype=float), 2.0)
        def one(t):
            return np.zeros_like(np.asarray(t, dtype=float))
        expected = math.log(4.0 * math.exp(2.0) - 1.0)
        got = conv_continuous(f, one, 5.0, f_breaks=(2.0,))
        assert got == pytest.approx(expected, abs=1e-9)
        # the kink pulled back through the second factor
        got2 = conv_continuous(one, f, 5.0, g_breaks=(2.0,))
        assert got2 == pytest.approx(expected, abs=1e-9)


class TestSandwich:
    def test_unit_example(self):
        f = _flat_series(8, 1.0)
        rep = sandwich_check(f, f, 1.0, 5.0)
        assert rep.ok
        assert rep.log_continuous == pytest.approx(math.log(5.0), abs=1e-12)
        assert rep.log_lower == pytest.approx(math.log(3.0), abs=1e-12)
        assert rep.log_upper == pytest.approx(math.log(12.0), abs=1e-12)
        assert rep.log_continuous - rep.log_lower == pytest.approx(
            math.log(5.0 / 3.0), abs=1e-12)
        assert rep.log_upper - rep.log_continuous == pytest.approx(
            math.log(12.0 / 5.0), abs=1e-12)

    def test_exponential_data(self):
        radii = 0.5 * np.arange(1, 25)
        f = GrowthSeries(radii, radii.copy())
        rep = sandwich_check(f, f, 0.5, 10.0)
        assert rep.ok
        assert rep.log_lower <= rep.log_continuous <= rep.log_upper

    def test_rejects_decreasing(self):
        f = GrowthSeries([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.5, 2.0])
        g = _flat_series(4, 1.0)
        with pytest.raises(DomainError, match="^first series is not nondecreasing"):
            sandwich_check(f, g, 1.0, 3.0)
        with pytest.raises(DomainError, match="^second series is not nondecreasing"):
            sandwich_check(g, f, 1.0, 3.0)

    def test_rejects_tiny_radius(self):
        f = _flat_series(4, 1.0)
        with pytest.raises(DomainError):
            sandwich_check(f, f, 1.0, 1.5)

    def test_random_monotone_pairs(self):
        rng = np.random.default_rng(20260817)
        for _ in range(25):
            delta = float(rng.choice([0.5, 1.0, 2.0]))
            r = float(rng.uniform(5.0, 50.0))
            count = int(math.floor(r / delta)) + 3
            def draw():
                vals = np.cumsum(rng.uniform(0.0, 2.0, count)) - 30.0
                return GrowthSeries(delta * np.arange(1, count + 1), vals)
            rep = sandwich_check(draw(), draw(), delta, r)
            assert rep.ok, (delta, r)


class TestCuspidalInterpolant:
    def test_matches_direct_evaluation(self):
        cusp = _hyperbolic_cusp()
        cache = CuspidalInterpolant(cusp, 40.0, rel_tol=1e-9)
        for r in (3.27, 7.9, 25.13, 39.5):
            direct = log_cuspidal(cusp, r, rel_tol=1e-10)
            assert cache(r) == pytest.approx(direct, abs=0.01)

    def test_scalar_and_vector(self):
        cache = CuspidalInterpolant(_hyperbolic_cusp(), 10.0)
        assert isinstance(cache(4.0), float)
        assert cache(np.array([4.0, 6.0])).shape == (2,)

    def test_extrapolates_below_first_node(self):
        cache = CuspidalInterpolant(_hyperbolic_cusp(), 10.0)
        assert cache(0.1) < cache(float(cache.nodes[0]))
        assert np.isfinite(cache(0.1))

    def test_rejects_beyond_horizon(self):
        cache = CuspidalInterpolant(_hyperbolic_cusp(), 10.0)
        with pytest.raises(DomainError, match="cache"):
            cache(10.6)

    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError):
            CuspidalInterpolant(_hyperbolic_cusp(), 0.2)

    @pytest.mark.parametrize("r_max, step, name", [
        (math.nan, 0.5, "r_max"), (math.inf, 0.5, "r_max"),
        (-math.inf, 0.5, "r_max"), (20.0, math.nan, "step"),
        (20.0, math.inf, "step"), (20.0, 0.0, "step")])
    def test_rejects_non_finite_horizon_and_step(self, r_max, step, name):
        with pytest.raises(DomainError, match=name):
            cuspidal_interpolants([_hyperbolic_cusp()], r_max, step=step)

    def test_floor_below_profile_start(self):
        prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                                [pure_piece(5.0, INF, 1.0)])
        cache = CuspidalInterpolant(CuspModel(prof), 10.0)
        assert cache(5.0) > -745.0
        assert cache(np.array([0.0, 4.99])).tolist() == [-745.0, -745.0]

    def test_batch_builder(self):
        cusps = [_hyperbolic_cusp(), CuspModel(catalog_profile("sparse-5.2"))]
        caches = cuspidal_interpolants(cusps, 20.0)
        assert len(caches) == 2
        assert all(c.r_max >= 20.0 for c in caches)


class TestCountingBand:
    def test_degenerate_band_matches_closed_form(self):
        vg = VGammaModel(1.0)
        got = counting_band(vg, _hyperbolic_cusp(), 0.0, 10.0)
        expected = math.log(2.0) + 10.0 + math.log1p(-math.exp(-5.0))
        assert got == pytest.approx(expected, abs=1e-7)

    def test_depth_shifts_count(self):
        # constant curvature: depth h multiplies the parabolic factor by
        # e^{h/2}, so the whole convolution shifts by h/2 nats.
        vg = VGammaModel(1.0)
        cusp = _hyperbolic_cusp()
        b0 = counting_band(vg, cusp, 0.0, 10.0)
        b4 = counting_band(vg, cusp, 4.0, 10.0)
        assert b4 - b0 == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("t0", [0.0, 3.0])
    @pytest.mark.parametrize("h_y", [0.0, 2.0, 4.0])
    @pytest.mark.parametrize("decay", [0.0, 0.5])
    def test_against_quadrature(self, t0, h_y, decay):
        # at t0 = 3 the clamp kink 2 t0 - h_y falls inside (0, R); the
        # segment sum is exact at decay 0, and at decay 0.5 its
        # exponential sum raises it by at most rel_tol nats
        rel_tol = 1e-6
        prof = assemble_profile(CurvatureBounds(a=1.5, b=1.5, n=3),
                                [pure_piece(t0, INF, 1.5)])
        cusp = CuspModel(prof, c_norm=2.5)
        vg = VGammaModel(1.2, decay)
        radii = np.linspace(-2.0, 20.0, 45)
        got = counting_band(vg, cusp, h_y, radii, rel_tol=rel_tol)
        want = np.array([_quadrature_counting(vg, cusp, h_y, float(r))
                         for r in radii])
        assert np.array_equal(got[radii <= 0.0], want[radii <= 0.0])
        assert np.all(got[radii <= 0.0] == -INF)
        gap = got[radii > 0.0] - want[radii > 0.0]
        assert gap.min() >= -1e-9
        assert gap.max() <= (1e-9 if decay == 0.0 else rel_tol + 1e-9)

    def test_oracle_configuration_against_mpmath(self):
        # verify_counting's band: unit rate, c_norm 2, depth 2, so that
        # ln of the convolution is R + 1 + ln(1 - e^{-R/2})
        prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                                [pure_piece(0.0, INF, 1.0)])
        radii = np.arange(4.0, 12.0 + 1e-12, 0.25)
        got = counting_band(VGammaModel(1.0), CuspModel(prof, c_norm=2.0),
                            2.0, radii)
        with mpmath.workdps(50):
            want = [float(mpmath.mpf(r) + 1
                          + mpmath.log(-mpmath.expm1(-mpmath.mpf(r) / 2)))
                    for r in radii.tolist()]
        assert np.max(np.abs(got - want)) <= 4e-15

    @pytest.mark.parametrize("r", [-1.0, 0.0, 0.3, 7.25, 40.0])
    def test_scalar_is_an_array_of_one(self, r):
        vg, cusp = VGammaModel(1.0, 0.5), _hyperbolic_cusp()
        got = counting_band(vg, cusp, 2.0, r)
        assert isinstance(got, float)
        assert _bits(got) == _bits(counting_band(vg, cusp, 2.0, np.array([r])))

    @pytest.mark.parametrize("r", [INF, float("nan"), np.array([3.0, -INF])])
    def test_rejects_non_finite_radius(self, r):
        with pytest.raises(DomainError, match="radii r"):
            counting_band(VGammaModel(1.0), _hyperbolic_cusp(), 0.0, r)

    @pytest.mark.parametrize("h_y", [-INF, INF, float("nan")])
    def test_rejects_non_finite_depth(self, h_y):
        # at -inf the clamp would hold every depth at the profile start
        # and return a finite value
        with pytest.raises(DomainError, match="h_y"):
            counting_band(VGammaModel(1.0), _hyperbolic_cusp(), h_y, 10.0)

    @pytest.mark.parametrize("rel_tol", [float("nan"), INF, 0.0, -1.0])
    def test_rejects_bad_rel_tol(self, rel_tol):
        with pytest.raises(DomainError, match="rel_tol"):
            counting_band(VGammaModel(1.0), _hyperbolic_cusp(), 0.0, 10.0,
                          rel_tol=rel_tol)

    @pytest.mark.parametrize("prof", [
        catalog_profile("sparse-5.2"),
        assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                         [poly_piece(1.0, INF, 2.0, 1.0)]),
    ], ids=["piece-breaks", "power"])
    def test_rejects_profile_of_more_than_one_pure_law(self, prof):
        with pytest.raises(DomainError, match="cusp"):
            counting_band(VGammaModel(1.0), CuspModel(prof), 0.0, 10.0)

    def test_band_ordering_enforced(self):
        with pytest.raises(DomainError):
            Band(lower=1.0, upper=0.0)
        with pytest.raises(DomainError):
            Band(lower=np.array([0.0, 1.0]), upper=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("lower, upper", [
        (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
        (-math.inf, math.nan),
        (np.array([0.0, math.nan]), np.array([1.0, 2.0])),
        (np.array([0.0, 1.0]), np.array([math.nan, 2.0]))])
    def test_nan_edges_rejected(self, lower, upper):
        with pytest.raises(DomainError, match="NaN"):
            Band(lower=lower, upper=upper)


class TestVolumeBand:
    def test_interpolant_path_agrees(self):
        vg = VGammaModel(1.0)
        band = volume_band(vg, cuspidal_interpolants([_hyperbolic_cusp()], 11.0),
                           10.0)
        assert band.lower == pytest.approx(10.67962568166097, abs=0.02)

    def test_two_cusps_double_the_excursion_mass(self):
        vg = VGammaModel(1.0)
        cusp = _hyperbolic_cusp()
        cache = cuspidal_interpolants([cusp], 11.0)
        one = volume_band(vg, cache, 10.0)
        two = volume_band(vg, cache * 2, 10.0)
        assert two.lower - one.lower == pytest.approx(math.log(2.0), abs=1e-9)

    def test_monotone_in_radius(self):
        vg = VGammaModel(1.0)
        cache = cuspidal_interpolants([_hyperbolic_cusp()], 15.0)
        lows = [volume_band(vg, cache, r).lower
                for r in (6.0, 8.0, 10.0, 12.0)]
        assert all(b > a for a, b in zip(lows, lows[1:]))

    def test_validation(self):
        vg = VGammaModel(1.0)
        cache = cuspidal_interpolants([_hyperbolic_cusp()], 11.0)
        with pytest.raises(DomainError):
            volume_band(vg, cache, 10.0, rel_tol=0.0)
        with pytest.raises(DomainError, match="one CuspidalInterpolant per cusp"):
            volume_band(vg, [_exact_hyperbolic_excursion], 10.0)
        with pytest.raises(DomainError, match="one CuspidalInterpolant per cusp"):
            volume_band(vg, [], 10.0)

    @pytest.mark.parametrize("decay", [0.0, 0.5])
    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_rejects_a_bad_tolerance(self, decay, rel_tol):
        # NaN used to pass the positivity check: ignored at decay 0, a
        # bare ValueError from the decay factor's grid at decay > 0
        cache = cuspidal_interpolants([_hyperbolic_cusp()], 11.0)
        with pytest.raises(DomainError, match="rel_tol"):
            volume_band(VGammaModel(1.0, decay), cache, 10.0, rel_tol=rel_tol)

    @pytest.mark.parametrize("decay", [0.0, 0.5])
    @pytest.mark.parametrize("r", [
        math.nan, math.inf, -math.inf, np.array([1.0, math.nan, 3.0]),
        np.array([math.inf])])
    def test_rejects_non_finite_radii(self, decay, r):
        # a NaN radius used to give the band (-inf, nan)
        cache = cuspidal_interpolants([_hyperbolic_cusp()], 11.0)
        with pytest.raises(DomainError, match="radii r"):
            volume_band(VGammaModel(1.0, decay), cache, r)

    def test_scalar_and_vector(self):
        vg = VGammaModel(1.0, 0.5)
        caches = cuspidal_interpolants([_hyperbolic_cusp()], 11.0)
        radii = np.array([[-1.0, 0.0, 2.5], [5.0, 7.25, 10.0]])
        band = volume_band(vg, caches, radii)
        assert band.lower.shape == band.upper.shape == (2, 3)
        for r, lower, upper in zip(radii.ravel().tolist(),
                                   band.lower.ravel().tolist(),
                                   band.upper.ravel().tolist()):
            one = volume_band(vg, caches, r)
            assert type(one.lower) is float and type(one.upper) is float
            assert (one.lower, one.upper) == (lower, upper)
        empty = volume_band(vg, caches, np.empty(0))
        assert empty.lower.shape == empty.upper.shape == (0,)

    def test_profile_starting_far_above_zero(self):
        # F vanishes below t = 600, where the cache's floor, weighted by
        # v(700 - t) up to e^1050, would dominate the band (about 305
        # nats); the band is the one of the same profile started at 0
        def cache(t0, r_max):
            cusp = CuspModel(assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                                              [pure_piece(t0, INF, 1.0)]))
            return cuspidal_interpolants([cusp], r_max)

        vg = VGammaModel(1.5)
        band = volume_band(vg, cache(600.0, 701.0), 700.0)
        assert band.lower == pytest.approx(149.6, abs=0.1)
        assert band.lower == pytest.approx(
            volume_band(vg, cache(0.0, 101.0), 100.0).lower, abs=1e-9)

    def test_exact_where_the_floor_meets_the_extrapolation(self):
        # with ln v(s) = 200 s the floored stretch [0, 1.55] carries
        # almost all of the convolution at R = 3
        band = volume_band(VGammaModel(200.0), [_floor_knee_cache()], 3.0)
        floored = -145.0 - math.log(200.0) + math.log1p(-math.exp(-310.0))
        rising = -455.0 - math.log(100.0) + math.log1p(-math.exp(-145.0))
        assert band.lower == pytest.approx(float(np.logaddexp(floored, rising)),
                                           abs=1e-12)


class TestOneConvolutionPerRadius:
    """Each band evaluates its convolution once per radius and cusp."""

    def test_volume_band(self, monkeypatch):
        # run_example bands all its radii in one call, which reads each
        # cache once at its kinks and once at the radii
        name = "critical-infinite-5.4b"
        spec = catalog_spec(name, default_catalog_params(name))
        caches = cuspidal_interpolants(spec.cusps, 501.0,
                                       step=taxonomy._CACHE_STEP, rel_tol=1e-6)
        radii = np.linspace(1.0, 500.0, taxonomy._GRID_POINTS)
        nodes = sum(_kink_reads(c, radii) for c in caches)
        bands, points = [], []
        volume_band_ = taxonomy.volume_band
        read = CuspidalInterpolant.__call__

        def banded(vg, caches, r, **kwargs):
            bands.append(np.shape(r))
            return volume_band_(vg, caches, r, **kwargs)

        def counted(cache, t):
            points.append(np.size(t))
            return read(cache, t)

        monkeypatch.setattr(taxonomy, "volume_band", banded)
        monkeypatch.setattr(CuspidalInterpolant, "__call__", counted)
        taxonomy.run_example(name)
        assert bands == [(taxonomy._GRID_POINTS,)]
        assert sum(points) == nodes

    def test_counting_band(self, monkeypatch):
        # verify_counting bands all 33 radii in one call, and no
        # quadrature runs
        bands, quadratures = [], []
        counting_band_ = h2_oracle.counting_band

        def banded(vg, cusp, h_y, r, **kwargs):
            bands.append(np.shape(r))
            return counting_band_(vg, cusp, h_y, r, **kwargs)

        monkeypatch.setattr(h2_oracle, "counting_band", banded)
        monkeypatch.setattr(convolution, "conv_continuous",
                            lambda *args, **kwargs: quadratures.append(args))
        h2_oracle.verify_counting()
        assert bands == [(33,)]
        assert quadratures == []


def _mp_segment(y_a: float, y_b: float, h: float) -> float:
    # ln of h e^{y_a} (e^d - 1) / d at 50 digits
    with mpmath.workdps(50):
        d = mpmath.mpf(y_b) - mpmath.mpf(y_a)
        shape = mpmath.mpf(1) if d == 0 else mpmath.expm1(d) / d
        return float(mpmath.mpf(y_a) + mpmath.log(h) + mpmath.log(shape))


class TestSegmentIntegral:
    """The closed form the volume band sums over its segments."""

    @pytest.mark.parametrize("y_a, y_b, h", [
        (0.0, 0.0, 1.0),          # d = 0
        (3.5, 3.5, 0.25),
        (1.0, 1.0 + 1e-7, 2.0),   # |d| below the series cutoff
        (1.0, 1.0 - 9e-5, 2.0),
        (1.0, 1.0 + 2e-4, 2.0),   # |d| above it
        (-2.0, 0.3, 0.5),
        (0.3, -2.0, 0.5),         # negative d
        (0.0, 700.0, 2.0),        # |d| around 700
        (705.0, 0.0, 2.0),
        (-690.0, 10.0, 1e-3),
    ])
    def test_matches_mpmath(self, y_a, y_b, h):
        got = float(_log_exp_linear(np.array([y_a]), np.array([y_b]),
                                    np.array([h]))[0])
        assert got == pytest.approx(_mp_segment(y_a, y_b, h),
                                    rel=1e-15, abs=1e-15)

    def test_both_sides_of_the_cutoff(self):
        d = _SERIES_CUTOFF * np.array([1.0 - 1e-9, 1.0 + 1e-9])
        got = _log_exp_linear(np.zeros(2), d, np.ones(2))
        assert np.allclose(got, [_mp_segment(0.0, float(x), 1.0) for x in d],
                           rtol=0.0, atol=1e-16)

    def test_symmetric_in_the_endpoints(self):
        y = np.array([0.0, 1e-6, 0.5, 40.0])
        assert np.array_equal(_log_exp_linear(y[:-1], y[1:], np.ones(3)),
                              _log_exp_linear(y[1:], y[:-1], np.ones(3)))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _floor_knee_cache() -> CuspidalInterpolant:
    # ln F = -700 + 100 (t - 2) on the cache, floored at -745 below the
    # knee at t = 1.55
    cache = CuspidalInterpolant(_hyperbolic_cusp(), 3.0)
    cache.nodes = np.array([2.0, 3.0])
    cache.values = np.array([-700.0, -600.0])
    return cache


def _late_start_cache(t0: float = 5.0) -> CuspidalInterpolant:
    # F vanishes below t0
    prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                            [pure_piece(t0, INF, 1.0)])
    return CuspidalInterpolant(CuspModel(prof), 40.0, step=0.75)


def _kink_reads(cache, radii) -> int:
    """How many points a band reads from one cache: its kinks above the
    profile start, the start itself, and the radii above it."""
    lo = max(0.0, cache.t_start)
    kinks = cache._kinks()
    return (np.unique(np.append(kinks[kinks > lo], lo)).size
            + int(np.count_nonzero(np.asarray(radii) > lo)))


class TestBandAgainstPerRadiusReference:
    """The band against the per-radius secant band (``band_reference``):
    equal to 1e-12 nats at decay 0, where both are exact; at a positive
    decay both lie in [exact, exact + rel_tol], so they differ by at most
    rel_tol."""

    @staticmethod
    def _check(vg, caches, radii, rel_tol):
        band = volume_band(vg, caches, radii, rel_tol=rel_tol)
        want = np.array([band_reference.volume_band(vg, caches, float(r), rel_tol)
                         for r in radii]).reshape(-1, 2)
        gap = 1e-12 if vg.decay == 0.0 else rel_tol
        for got, ref in ((band.lower, want[:, 0]), (band.upper, want[:, 1])):
            assert np.array_equal(got == -INF, ref == -INF)
            live = ref > -INF
            assert np.max(np.abs(got[live] - ref[live]), initial=0.0) <= gap
        return band

    @pytest.mark.parametrize("name", ["critical-infinite-5.4b",
                                      "exotic-div-5.3b"])
    def test_benchmark_families_on_the_example_grid(self, name):
        spec = catalog_spec(name, default_catalog_params(name))
        caches = cuspidal_interpolants(spec.cusps, 501.0,
                                       step=taxonomy._CACHE_STEP, rel_tol=1e-6)
        self._check(spec.vgamma, caches,
                    np.linspace(1.0, 500.0, taxonomy._GRID_POINTS), 1e-6)

    @pytest.mark.parametrize("decay", [0.0, 0.75])
    def test_radii_at_and_below_the_profile_start(self, decay):
        cache = _late_start_cache()
        radii = np.array([-3.0, 0.0, 2.5, 5.0, math.nextafter(5.0, 6.0),
                          5.3, 6.0, 17.0, 39.0])
        band = self._check(VGammaModel(1.0, decay), [cache], radii, 1e-6)
        assert np.all(band.lower[:4] == -INF)
        assert np.all(np.isfinite(band.lower[4:]))

    @pytest.mark.parametrize("lo", [5.0, 0.7])
    def test_grid_points_that_round_onto_the_profile_start(self, monkeypatch, lo):
        # radii within a few ulps of lo + s_k, where the reference's secant
        # grid point rho - s_k rounds onto lo or just past it; the band
        # reads each kink and each radius once
        vg, rel_tol = VGammaModel(1.0, 0.75), 1e-6
        step = math.log1p(math.sqrt(8.0 * rel_tol / vg.decay))
        radii = []
        ks = np.array([1, 2, 3, 7, 40, 300, 340, 344, 348])
        for s_k in np.expm1(step * ks).tolist():
            r = lo + s_k
            radii += [r := math.nextafter(r, -INF) for _ in range(5)]
            radii += [r := math.nextafter(r, INF) for _ in range(10)]
        cache = _late_start_cache(lo)
        points = []
        read = CuspidalInterpolant.__call__

        def counted(cache, t):
            points.append(np.size(t))
            return read(cache, t)

        monkeypatch.setattr(CuspidalInterpolant, "__call__", counted)
        band = volume_band(vg, [cache], np.array(radii), rel_tol=rel_tol)
        assert sum(points) == _kink_reads(cache, radii)
        monkeypatch.undo()
        assert np.array_equal(
            band.lower, volume_band(vg, [cache], np.array(radii), rel_tol=rel_tol).lower)
        self._check(vg, [cache], np.array(radii), rel_tol)

    @pytest.mark.parametrize("decay", [0.0, 0.75])
    def test_radii_on_cache_nodes(self, decay):
        cache = _late_start_cache()
        self._check(VGammaModel(1.0, decay), [cache],
                    cache.nodes[[0, 1, 2, 9, 20, -1]], 1e-6)

    @pytest.mark.parametrize("decay", [0.0, 1.5])
    def test_knee_inside_the_convolution_range(self, decay):
        radii = np.array([1.0, 1.5, 1.55, 1.6, 2.0, 2.5, 3.0])
        self._check(VGammaModel(200.0, decay), [_floor_knee_cache()],
                    radii, 1e-8)

    @pytest.mark.parametrize("decay", [0.0, 0.5])
    @pytest.mark.parametrize("cusps", [1, 2])
    def test_one_and_two_cusps(self, decay, cusps):
        caches = cuspidal_interpolants(
            [CuspModel(catalog_profile("sparse-5.2")), _hyperbolic_cusp()][:cusps],
            61.0, rel_tol=1e-6)
        self._check(VGammaModel(1.5, decay), caches,
                    np.linspace(0.0, 60.0, 97), 1e-8)


def _exact_log_convolution(vg, caches, rho: float) -> float:
    """ln of the summed convolutions of the caches' ln F with the exact
    ambient model at rho, by mpmath at 30 digits.  On each segment between
    F's kinks, ln F runs linearly between the cache's values at its ends,
    and ln F(t) + delta (rho - t) = y + mu (t - a); the substitution
    dw = e^{mu (t - a)} dt integrates that exponential exactly and leaves
    the bounded factor (1 + rho - t)^{-decay} to quadrature."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for cache in caches:
            lo = max(0.0, cache.t_start)
            if rho <= lo:
                continue
            cuts = np.unique(np.r_[lo, rho, cache._kinks()])
            cuts = cuts[(cuts >= lo) & (cuts <= rho)].tolist()
            for a, b in zip(cuts[:-1], cuts[1:]):
                y_a, y_b = (mpmath.mpf(float(cache(x))) for x in (a, b))
                mu = (y_b - y_a) / (mpmath.mpf(b) - a) - vg.delta
                if mu == 0:
                    width, at = mpmath.mpf(b) - a, (lambda w, a=a: a + w)
                else:
                    width = mpmath.expm1(mu * (mpmath.mpf(b) - a)) / mu
                    at = (lambda w, a=a, mu=mu: a + mpmath.log1p(mu * w) / mu)
                scale = mpmath.exp(y_a + vg.delta * (rho - mpmath.mpf(a)))
                total += scale * mpmath.quad(
                    lambda w: mpmath.power(1 + rho - at(w), -vg.decay), [0, width])
        return float(mpmath.log(total)) if total > 0 else -INF


class TestBandAgainstExact:
    """The band lies in [exact, exact + rel_tol], the exact convolution by
    mpmath quadrature; 1e-12 nats are allowed below it for rounding."""

    @staticmethod
    def _check(vg, caches, radii, rel_tol):
        band = volume_band(vg, caches, np.array(radii), rel_tol=rel_tol)
        for r, lower, upper in zip(radii, band.lower.tolist(),
                                   band.upper.tolist()):
            exact = _exact_log_convolution(vg, caches, r)
            assert exact - 1e-12 <= lower <= exact + rel_tol, r
            sweep = float(np.logaddexp(exact, vg.log_value(r)))
            assert sweep - 1e-12 <= upper <= sweep + rel_tol, r

    @pytest.mark.parametrize("decay", [0.0, 1.5])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
    def test_knee(self, decay, rel_tol):
        self._check(VGammaModel(200.0, decay), [_floor_knee_cache()],
                    [1.5, 1.55, 1.6, 2.5, 3.0], rel_tol)

    @pytest.mark.parametrize("decay", [0.0, 0.75])
    def test_late_start(self, decay):
        self._check(VGammaModel(1.0, decay), [_late_start_cache()],
                    [math.nextafter(5.0, 6.0), 5.3, 17.0, 39.0], 1e-6)

    @pytest.mark.parametrize("decay", [0.0, 0.75, 8.0])
    def test_radii_on_nodes(self, decay):
        cache = _late_start_cache()
        self._check(VGammaModel(1.0, decay), [cache],
                    cache.nodes[[0, 1, 20, -1]].tolist(), 1e-6)

    @pytest.mark.parametrize("decay", [0.0, 0.05, 0.5, 1.2])
    def test_two_cusps(self, decay):
        caches = cuspidal_interpolants(
            [CuspModel(catalog_profile("sparse-5.2")), _hyperbolic_cusp()],
            31.0, rel_tol=1e-6)
        self._check(VGammaModel(1.5, decay), caches, [0.4, 7.3, 30.0], 1e-6)


class TestPowerKernel:
    """The exponential sum for (1 + s)^{-k} against mpmath at 30 digits:
    0 <= ln(sum) + k ln(1 + s) <= the derived bound <= rel_tol on a
    dense grid of s in [0, S]."""

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("span", [10.0, 500.0, 13122.0, 2e6])
    @pytest.mark.parametrize("decay", [0.05, 0.1, 0.5, 1.2, 2.5, 8.0])
    def test_bound(self, decay, span, rel_tol):
        log_w, rates, bound = convolution._power_kernel(
            decay, math.log1p(span), rel_tol)
        assert 0.0 < bound <= rel_tol
        s = np.unique(np.r_[np.linspace(0.0, min(span, 40.0), 81),
                            np.geomspace(1e-3, span, 80)])
        assert s[0] == 0.0 and s[-1] == span
        with mpmath.workdps(30):
            terms = [(mpmath.mpf(a), mpmath.mpf(b))
                     for a, b in zip(log_w.tolist(), rates.tolist())]
            for x in s.tolist():
                got = mpmath.log(mpmath.fsum(mpmath.exp(a - b * x)
                                             for a, b in terms))
                gap = float(got + decay * mpmath.log1p(x))
                assert 0.0 <= gap <= bound, x

    def test_decay_zero_is_one_exact_term(self):
        log_w, rates, bound = convolution._power_kernel(0.0, math.log1p(500.0), 1e-6)
        assert log_w.tolist() == [0.0] and rates.tolist() == [0.0]
        assert bound == 0.0

    def test_terms_set_by_the_horizon_alone(self):
        # a wider horizon only moves the merged left tail
        near = convolution._power_kernel(0.5, math.log1p(500.0), 1e-6)
        far = convolution._power_kernel(0.5, math.log1p(2e6), 1e-6)
        assert far[0].size > near[0].size
        assert np.array_equal(near[1][:-1], far[1][:near[1].size - 1])


def test_band_pass_memory():
    # the band pass sums its terms in blocks: its temporaries stay far
    # below one array per radius of the run
    name = "critical-infinite-5.4b"
    spec = catalog_spec(name, default_catalog_params(name))
    caches = cuspidal_interpolants(spec.cusps, 501.0,
                                   step=taxonomy._CACHE_STEP, rel_tol=1e-6)
    radii = np.linspace(1.0, 500.0, taxonomy._GRID_POINTS)
    tracemalloc.start()
    try:
        volume_band(spec.vgamma, caches, radii, rel_tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_deep_band_memory_does_not_grow_with_the_terms():
    # a pure-law cusp cached to R = 20,001 (10,000 kinks) and 1,025 radii:
    # the terms are summed a block at a time, so halving the term count
    # leaves the peak of the band pass where it is
    cache = CuspidalInterpolant(_hyperbolic_cusp(), 20_001.0, step=2.0)
    radii = np.geomspace(1.0, 20_000.0, 1_025)
    vg = VGammaModel(1.0, 0.5)
    sizes, peaks = [], []
    for rel_tol in (1e-6, 1e-11):
        sizes.append(convolution._power_kernel(
            vg.decay, math.log1p(cache.r_max - cache.t_start), rel_tol)[0].size)
        tracemalloc.start()
        try:
            volume_band(vg, [cache], radii, rel_tol=rel_tol)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 1.8 <= sizes[1] / sizes[0] <= 2.5
    assert max(peaks) / min(peaks) < 1.2


def _quadrature_band(vg, caches, r, rel_tol):
    """The volume band's former path: adaptive Simpson over the summed
    caches, cut at every cache node (the ambient model is smooth)."""
    def s_log(u):
        u = np.asarray(u, dtype=float)
        stack = np.stack([np.asarray(c(u), dtype=float) for c in caches])
        m = np.max(stack, axis=0)
        return m + np.log(np.sum(np.exp(stack - m), axis=0))

    breaks = [float(x) for c in caches for x in c.nodes]
    conv = conv_continuous(s_log, vg.log_value, r, rel_tol=rel_tol,
                           f_breaks=breaks)
    return conv, float(np.logaddexp(conv, vg.log_value(r)))


def _quadrature_counting(vg, cusp, h_y, r):
    """The counting band's former path: Gauss quadrature cut at the
    orbital factor's clamp."""
    return conv_continuous(
        vg.log_value, lambda u: log_orbital_parabolic(cusp, u, h_y), r,
        rel_tol=1e-10, g_breaks=[2.0 * cusp.profile.t_start - h_y])


@pytest.fixture(scope="module", params=CATALOG_IDS)
def example_family(request):
    spec = catalog_spec(request.param, default_catalog_params(request.param))
    caches = cuspidal_interpolants(spec.cusps, 501.0,
                                   step=taxonomy._CACHE_STEP, rel_tol=1e-6)
    return spec, caches


class TestBandAgainstQuadrature:
    REL_TOL = 1e-6  # run_example's band tolerance

    def test_every_eighth_example_radius(self, example_family):
        # the segment sum is exact up to the power decay's exponential
        # sum (at most rel_tol nats above); Simpson stops within rel_tol
        # of its own answer
        spec, caches = example_family
        radii = np.linspace(1.0, 500.0, taxonomy._GRID_POINTS)[::8]
        assert radii[0] == 1.0 and radii[-1] == 500.0
        for r in radii:
            band = volume_band(spec.vgamma, caches, float(r),
                               rel_tol=self.REL_TOL)
            lower, upper = _quadrature_band(spec.vgamma, caches, float(r),
                                            self.REL_TOL)
            assert band.lower == pytest.approx(lower, abs=2 * self.REL_TOL), r
            assert band.upper == pytest.approx(upper, abs=2 * self.REL_TOL), r
