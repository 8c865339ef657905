"""Convolutions, the gauge sandwich, and the counting/volume envelopes."""

import math

import mpmath
import numpy as np
import pytest

from cuspgrowth import taxonomy
from cuspgrowth import (
    CATALOG_IDS,
    Band,
    ConstantFactor,
    CurvatureBounds,
    CuspidalInterpolant,
    CuspModel,
    DomainError,
    GrowthSeries,
    PowerDecayFactor,
    SampledFactor,
    VGammaModel,
    assemble_profile,
    catalog_profile,
    catalog_spec,
    conv_continuous,
    conv_gauge,
    counting_band,
    cuspidal_interpolants,
    default_catalog_params,
    log_cuspidal,
    pure_piece,
    sandwich_check,
    volume_band,
)
from cuspgrowth.convolution import _SERIES_CUTOFF, _log_exp_linear

INF = float("inf")


def _hyperbolic_cusp() -> CuspModel:
    prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                            [pure_piece(0.0, INF, 1.0)])
    return CuspModel(prof)


def _flat_series(count: int, delta: float, level: float = 0.0) -> GrowthSeries:
    radii = delta * np.arange(1, count + 1)
    return GrowthSeries(radii, np.full(count, level), label="flat")


def _exact_hyperbolic_excursion(u):
    # ln of 2 (e^{u/2} - 1), the constant-curvature excursion integral.
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = math.log(2.0) + u / 2.0 + np.log1p(-np.exp(-u / 2.0))
    return np.where(u > 0, out, -np.inf)


class TestAmbientModel:
    def test_constant_factor(self):
        vg = VGammaModel(1.5, ConstantFactor(2.0))
        assert vg.log_value(3.0) == pytest.approx(math.log(2.0) + 4.5, abs=1e-12)
        assert vg.grid_breaks() == ()

    def test_default_factor_is_unit(self):
        assert VGammaModel(1.0).log_value(7.0) == pytest.approx(7.0, abs=1e-12)

    def test_power_decay(self):
        vg = VGammaModel(1.5, PowerDecayFactor(0.5))
        assert vg.log_value(3.0) == pytest.approx(4.5 - 0.5 * math.log(4.0), abs=1e-12)

    def test_power_decay_bounded_at_zero(self):
        assert VGammaModel(1.0, PowerDecayFactor(2.0)).log_value(0.0) == 0.0

    def test_sampled_factor_interpolates(self):
        series = GrowthSeries([1.0, 2.0, 4.0], [0.0, 1.0, 3.0])
        vg = VGammaModel(1.0, SampledFactor(series))
        assert vg.log_value(3.0) == pytest.approx(3.0 + 2.0, abs=1e-12)
        assert vg.grid_breaks() == (1.0, 2.0, 4.0)

    def test_sampled_factor_rejects_off_grid(self):
        vg = VGammaModel(1.0, SampledFactor(GrowthSeries([1.0, 2.0], [0.0, 1.0])))
        with pytest.raises(DomainError):
            vg.log_value(5.0)

    def test_vectorized(self):
        vg = VGammaModel(2.0)
        out = vg.log_value(np.array([1.0, 2.0]))
        assert np.allclose(out, [2.0, 4.0])
        assert isinstance(vg.log_value(1.0), float)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            VGammaModel(0.0)
        with pytest.raises(DomainError):
            ConstantFactor(0.0)
        with pytest.raises(DomainError):
            PowerDecayFactor(-1.0)
        with pytest.raises(DomainError):
            SampledFactor(GrowthSeries([1.0], [0.0]))


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
        with pytest.raises(DomainError, match="no sample"):
            conv_gauge(f, f, 1.0, 5.0)

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
        assert rep.lower_margin == pytest.approx(math.log(5.0 / 3.0), abs=1e-12)
        assert rep.upper_margin == pytest.approx(math.log(12.0 / 5.0), abs=1e-12)

    def test_exponential_data(self):
        radii = 0.5 * np.arange(1, 25)
        f = GrowthSeries(radii, radii.copy())
        rep = sandwich_check(f, f, 0.5, 10.0)
        assert rep.ok
        assert rep.lower_margin >= 0
        assert rep.upper_margin >= 0

    def test_rejects_decreasing(self):
        f = GrowthSeries([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.5, 2.0])
        with pytest.raises(DomainError, match="nondecreasing"):
            sandwich_check(f, f, 1.0, 3.0)

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

    def test_batch_builder(self):
        cusps = [_hyperbolic_cusp(), CuspModel(catalog_profile("sparse-5.2"))]
        caches = cuspidal_interpolants(cusps, 20.0)
        assert len(caches) == 2
        assert all(c.r_max >= 20.0 for c in caches)


class TestCountingBand:
    def test_degenerate_band_matches_closed_form(self):
        vg = VGammaModel(1.0)
        band = counting_band(vg, _hyperbolic_cusp(), 0.0, 10.0)
        expected = math.log(2.0) + 10.0 + math.log1p(-math.exp(-5.0))
        assert band.lower == pytest.approx(expected, abs=1e-7)
        assert band.upper == band.lower

    def test_depth_shifts_count(self):
        # constant curvature: depth h multiplies the parabolic factor by
        # e^{h/2}, so the whole convolution shifts by h/2 nats.
        vg = VGammaModel(1.0)
        cusp = _hyperbolic_cusp()
        b0 = counting_band(vg, cusp, 0.0, 10.0)
        b4 = counting_band(vg, cusp, 4.0, 10.0)
        assert b4.lower - b0.lower == pytest.approx(2.0, abs=1e-7)

    def test_shift_and_constant(self):
        vg = VGammaModel(1.0)
        cusp = _hyperbolic_cusp()
        band = counting_band(vg, cusp, 0.0, 10.0, d0=1.0, log_cpp=math.log(3.0))
        lo9 = counting_band(vg, cusp, 0.0, 9.0).lower
        hi11 = counting_band(vg, cusp, 0.0, 11.0).lower
        assert band.lower == pytest.approx(lo9 - math.log(3.0), abs=1e-9)
        assert band.upper == pytest.approx(hi11 + math.log(3.0), abs=1e-9)

    def test_rejects_shrinking_constant(self):
        with pytest.raises(DomainError):
            counting_band(VGammaModel(1.0), _hyperbolic_cusp(), 0.0, 10.0,
                          log_cpp=-0.5)

    def test_band_ordering_enforced(self):
        with pytest.raises(DomainError):
            Band(lower=1.0, upper=0.0)
        assert Band(0.0, 2.0).mid == 1.0


class TestVolumeBand:
    def test_interpolant_path_agrees(self):
        vg = VGammaModel(1.0)
        band = volume_band(vg, [_hyperbolic_cusp()], 10.0)
        assert band.lower == pytest.approx(10.67962568166097, abs=0.02)

    def test_two_cusps_double_the_excursion_mass(self):
        vg = VGammaModel(1.0)
        cusp = _hyperbolic_cusp()
        cache = cuspidal_interpolants([cusp], 11.0)
        one = volume_band(vg, [cusp], 10.0, cuspidal=cache)
        two = volume_band(vg, [cusp, cusp], 10.0, cuspidal=cache * 2)
        assert two.lower - one.lower == pytest.approx(math.log(2.0), abs=1e-9)

    def test_no_cusps_is_core_sweep(self):
        vg = VGammaModel(1.0, ConstantFactor(2.0))
        band = volume_band(vg, [], 5.0, vol_core=3.0)
        expected = math.log(3.0) + math.log(2.0) + 5.0
        assert band.lower == band.upper == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_radius(self):
        vg = VGammaModel(1.0)
        cache = cuspidal_interpolants([_hyperbolic_cusp()], 15.0)
        lows = [volume_band(vg, [_hyperbolic_cusp()], r, cuspidal=cache).lower
                for r in (6.0, 8.0, 10.0, 12.0)]
        assert all(b > a for a, b in zip(lows, lows[1:]))

    def test_shifts_and_core(self):
        vg = VGammaModel(1.0)
        cusp = _hyperbolic_cusp()
        cache = cuspidal_interpolants([cusp], 12.0)
        band = volume_band(vg, [cusp], 10.0, d0=0.5, log_cppp=math.log(2.0),
                           vol_core=4.0, cuspidal=cache)
        c9 = volume_band(vg, [cusp], 9.0, cuspidal=cache).lower
        c11 = volume_band(vg, [cusp], 11.0, cuspidal=cache).lower
        assert band.lower == pytest.approx(c9 - math.log(2.0), abs=1e-9)
        expected_upper = np.logaddexp(c11, math.log(4.0) + 10.5) + math.log(2.0)
        assert band.upper == pytest.approx(float(expected_upper), abs=1e-9)

    def test_validation(self):
        vg = VGammaModel(1.0)
        cusp = _hyperbolic_cusp()
        with pytest.raises(DomainError):
            volume_band(vg, [cusp], 10.0, vol_core=0.0)
        with pytest.raises(DomainError):
            volume_band(vg, [cusp], 10.0, log_cppp=-1.0)
        with pytest.raises(DomainError):
            volume_band(vg, [cusp], 10.0, rel_tol=0.0)
        with pytest.raises(DomainError, match="one CuspidalInterpolant per cusp"):
            volume_band(vg, [cusp], 10.0,
                        cuspidal=cuspidal_interpolants([cusp], 11.0) * 2)
        with pytest.raises(DomainError, match="one CuspidalInterpolant per cusp"):
            volume_band(vg, [cusp], 10.0, cuspidal=[_exact_hyperbolic_excursion])

    def test_exact_where_the_floor_meets_the_extrapolation(self):
        # ln F = -700 + 100 (t - 2) on the cache, floored at -745 below
        # t = 1.55; with ln v(s) = 200 s the floored stretch [0, 1.55]
        # carries almost all of the convolution at R = 3
        cache = CuspidalInterpolant(_hyperbolic_cusp(), 3.0)
        cache.nodes = np.array([2.0, 3.0])
        cache.values = np.array([-700.0, -600.0])
        band = volume_band(VGammaModel(200.0), [_hyperbolic_cusp()], 3.0,
                           cuspidal=[cache])
        floored = -145.0 - math.log(200.0) + math.log1p(-math.exp(-310.0))
        rising = -455.0 - math.log(100.0) + math.log1p(-math.exp(-145.0))
        assert band.lower == pytest.approx(float(np.logaddexp(floored, rising)),
                                           abs=1e-12)


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


def _quadrature_band(vg, caches, r, rel_tol):
    """The volume band's former path: adaptive Simpson over the summed
    caches, cut at every cache node and at the ambient model's kinks."""
    def s_log(u):
        u = np.asarray(u, dtype=float)
        stack = np.stack([np.asarray(c(u), dtype=float) for c in caches])
        m = np.max(stack, axis=0)
        return m + np.log(np.sum(np.exp(stack - m), axis=0))

    breaks = [float(x) for c in caches for x in c.nodes]
    conv = conv_continuous(s_log, vg.log_value, r, rel_tol=rel_tol,
                           f_breaks=breaks, g_breaks=vg.grid_breaks())
    return conv, float(np.logaddexp(conv, vg.log_value(r)))


@pytest.fixture(scope="module", params=CATALOG_IDS)
def example_family(request):
    spec = catalog_spec(request.param, default_catalog_params(request.param))
    caches = cuspidal_interpolants(spec.cusps, 501.0,
                                   step=taxonomy._CACHE_STEP, rel_tol=1e-6)
    return spec, caches


class TestBandAgainstQuadrature:
    REL_TOL = 1e-6  # run_example's band tolerance

    def test_every_eighth_example_radius(self, example_family):
        # the segment sum is exact up to a power-decay secant (at most
        # rel_tol nats); Simpson stops within rel_tol of its own answer
        spec, caches = example_family
        radii = np.linspace(1.0, 500.0, taxonomy._GRID_POINTS)[::8]
        assert radii[0] == 1.0 and radii[-1] == 500.0
        for r in radii:
            band = volume_band(spec.vgamma, spec.cusps, float(r),
                               cuspidal=caches, rel_tol=self.REL_TOL)
            lower, upper = _quadrature_band(spec.vgamma, caches, float(r),
                                            self.REL_TOL)
            assert band.lower == pytest.approx(lower, abs=2 * self.REL_TOL), r
            assert band.upper == pytest.approx(upper, abs=2 * self.REL_TOL), r
