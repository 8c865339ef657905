"""Log-domain kernel tests against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cuspgrowth.errors import DomainError, QuadratureError
from cuspgrowth.numerics import (
    bisect_increasing,
    log_add,
    log_integral,
    log_tail_integral,
    logsumexp,
)


class TestLogSumExp:
    def test_matches_direct_sum(self):
        vals = [0.3, -1.2, 2.5]
        assert logsumexp(vals) == pytest.approx(math.log(sum(math.exp(v) for v in vals)))

    def test_neg_inf_entries_are_zero_summands(self):
        assert logsumexp([-math.inf, 0.0, -math.inf]) == pytest.approx(0.0)

    def test_all_neg_inf(self):
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_empty(self):
        assert logsumexp([]) == -math.inf

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            logsumexp([0.0, math.nan])

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
           st.floats(min_value=-1e6, max_value=1e6))
    def test_shift_invariance(self, vals, shift):
        base = logsumexp(vals)
        shifted = logsumexp([v + shift for v in vals])
        assert shifted == pytest.approx(base + shift, rel=1e-12, abs=1e-9)

    def test_extreme_magnitudes(self):
        # Would overflow any direct exponentiation.
        assert logsumexp([10000.0, 10000.0]) == pytest.approx(10000.0 + math.log(2.0))


class TestLogAddSub:
    def test_add(self):
        assert log_add(math.log(3.0), math.log(4.0)) == pytest.approx(math.log(7.0))


class TestLogIntegral:
    def test_exponential_growth(self):
        # integral of e^t over [0, 1] = e - 1
        got = log_integral(lambda t: t, 0.0, 1.0)
        assert got == pytest.approx(math.log(math.e - 1.0), abs=2e-8)

    def test_exponential_decay(self):
        # integral of e^{-t} over [0, 10] = 1 - e^{-10}
        got = log_integral(lambda t: -t, 0.0, 10.0)
        assert got == pytest.approx(math.log(1.0 - math.exp(-10.0)), abs=2e-8)

    def test_deep_underflow_offset(self):
        # Same integral scaled by e^{-5000}: only representable in logs.
        got = log_integral(lambda t: -t - 5000.0, 0.0, 10.0)
        assert got == pytest.approx(math.log(1.0 - math.exp(-10.0)) - 5000.0, abs=2e-8)

    def test_breakpoint_kink(self):
        # f = -t on [0, 5], then -2t + 5 on [5, 10]; integrand continuous
        # with a slope kink at 5.
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where(t < 5.0, -t, -2.0 * t + 5.0)

        exact = (1.0 - math.exp(-5.0)) + math.exp(5.0) * (math.exp(-10.0) - math.exp(-20.0)) / 2.0
        got = log_integral(f, 0.0, 10.0, breakpoints=[5.0])
        assert got == pytest.approx(math.log(exact), abs=2e-8)

    def test_zero_width(self):
        assert log_integral(lambda t: t, 2.0, 2.0) == -math.inf

    def test_budget_exhaustion_carries_partial(self):
        with pytest.raises(QuadratureError) as exc:
            log_integral(lambda t: np.sin(50.0 * t), 0.0, 20.0, max_panels=16)
        assert math.isfinite(exc.value.log_partial)

    def test_polynomial(self):
        # integral of t^3 over [1, 4] = (4^4 - 1)/4 = 63.75
        got = log_integral(lambda t: 3.0 * np.log(t), 1.0, 4.0)
        assert got == pytest.approx(math.log(63.75), abs=2e-8)


class TestTailAnalysis:
    def test_exponential_tail_converges(self):
        res = log_tail_integral(lambda t: -t, 1.0)
        assert res.converges
        assert res.log_tail == pytest.approx(-1.0, abs=1e-6)

    def test_harmonic_tail_diverges(self):
        res = log_tail_integral(lambda t: -np.log(t), 1.0)
        assert res.diverges

    def test_inverse_square_tail_value(self):
        # integral of t^{-2} over [1, inf) = 1; window ratio is exactly 1/2
        # so the geometric remainder estimate closes the sum exactly.
        res = log_tail_integral(lambda t: -2.0 * np.log(t), 1.0)
        assert res.converges
        assert res.log_tail == pytest.approx(0.0, abs=1e-7)

    def test_undetermined_zone(self):
        # t^{-1.05} has window ratio 2^{-0.05} ~ 0.966, inside the dead
        # zone between the convergence (0.9) and divergence (1.0) cuts:
        # the scan must refuse a verdict rather than guess.
        res = log_tail_integral(lambda t: -1.05 * np.log(t), 1.0,
                                max_windows=12)
        assert res.verdict is None
        assert all(0.9 < r < 1.0 for r in res.ratios)

    def test_requires_positive_start(self):
        with pytest.raises(DomainError):
            log_tail_integral(lambda t: -t, 0.0)

    def test_no_partial_windows_on_a_smooth_tail(self):
        res = log_tail_integral(lambda t: -2.0 * np.log(t), 1.0)
        assert res.partial_windows == 0

    def test_counts_windows_kept_at_their_partial_estimate(self):
        # a step that no breakpoint marks converges at first order in the
        # panel width, so the window [2, 4] holding it still moves by
        # about 1e-6 at the panel budget; every other window is smooth
        res = log_tail_integral(
            lambda t: -2.0 * np.log(t) - 5.0 * (t > 3.3), 1.0)
        assert res.converges
        assert res.partial_windows == 1


class TestBisection:
    def test_finds_threshold(self):
        got = bisect_increasing(lambda s: s >= math.pi, 0.0, 10.0, tol=1e-9)
        assert got == pytest.approx(math.pi, abs=1e-8)

    def test_endpoint_validation(self):
        with pytest.raises(DomainError):
            bisect_increasing(lambda s: True, 0.0, 1.0)
        with pytest.raises(DomainError):
            bisect_increasing(lambda s: False, 0.0, 1.0)
