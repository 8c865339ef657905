"""Log-domain kernel tests against closed-form integrals."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cuspgrowth import numerics
from cuspgrowth.errors import DomainError, QuadratureError
from cuspgrowth.numerics import (
    _gauss_kronrod_nodes,
    _gauss_panel_nats,
    _log_gauss_sums,
    log_add,
    log_integral,
    log_tail_integral,
    log_upper_gamma,
    logsumexp,
)
from simpson_reference import simpson_log_integral


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

    @pytest.mark.parametrize("rel_tol", [1.0, 5.0, 0.0, -1.0, math.inf, math.nan])
    def test_rel_tol_outside_zero_one_rejected(self, rel_tol):
        # even where no panel would be evaluated
        for hi in (3.0, 2.0):
            with pytest.raises(DomainError, match=r"rel_tol must lie in \(0, 1\)"):
                log_integral(lambda t: t, 2.0, hi, rel_tol=rel_tol)

    @pytest.mark.parametrize("rel_tol", [1.0, 5.0, 0.0, math.nan])
    def test_checked_radii_rejects_rel_tol_outside_zero_one(self, rel_tol):
        with pytest.raises(DomainError, match=r"band rel_tol must lie in \(0, 1\)"):
            numerics._checked_radii(np.array([1.0]), rel_tol, "band")

    def test_budget_exhaustion_carries_partial(self):
        with pytest.raises(QuadratureError) as exc:
            log_integral(lambda t: np.sin(50.0 * t), 0.0, 20.0, max_panels=16)
        assert math.isfinite(exc.value.log_partial)

    def test_polynomial(self):
        # integral of t^3 over [1, 4] = (4^4 - 1)/4 = 63.75
        got = log_integral(lambda t: 3.0 * np.log(t), 1.0, 4.0)
        assert got == pytest.approx(math.log(63.75), abs=2e-8)


def _kink(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < 5.0, -t, -2.0 * t + 5.0)


# numpy log integrand, mpmath log integrand, lo, hi, breakpoints
_INTEGRALS = [
    pytest.param(lambda t: t, lambda t: t, 0.0, 1.0, (), id="exp"),
    pytest.param(lambda t: -t - 5000.0, lambda t: -t - 5000, 0.0, 10.0, (),
                 id="deep"),
    pytest.param(_kink, lambda t: -t if t < 5 else -2 * t + 5, 0.0, 10.0,
                 (5.0,), id="kink"),
    pytest.param(lambda t: 3.0 * np.log(t), lambda t: 3 * mpmath.log(t),
                 1.0, 4.0, (), id="cubic"),
    pytest.param(lambda t: t, lambda t: t, 2.0, 2.0, (), id="zero-width"),
]


def _mp_log_integral(g, lo, hi, breakpoints):
    """ln of the integral of exp(g) by mpmath at 50 digits, shifted by
    g(lo) so that quad's absolute error test sees a mass near one."""
    with mpmath.workdps(50):
        shift = g(mpmath.mpf(lo))
        mass = mpmath.quad(lambda t: mpmath.exp(g(t) - shift),
                           [lo, *breakpoints, hi])
        return float(mpmath.log(mass) + shift) if mass else -math.inf


class TestLogIntegralDifferential:
    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("f, g, lo, hi, breaks", _INTEGRALS)
    def test_against_mpmath_and_simpson(self, f, g, lo, hi, breaks, rel_tol):
        got = log_integral(f, lo, hi, rel_tol=rel_tol, breakpoints=breaks)
        exact = _mp_log_integral(g, lo, hi, breaks)
        simpson = simpson_log_integral(f, lo, hi, rel_tol=rel_tol,
                                       breakpoints=breaks)
        if exact == -math.inf:
            assert got == simpson == -math.inf
            return
        assert got == pytest.approx(exact, rel=0, abs=rel_tol)
        assert got == pytest.approx(simpson, rel=0, abs=rel_tol)

    def test_zero_integrand(self):
        assert log_integral(lambda t: np.full(t.shape, -math.inf),
                            0.0, 1.0) == -math.inf

    def test_finest_level_within_the_simpson_budget(self):
        # Simpson's finest level at max_panels panels takes 2 max_panels + 1
        # abscissae; the Gauss-Kronrod panels of the last level checked take
        # no more
        max_panels = 1024
        sizes = []

        def wavy(t):
            sizes.append(t.size)
            return np.sin(50.0 * t)

        with pytest.raises(QuadratureError) as exc:
            log_integral(wavy, 0.0, 20.0, max_panels=max_panels)
        assert math.isfinite(exc.value.log_partial)
        # the finest level is the last and largest evaluation, and the next
        # one would be over the budget
        assert sizes[-1] == max(sizes)
        assert sizes[-1] <= 2 * max_panels + 1 < 2 * sizes[-1]
        with pytest.raises(QuadratureError):
            simpson_log_integral(wavy, 0.0, 20.0, max_panels=max_panels)
        assert sizes[-1] == 2 * max_panels + 1


def _exp_linear(slopes):
    """Log integrand s_k t on the panels of group k."""
    return lambda lo, hi, k: slopes[k][:, None] * _gauss_kronrod_nodes(lo, hi)


class TestGaussSums:
    # three groups: e^{t} on [0, 1] + [1, 4], e^{-2t} on [0, 30], e^{0} on [5, 6]
    LO = np.array([0.0, 1.0, 0.0, 5.0])
    HI = np.array([1.0, 4.0, 30.0, 6.0])
    GROUP = np.array([0, 0, 1, 2])
    SLOPE = np.array([1.0, 1.0, -2.0, 0.0])
    EXACT = [math.log(math.expm1(4.0)),
             math.log(-math.expm1(-60.0) / 2.0), 0.0]

    def test_exp_linear_closed_forms(self):
        got = _log_gauss_sums(_exp_linear(self.SLOPE), self.LO, self.HI,
                              self.GROUP, rel_tol=1e-10)
        assert got == pytest.approx(self.EXACT, rel=0, abs=1e-12)

    def test_a_group_does_not_depend_on_the_batch(self):
        # the [0, 30] panel needs halvings, the others do not
        whole = _log_gauss_sums(_exp_linear(self.SLOPE), self.LO, self.HI,
                                self.GROUP, rel_tol=1e-10)
        for g in range(3):
            sel = self.GROUP == g
            alone = _log_gauss_sums(_exp_linear(self.SLOPE[sel]), self.LO[sel],
                                    self.HI[sel], np.zeros(sel.sum(), dtype=int),
                                    rel_tol=1e-10)
            assert alone[0] == whole[g]

    def test_rule_matches_numpy(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert numerics._GL_NODES == pytest.approx(nodes, rel=0, abs=1e-15)
        assert numerics._GL_WEIGHTS == pytest.approx(weights, rel=0, abs=1e-15)

    def test_kronrod_rule_embeds_the_gauss_rule(self):
        assert numerics._GK_NODES[1::2].tobytes() == numerics._GL_NODES.tobytes()
        assert np.all(np.diff(numerics._GK_NODES) > 0.0)
        assert np.all(numerics._GK_WEIGHTS > 0.0)

    def test_kronrod_rule_exact_to_degree_25(self):
        # each moment of the float rule, summed at 50 digits, against
        # the exact one; the 26th is the first the rule misses
        with mpmath.workdps(50):
            nodes = [mpmath.mpf(float(x)) for x in numerics._GK_NODES]
            weights = [mpmath.mpf(float(w)) for w in numerics._GK_WEIGHTS]
            for degree in range(27):
                rule = mpmath.fsum(w * x ** degree for x, w in zip(nodes, weights))
                exact = mpmath.mpf(0) if degree % 2 else mpmath.mpf(2) / (degree + 1)
                if degree <= 25:
                    assert abs(rule - exact) <= 1e-15, degree
                else:
                    assert abs(rule - exact) > 1e-12

    def test_kronrod_rule_matches_mpmath(self):
        # the Kronrod nodes are the roots of the Stieltjes polynomial
        # E_9, orthogonal to x^k P_8 for k < 9, and with the roots of P_8
        # the weights make the rule exact on 1, x, ..., x^16; each is
        # its 50-digit value rounded to the nearest float
        with mpmath.workdps(50):
            p8 = mpmath.taylor(lambda t: mpmath.legendre(8, t), 0, 8)

            def moment(j):
                return mpmath.mpf(0) if j % 2 else mpmath.mpf(2) / (j + 1)

            def against_p8(k):
                return [sum(a * moment(i + k + j) for i, a in enumerate(p8))
                        for j in (1, 3, 5, 7, 9)]

            rows = [against_p8(k) for k in (1, 3, 5, 7)]
            lower = mpmath.lu_solve(mpmath.matrix([r[:4] for r in rows]),
                                    mpmath.matrix([-r[4] for r in rows]))
            e9 = [0, lower[0], 0, lower[1], 0, lower[2], 0, lower[3], 0, 1]
            roots = sorted(mpmath.re(x) for x in mpmath.polyroots(
                e9[::-1], maxsteps=200, extraprec=200))
            assert [float(x) for x in roots] == numerics._GK_NODES[0::2].tolist()
            nodes = roots + [mpmath.re(x) for x in mpmath.polyroots(
                p8[::-1], maxsteps=200, extraprec=200)]
            vander = mpmath.matrix([[x ** i for x in nodes] for i in range(17)])
            weights = mpmath.lu_solve(vander, mpmath.matrix(
                [moment(i) for i in range(17)]))
        got = dict(zip(numerics._GK_NODES[0::2].tolist() + sorted(
            float(x) for x in nodes[9:]), numerics._GK_WEIGHTS[0::2].tolist()
            + numerics._GK_WEIGHTS[1::2].tolist()))
        assert got == {float(x): float(w) for x, w in zip(nodes, weights)}

    def test_panel_nats_bound_the_rule_error(self):
        # one panel over which e^t varies by the allowed nats stays four
        # times inside rel_tol with the 8-point rule alone
        for rel_tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            nats = _gauss_panel_nats(rel_tol)
            half = nats / 2.0
            t = half + half * numerics._GL_NODES
            rule = half * float(np.sum(numerics._GL_WEIGHTS * np.exp(t)))
            assert abs(rule / math.expm1(nats) - 1.0) <= rel_tol / 4.0

    def test_budget_exhaustion_raises_with_partial(self, monkeypatch):
        wavy = lambda lo, hi, k: 30.0 * np.sin(_gauss_kronrod_nodes(lo, hi))
        lo, hi, group = np.array([0.0]), np.array([20.0]), np.array([0])
        assert math.isfinite(_log_gauss_sums(wavy, lo, hi, group, rel_tol=1e-8)[0])
        monkeypatch.setattr(numerics, "_MAX_HALVINGS", 0)
        with pytest.raises(QuadratureError, match="halvings") as exc:
            _log_gauss_sums(wavy, lo, hi, group, rel_tol=1e-8)
        assert math.isfinite(exc.value.log_partial)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureError):
            _log_gauss_sums(_exp_linear(self.SLOPE), self.LO, self.HI,
                            self.GROUP, rel_tol=1e-300)
        with pytest.raises(DomainError):
            _log_gauss_sums(_exp_linear(self.SLOPE), self.LO, self.HI,
                            self.GROUP, rel_tol=0.0)


class TestTailAnalysis:
    def test_exponential_tail_converges(self):
        res = log_tail_integral(lambda t: -t, 1.0)
        assert res.verdict is True
        assert res.log_tail == pytest.approx(-1.0, abs=1e-6)

    def test_harmonic_tail_diverges(self):
        res = log_tail_integral(lambda t: -np.log(t), 1.0)
        assert res.verdict is False

    def test_inverse_square_tail_value(self):
        # integral of t^{-2} over [1, inf) = 1; window ratio is exactly 1/2
        # so the geometric remainder estimate closes the sum exactly.
        res = log_tail_integral(lambda t: -2.0 * np.log(t), 1.0)
        assert res.verdict is True
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


def _mp_log_upper_gamma(a: float, x: float) -> float:
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x))))


# a = 0, the negative integers and a hair off -1 take the series' log
# branch; x = 1 and its neighbours straddle the switch between the two
# evaluations
_GAMMA_A = sorted({*np.round(np.linspace(-2.5, 3.2, 20), 12), 0.0, -1.0,
                   -2.0, 1.0, 2.0, 3.0, -1.0 + 1e-9, 1e-12})
_GAMMA_X = sorted({*np.geomspace(1e-8, 1e4, 25), 1.0 - 1e-12, 0.999, 1.0,
                   1.001, 1.0 + 1e-12})


class TestUpperGamma:
    @pytest.mark.parametrize("a", _GAMMA_A)
    def test_matches_mpmath(self, a):
        for x in _GAMMA_X:
            got = log_upper_gamma(float(a), float(x))
            assert got == pytest.approx(_mp_log_upper_gamma(a, x),
                                        rel=0, abs=1e-10), (a, x)

    def test_closed_forms(self):
        # Gamma(1, x) = e^{-x}; Gamma(0, x) = E1(x); Gamma(a, 0+) = Gamma(a)
        for x in (1e-6, 0.5, 1.0, 7.0, 800.0):
            assert log_upper_gamma(1.0, x) == pytest.approx(-x, rel=1e-14, abs=1e-12)
        assert log_upper_gamma(0.0, 1.0) == pytest.approx(math.log(0.21938393439552029), abs=1e-14)
        assert log_upper_gamma(2.5, 1e-300) == pytest.approx(math.lgamma(2.5), abs=1e-12)

    def test_extreme_arguments_stay_in_the_log_domain(self):
        # Gamma(-10, x) ~ x^{-10} / 10 overflows a float at x = 1e-300;
        # Gamma(a, 1e6) underflows it
        assert log_upper_gamma(-10.0, 1e-300) == pytest.approx(
            3000.0 * math.log(10.0) - math.log(10.0), rel=1e-12)
        assert log_upper_gamma(0.5, 1e6) == pytest.approx(
            _mp_log_upper_gamma(0.5, 1e6), rel=1e-14)

    def test_rejects_bad_arguments(self):
        for a, x in ((1.0, 0.0), (1.0, -1.0), (1.0, math.inf),
                     (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                log_upper_gamma(a, x)
