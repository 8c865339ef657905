"""Growth convolutions and the counting/volume envelopes.

Orbit counts factor through convolutions: the number of ways to reach
radius R combining a lattice excursion with a cusp excursion is an
integral of one growth function against the other.  This module provides
the discrete gauge convolution and its bracketing of the continuous one,
a parametric model for the ambient orbit count, and the two-sided
counting/volume envelopes assembled from them.  Everything is carried in
the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .asymptotics import (
    CuspModel,
    GrowthSeries,
    log_cuspidal,
    log_orbital_parabolic,
)
from .numerics import NEG_INF, _checked_radii, log_integral, logsumexp

__all__ = [
    "VGammaModel",
    "conv_gauge",
    "conv_continuous",
    "SandwichReport",
    "sandwich_check",
    "CuspidalInterpolant",
    "cuspidal_interpolants",
    "Band",
    "counting_band",
    "volume_band",
]


# -- ambient orbit-count model --------------------------------------------------

@dataclass(frozen=True)
class VGammaModel:
    """Ambient orbit-count model ln v(R) = delta R - decay ln(1 + max(R, 0)):
    a bare exponential at decay 0, else the lower-exponential factor
    R^{-decay}, regularized so it stays bounded down to R = 0."""
    delta: float
    decay: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < math.inf:
            raise DomainError(
                f"growth exponent delta must be finite and positive, "
                f"got {self.delta!r}")
        if not 0.0 <= self.decay < math.inf:
            raise DomainError("decay exponent must be finite and nonnegative")

    def log_value(self, r) -> float | np.ndarray:
        arr = np.asarray(r, dtype=float)
        out = self.delta * arr.ravel()
        if self.decay != 0.0:
            damp = np.maximum(arr.ravel(), 0.0)
            np.log1p(damp, out=damp)
            damp *= self.decay
            out -= damp
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# -- gauge convolution -----------------------------------------------------------

def _values_on_multiples(series: GrowthSeries, count: int, delta: float,
                         which: str) -> np.ndarray:
    """Log values of a series at delta, 2 delta, ..., count*delta; an error
    names it the ``which`` ("first" or "second") series."""
    targets = np.arange(1, count + 1, dtype=float) * delta
    idx = np.searchsorted(series.radii, targets)
    idx = np.clip(idx, 0, series.radii.size - 1)
    left = np.clip(idx - 1, 0, series.radii.size - 1)
    # Nearest of the two bracketing grid points, then an exactness check.
    use_left = (np.abs(series.radii[left] - targets)
                < np.abs(series.radii[idx] - targets))
    idx = np.where(use_left, left, idx)
    off = np.abs(series.radii[idx] - targets)
    bad = off > 1e-9 * np.maximum(1.0, targets)
    if np.any(bad):
        missing = targets[bad][0]
        raise DomainError(
            f"{which} series has no sample at {missing!r} "
            f"(gauge multiple)")
    return series.log_values[idx]


def conv_gauge(f: GrowthSeries, g: GrowthSeries, delta: float, r: float) -> float:
    """ln of the discrete gauge convolution

        (f * g)_delta (R) = sum over h + k = floor(R/delta), h,k >= 1
                            of f(h delta) g(k delta).

    Exact log-sum-exp over the admissible pairs; -inf when no pair exists.
    Symmetric in (f, g) bit-for-bit (the terms are sorted before summing).
    """
    if delta <= 0:
        raise DomainError("gauge must be positive")
    n = int(math.floor(r / delta))
    if n < 2:
        return NEG_INF
    f_vals = _values_on_multiples(f, n - 1, delta, "first")
    g_vals = _values_on_multiples(g, n - 1, delta, "second")
    terms = f_vals + g_vals[::-1]
    return logsumexp(np.sort(terms))


def conv_continuous(f_log: Callable[[np.ndarray], np.ndarray],
                    g_log: Callable[[np.ndarray], np.ndarray],
                    r: float,
                    *,
                    rel_tol: float = 1e-8,
                    f_breaks: Sequence[float] = (),
                    g_breaks: Sequence[float] = ()) -> float:
    """ln of the continuous convolution integral of exp(f_log) and
    exp(g_log) over [0, R]:  integral of f(t) g(R-t) dt, by quadrature.
    No library code calls it; the tests keep it as the bands' reference.

    ``f_breaks``/``g_breaks`` list the factors' non-smooth abscissae; the
    second factor's are pulled back through t -> R - t.
    """
    if r <= 0:
        return NEG_INF

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(f_log(t), dtype=float) + np.asarray(g_log(r - t), dtype=float)

    cuts = [float(b) for b in f_breaks if 0.0 < b < r]
    cuts += [r - float(b) for b in g_breaks if 0.0 < r - float(b) < r]
    return log_integral(integrand, 0.0, r, rel_tol=rel_tol, breakpoints=cuts)


# -- the sandwich between gauge and continuous convolutions ----------------------

class SandwichReport(NamedTuple):
    """The two-sided gauge bracket of a continuous convolution,

        delta (f*g)_delta(R - delta)  <=  (f*g)(R)
                                      <=  2 delta (f*g)_delta(R + 2 delta),

    for nondecreasing f, g: its three sides in nats, and whether it
    holds.
    """
    ok: bool
    log_continuous: float
    log_lower: float
    log_upper: float


def _step_log_values(series: GrowthSeries, t: np.ndarray, delta: float,
                     which: str) -> np.ndarray:
    # Step extension of grid data: constant f(j delta) on [j delta, (j+1) delta),
    # with the first cell borrowing the value at delta.
    j = np.maximum(np.floor(t / delta + 1e-12).astype(int), 1)
    return _values_on_multiples(series, int(np.max(j)), delta, which)[j - 1]


def _step_convolution(f: GrowthSeries, g: GrowthSeries,
                      delta: float, r: float) -> float:
    """Exact ln of integral over [0, r] of f_step(t) g_step(r - t) dt."""
    cuts = {0.0, r}
    k = 1
    while k * delta < r:
        cuts.add(k * delta)
        cuts.add(r - k * delta)
        k += 1
    edges = np.array(sorted(cuts))
    mids = 0.5 * (edges[:-1] + edges[1:])
    lens = np.diff(edges)
    vals = (_step_log_values(f, mids, delta, "first")
            + _step_log_values(g, r - mids, delta, "second")
            + np.log(lens))
    return logsumexp(vals)


# nats by which the bracket's margins may fall below zero, for rounding
_SANDWICH_TOL = 1e-9


def sandwich_check(f: GrowthSeries, g: GrowthSeries,
                   delta: float, r: float) -> SandwichReport:
    """Verify the gauge bracket on the step extensions of two nondecreasing
    sampled functions.  The continuous side is integrated exactly (the
    integrand is piecewise constant), so the margins carry no quadrature
    error."""
    if delta <= 0:
        raise DomainError("gauge must be positive")
    if r < 2.0 * delta:
        raise DomainError("radius below two gauge steps leaves an empty bracket")
    for which, s in (("first", f), ("second", g)):
        if np.any(np.diff(s.log_values) < 0):
            raise DomainError(
                f"{which} series is not nondecreasing; the bracket "
                f"assumes monotone growth functions")
    log_cont = _step_convolution(f, g, delta, r)
    log_lower = math.log(delta) + conv_gauge(f, g, delta, r - delta)
    log_upper = math.log(2.0 * delta) + conv_gauge(f, g, delta, r + 2.0 * delta)
    ok = (log_cont >= log_lower - _SANDWICH_TOL
          and log_cont <= log_upper + _SANDWICH_TOL)
    return SandwichReport(ok=ok, log_continuous=log_cont,
                          log_lower=log_lower, log_upper=log_upper)


# -- cached cusp excursion integrals ---------------------------------------------

# floor of the extrapolated ln F below the first cache node; exp(-745)
# rounds to the smallest positive double
_LOG_FLOOR = -745.0


class CuspidalInterpolant:
    """Piecewise-linear cache of ln F for one cusp on [t_start, r_max].

    The excursion integral is sampled on a uniform grid, all nodes in one
    batched ``log_cuspidal`` call, and interpolated linearly in the log
    domain; the band convolutions sum it in closed form over the cache's
    segments.  Below the first node the first segment's slope is
    extrapolated down to a floor of -745 (ln F falls off to -inf there;
    the convolutions only need it to stay small).  Below the profile
    start, where the excursion integral is empty, it is the floor.
    """

    def __init__(self, cusp: CuspModel, r_max: float,
                 *, step: float = 0.5, rel_tol: float = 1e-6) -> None:
        if not 0.0 < step < math.inf:
            raise DomainError(f"cache step must be finite and positive, got {step!r}")
        if not math.isfinite(r_max):
            raise DomainError(f"cache horizon r_max must be finite, got {r_max!r}")
        if r_max <= cusp.profile.t_start + step:
            raise DomainError("interpolation grid needs room past the profile start")
        t0 = cusp.profile.t_start
        self.t_start = t0
        count = int(math.ceil((r_max - t0) / step))
        self.nodes = t0 + step * np.arange(1, count + 1, dtype=float)
        self.values = log_cuspidal(cusp, self.nodes, rel_tol=rel_tol)
        self.r_max = float(self.nodes[-1])

    def __call__(self, r) -> float | np.ndarray:
        arr = np.asarray(r, dtype=float)
        flat = arr.ravel()
        if np.any(flat > self.r_max * (1.0 + 1e-12)):
            raise DomainError(
                f"excursion cache built to {self.r_max}, queried at {float(np.max(flat))}")
        out = np.interp(flat, self.nodes, self.values)
        below = flat < self.nodes[0]
        if np.any(below):
            # the extrapolation, on the points that read it
            x = flat[below]
            ext = self.values[0] + self._slope * (x - self.nodes[0])
            ext[x < self.t_start] = _LOG_FLOOR
            out[below] = np.maximum(ext, _LOG_FLOOR)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    @property
    def _slope(self) -> float:
        return float((self.values[1] - self.values[0])
                     / (self.nodes[1] - self.nodes[0]))

    def _kinks(self) -> np.ndarray:
        """Abscissae where ln F may bend: the nodes, and the point where
        the extrapolation below the first node meets the floor."""
        if self._slope == 0.0:
            return self.nodes
        knee = self.nodes[0] - (self.values[0] - _LOG_FLOOR) / self._slope
        return np.append(self.nodes, knee)


def cuspidal_interpolants(cusps: Sequence[CuspModel], r_max: float,
                          *, step: float = 0.5,
                          rel_tol: float = 1e-6) -> tuple[CuspidalInterpolant, ...]:
    """Build one excursion cache per cusp, all to the same horizon."""
    return tuple(CuspidalInterpolant(c, r_max, step=step, rel_tol=rel_tol)
                 for c in cusps)


# -- counting and volume envelopes ----------------------------------------------

@dataclass(frozen=True)
class Band:
    """A two-sided log envelope: floats at one radius, or arrays of one
    shape holding the edges at each radius of an array."""
    lower: float | np.ndarray
    upper: float | np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise DomainError("band edge is NaN")
        if np.any(upper < lower):
            raise DomainError("band upper edge below lower edge")


# Below this |d| the series of ln((1 - e^{-|d|}) / |d|) is exact in
# double precision, and the expm1 form loses nothing above it.
_SERIES_CUTOFF = 1e-4


def _log_exp_linear(y_a: np.ndarray, y_b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """ln of the integral of exp(y) over segments of width h on which y
    runs linearly from y_a to y_b, elementwise over their broadcast shape:

        max(y_a, y_b) + ln h + ln((1 - e^{-|d|}) / |d|),   d = y_b - y_a.
    """
    x = np.subtract(y_b, y_a)
    np.abs(x, out=x)
    small = np.flatnonzero(x < _SERIES_CUTOFF)
    d = x.ravel()[small]
    x.ravel()[small] = 1.0
    np.negative(x, out=x)
    # (e^{-|d|} - 1) / -|d|, the same quotient as (1 - e^{-|d|}) / |d|
    shape = np.expm1(x)
    shape /= x
    np.log(shape, out=shape)
    shape.ravel()[small] = d * (d / 24.0 - 0.5)
    out = np.maximum(y_a, y_b, out=x)
    out += np.log(h)
    out += shape
    return out


def _alias_bound(k: float, h: float) -> float:
    """Bound on the relative error of the trapezoidal rule of step h for
    Gamma(k) = integral of exp(k u - e^u) du, uniform in the grid's
    offset: 2 sum over m >= 1 of a bound on |Gamma(k + i m w)| / Gamma(k),
    w = 2 pi / h.  By the product formula, -2 ln of that ratio is the sum
    over n >= 0 of f(k + n), f(x) = ln(1 + w^2 / x^2), which is convex
    and falls, so it is at least f(k) / 2 plus the integral of f over
    [k, inf), pi w - k f(k) - 2 w atan(k / w).  The terms in m fall
    faster than geometrically; the sum stops once they no longer count."""
    total, m = 0.0, 1
    while True:
        w = 2.0 * math.pi * m / h
        f_k = 2.0 * math.log(w / k) + math.log1p((k / w) ** 2)
        term = math.exp(-0.5 * (math.pi * w - (k - 0.5) * f_k
                                - 2.0 * w * math.atan(k / w)))
        total += term
        if term <= 1e-17 * total:
            return 2.0 * total
        m += 1


def _power_kernel(decay: float, log_span: float,
                  rel_tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """An exponential sum for the decay factor of ``VGammaModel``:
    ln weights ln w_j, rates l_j and a bound b such that, for 0 <= s <= S
    with ln(1 + S) = ``log_span``,

        0  <=  ln(sum of w_j e^{-l_j s}) + decay ln(1 + s)  <=  b  <=  rel_tol / 2.

    Decay 0 is one exact term, w = 1 and l = 0.  Else, with k = decay,

        (1 + s)^{-k} = Gamma(k)^{-1} integral of exp(k y - (1 + s) e^y) dy,

    sampled by the trapezoidal rule at y_n = n h: term n has weight
    h exp(k y_n - e^{y_n}) / Gamma(k) and rate e^{y_n}.  Shifting y by
    ln(1 + s) maps every s to the sum of g(u) = exp(k u - e^u) on a
    shifted grid, so each bound below holds uniformly in s.  With
    e = rel_tol / 8 for each:

    - Step.  By Poisson summation the sum's relative error is at most
      ``_alias_bound(k, h)``; h starts at 1 and shrinks by 1/1.05 until
      that is at most e.
    - Right cut.  g falls above u = ln k, so the terms above the first
      y_R >= ln k hold at most the tail integral of g from y_R, a share
      Q(k, x) <= x^{k-1} e^{-x} / (Gamma(k) (1 - max(k - 1, 0) / x)) of
      the whole, x = e^{y_R} > k - 1; y_R steps up by h until that is at
      most e, and the terms above it are dropped.
    - Left tail.  The terms with e^{y_n} (1 + S) <= tau, n <= L, become
      one: their weights c_n = h e^{k y_n} / Gamma(k) sum to
      C = h e^{k y_L} / (Gamma(k) (1 - e^{-kh})), their rates' mean under
      c is l = e^{y_L} (1 - e^{-kh}) / (1 - e^{-(k+1)h}), both geometric
      series, and the term is C e^{-(1+s) l}.  By Jensen it lies below
      the sum of c_n e^{-(1+s) e^{y_n}} it replaces, by at most
      (1 + s)^2 / 2 times their second moment, so by a share of at most
      h tau^{k+2} / (2 Gamma(k) (1 - e^{-(k+2)h})) of (1 + s)^{-k}; tau
      makes that e.
    - Scale.  The kept terms then lie between 1 - E and 1 + A times
      (1 + s)^{-k}, A the step's bound and E the sum of all three, so the
      weights are raised by 1 / (1 - E) and b = ln((1 + A) / (1 - E)).
    """
    if decay == 0.0:
        return np.zeros(1), np.zeros(1), 0.0
    k, target = decay, rel_tol / 8.0
    log_gamma = math.lgamma(k)
    h = 1.0
    while (alias := _alias_bound(k, h)) > target:
        h /= 1.05
    top = math.ceil(math.log(k) / h)
    while True:
        x = math.exp(top * h)
        log_cut = ((k - 1.0) * math.log(x) - x - log_gamma
                   - math.log1p(-max(k - 1.0, 0.0) / x))
        if log_cut <= math.log(target):
            break
        top += 1
    log_tau = (math.log(2.0 * target / h) + log_gamma
               + math.log(-math.expm1(-(k + 2.0) * h))) / (k + 2.0)
    low = math.floor((log_tau - log_span) / h)
    top = max(top, low)
    merged = (h * math.exp((k + 2.0) * (low * h + log_span) - log_gamma)
              / (-2.0 * math.expm1(-(k + 2.0) * h)))
    log_scale = -math.log1p(-(alias + math.exp(log_cut) + merged))
    # terms top, ..., low + 1, then the merged tail in place of term low
    y = h * np.arange(top, low - 1, -1, dtype=float)
    rates = np.exp(y)
    rates[-1] *= math.expm1(-k * h) / math.expm1(-(k + 1.0) * h)
    log_w = k * y - rates + (math.log(h) - log_gamma + log_scale)
    log_w[-1] -= math.log(-math.expm1(-k * h))
    return log_w, rates, math.log1p(alias) + log_scale


# Elements per array of one block of kernel terms: the block holds as
# many terms as keep its arrays over all kinks, or over all radii, this
# size, so its temporaries stay within a few hundred kB.
_BLOCK_POINTS = 1 << 15


def _log_convolutions(vg: VGammaModel, f_log: Callable, lo: float,
                      f_kinks: np.ndarray, radii: np.ndarray,
                      log_span: float, rel_tol: float) -> np.ndarray:
    """ln of the integral over [lo, rho] of F(t) v(rho - t) dt at each
    radius rho, with rho - lo at most S, ln(1 + S) = ``log_span``.
    ln F = ``f_log`` must be linear between its kinks ``f_kinks`` on
    [lo, inf).

    v(s) = sum over the terms of ``_power_kernel`` of w_j e^{beta_j s},
    beta_j = delta - l_j.  Per term, the integrals of F(t) e^{-beta_j t}
    over the segments between F's kinks t_i are exp-linear and sum in
    closed form; their running sums P_i reach each t_i.  Radius rho,
    whose last kink below it is t_i, reads P_i shifted by beta_j rho,
    plus the segment [t_i, rho] of F(t) e^{beta_j (rho - t)}.  ln F is
    read once at the kinks and once at the radii."""
    out = np.full(radii.size, NEG_INF)
    live = np.flatnonzero(radii > lo)
    if live.size == 0:
        return out
    # F's kinks above lo, with lo itself, sorted and distinct
    t = np.sort(np.append(f_kinks[f_kinks > lo], lo))
    t = t[np.r_[True, t[1:] != t[:-1]]]
    y = f_log(t)
    rho = radii[live]
    y_rho = f_log(rho)[:, None]
    at = np.searchsorted(t, rho) - 1
    gap = (rho - t[at])[:, None]
    rho = rho[:, None]
    widths = np.diff(t)[:, None]
    log_w, rates, _ = _power_kernel(vg.decay, log_span, rel_tol)
    beta = vg.delta - rates
    acc = np.full(live.size, NEG_INF)
    size = max(1, _BLOCK_POINTS // max(t.size, live.size))
    for a in range(0, beta.size, size):
        b = beta[a:a + size]
        z = y[:, None] - t[:, None] * b
        prefix = np.empty_like(z)
        prefix[0] = NEG_INF
        np.logaddexp.accumulate(_log_exp_linear(z[:-1], z[1:], widths),
                                axis=0, out=prefix[1:])
        del z
        part = _log_exp_linear(y[at, None] + gap * b, y_rho, gap)
        conv = np.logaddexp(prefix[at] + rho * b, part)
        conv += log_w[a:a + size]
        acc = np.logaddexp(acc, np.logaddexp.reduce(conv, axis=-1))
    out[live] = acc
    return out


def volume_band(vg: VGammaModel, caches: Sequence[CuspidalInterpolant],
                r, *, rel_tol: float = 1e-8) -> Band:
    """Two-sided envelope for ball volume growth from one excursion cache
    per cusp: the lower edge is the ambient model convolved with the
    summed cusp excursion integrals, the upper edge adds the compact-core
    sweep v(R).

    ln F is linear between the cache's kinks, and v is an exponential sum
    (``_power_kernel``), so each convolution is a sum of exp-linear
    segments per term, read at every radius from one running sum over the
    kinks (``_log_convolutions``); the terms and the cusps combine by
    logsumexp.  At decay 0 the sum is one exact term.  A positive decay
    is summed with the terms of the cache's horizon, whose weights keep
    the band at or above the exact convolution and at most ``rel_tol``
    nats above it.  Scalar or vectorized in ``r``: a radius's value does
    not depend on the other radii, and a scalar is banded exactly as an
    array of one.
    """
    radii, flat = _checked_radii(r, rel_tol, "band")
    if not caches or not all(isinstance(c, CuspidalInterpolant) for c in caches):
        raise DomainError("need one CuspidalInterpolant per cusp")
    # each cusp from its profile start, below which the cache's floor
    # times v need not be small
    convs = []
    for c in caches:
        lo = max(0.0, c.t_start)
        convs.append(_log_convolutions(vg, c, lo, c._kinks(), flat,
                                       math.log1p(c.r_max - lo), rel_tol))
    lower = np.logaddexp.reduce(np.stack(convs, axis=-1), axis=-1)
    upper = np.logaddexp(lower, vg.log_value(flat))
    if radii.ndim == 0:
        return Band(lower=float(lower[0]), upper=float(upper[0]))
    return Band(lower=lower.reshape(radii.shape), upper=upper.reshape(radii.shape))


def counting_band(vg: VGammaModel, cusp: CuspModel, h_y: float, r,
                  *, rel_tol: float = 1e-8) -> float | np.ndarray:
    """ln of the ambient model convolved with the parabolic orbit count
    toward a point at horoball depth h_y, scalar or vectorized in ``r``
    as ``volume_band``.  The cusp's profile must be one law T = e^{-ct}:
    ln v_P is then linear but for its clamp at 2 t_start - h_y, and the
    segment sum is exact at decay 0.  A positive decay is summed as in
    ``volume_band``, with the terms of the e-fold of radii, ln(1 + R)
    rounded up to an integer, that holds each radius."""
    radii, flat = _checked_radii(r, rel_tol, "band")
    if not math.isfinite(h_y):
        raise DomainError(f"counting_band depth h_y must be finite, got {h_y!r}")
    prof = cusp.profile
    if prof.piece_breaks().size or prof.final_law()[0] != 0.0:
        raise DomainError("counting_band cusp needs a profile of one law T = e^{-ct}")
    log_spans = (np.ceil(np.log1p(np.maximum(flat, 0.0))) if vg.decay
                 else np.zeros(flat.size))
    def f_log(u):
        return log_orbital_parabolic(cusp, u, h_y)

    out = np.empty(flat.size)
    for log_span in sorted(set(log_spans.tolist())):
        at = np.flatnonzero(log_spans == log_span)
        out[at] = _log_convolutions(vg, f_log, 0.0,
                                    np.array([2.0 * prof.t_start - h_y]),
                                    flat[at], log_span, rel_tol)
    return float(out[0]) if radii.ndim == 0 else out.reshape(radii.shape)
