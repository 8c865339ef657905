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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .asymptotics import (
    CuspModel,
    GrowthSeries,
    log_cuspidal,
    log_orbital_parabolic,
)
from .numerics import NEG_INF, log_add, log_integral, logsumexp

__all__ = [
    "ConstantFactor",
    "PowerDecayFactor",
    "SampledFactor",
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
class ConstantFactor:
    """Subexponential factor that is a positive constant."""
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise DomainError("constant factor must be positive")

    def log_value(self, r: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(r, dtype=float), math.log(self.c))


@dataclass(frozen=True)
class PowerDecayFactor:
    """Subexponential factor decaying like R^{-gamma}.

    Regularized to (1+R)^{-gamma} so the factor stays bounded down to
    R = 0, where the convolution integrals start; the tail behaviour,
    which is all the growth classes read, is unchanged.
    """
    gamma: float

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise DomainError("power-decay exponent must be positive")

    def log_value(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return -self.gamma * np.log1p(np.maximum(r, 0.0))


@dataclass(frozen=True)
class SampledFactor:
    """Subexponential factor given by log samples, interpolated linearly
    in the log domain between grid points."""
    series: GrowthSeries

    def __post_init__(self) -> None:
        if len(self.series) < 2:
            raise DomainError("sampled factor needs at least two grid points")

    def log_value(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        grid = self.series.radii
        if np.any(r < grid[0]) or np.any(r > grid[-1]):
            raise DomainError("sampled factor queried outside its grid")
        return np.interp(r, grid, self.series.log_values)


Factor = Union[ConstantFactor, PowerDecayFactor, SampledFactor]


@dataclass(frozen=True)
class VGammaModel:
    """Ambient orbit-count model ln v(R) = delta * R + ln factor(R)."""
    delta: float
    factor: Factor = ConstantFactor()

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise DomainError("growth exponent must be positive")

    def log_value(self, r) -> float | np.ndarray:
        arr = np.asarray(r, dtype=float)
        out = self.delta * arr + self.factor.log_value(arr)
        return float(out) if np.ndim(r) == 0 else out

    def grid_breaks(self) -> tuple[float, ...]:
        """Abscissae where the model's log value is not smooth."""
        if isinstance(self.factor, SampledFactor):
            return tuple(float(x) for x in self.factor.series.radii)
        return ()


# -- gauge convolution -----------------------------------------------------------

def _values_on_multiples(series: GrowthSeries, count: int, delta: float) -> np.ndarray:
    """Log values of a series at delta, 2 delta, ..., count*delta."""
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
            f"series {series.label!r} has no sample at {missing!r} "
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
    f_vals = _values_on_multiples(f, n - 1, delta)
    g_vals = _values_on_multiples(g, n - 1, delta)
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
    exp(g_log) over [0, R]:  integral of f(t) g(R-t) dt.

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

@dataclass(frozen=True)
class SandwichReport:
    """Margins of the two-sided gauge bracket of a continuous convolution:

        delta (f*g)_delta(R - delta)  <=  (f*g)(R)
                                      <=  2 delta (f*g)_delta(R + 2 delta),

    for nondecreasing f, g.  Margins are in nats; both nonnegative when
    the bracket holds.
    """
    ok: bool
    log_continuous: float
    log_lower: float
    log_upper: float

    @property
    def lower_margin(self) -> float:
        return self.log_continuous - self.log_lower

    @property
    def upper_margin(self) -> float:
        return self.log_upper - self.log_continuous


def _step_log_values(series: GrowthSeries, t: np.ndarray, delta: float) -> np.ndarray:
    # Step extension of grid data: constant f(j delta) on [j delta, (j+1) delta),
    # with the first cell borrowing the value at delta.
    j = np.maximum(np.floor(t / delta + 1e-12).astype(int), 1)
    return _values_on_multiples(series, int(np.max(j)), delta)[j - 1]


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
    vals = (_step_log_values(f, mids, delta)
            + _step_log_values(g, r - mids, delta)
            + np.log(lens))
    return logsumexp(vals)


def sandwich_check(f: GrowthSeries, g: GrowthSeries,
                   delta: float, r: float, *, tol: float = 1e-9) -> SandwichReport:
    """Verify the gauge bracket on the step extensions of two nondecreasing
    sampled functions.  The continuous side is integrated exactly (the
    integrand is piecewise constant), so the margins carry no quadrature
    error."""
    if delta <= 0:
        raise DomainError("gauge must be positive")
    if r < 2.0 * delta:
        raise DomainError("radius below two gauge steps leaves an empty bracket")
    for s in (f, g):
        if np.any(np.diff(s.log_values) < 0):
            raise DomainError(
                f"series {s.label!r} is not nondecreasing; the bracket "
                f"assumes monotone growth functions")
    log_cont = _step_convolution(f, g, delta, r)
    log_lower = math.log(delta) + conv_gauge(f, g, delta, r - delta)
    log_upper = math.log(2.0 * delta) + conv_gauge(f, g, delta, r + 2.0 * delta)
    ok = (log_cont >= log_lower - tol) and (log_cont <= log_upper + tol)
    return SandwichReport(ok=ok, log_continuous=log_cont,
                          log_lower=log_lower, log_upper=log_upper)


# -- cached cusp excursion integrals ---------------------------------------------

# floor of the extrapolated ln F below the first cache node; exp(-745)
# rounds to the smallest positive double
_LOG_FLOOR = -745.0


class CuspidalInterpolant:
    """Piecewise-linear cache of ln F for one cusp on [t_start, r_max].

    The excursion integral costs a quadrature per evaluation; envelope
    assembly needs it at thousands of points, so it is sampled once on a
    uniform grid and interpolated linearly in the log domain.  Below the
    first node the first segment's slope is extrapolated down to a floor
    of -745 (ln F falls off to -inf there; the convolutions only need it
    to stay small).
    """

    def __init__(self, cusp: CuspModel, r_max: float,
                 *, step: float = 0.5, rel_tol: float = 1e-6) -> None:
        if step <= 0 or r_max <= cusp.profile.t_start + step:
            raise DomainError("interpolation grid needs room past the profile start")
        t0 = cusp.profile.t_start
        count = int(math.ceil((r_max - t0) / step))
        self.nodes = t0 + step * np.arange(1, count + 1, dtype=float)
        self.values = np.array(
            [log_cuspidal(cusp, float(x), rel_tol=rel_tol) for x in self.nodes])
        self.cusp = cusp
        self.r_max = float(self.nodes[-1])

    def __call__(self, r) -> float | np.ndarray:
        arr = np.asarray(r, dtype=float)
        if np.any(arr > self.r_max * (1.0 + 1e-12)):
            raise DomainError(
                f"excursion cache built to {self.r_max}, queried at {float(np.max(arr))}")
        out = np.interp(arr, self.nodes, self.values)
        below = arr < self.nodes[0]
        if np.any(below):
            ext = self.values[0] + self._slope * (arr - self.nodes[0])
            out = np.where(below, np.maximum(ext, _LOG_FLOOR), out)
        return float(out) if np.ndim(r) == 0 else out

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
    """A two-sided log envelope at one radius."""
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.upper < self.lower:
            raise DomainError("band upper edge below lower edge")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _orbital_factor(cusp: CuspModel, h_y: float):
    prof = cusp.profile

    def g_log(u):
        return log_orbital_parabolic(cusp, np.asarray(u, dtype=float), h_y)

    breaks = [2.0 * b - h_y for b in prof.piece_breaks()]
    breaks.append(2.0 * prof.t_start - h_y)
    return g_log, breaks


def counting_band(vg: VGammaModel, cusp: CuspModel, h_y: float, r: float,
                  *, d0: float = 0.0, log_cpp: float = 0.0,
                  rel_tol: float = 1e-8) -> Band:
    """Two-sided envelope for the orbit count toward a point at horoball
    depth h_y: the ambient model convolved with the parabolic orbit count,
    with radius shift d0 and log-constant log_cpp absorbed on each side.

    d0 = 0 and log_cpp = 0 degenerate the band to the bare convolution.
    """
    if log_cpp < 0:
        raise DomainError("envelope constant must be at least 1")
    g_log, g_breaks = _orbital_factor(cusp, h_y)

    def band_edge(radius: float) -> float:
        return conv_continuous(vg.log_value, g_log, radius, rel_tol=rel_tol,
                               f_breaks=vg.grid_breaks(), g_breaks=g_breaks)

    return Band(lower=band_edge(r - d0) - log_cpp,
                upper=band_edge(r + d0) + log_cpp)


# Below this |d| the series of ln((1 - e^{-|d|}) / |d|) is exact in
# double precision, and the expm1 form loses nothing above it.
_SERIES_CUTOFF = 1e-4


def _log_exp_linear(y_a: np.ndarray, y_b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """ln of the integral of exp(y) over segments of width h on which y
    runs linearly from y_a to y_b:

        max(y_a, y_b) + ln h + ln((1 - e^{-|d|}) / |d|),   d = y_b - y_a.
    """
    x = np.abs(y_b - y_a)
    small = x < _SERIES_CUTOFF
    safe = np.where(small, 1.0, x)
    shape = np.where(small, x * (x / 24.0 - 0.5), np.log(-np.expm1(-safe) / safe))
    return np.maximum(y_a, y_b) + np.log(h) + shape


def _ambient_kinks(vg: VGammaModel, rho: float, rel_tol: float) -> np.ndarray:
    """Distances s = rho - t at which the band cuts ln v(s) into pieces it
    treats as linear.  A power-decay factor -gamma ln(1 + s) is convex,
    and on the grid 1 + s_k = (1 + q)^k with q = sqrt(8 rel_tol / gamma)
    its secants lie above it by at most gamma q^2 / 8 = rel_tol nats."""
    if isinstance(vg.factor, PowerDecayFactor):
        step = math.log1p(math.sqrt(8.0 * rel_tol / vg.factor.gamma))
        return np.expm1(step * np.arange(1, math.ceil(math.log1p(rho) / step)))
    return np.asarray(vg.grid_breaks(), dtype=float)


def _log_convolution(vg: VGammaModel, cache: CuspidalInterpolant,
                     rho: float, rel_tol: float) -> float:
    """ln of the integral over [0, rho] of F(t) v(rho - t) dt, summed in
    closed form over the segments between the kinks of both factors."""
    if rho <= 0:
        return NEG_INF
    t = np.concatenate(([0.0, rho], cache._kinks(),
                        rho - _ambient_kinks(vg, rho, rel_tol)))
    t = np.unique(t[(t >= 0.0) & (t <= rho)])
    y = cache(t) + vg.log_value(rho - t)
    return logsumexp(_log_exp_linear(y[:-1], y[1:], np.diff(t)))


def volume_band(vg: VGammaModel, cusps: Sequence[CuspModel], r: float,
                *, d0: float = 0.0, log_cppp: float = 0.0,
                vol_core: float = 1.0,
                cuspidal: Optional[Sequence[CuspidalInterpolant]] = None,
                rel_tol: float = 1e-8) -> Band:
    """Two-sided envelope for ball volume growth: the ambient model
    convolved with the summed cusp excursion integrals (shift 2 d0), the
    upper side augmented by the compact-core sweep vol_core * v(R + d0),
    and the log-constant log_cppp absorbed on each side.

    ``cuspidal`` optionally supplies one CuspidalInterpolant per cusp; by
    default caches are built on the spot.  With no cusps the band
    degenerates to the core sweep alone.

    ln F is linear between the cache nodes and ln v between the kinks of
    its factor, so each convolution is an exact sum of exp-linear
    segments, one per cusp, combined with logsumexp.  A power-decay factor
    is replaced by its secants, which raises the band by at most
    ``rel_tol`` nats; every other factor gives the band exactly.
    """
    if log_cppp < 0:
        raise DomainError("envelope constant must be at least 1")
    if vol_core <= 0:
        raise DomainError("core volume must be positive")
    if rel_tol <= 0:
        raise DomainError("band tolerance must be positive")
    if not cusps:
        return Band(
            lower=math.log(vol_core) + vg.log_value(r - d0) - log_cppp,
            upper=math.log(vol_core) + vg.log_value(r + d0) + log_cppp)
    if cuspidal is None:
        cuspidal = cuspidal_interpolants(cusps, r + 2.0 * d0 + 1.0)
    if (len(cuspidal) != len(cusps)
            or not all(isinstance(c, CuspidalInterpolant) for c in cuspidal)):
        raise DomainError("need one CuspidalInterpolant per cusp")

    def conv_at(radius: float) -> float:
        return logsumexp([_log_convolution(vg, c, radius, rel_tol)
                          for c in cuspidal])

    lower = conv_at(r - 2.0 * d0) - log_cppp
    core = math.log(vol_core) + vg.log_value(r + d0)
    upper = log_add(conv_at(r + 2.0 * d0), core) + log_cppp
    return Band(lower=lower, upper=upper)
