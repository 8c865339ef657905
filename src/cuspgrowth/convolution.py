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
from .numerics import (NEG_INF, _block_logsumexp, _checked_radii, log_add,
                       log_integral, logsumexp)

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
    runs linearly from y_a to y_b:

        max(y_a, y_b) + ln h + ln((1 - e^{-|d|}) / |d|),   d = y_b - y_a.
    """
    x = np.subtract(y_b, y_a)
    np.abs(x, out=x)
    small = np.flatnonzero(x < _SERIES_CUTOFF)
    d = x[small]
    x[small] = 1.0
    np.negative(x, out=x)
    # (e^{-|d|} - 1) / -|d|, the same quotient as (1 - e^{-|d|}) / |d|
    shape = np.expm1(x)
    shape /= x
    np.log(shape, out=shape)
    shape[small] = d * (d / 24.0 - 0.5)
    out = np.maximum(y_a, y_b, out=x)
    out += np.log(h)
    out += shape
    return out


# Points per chunk of radii that the volume band evaluates on flat node
# arrays: enough to spread numpy's per-call cost over many radii, few
# enough that the chunk's temporaries stay within a few hundred kB.
_CHUNK_POINTS = 8192


def _ambient_grid(vg: VGammaModel, radii: np.ndarray,
                  rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Distances s = rho - t at which the band cuts ln v(s) into pieces it
    treats as linear, for all radii at once: the grid s_0 = 0 < s_1 < ...
    and, per radius, how many leading grid points it reads.

    The decay term -k ln(1 + s) is convex, and on the grid 1 + s_k =
    (1 + q)^k with q = sqrt(8 rel_tol / k) its secants lie above it by at
    most k q^2 / 8 = rel_tol nats; radius rho reads the s_k with k <
    ceil(ln(1 + rho) / ln(1 + q)).  Decay 0 needs no cut, so every radius
    reads s_0 alone."""
    if vg.decay == 0.0:
        return np.zeros(1), np.ones(radii.size, dtype=np.intp)
    step = math.log1p(math.sqrt(8.0 * rel_tol / vg.decay))
    reads = np.array([math.ceil(math.log1p(max(rho, 0.0)) / step)
                      for rho in radii.tolist()], dtype=np.intp)
    grid = np.expm1(step * np.arange(int(reads.max(initial=1))))
    return grid, reads


def _chunk_convolutions(vg: VGammaModel, f_log: Callable,
                        kinks: np.ndarray, grid: np.ndarray, rho: np.ndarray,
                        n_kinks: np.ndarray, n_grid: np.ndarray) -> list[float]:
    """The convolutions of ln F = ``f_log`` at a chunk of radii.  Radius i's
    nodes are kinks[:n_kinks[i]] merged with rho[i] - grid[:n_grid[i]];
    all radii's nodes lie in one flat array, each radius's ascending run
    after the previous one's."""
    n = n_kinks + n_grid
    stop = np.cumsum(n)
    t = np.empty(int(stop[-1]))
    for a, b, m, r in zip((stop - n).tolist(), n_kinks.tolist(),
                          n_grid.tolist(), rho.tolist()):
        run = t[a:a + b + m]
        run[:b] = kinks[:b]
        np.subtract(r, grid[m - 1::-1], out=run[b:])
        # a stable sort merges the two ascending halves in one pass
        run.sort(kind="stable")
    # a kink on a grid point is one node; two radii's runs never meet,
    # as each ends at its rho and the next starts at lo < rho
    dup = t[1:] == t[:-1]
    if dup.any():
        kept = np.cumsum(np.r_[True, ~dup])
        t = t[np.r_[True, ~dup]]
        n = np.diff(kept[stop - 1], prepend=0)
        stop = np.cumsum(n)
    y = f_log(t)
    s = np.repeat(rho, n)
    s -= t
    y += vg.log_value(s)
    del s
    h = np.subtract(t[1:], t[:-1])
    del t
    seams = stop[:-1] - 1
    h[seams] = 1.0
    seg = _log_exp_linear(y[:-1], y[1:], h)
    seg[seams] = NEG_INF
    return _block_logsumexp(seg, stop - n, stop - 1)


def _log_convolutions(vg: VGammaModel, f_log: Callable, lo: float,
                      f_kinks: np.ndarray, radii: np.ndarray, grid: np.ndarray,
                      reads: np.ndarray) -> np.ndarray:
    """ln of the integral over [lo, rho] of F(t) v(rho - t) dt at each
    radius rho, summed in closed form over the segments between the
    kinks of both factors.  ln F = ``f_log`` must be linear between its
    kinks ``f_kinks`` on [lo, inf)."""
    out = np.full(radii.size, NEG_INF)
    live = np.flatnonzero(radii > lo)
    if live.size == 0:
        return out
    # F's kinks above lo, with lo itself, sorted and distinct
    kinks = np.sort(np.append(f_kinks[f_kinks > lo], lo))
    kinks = kinks[np.r_[True, kinks[1:] != kinks[:-1]]]
    rho = radii[live]
    n_kinks = np.searchsorted(kinks, rho, "right")
    n_grid = np.minimum(reads[live], np.searchsorted(grid, rho - lo, "right"))
    # s <= rho - lo may still give an rho - s that rounds below lo; the
    # s that the search drops give rho - s that round onto lo at most,
    # which is a node already
    low = rho - grid[n_grid - 1] < lo
    while low.any():
        n_grid -= low
        low = rho - grid[n_grid - 1] < lo
    n = n_kinks + n_grid
    chunk = (np.cumsum(n) - n) // _CHUNK_POINTS
    for part in np.split(np.arange(live.size), np.flatnonzero(np.diff(chunk)) + 1):
        out[live[part]] = _chunk_convolutions(vg, f_log, kinks, grid, rho[part],
                                              n_kinks[part], n_grid[part])
    return out


def volume_band(vg: VGammaModel, caches: Sequence[CuspidalInterpolant],
                r, *, rel_tol: float = 1e-8) -> Band:
    """Two-sided envelope for ball volume growth from one excursion cache
    per cusp: the lower edge is the ambient model convolved with the
    summed cusp excursion integrals, the upper edge adds the compact-core
    sweep v(R).

    ln F is linear between the cache nodes and ln v between the kinks of
    its decay term, so each convolution is an exact sum of exp-linear
    segments, one per cusp, combined with logsumexp.  A positive decay is
    replaced by its secants, which raises the band by at most ``rel_tol``
    nats; decay 0 gives the band exactly.  Scalar or vectorized in ``r``:
    each cache bands all radii in one pass, a chunk of radii at a time,
    and a scalar is banded exactly as an array of one.
    """
    radii, flat = _checked_radii(r, rel_tol, "band")
    if not caches or not all(isinstance(c, CuspidalInterpolant) for c in caches):
        raise DomainError("need one CuspidalInterpolant per cusp")
    grid, reads = _ambient_grid(vg, flat, rel_tol)
    # radius by radius, the convolutions of every cusp, each from its
    # profile start, below which the cache's floor times v need not be small
    convs = np.array([_log_convolutions(vg, c, max(0.0, c.t_start), c._kinks(),
                                        flat, grid, reads)
                      for c in caches]).T.ravel()
    starts = np.arange(flat.size) * len(caches)
    lower = _block_logsumexp(convs, starts, starts + len(caches))
    upper = [log_add(a, b) for a, b in zip(lower, vg.log_value(flat).tolist())]
    if radii.ndim == 0:
        return Band(lower=lower[0], upper=upper[0])
    return Band(lower=np.array(lower).reshape(radii.shape),
                upper=np.array(upper).reshape(radii.shape))


def counting_band(vg: VGammaModel, cusp: CuspModel, h_y: float, r,
                  *, rel_tol: float = 1e-8) -> float | np.ndarray:
    """ln of the ambient model convolved with the parabolic orbit count
    toward a point at horoball depth h_y, scalar or vectorized in ``r``
    as ``volume_band``.  The cusp's profile must be one law T = e^{-ct}:
    ln v_P is then linear but for its clamp at 2 t_start - h_y, and the
    segment sum is exact up to the secants of a positive decay."""
    radii, flat = _checked_radii(r, rel_tol, "band")
    if not math.isfinite(h_y):
        raise DomainError(f"counting_band depth h_y must be finite, got {h_y!r}")
    prof = cusp.profile
    if prof.piece_breaks().size or prof.final_law()[0] != 0.0:
        raise DomainError("counting_band cusp needs a profile of one law T = e^{-ct}")
    out = _log_convolutions(vg, lambda u: log_orbital_parabolic(cusp, u, h_y), 0.0,
                            np.array([2.0 * prof.t_start - h_y]), flat,
                            *_ambient_grid(vg, flat, rel_tol))
    return float(out[0]) if radii.ndim == 0 else out.reshape(radii.shape)
