"""The volume band as the package computed it before it banded all radii
in one pass per excursion cache: one convolution per radius and cusp, on
a node set concatenated, sorted and deduplicated for that radius alone,
with the cache read and the segments summed by the formulas of that
time.  A positive decay is replaced by its secants on a geometric grid,
1 + s_k = (1 + q)^k with q = sqrt(8 rel_tol / decay), which lie above it
by at most rel_tol nats.  Kept here as the secant reference: exact at
decay 0, and in [exact, exact + rel_tol] at a positive decay.  Not a
test module; the tests import it."""

import math

import numpy as np

from cuspgrowth.convolution import _LOG_FLOOR, _SERIES_CUTOFF
from cuspgrowth.numerics import NEG_INF, log_add, logsumexp


def cache_log(cache, r):
    """ln F from an excursion cache, as ``CuspidalInterpolant.__call__``
    read it: the extrapolation evaluated on every point."""
    arr = np.asarray(r, dtype=float)
    out = np.interp(arr, cache.nodes, cache.values)
    below = arr < cache.nodes[0]
    if np.any(below):
        ext = cache.values[0] + cache._slope * (arr - cache.nodes[0])
        ext = np.where(arr < cache.t_start, _LOG_FLOOR, ext)
        out = np.where(below, np.maximum(ext, _LOG_FLOOR), out)
    return float(out) if np.ndim(r) == 0 else out


def _log_exp_linear(y_a, y_b, h):
    x = np.abs(y_b - y_a)
    small = x < _SERIES_CUTOFF
    safe = np.where(small, 1.0, x)
    shape = np.where(small, x * (x / 24.0 - 0.5), np.log(-np.expm1(-safe) / safe))
    return np.maximum(y_a, y_b) + np.log(h) + shape


def _ambient_kinks(vg, rho, rel_tol):
    if vg.decay == 0.0:
        return np.empty(0)
    step = math.log1p(math.sqrt(8.0 * rel_tol / vg.decay))
    return np.expm1(step * np.arange(1, math.ceil(math.log1p(rho) / step)))


def node_set(vg, cache, rho, rel_tol):
    """The abscissae at which one radius's convolution reads its factors."""
    lo = max(0.0, cache.t_start)
    t = np.concatenate(([lo, rho], cache._kinks(),
                        rho - _ambient_kinks(vg, rho, rel_tol)))
    t = np.sort(t[(t >= lo) & (t <= rho)])
    return np.r_[t[:1], t[1:][t[1:] != t[:-1]]]


def log_convolution(vg, cache, rho, rel_tol):
    lo = max(0.0, cache.t_start)
    if rho <= lo:
        return NEG_INF
    t = node_set(vg, cache, rho, rel_tol)
    y = cache_log(cache, t) + vg.log_value(rho - t)
    return logsumexp(_log_exp_linear(y[:-1], y[1:], np.diff(t)))


def volume_band(vg, caches, r, rel_tol):
    """(lower, upper) edges of the band at one radius."""
    conv = logsumexp([log_convolution(vg, c, r, rel_tol) for c in caches])
    return conv, log_add(conv, vg.log_value(r))
