"""Adaptive composite Simpson in the log domain: the rule the package
used before its integrals moved to the checked Gauss-Legendre panels,
kept here as an independent reference for them.  Not a test module;
the tests import it."""

import math
from typing import Callable, Sequence

import numpy as np

from cuspgrowth.errors import DomainError, QuadratureError
from cuspgrowth.numerics import NEG_INF, logsumexp


def _simpson_log(f_log: Callable[[np.ndarray], np.ndarray],
                 lo: float, hi: float, panels: int) -> float:
    """Composite Simpson value of ln(integral of exp(f_log)) on [lo, hi]."""
    t = np.linspace(lo, hi, 2 * panels + 1)
    y = np.asarray(f_log(t), dtype=float)
    if y.shape != t.shape:
        raise DomainError("log integrand must be vectorized over its input")
    if np.isnan(y).any():
        raise DomainError(f"log integrand returned NaN on [{lo}, {hi}]")
    w = np.full(t.size, 2.0)
    w[0] = w[-1] = 1.0
    w[1::2] = 4.0
    h = (hi - lo) / (2 * panels)
    return logsumexp(y + np.log(w)) + math.log(h / 3.0)


# Segments whose coarse estimate sits this many nats below the running
# maximum cannot move a 1e-8 relative target and are left unrefined.
_NEGLIGIBLE_NATS = 46.0


def simpson_log_integral(f_log: Callable[[np.ndarray], np.ndarray],
                         lo: float,
                         hi: float,
                         *,
                         rel_tol: float = 1e-8,
                         breakpoints: Sequence[float] = (),
                         max_panels: int = 1 << 20,
                         min_panels: int = 8) -> float:
    """ln of the integral of exp(f_log) over [lo, hi].

    The interval is split at the supplied breakpoints (points where the
    integrand is continuous but not smooth, e.g. profile piece joins) and
    each smooth segment is refined by panel doubling until two successive
    Simpson values agree to ``rel_tol`` in the linear domain.  Raises
    QuadratureError, carrying the partial estimate, if any single segment
    still disagrees at ``max_panels`` panels.
    """
    if not (hi >= lo):
        raise DomainError(f"bad integration interval [{lo}, {hi}]")
    if hi == lo:
        return NEG_INF
    cuts = sorted({lo, hi, *(float(b) for b in breakpoints if lo < b < hi)})
    segments = list(zip(cuts[:-1], cuts[1:]))

    estimates = [_simpson_log(f_log, a, b, min_panels) for a, b in segments]
    total = logsumexp(estimates)

    for i, (a, b) in enumerate(segments):
        if estimates[i] < total - _NEGLIGIBLE_NATS:
            continue
        panels = min_panels
        prev = estimates[i]
        while True:
            panels *= 2
            if panels > max_panels:
                estimates[i] = prev
                raise QuadratureError(
                    f"panel budget {max_panels} exhausted on [{a}, {b}]",
                    log_partial=logsumexp(estimates))
            cur = _simpson_log(f_log, a, b, panels)
            if prev == NEG_INF and cur == NEG_INF:
                break
            if prev > NEG_INF and abs(1.0 - math.exp(min(cur - prev, 700.0))) <= rel_tol:
                prev = cur
                break
            prev = cur
        estimates[i] = prev
        total = logsumexp(estimates)
    return total
