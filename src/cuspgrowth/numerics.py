"""Log-domain numerical kernels.

Every quantity of interest in this package is a positive number that can
span thousands of e-folds across a single evaluation window, so all sums,
integrals and tail estimates are carried out on natural logarithms.  The
kernels here are deliberately small: a stable log-sum-exp, one checked
Gauss-Legendre panel rule that integrates ``exp(f)`` given only ``f``
(``log_integral`` for a single integral, ``_log_gauss_sums`` for many
panel groups in one array evaluation), the upper incomplete gamma
function, and a doubling-window tail analyser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "logsumexp",
    "log_add",
    "log_integral",
    "log_upper_gamma",
    "TailAnalysis",
    "log_tail_integral",
]

NEG_INF = float("-inf")


def _block_logsumexp(values: np.ndarray, starts: np.ndarray,
                     stops: np.ndarray) -> list[float]:
    """``logsumexp`` of each slice values[starts[i]:stops[i]], bit for
    bit; entries between one slice's stop and the next start must be
    -inf.  Maxima and exponentials are taken on the whole array."""
    top = np.maximum.reduceat(values, starts)
    if np.isnan(top).any():
        raise DomainError("NaN summand in logsumexp")
    if (top == math.inf).any():
        raise DomainError("+inf summand in logsumexp")
    shift = np.where(top == NEG_INF, 0.0, top)
    terms = np.exp(values - np.repeat(shift, np.diff(starts, append=values.size)))
    return [m + math.log(float(np.add.reduce(terms[a:b]))) if m != NEG_INF
            else NEG_INF
            for m, a, b in zip(top.tolist(), starts.tolist(), stops.tolist())]


def logsumexp(values: np.ndarray | Sequence[float]) -> float:
    """ln(sum(exp(values))) computed without overflow.

    Accepts -inf entries (zero summands); returns -inf for an empty or
    all-(-inf) input.  NaN anywhere is a hard error since it silently
    poisons every downstream bound.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        return NEG_INF
    return _block_logsumexp(arr, np.zeros(1, np.intp), np.array([arr.size]))[0]


def log_add(a: float, b: float) -> float:
    """ln(e^a + e^b)."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _checked_radii(r, rel_tol: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Radii ``r`` of a scalar-or-array evaluation, as an array and
    flattened, once they and ``rel_tol`` are checked; ``what`` names it."""
    if not 0.0 < rel_tol < math.inf:
        raise DomainError(f"{what} rel_tol must be finite and positive, got {rel_tol!r}")
    radii = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(radii)):
        raise DomainError(f"{what} radii r must be finite")
    return radii, radii.ravel()


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    by Newton's method on the Legendre polynomial P_n (without importing
    numpy.polynomial, which costs about 1.7 MB of resident memory)."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = n * (x * p - p_prev) / (x * x - 1.0)
            step = p / slope
            x -= step
            if abs(step) <= 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * slope * slope))
    return np.array(nodes[::-1]), np.array(weights[::-1])


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(8)
_GL_LOG_WEIGHTS = np.log(_GL_WEIGHTS)

# Relative error of the 8-point rule on exp(s x) over [-1, 1], s >= 1, is
# about _GL_REMAINDER * s^17 at most: the Gauss remainder
# 2^17 (8!)^4 / (17 (16!)^3) times the 16th derivative, at most s^16 e^s,
# over the mass 2 sinh(s) / s, about e^s / s.
_GL_REMAINDER = (2.0 ** 17 * math.factorial(8) ** 4
                 / (17.0 * math.factorial(16) ** 3))

# A panel group that misses rel_tol has its panels halved at most this
# many times before the rule gives up.
_MAX_HALVINGS = 6


def _gauss_panel_nats(rel_tol: float) -> float:
    """Largest variation, in nats, of a linear log integrand across one
    panel at which the 8-point rule stays four times inside ``rel_tol``."""
    return 2.0 * (rel_tol / (4.0 * _GL_REMAINDER)) ** (1.0 / 17.0)


def _log_gauss(f_log: Callable[[np.ndarray, np.ndarray], np.ndarray],
               lo: np.ndarray, hi: np.ndarray, which: np.ndarray) -> np.ndarray:
    """8-point Gauss-Legendre ln of the integral of exp(f_log) over each
    panel [lo_k, hi_k]; f_log(t, which) gets the (panels, 8) nodes and the
    original index of each panel."""
    half = 0.5 * (hi - lo)
    t = (lo + half)[:, None] + half[:, None] * _GL_NODES
    y = np.asarray(f_log(t, which), dtype=float) + _GL_LOG_WEIGHTS
    if np.isnan(y).any():
        raise DomainError("log integrand returned NaN")
    m = np.max(y, axis=1)
    if np.isposinf(m).any():
        raise DomainError("log integrand returned +inf")
    m = np.where(m == NEG_INF, 0.0, m)
    e = np.exp(y - m[:, None])
    # summed node by node: the order, and so every bit, is the same for a
    # panel whatever else is in the batch
    acc = e[:, 0].copy()
    for k in range(1, e.shape[1]):
        acc += e[:, k]
    with np.errstate(divide="ignore"):
        return m + np.log(acc) + np.log(half)


def _group_logsumexp(y: np.ndarray, group: np.ndarray,
                     first: np.ndarray) -> np.ndarray:
    """logsumexp of y over each run of equal, sorted group ids; ``first``
    holds the index where each run begins."""
    m = np.maximum.reduceat(y, first)
    m = np.where(m == NEG_INF, 0.0, m)
    with np.errstate(divide="ignore"):
        return m + np.log(np.bincount(group, weights=np.exp(y - m[group]),
                                      minlength=first.size))


def _log_gauss_sums(f_log: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, group: np.ndarray,
                   *, rel_tol: float,
                   label: Callable[[int], str] = "group {}".format,
                   max_halvings: Optional[int] = None) -> np.ndarray:
    """ln of the integral of exp(f_log) over the union of each group's
    panels, for all groups at once.

    ``group`` numbers the panels 0, 1, ... in sorted order, with no
    number skipped; f_log(t, k) evaluates the log integrand of panel k at
    an array of its nodes, so each group may integrate its own function.
    Every panel is integrated by the 8-point Gauss-Legendre rule, and
    again on its two halves.  A group passes when the summed magnitude of
    its panels' differences between the two stays within ``rel_tol`` of
    its total, or when both are zero; it then gets the finer value.  The
    panels of the groups that miss are halved and checked again, at most
    ``max_halvings`` times (default ``_MAX_HALVINGS``, read at call time),
    after which QuadratureError, naming the group by ``label``, is raised
    with its finest estimate as ``log_partial``.  No value is returned
    unchecked.
    """
    if not rel_tol > 0:
        raise DomainError("rel_tol must be positive")
    if max_halvings is None:
        max_halvings = _MAX_HALVINGS
    out = np.empty(int(group[-1]) + 1)
    pending = np.arange(out.size)
    which = np.arange(lo.size)
    coarse = _log_gauss(f_log, lo, hi, which)
    halvings = 0
    while True:
        mid = 0.5 * (lo + hi)
        left = _log_gauss(f_log, lo, mid, which)
        right = _log_gauss(f_log, mid, hi, which)
        fine = np.logaddexp(left, right)
        first = np.flatnonzero(np.diff(group, prepend=-1))
        total = _group_logsumexp(fine, group, first)
        scale = np.where(total == NEG_INF, 0.0, total)[group]
        err = np.bincount(group, weights=np.abs(np.exp(fine - scale)
                                                - np.exp(coarse - scale)),
                          minlength=first.size)
        ok = err <= rel_tol
        out[pending[ok]] = total[ok]
        if ok.all():
            return out
        bad = int(np.flatnonzero(~ok)[0])
        if halvings == max_halvings:
            raise QuadratureError(
                f"{label(int(pending[bad]))}: the Gauss-Legendre panels and "
                f"their halves still differ by {float(err[bad]):.3g} "
                f"(rel_tol {rel_tol}) after {halvings} halvings",
                log_partial=float(total[bad]))
        halvings += 1
        redo = ~ok[group]
        pending = pending[~ok]
        group = np.repeat((np.cumsum(~ok) - 1)[group[redo]], 2)
        lo, hi = (np.stack([lo[redo], mid[redo]], axis=1).ravel(),
                  np.stack([mid[redo], hi[redo]], axis=1).ravel())
        coarse = np.stack([left[redo], right[redo]], axis=1).ravel()
        which = np.repeat(which[redo], 2)


def log_integral(f_log: Callable[[np.ndarray], np.ndarray],
                 lo: float,
                 hi: float,
                 *,
                 rel_tol: float = 1e-8,
                 breakpoints: Sequence[float] = (),
                 max_panels: int = 1 << 20,
                 min_panels: int = 8) -> float:
    """ln of the integral of exp(f_log) over [lo, hi].

    The interval is cut at the supplied breakpoints (points where the
    integrand is continuous but not smooth, e.g. profile piece joins) and
    each piece into ``min_panels`` equal panels.  The panels form one
    group of ``_log_gauss_sums``, whose check halves them all until the
    Gauss-Legendre panels and their halves agree to ``rel_tol`` of the
    total.  The halvings stop where the next level would evaluate more
    than 2 max_panels + 1 abscissae on a piece, as many as a composite
    rule of ``max_panels`` panels (the first level is always checked);
    QuadratureError, carrying the finest estimate, is raised there.
    ``f_log`` gets a flat array of abscissae.
    """
    if not (hi >= lo):
        raise DomainError(f"bad integration interval [{lo}, {hi}]")
    if hi == lo:
        return NEG_INF
    cuts = np.array(sorted({lo, hi, *(float(b) for b in breakpoints
                                      if lo < b < hi)}))
    edges = cuts[:-1, None] + np.outer(np.diff(cuts),
                                       np.arange(min_panels + 1) / min_panels)
    edges[:, -1] = cuts[1:]
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()

    def f_panels(t, _):
        y = np.asarray(f_log(t.ravel()), dtype=float)
        if y.shape != (t.size,):
            raise DomainError("log integrand must be vectorized over its input")
        return y.reshape(t.shape)

    # level h evaluates 16 min_panels 2^h abscissae on each piece
    halvings = max((max_panels // (8 * min_panels)).bit_length() - 1, 0)
    return float(_log_gauss_sums(
        f_panels, a, b, np.zeros(a.size, dtype=np.int64), rel_tol=rel_tol,
        label=lambda _: f"the integral over [{lo}, {hi}]",
        max_halvings=halvings)[0])


_GAMMA_EPS = 1e-16      # relative step that ends the continued fraction
_GAMMA_TINY = 1e-300    # Lentz's stand-in for a vanishing denominator
_GAMMA_MAX_TERMS = 10_000


def _log_upper_gamma_cf(a: float, x: float) -> float:
    """ln Gamma(a, x) for x >= 1 from Legendre's continued fraction
    Gamma(a, x) = e^{-x} x^a / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)),
    evaluated by the modified Lentz method."""
    b = x + 1.0 - a
    c = 1.0 / _GAMMA_TINY
    d = 1.0 / b if abs(b) >= _GAMMA_TINY else 1.0 / _GAMMA_TINY
    h = d
    for i in range(1, _GAMMA_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _GAMMA_TINY:
            d = _GAMMA_TINY
        c = b + an / c
        if abs(c) < _GAMMA_TINY:
            c = _GAMMA_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) <= _GAMMA_EPS:
            return a * math.log(x) - x + math.log(h)
    raise QuadratureError(
        f"incomplete gamma continued fraction did not converge at a={a}, x={x}",
        log_partial=a * math.log(x) - x + math.log(h))


def log_upper_gamma(a: float, x: float) -> float:
    """ln Gamma(a, x), the integral of u^{a-1} e^{-u} over [x, infinity),
    for any real ``a`` and finite x > 0.

    For x >= 1 the continued fraction converges quickly.  Below 1 the
    value is Gamma(a, 1) plus the integral over [x, 1], which the
    substitution u = e^v turns into the smooth integral of e^{a v - e^v}
    over [ln x, 0]; both parts are positive, so nothing cancels.
    """
    if not (math.isfinite(a) and math.isfinite(x) and x > 0.0):
        raise DomainError(f"upper incomplete gamma needs finite a and x > 0, "
                          f"got a={a}, x={x}")
    if x >= 1.0:
        return _log_upper_gamma_cf(a, x)
    band = log_integral(lambda v: a * v - np.exp(v), math.log(x), 0.0,
                        rel_tol=1e-10)
    return log_add(_log_upper_gamma_cf(a, 1.0), band)


@dataclass(frozen=True)
class TailAnalysis:
    """Outcome of a doubling-window scan of an improper integral.

    ``verdict`` is True when the window ratios certify convergence, False
    when they certify divergence, and None when the scan budget ended
    without either run completing.  ``log_tail`` is the log of the full
    tail integral (scanned mass plus a geometric-remainder estimate) when
    convergent, and the log of the scanned partial mass otherwise.
    """
    verdict: Optional[bool]
    log_tail: float
    log_segments: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def converges(self) -> bool:
        return self.verdict is True

    @property
    def diverges(self) -> bool:
        return self.verdict is False


def log_tail_integral(f_log: Callable[[np.ndarray], np.ndarray],
                      t0: float,
                      *,
                      ratio_conv: float = 0.9,
                      ratio_div: float = 1.0,
                      run_length: int = 4,
                      max_windows: int = 40,
                      rel_tol: float = 1e-8,
                      remainder_cut: float = 1e-9,
                      hard_ratio: Optional[float] = None) -> TailAnalysis:
    """Analyse the integral of exp(f_log) over [t0, infinity).

    The tail is scanned over the doubling windows [t0*2^k, t0*2^{k+1}].
    ``run_length`` consecutive window ratios at or below ``ratio_conv``
    certify convergence; after that verdict the scan keeps extending until
    the geometric remainder bound drops below ``remainder_cut`` of the
    accumulated mass, and the bound is folded into ``log_tail``.

    Divergence is never declared from early windows alone: because the
    window width doubles, the first ratios of a slowly convergent tail
    routinely sit above 1 before the decay catches up.  The scan therefore
    runs to ``max_windows`` and reports divergence only when the final
    ``run_length`` ratios all sit at or above ``ratio_div`` (less a small
    allowance for quadrature noise).  The one exception is a run of ratios
    at or above ``hard_ratio`` (default e^10), far beyond what that
    transient can produce, which ends the scan immediately and keeps
    refinement costs bounded for strongly divergent integrands.  A
    divergence run observed after a convergence verdict is conflicting
    evidence and yields verdict None.
    """
    if t0 <= 0:
        raise DomainError("tail scan needs a positive starting point")
    if hard_ratio is None:
        hard_ratio = math.exp(10.0)
    div_floor = ratio_div * (1.0 - 8.0 * rel_tol)
    segs: list[float] = []
    ratios: list[float] = []
    conv_run = 0
    div_run = 0
    hard_run = 0
    verdict: Optional[bool] = None
    conflicted = False
    total = NEG_INF
    for k in range(max_windows):
        a = t0 * (2.0 ** k)
        b = t0 * (2.0 ** (k + 1))
        try:
            seg = log_integral(f_log, a, b, rel_tol=rel_tol)
        except QuadratureError as exc:
            # Deep windows evaluate the integrand as a difference of huge
            # terms, whose rounding noise puts rel_tol out of reach; the
            # partial estimate is still far more accurate than the ratio
            # thresholds require.
            seg = exc.log_partial
        segs.append(seg)
        total = logsumexp(segs)
        if k >= 1:
            if seg == NEG_INF:
                r = 0.0
            else:
                d = seg - segs[-2]
                r = math.exp(d) if d < 700.0 else math.inf
            ratios.append(r)
            if r <= ratio_conv:
                conv_run += 1
                div_run = hard_run = 0
            elif r >= div_floor:
                div_run += 1
                conv_run = 0
                hard_run = hard_run + 1 if r >= hard_ratio else 0
            else:
                conv_run = div_run = hard_run = 0
            if verdict is None:
                if conv_run >= run_length:
                    verdict = True
                elif hard_run >= run_length:
                    verdict = False
                    break
            elif verdict is True and div_run >= run_length:
                verdict = None
                conflicted = True
                break
            if verdict is True:
                # Remainder after the last window is at most a geometric
                # series with the observed (capped) ratio.
                rho = min(max(r, 1e-300), ratio_conv)
                rem = segs[-1] + math.log(rho / (1.0 - rho))
                if rem <= total + math.log(remainder_cut):
                    break
    if (verdict is None and not conflicted and len(ratios) >= run_length
            and all(r >= div_floor for r in ratios[-run_length:])):
        verdict = False
    mass = total
    if verdict is True:
        rho = min(max(ratios[-1], 1e-300), ratio_conv)
        mass = log_add(mass, segs[-1] + math.log(rho / (1.0 - rho)))
    return TailAnalysis(verdict=verdict, log_tail=mass,
                        log_segments=tuple(segs), ratios=tuple(ratios))
