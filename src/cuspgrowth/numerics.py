"""Log-domain numerical kernels.

Every quantity of interest in this package is a positive number that can
span thousands of e-folds across a single evaluation window, so all sums,
integrals and tail estimates are carried out on natural logarithms.  The
kernels here are deliberately small: a stable log-sum-exp, one checked
panel rule that integrates ``exp(f)`` given only ``f`` (the 17-point
Gauss-Kronrod extension of the 8-point Gauss-Legendre rule, checked
against that embedded rule; ``log_integral`` for a single integral,
``_log_gauss_sums`` for many panel groups in one array evaluation, whose
integrand reads each panel's ends and returns its 17 node values, so a
caller may evaluate them its own way), the upper incomplete gamma
function, and a doubling-window tail analyser.  Every relative tolerance
must lie in (0, 1).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

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


def logsumexp(values: np.ndarray | Sequence[float]) -> float:
    """ln(sum(exp(values))) computed without overflow.

    Accepts -inf entries (zero summands); returns -inf for an empty or
    all-(-inf) input.  NaN anywhere is a hard error since it silently
    poisons every downstream bound.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        return NEG_INF
    top = float(arr.max())
    if math.isnan(top):
        raise DomainError("NaN summand in logsumexp")
    if top == math.inf:
        raise DomainError("+inf summand in logsumexp")
    if top == NEG_INF:
        return NEG_INF
    return top + math.log(float(np.add.reduce(np.exp(arr - top))))


def log_add(a: float, b: float) -> float:
    """ln(e^a + e^b)."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _check_rel_tol(rel_tol: float, what: str) -> None:
    """Refuse a relative tolerance outside (0, 1); ``what`` names its
    use.  At 1 or more no digit is asked for, and the excursion
    integral's cut ln(8 / rel_tol) would fall below ln 8."""
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"{what} rel_tol must lie in (0, 1), got {rel_tol!r}")


def _checked_radii(r, rel_tol: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Radii ``r`` of a scalar-or-array evaluation, as an array and
    flattened, once they and ``rel_tol`` are checked; ``what`` names it."""
    _check_rel_tol(rel_tol, what)
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

# The 17-point Gauss-Kronrod extension of the 8-point rule on [-1, 1],
# exact to degree 25: the Gauss nodes at the odd positions, the nine
# roots of the Stieltjes polynomial E_9 at the even ones.  The Kronrod
# nodes and all weights are those of an mpmath solve at 60 digits,
# rounded to the nearest float; the positive half, the centre first.
_KRONROD_HALF_NODES = (0.0, 0.36070109792813193, 0.6723540709451586,
                       0.8941209068474564, 0.9933798758817162)
_KRONROD_HALF_WEIGHTS = (0.18444640574469165, 0.18140002506803465,
                         0.1720706085552113, 0.1566526061681884,
                         0.1362631092551722, 0.11164637082683962,
                         0.08248229893135833, 0.04943939500213931,
                         0.017822383320710355)
_GK_NODES = np.empty(17)
_GK_NODES[1::2] = _GL_NODES
_GK_NODES[8::2] = _KRONROD_HALF_NODES
_GK_NODES[0:8:2] = [-x for x in _KRONROD_HALF_NODES[:0:-1]]
_GK_WEIGHTS = np.array(_KRONROD_HALF_WEIGHTS[:0:-1] + _KRONROD_HALF_WEIGHTS)
_GK_LOG_WEIGHTS = np.log(_GK_WEIGHTS)

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


def _gauss_kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (panels, 17) Gauss-Kronrod abscissae of each panel [lo_k, hi_k]."""
    half = 0.5 * (hi - lo)
    return (lo + half)[:, None] + half[:, None] * _GK_NODES


def _log_kronrod(f_log: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                 lo: np.ndarray, hi: np.ndarray, which: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """ln of the integral of exp(f_log) over each panel [lo_k, hi_k] by
    the 17-point Gauss-Kronrod rule and by its embedded 8-point
    Gauss-Legendre rule, from one evaluation; f_log(lo, hi, which) gets
    the panels and the original index of each, and returns the log
    integrand at their (panels, 17) nodes, in ``_GK_NODES`` order, an
    array that the sums then overwrite."""
    y = np.asarray(f_log(lo, hi, which), dtype=float)
    if np.isnan(y).any():
        raise DomainError("log integrand returned NaN")
    with np.errstate(divide="ignore"):
        log_half = np.log(0.5 * (hi - lo))
    coarse = _log_weighted_sum(y[:, 1::2] + _GL_LOG_WEIGHTS) + log_half
    y += _GK_LOG_WEIGHTS
    return _log_weighted_sum(y) + log_half, coarse


def _log_weighted_sum(y: np.ndarray) -> np.ndarray:
    """logsumexp of each row of y, which it overwrites, summed node by
    node: the order, and so every bit, is the same for a row whatever
    else is in the batch."""
    m = np.max(y, axis=1)
    if np.isposinf(m).any():
        raise DomainError("log integrand returned +inf")
    m = np.where(m == NEG_INF, 0.0, m)
    y -= m[:, None]
    e = np.exp(y, out=y)
    acc = e[:, 0].copy()
    for k in range(1, e.shape[1]):
        acc += e[:, k]
    with np.errstate(divide="ignore"):
        return m + np.log(acc)


def _group_logsumexp(y: np.ndarray, group: np.ndarray,
                     first: np.ndarray) -> np.ndarray:
    """logsumexp of y over each run of equal, sorted group ids; ``first``
    holds the index where each run begins."""
    m = np.maximum.reduceat(y, first)
    m = np.where(m == NEG_INF, 0.0, m)
    with np.errstate(divide="ignore"):
        return m + np.log(np.bincount(group, weights=np.exp(y - m[group]),
                                      minlength=first.size))


def _log_gauss_sums(f_log: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, group: np.ndarray,
                   *, rel_tol: float,
                   label: Callable[[int], str] = "group {}".format,
                   max_halvings: Optional[int] = None) -> np.ndarray:
    """ln of the integral of exp(f_log) over the union of each group's
    panels, for all groups at once.

    ``group`` numbers the panels 0, 1, ... in sorted order, with no
    number skipped; f_log(lo, hi, k) returns the log integrand of each
    panel [lo, hi], original panel k, at its 17 nodes
    (``_gauss_kronrod_nodes``), so each group may integrate its own
    function.
    Every panel is integrated by one 17-point Gauss-Kronrod evaluation,
    whose embedded 8-point Gauss-Legendre rule is the check.  A group
    passes when the summed magnitude of its panels' differences between
    the two stays within ``rel_tol`` of its total, or when both are zero;
    it then gets the Kronrod value.  The panels of the groups that miss
    are halved and evaluated again, at most ``max_halvings`` times
    (default ``_MAX_HALVINGS``, read at call time), after which
    QuadratureError, naming the group by ``label``, is raised with its
    Kronrod estimate as ``log_partial``.  No value is returned unchecked.
    """
    _check_rel_tol(rel_tol, "quadrature")
    if max_halvings is None:
        max_halvings = _MAX_HALVINGS
    out = np.empty(int(group[-1]) + 1)
    pending = np.arange(out.size)
    which = np.arange(lo.size)
    halvings = 0
    while True:
        fine, coarse = _log_kronrod(f_log, lo, hi, which)
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
                f"{label(int(pending[bad]))}: the Gauss-Kronrod panels and "
                f"their Gauss-Legendre rule still differ by "
                f"{float(err[bad]):.3g} (rel_tol {rel_tol}) after {halvings} "
                f"halvings", log_partial=float(total[bad]))
        halvings += 1
        redo = ~ok[group]
        pending = pending[~ok]
        group = np.repeat((np.cumsum(~ok) - 1)[group[redo]], 2)
        mid = 0.5 * (lo + hi)
        lo, hi = (np.stack([lo[redo], mid[redo]], axis=1).ravel(),
                  np.stack([mid[redo], hi[redo]], axis=1).ravel())
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
    Gauss-Kronrod panels and their embedded Gauss-Legendre rule agree to
    ``rel_tol`` of the total.  The halvings stop where the next level
    would evaluate more than 2 max_panels + 1 abscissae on a piece, as
    many as a composite rule of ``max_panels`` panels (the first level is
    always checked); QuadratureError, carrying the finest estimate, is
    raised there.  ``f_log`` gets a flat array of abscissae.
    """
    _check_rel_tol(rel_tol, "integral")
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

    def f_panels(lo, hi, _):
        t = _gauss_kronrod_nodes(lo, hi)
        y = np.asarray(f_log(t.ravel()), dtype=float)
        if y.shape != (t.size,):
            raise DomainError("log integrand must be vectorized over its input")
        return y.reshape(t.shape)

    # level h evaluates 17 min_panels 2^h abscissae on each piece
    halvings = max(((2 * max_panels + 1) // (17 * min_panels)).bit_length() - 1, 0)
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


class TailAnalysis(NamedTuple):
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


# log_tail_integral's window rule, as its docstring states it; each
# window is integrated to _TAIL_REL_TOL
_RATIO_CONV = 0.9
_RATIO_DIV = 1.0
_HARD_RATIO = math.exp(10.0)
_RUN_LENGTH = 4
_TAIL_REL_TOL = 1e-8
_REMAINDER_CUT = 1e-9


def log_tail_integral(f_log: Callable[[np.ndarray], np.ndarray],
                      t0: float,
                      *,
                      max_windows: int = 40) -> TailAnalysis:
    """Analyse the integral of exp(f_log) over [t0, infinity).

    The tail is scanned over the doubling windows [t0*2^k, t0*2^{k+1}].
    ``_RUN_LENGTH`` consecutive window ratios at or below ``_RATIO_CONV``
    certify convergence; after that verdict the scan keeps extending until
    the geometric remainder bound drops below ``_REMAINDER_CUT`` of the
    accumulated mass, and the bound is folded into ``log_tail``.

    Divergence is never declared from early windows alone: because the
    window width doubles, the first ratios of a slowly convergent tail
    routinely sit above 1 before the decay catches up.  The scan therefore
    runs to ``max_windows`` and reports divergence only when the final
    ``_RUN_LENGTH`` ratios all sit at or above ``_RATIO_DIV`` (less a small
    allowance for quadrature noise).  The one exception is a run of ratios
    at or above ``_HARD_RATIO`` (e^10), far beyond what that transient can
    produce, which ends the scan immediately and keeps refinement costs
    bounded for strongly divergent integrands.  A divergence run observed
    after a convergence verdict is conflicting evidence and yields verdict
    None.
    """
    if t0 <= 0:
        raise DomainError("tail scan needs a positive starting point")
    div_floor = _RATIO_DIV * (1.0 - 8.0 * _TAIL_REL_TOL)
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
            seg = log_integral(f_log, a, b, rel_tol=_TAIL_REL_TOL)
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
            if r <= _RATIO_CONV:
                conv_run += 1
                div_run = hard_run = 0
            elif r >= div_floor:
                div_run += 1
                conv_run = 0
                hard_run = hard_run + 1 if r >= _HARD_RATIO else 0
            else:
                conv_run = div_run = hard_run = 0
            if verdict is None:
                if conv_run >= _RUN_LENGTH:
                    verdict = True
                elif hard_run >= _RUN_LENGTH:
                    verdict = False
                    break
            elif verdict is True and div_run >= _RUN_LENGTH:
                verdict = None
                conflicted = True
                break
            if verdict is True:
                # Remainder after the last window is at most a geometric
                # series with the observed (capped) ratio.
                rho = min(max(r, 1e-300), _RATIO_CONV)
                rem = segs[-1] + math.log(rho / (1.0 - rho))
                if rem <= total + math.log(_REMAINDER_CUT):
                    break
    if (verdict is None and not conflicted and len(ratios) >= _RUN_LENGTH
            and all(r >= div_floor for r in ratios[-_RUN_LENGTH:])):
        verdict = False
    mass = total
    if verdict is True:
        rho = min(max(ratios[-1], 1e-300), _RATIO_CONV)
        mass = log_add(mass, segs[-1] + math.log(rho / (1.0 - rho)))
    return TailAnalysis(verdict=verdict, log_tail=mass,
                        log_segments=tuple(segs), ratios=tuple(ratios))
