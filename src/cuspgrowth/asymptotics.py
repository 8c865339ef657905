"""Horospherical areas, cusp excursion integrals, and growth estimation.

A cusp is modelled by a decay profile T together with a normalization: the
horospherical cross-section area at depth t into the cusp is
A(t) = c_norm * T(t)^{n-1}.  Everything downstream of that identity lives
here: the excursion integral that controls how much orbit mass a cusp
contributes near radius R, parabolic orbit growth and its critical
exponent, the finiteness-criterion tail integral, and estimators that read
growth exponents and growth type off sampled log data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, QuadratureError
from .numerics import (_checked_radii, _gauss_panel_nats, _log_gauss_sums,
                       log_add, log_integral, log_upper_gamma)
from .profiles import Profile

__all__ = [
    "CuspModel",
    "log_cuspidal",
    "sample_cuspidal",
    "log_orbital_parabolic",
    "sample_orbital_parabolic",
    "poincare_abscissa",
    "series_log_integrand",
    "SeriesTail",
    "series_convergence_at",
    "GrowthSeries",
    "WindowPolicy",
    "ExponentEstimate",
    "estimate_exponents",
    "TrendPolicy",
    "GrowthClass",
    "GrowthClassification",
    "classify_growth",
    "critical_exponent_chain_bound",
    "ChainCheckReport",
    "cuspidal_chain_check",
]


@dataclass(frozen=True)
class CuspModel:
    """A cusp: decay profile plus area normalization.

    The horospherical area at depth t into the cusp is
    A(t) = c_norm * T(t)^{n-1}.
    """
    profile: Profile
    c_norm: float = 1.0

    def __post_init__(self) -> None:
        if self.c_norm <= 0:
            raise DomainError("area normalization must be positive")

    @property
    def dim(self) -> int:
        return self.profile.bounds.n


# Stretches of an excursion integrand this many nats below the radius's
# total cannot move a 1e-8 relative target and are dropped.
_NEGLIGIBLE_NATS = 46.0

# Radii are cut into segments in blocks of this many, and integrated in
# chunks of about this many panels, so that the segment and node arrays,
# and with them peak memory, do not grow with the radius count.
_BLOCK_RADII = 256
_CHUNK_PANELS = 512

# A radius whose integrand needs more panels than this raises
# QuadratureError instead of allocating them.
_MAX_RADIUS_PANELS = 1 << 18


def log_cuspidal(cusp: CuspModel, r, *, rel_tol: float = 1e-8) -> float | np.ndarray:
    """ln of the cusp excursion integral

        F(R) = integral over [t_start, R] of A(t) / A((R+t)/2) dt.

    The integrand compares the horoball area where an excursion enters the
    cusp with the area at the depth it must reach to close up by radius R;
    its mass measures how many distinct excursions of length about R the
    cusp supports.  Returns -inf for R <= t_start.  Scalar or vectorized
    in ``r``: all radii are integrated together, a scalar exactly as an
    array of one.

    Each radius's interval is cut at the profile's breaks b and at 2b - R,
    where the midpoint term crosses them.  On each smooth segment the
    slope of the log integrand is bounded in closed form from the
    profile's segment rows, and with it the stretches more than
    ``_NEGLIGIBLE_NATS`` below the radius's total are dropped; the rest
    is cut into panels across which the log integrand varies by at most
    ``numerics._gauss_panel_nats(rel_tol)`` and summed by the checked
    Gauss-Legendre rule of ``numerics._log_gauss_sums``.  A radius that
    misses ``rel_tol`` raises QuadratureError.
    """
    radii, flat = _checked_radii(r, rel_tol, "excursion")
    prof = cusp.profile
    out = np.full(flat.shape, -math.inf)
    live = np.flatnonzero(flat > prof.t_start)
    for first in range(0, live.size, _BLOCK_RADII):
        block = live[first:first + _BLOCK_RADII]
        out[block] = _log_excursion_block(cusp, flat[block], rel_tol)
    return float(out[0]) if radii.ndim == 0 else out.reshape(radii.shape)


def _log_excursion_block(cusp: CuspModel, radii: np.ndarray,
                         rel_tol: float) -> np.ndarray:
    """ln F at each radius of a block, a chunk of radii at a time."""
    segs = _excursion_segments(cusp, radii, rel_tol)
    panels = np.bincount(segs.owner, weights=segs.count, minlength=radii.size)
    if panels.max() > _MAX_RADIUS_PANELS:
        worst = int(np.argmax(panels))
        raise QuadratureError(
            f"the excursion integral at R={float(radii[worst])!r} needs "
            f"{panels[worst]:.0f} panels, over the budget of {_MAX_RADIUS_PANELS}")
    out = np.empty(radii.size)
    # chunk c holds the radii whose panels begin in [c, c + 1) budgets
    chunk = (np.cumsum(panels) - panels) // _CHUNK_PANELS
    firsts = np.flatnonzero(np.diff(chunk, prepend=-1.0))
    seg_at = np.searchsorted(segs.owner, np.arange(radii.size + 1))
    for a, b in zip(firsts, np.append(firsts[1:], radii.size)):
        out[a:b] = _log_excursion(cusp, radii[a:b],
                                  segs.take(seg_at[a], seg_at[b], a), rel_tol)
    return out


@dataclass(frozen=True)
class _Segments:
    """Smooth stretches [lo, hi] of the excursion integrals of a radius
    array, in radius order: ``owner`` indexes the radius, ``slope`` bounds
    the log integrand's slope, ``count`` is the number of panels (float,
    so that the budget check sees counts past 2^63 unwrapped) and
    ``floor`` the log integrand below which the radius drops mass."""
    owner: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    slope: np.ndarray
    count: np.ndarray
    floor: np.ndarray

    def take(self, start: int, stop: int, first_owner: int) -> "_Segments":
        sel = slice(start, stop)
        return _Segments(self.owner[sel] - first_owner, self.lo[sel],
                         self.hi[sel], self.slope[sel], self.count[sel],
                         self.floor[sel])


def _excursion_log_integrand(cusp: CuspModel):
    """(n-1) (ln T(t) - ln T((R + t)/2)), for arrays t and R."""
    prof = cusp.profile
    n1 = cusp.dim - 1

    def f_log(t, r):
        return n1 * (prof.log_value(t) - prof.log_value((r + t) / 2.0))

    return f_log


def _excursion_segments(cusp: CuspModel, radii: np.ndarray,
                        rel_tol: float) -> _Segments:
    """The smooth segments of each radius's integral, trimmed to where
    they can carry mass, with their slope bounds and panel counts."""
    prof = cusp.profile
    t0 = prof.t_start
    f_log = _excursion_log_integrand(cusp)
    breaks = prof.piece_breaks()
    rr = radii[:, None]
    # the midpoint term is non-smooth where (R + t)/2 crosses a break;
    # cuts outside [t0, R] collapse onto an end and leave empty segments
    cuts = np.concatenate([np.full_like(rr, t0), rr,
                           np.broadcast_to(breaks, (rr.shape[0], breaks.size)),
                           2.0 * breaks - rr], axis=1)
    cuts = np.sort(np.clip(cuts, t0, rr), axis=1)
    owner, col = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    lo = cuts[owner, col]
    hi = cuts[owner, col + 1]
    r = radii[owner]
    # f = (n-1) (ln T(t) - ln T(m)), m = (R + t)/2, has slope
    # (n-1) (s(t) - s(m)/2) with s = (ln T)', which lies in [least, most]
    t_least, t_most = prof._dlog_range(lo, hi)
    m_least, m_most = prof._dlog_range(0.5 * (r + lo), 0.5 * (r + hi))
    least = (cusp.dim - 1) * (t_least - 0.5 * m_most)
    most = (cusp.dim - 1) * (t_most - 0.5 * m_least)
    slope = np.maximum(np.abs(least), np.abs(most))
    f_lo = f_log(lo, r)
    f_hi = f_log(hi, r)
    # within d of a segment end e the integrand stays above e^{f(e) - slope d}:
    # a lower bound on each radius's total
    near = np.minimum(hi - lo, 1.0 / np.maximum(slope, 1e-300))
    low = np.maximum(f_lo, f_hi) + np.log(near) - slope * near
    firsts = np.searchsorted(owner, np.arange(radii.size))
    # log integrand below which a radius drops at most e^{-_NEGLIGIBLE_NATS}
    # of its total over all of [t0, R]
    floor = (np.maximum.reduceat(low, firsts) - _NEGLIGIBLE_NATS
             - np.log(radii - t0))[owner]
    # f(t) <= f(lo) + most (t - lo) and f(t) <= f(hi) - least (hi - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        stop = np.where(most < 0.0, lo + (f_lo - floor) / -most, hi)
        start = np.where(least > 0.0, hi - (f_hi - floor) / least, lo)
    start = np.maximum(start, lo)
    stop = np.minimum(stop, hi)
    live = stop > start
    start, stop, slope = start[live], stop[live], slope[live]
    count = np.ceil(slope * (stop - start) / _gauss_panel_nats(rel_tol))
    return _Segments(owner[live], start, stop, slope, np.maximum(count, 1.0),
                     floor[live])


def _log_excursion(cusp: CuspModel, radii: np.ndarray, segs: _Segments,
                   rel_tol: float) -> np.ndarray:
    """ln F at each radius, from the radii's segments."""
    f_log = _excursion_log_integrand(cusp)
    # panel k of a segment is [x_k, x_{k+1}], x_k = lo + k h, x_count = hi
    count = segs.count.astype(np.int64)
    ends = count + 1
    seg = np.repeat(np.arange(segs.lo.size), ends)
    k = np.arange(seg.size) - np.repeat(np.cumsum(ends) - ends, ends)
    step = (segs.hi - segs.lo) / count
    last = k == count[seg]
    x = np.where(last, segs.hi[seg], segs.lo[seg] + k * step[seg])
    fx = f_log(x, radii[segs.owner[seg]])
    left = np.flatnonzero(~last)
    seg = seg[left]
    a, b = x[left], x[left + 1]
    # |f'| <= slope bounds the log integrand on a panel by its end values
    keep = np.flatnonzero(0.5 * (fx[left] + fx[left + 1] + segs.slope[seg] * (b - a))
                          >= segs.floor[seg])
    owner = segs.owner[seg[keep]]
    r_kept = radii[owner]

    def label(g: int) -> str:
        return f"the excursion integral at R={float(radii[g])!r}"

    return _log_gauss_sums(lambda t, i: f_log(t, r_kept[i][:, None]),
                           a[keep], b[keep], owner, rel_tol=rel_tol, label=label)


def sample_cuspidal(cusp: CuspModel, radii: Sequence[float],
                    *, rel_tol: float = 1e-6,
                    label: str = "cusp-excursion") -> GrowthSeries:
    """Sample ln F over a radius grid into a GrowthSeries."""
    radii = np.asarray(radii, dtype=float)
    vals = log_cuspidal(cusp, radii, rel_tol=rel_tol)
    return GrowthSeries(radii=radii, log_values=vals, label=label)


def log_orbital_parabolic(cusp: CuspModel, r, h_y: float = 0.0) -> float | np.ndarray:
    """ln of the modelled parabolic orbit count through radius R.

    A parabolic translation moving distance R along the horosphere exits
    through depth about (R + h_y)/2, where h_y is the target point's
    signed horoball depth, so the orbit count inverts the area law:
    v_P(R) = 1 / A((R + h_y)/2).  Scalar or vectorized in ``r``; below
    about 10 decay lengths the excursion geometry behind the formula does
    not hold yet, and the values there are its extrapolation.
    """
    prof = cusp.profile
    half = np.maximum((np.asarray(r, dtype=float) + h_y) / 2.0, prof.t_start)
    out = -math.log(cusp.c_norm) - (cusp.dim - 1) * prof.log_value(half)
    return float(out) if np.ndim(r) == 0 else out


def sample_orbital_parabolic(cusp: CuspModel,
                             radii: Sequence[float]) -> GrowthSeries:
    """Sample ln v_P toward the horosphere (h_y = 0) over a radius grid
    into a GrowthSeries."""
    radii = np.asarray(radii, dtype=float)
    vals = np.asarray(log_orbital_parabolic(cusp, radii), dtype=float)
    return GrowthSeries(radii=radii, log_values=vals, label="parabolic-orbit")


def poincare_abscissa(cusp: CuspModel) -> float:
    """Abscissa of convergence of the parabolic orbit series
    sum over p of exp(-s d(x, p x)).

    The series converges iff the tail integral of e^{-s R} / A(R/2) dR
    does.  Any finite stretch of the profile adds finite mass, so only
    its final law t^p e^{-c t} decides: the integrand is then a power of
    R times e^{-(s - (n-1) c / 2) R}, and the abscissa is (n-1) c / 2.
    """
    _, rate, _ = cusp.profile.final_law()
    return (cusp.dim - 1) * rate / 2.0


def series_log_integrand(cusp: CuspModel, s: float) -> Callable:
    """Log integrand t * e^{-s t} / A(t/2) of the measure-finiteness
    orbit-series criterion.

    Summing d exp(-s d) over distinct cusp excursions pairs each
    excursion of length t with the horoball area at its turning depth t/2,
    which is where the integrand comes from.
    """
    prof = cusp.profile
    n1 = cusp.dim - 1
    lc = math.log(cusp.c_norm)

    def f_log(t):
        t = np.asarray(t, dtype=float)
        out = -s * t - n1 * prof.log_value(t / 2.0) - lc
        return out + np.log(t)

    return f_log


@dataclass(frozen=True)
class SeriesTail:
    """Verdict and mass of an orbit-series tail integral: ``log_tail`` is
    the log of the integral over [t_min, infinity), +inf when it
    diverges."""
    verdict: bool
    log_tail: float

    @property
    def converges(self) -> bool:
        return self.verdict

    @property
    def diverges(self) -> bool:
        return not self.verdict


def series_convergence_at(cusp: CuspModel, s: float,
                          *, t_min: Optional[float] = None) -> SeriesTail:
    """Decide the orbit-series integral of ``series_log_integrand`` from
    ``t_min`` (default: twice the start of the profile's final piece) to
    infinity, in closed form.

    Let the profile follow t^p e^{-c t} from ``start`` on.  From t = 2 start
    the integrand is exactly t^beta 2^{(n-1) p} e^{-lam t} / c_norm, with
    beta = 1 - (n-1) p and lam = s - s* for the abscissa s*.  The tail
    converges iff lam > 0, or lam = 0 and beta < -1; its mass is then an
    upper incomplete gamma function, or a power integral at lam = 0.  A
    stretch of [t_min, 2 start] before that is integrated numerically
    over the profile's pieces.
    """
    f_log = series_log_integrand(cusp, s)
    prof = cusp.profile
    if t_min is None:
        t_min = 2.0 * prof.pieces[-1].t0
        if t_min <= 0:
            t_min = 2.0
    if not math.isfinite(s):
        raise DomainError(f"series exponent must be finite, got {s}")
    if not t_min > 0:
        raise DomainError("series tail needs a positive t_min")
    power, _, start = prof.final_law()
    n1 = cusp.dim - 1
    beta = 1.0 - n1 * power
    lam = s - poincare_abscissa(cusp)
    if lam < 0 or (lam == 0 and beta >= -1.0):
        return SeriesTail(verdict=False, log_tail=math.inf)
    lo = max(t_min, 2.0 * start)
    log_tail = n1 * power * math.log(2.0) - math.log(cusp.c_norm)
    if lam > 0:
        log_tail += (log_upper_gamma(beta + 1.0, lam * lo)
                     - (beta + 1.0) * math.log(lam))
    else:
        log_tail += (beta + 1.0) * math.log(lo) - math.log(-(beta + 1.0))
    if t_min < lo:
        log_tail = log_add(log_tail, log_integral(
            f_log, t_min, lo, breakpoints=2.0 * prof.piece_breaks()))
    return SeriesTail(verdict=True, log_tail=log_tail)


# -- sampled growth data ------------------------------------------------------

@dataclass(frozen=True)
class GrowthSeries:
    """A sampled log-growth function: strictly increasing radii paired
    with ln f(R) values."""
    radii: np.ndarray
    log_values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        vals = np.asarray(self.log_values, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "log_values", vals)
        if radii.ndim != 1 or radii.shape != vals.shape:
            raise DomainError("radii and log_values must be matching 1-d arrays")
        if radii.size and np.any(np.diff(radii) <= 0):
            raise DomainError("radii must be strictly increasing")
        if np.any(np.isnan(vals)):
            raise DomainError("log values must not be NaN")

    def __len__(self) -> int:
        return int(self.radii.size)


@dataclass(frozen=True)
class WindowPolicy:
    """Tail-window layout for exponent estimation: the outermost
    ``n_windows`` radius-halving windows (R_max/2^{j+1}, R_max/2^j],
    each required to hold at least ``min_points`` samples.  ``tol`` is the
    window-to-window agreement defining convergence."""
    n_windows: int = 4
    tol: float = 0.02
    min_points: int = 8

    def min_r_max(self, r_lo: float, n_points: int) -> float:
        """Smallest R_max at which np.linspace(r_lo, R_max, n_points)
        fills every window, for grids whose innermost window opens below
        r_lo: that window then holds the grid's first samples."""
        span = n_points - 1
        k = self.min_points - 1
        return r_lo * (span - k) / (span / 2.0 ** (self.n_windows - 1) - k)


def _window_masks(radii: np.ndarray, policy: WindowPolicy) -> list[np.ndarray]:
    r_max = float(radii[-1])
    masks = []
    for j in range(policy.n_windows):
        hi = r_max / (2.0 ** j)
        lo = r_max / (2.0 ** (j + 1))
        mask = (radii > lo) & (radii <= hi)
        if int(np.sum(mask)) < policy.min_points:
            raise DomainError(
                f"window ({lo:.6g}, {hi:.6g}] holds {int(np.sum(mask))} samples, "
                f"needs {policy.min_points}")
        masks.append(mask)
    return masks


@dataclass(frozen=True)
class ExponentEstimate:
    """Upper/lower growth exponents read from tail windows.

    ``omega_plus`` is the largest, ``omega_minus`` the smallest value of
    ln f(R) / R seen across the tail windows; the ``converged`` flags
    report whether the two outermost windows agree to the policy
    tolerance.  For multiplicatively rescaled data the estimates shift by
    at most ln(scale) / R_tail_min, the exact sensitivity of a ratio
    statistic; no tighter invariance is possible.
    """
    omega_plus: float
    omega_minus: float
    converged_plus: bool
    converged_minus: bool
    window_peaks: tuple[float, ...]
    window_floors: tuple[float, ...]
    r_tail_min: float
    policy: WindowPolicy


def estimate_exponents(series: GrowthSeries,
                       policy: WindowPolicy = WindowPolicy()) -> ExponentEstimate:
    """Estimate limsup/liminf of ln f(R)/R from a sampled series."""
    radii = series.radii
    if radii.size == 0 or radii[-1] <= 0:
        raise DomainError("exponent estimation needs positive radii")
    if radii[0] <= 0:
        keep = radii > 0
        series = GrowthSeries(radii[keep], series.log_values[keep], series.label)
        radii = series.radii
    masks = _window_masks(radii, policy)
    ratios = series.log_values / radii
    peaks = tuple(float(np.max(ratios[m])) for m in masks)
    floors = tuple(float(np.min(ratios[m])) for m in masks)
    return ExponentEstimate(
        omega_plus=max(peaks),
        omega_minus=min(floors),
        converged_plus=abs(peaks[0] - peaks[1]) <= policy.tol,
        converged_minus=abs(floors[0] - floors[1]) <= policy.tol,
        window_peaks=peaks,
        window_floors=floors,
        r_tail_min=float(radii[-1]) / (2.0 ** policy.n_windows),
        policy=policy,
    )


# -- growth-type classification ------------------------------------------------

class GrowthClass(Enum):
    PURE = "pure"
    LOWER = "lower"
    UPPER = "upper"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class TrendPolicy:
    """Thresholds for growth-type classification of the normalized
    residual ln f(R) - delta R over the tail windows.

    ``tau`` is the drift (in nats across the window span) that counts as a
    genuine one-sided trend; ``band`` the total oscillation still accepted
    as purely exponential behavior.  Defaults are tuned so the catalog
    families at desk scale land in their analytically known classes.
    """
    tau: float = 0.4
    band: float = 1.0


@dataclass(frozen=True)
class GrowthClassification:
    kind: GrowthClass
    trend_peak: float
    trend_floor: float
    oscillation: float
    delta: float
    policy: TrendPolicy


def classify_growth(series: GrowthSeries, delta: float,
                    policy: TrendPolicy = TrendPolicy()) -> GrowthClassification:
    """Classify f against the pure law e^{delta R}.

    LOWER: even the residual's window peaks fall by at least tau from the
    innermost to the outermost tail window (f is an asymptotically
    vanishing fraction of e^{delta R}).
    UPPER: the window floors rise by at least tau (f outgrows e^{delta R}).
    PURE: neither trend fires and the residual's total excursion across
    the tail windows stays within ``band``.
    INDETERMINATE: anything else.
    """
    radii = series.radii
    resid = series.log_values - delta * radii
    masks = _window_masks(radii, WindowPolicy())
    peaks = [float(np.max(resid[m])) for m in masks]
    floors = [float(np.min(resid[m])) for m in masks]
    trend_peak = peaks[0] - peaks[-1]
    trend_floor = floors[0] - floors[-1]
    oscillation = max(peaks) - min(floors)
    if trend_peak <= -policy.tau:
        kind = GrowthClass.LOWER
    elif trend_floor >= policy.tau:
        kind = GrowthClass.UPPER
    elif oscillation <= policy.band:
        kind = GrowthClass.PURE
    else:
        kind = GrowthClass.INDETERMINATE
    return GrowthClassification(kind=kind, trend_peak=trend_peak,
                                trend_floor=trend_floor,
                                oscillation=oscillation, delta=delta,
                                policy=policy)


def critical_exponent_chain_bound(omega_plus: float, omega_minus: float) -> float:
    """Upper bound on the excursion-integral growth rate from one cusp's
    upper/lower parabolic exponents: max(omega_plus,
    2 (omega_plus - omega_minus))."""
    if omega_plus < omega_minus:
        raise DomainError("need omega_plus >= omega_minus")
    return max(omega_plus, 2.0 * (omega_plus - omega_minus))


@dataclass(frozen=True)
class ChainCheckReport:
    """Estimated link of parabolic exponents to excursion-integral growth.

    The chain asserts delta_minus <= omega_minus(F) <= omega_plus(F) <=
    max(delta_plus, 2 (delta_plus - delta_minus)), all four read off
    sampled series, so ``tol`` absorbs the finite-radius estimator error.
    """
    delta_plus: float
    delta_minus: float
    omega_plus_f: float
    omega_minus_f: float
    chain_bound: float
    lower_margin: float
    upper_margin: float
    tol: float
    passed: bool

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"exponent chain: {self.delta_minus:.4f} <= "
                f"{self.omega_minus_f:.4f} <= {self.omega_plus_f:.4f} <= "
                f"{self.chain_bound:.4f} (tol {self.tol}): {state}")


# cuspidal_chain_check samples np.linspace(1, r_max, _CHAIN_POINTS) at
# excursion tolerance _CHAIN_REL_TOL and asserts the chain with slack
# _CHAIN_TOL
_CHAIN_POINTS = 129
_CHAIN_REL_TOL = 1e-6
_CHAIN_TOL = 0.25


def cuspidal_chain_check(cusp: CuspModel, r_max: float) -> ChainCheckReport:
    """Sample the parabolic orbit count and the excursion integral on
    [1, r_max] and check the exponent chain between them.

    All four exponents are windowed estimates from the same grid (a
    truncated profile's analytic tail would otherwise hide the upper rate
    that its oscillation bands realize at finite radius), so the chain is
    asserted with slack ``_CHAIN_TOL``.
    """
    radii = np.linspace(1.0, r_max, _CHAIN_POINTS)
    orbital = sample_orbital_parabolic(cusp, radii)
    excursion = sample_cuspidal(cusp, radii, rel_tol=_CHAIN_REL_TOL)
    est_p = estimate_exponents(orbital)
    est_f = estimate_exponents(excursion)
    delta_plus = est_p.omega_plus
    delta_minus = est_p.omega_minus
    bound = critical_exponent_chain_bound(delta_plus, delta_minus)
    lower_margin = est_f.omega_minus - delta_minus
    upper_margin = bound - est_f.omega_plus
    mid_ok = est_f.omega_minus <= est_f.omega_plus + 1e-12
    passed = (lower_margin >= -_CHAIN_TOL and upper_margin >= -_CHAIN_TOL
              and mid_ok)
    return ChainCheckReport(
        delta_plus=delta_plus,
        delta_minus=delta_minus,
        omega_plus_f=est_f.omega_plus,
        omega_minus_f=est_f.omega_minus,
        chain_bound=bound,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        tol=_CHAIN_TOL,
        passed=passed,
    )
