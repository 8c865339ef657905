"""Piecewise cusp decay profiles.

A profile models the log of a decreasing positive function T on
[t_start, infinity) built from three piece forms:

* ``pure_exp``   ln T = -c t
* ``poly_exp``   ln T = alpha ln t - c t
* ``bridge``     a C^2 transition between two analytic envelopes

All evaluation happens in the log domain because catalog profiles are
probed at abscissae where T underflows every float format.

Bridges are constructed in slope space: the log-derivative sigma(t) of the
transition is a ramp/plateau/ramp piecewise cubic that starts with the left
envelope's slope and slope-derivative, ends with the right envelope's, and
whose plateau level is solved in closed form so that the integral of sigma
across the band equals the exact log-value gap between the envelopes.  The
transition is therefore value- and C^2-exact at both ends, and its
monotonicity and curvature proxy sigma' + sigma^2 are certified rather
than assumed: both are read exactly, row by row, from closed forms (the
proxy of a cubic row is a degree-6 polynomial whose extremes sit at the
row's ends or at real roots of its derivative).  Only the envelope
sandwich of a transition is sampled, on a grid of ``_GRID`` points.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BridgeConstructionError, CatalogError, DomainError, ProfileError

__all__ = [
    "CurvatureBounds",
    "ProfilePiece",
    "Profile",
    "pure_piece",
    "poly_piece",
    "assemble_profile",
    "ValidationReport",
    "validate_profile",
    "profile_to_text",
    "CATALOG_IDS",
    "CatalogParams",
    "default_catalog_params",
    "catalog_profile",
    "catalog_companions",
]

INF = float("inf")

# Ramp fractions attempted for the transition construction, best survivor
# wins.  Wide ramps first (gentler curvature), then progressively thinner
# ramps, which lower the plateau overhead when the value gap is tight.
_THETA_LADDER = (0.25, 0.5, 0.125, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256)

_GRID = 4097  # envelope-sandwich samples per transition band

# validate_profile's relative tolerances on value (join) and derivative
# (slope) jumps at the joins, and the slop allowed on the curvature-proxy
# window
_JOIN_TOL = 1e-9
_SLOPE_TOL = 1e-6
_RATIO_SLOP = 1e-6


@dataclass(frozen=True)
class CurvatureBounds:
    """Pinching data (a, b, eps) plus the ambient dimension n.

    The curvature of the modelled manifold lies in [-b^2, -a^2] and the
    profile's curvature proxy (ln T)'' + ((ln T)')^2 is certified to stay
    inside [a^2 - eps, b^2 + eps].
    """
    a: float
    b: float
    n: int = 2
    eps: float = 0.0

    def __post_init__(self) -> None:
        # written so that a NaN fails each check
        if not 0 < self.a <= self.b < INF:
            raise DomainError(
                f"need 0 < a <= b < inf, got a={self.a}, b={self.b}")
        if not (2 <= self.n < INF and self.n == int(self.n)):
            raise DomainError(f"dimension n must be an integer >= 2, got {self.n}")
        if not self.eps >= 0:
            raise DomainError(f"pinching slack eps must be nonnegative, "
                              f"got eps={self.eps}")


@dataclass(frozen=True)
class _Envelope:
    """Analytic law t^power * exp(-rate * t), handled in the log domain."""
    power: float
    rate: float

    def __post_init__(self) -> None:
        # written so that a NaN or an infinity fails each check
        if not 0 < self.rate < INF:
            raise DomainError("envelope rate must be positive and finite")
        if not 0 <= self.power < INF:
            raise DomainError("envelope power must be nonnegative and finite")

    def __call__(self, t, order: int = 0):
        """ln of the law (order 0) or its first (1) or second (2)
        derivative; power 0 is the pure exponential, without the log."""
        t = np.asarray(t, dtype=float)
        if order:
            return _law_derivative(self.power, self.rate, t, order)
        if self.power == 0.0:
            return -self.rate * t
        return self.power * np.log(t) - self.rate * t


def _law_derivative(power, rate, t, order):
    """(ln T)' = power/t - rate (order 1) or (ln T)'' = -power/t^2 (2) of
    the laws t^power e^{-rate t}, the arguments broadcast together: -rate
    and +0.0 for the pure law (power 0).  t * t overflows at depths near
    the float range, where -0.0 is the limit."""
    with np.errstate(all="ignore"):
        if order == 1:
            return np.where(power == 0.0, -rate, power / t - rate)
        return np.where(power == 0.0, 0.0, -power / (t * t))


class _Cubic(NamedTuple):
    """Transition segment whose log-slope is the cubic
    c0 + c1 u + c2 u^2 + c3 u^3 in u = (t - t0)/width, with ln value
    ``anchor`` at t0."""
    t0: float
    width: float
    anchor: float
    coeffs: tuple[float, float, float, float]

    def __call__(self, t, order: int = 0):
        u = (t - self.t0) / self.width
        if order:
            return _cubic_derivative(self.coeffs, u, order, self.width)
        c0, c1, c2, c3 = self.coeffs
        integ = u * (c0 + u * (c1 / 2.0 + u * (c2 / 3.0 + u * c3 / 4.0)))
        return self.anchor + self.width * integ


def _cubic_derivative(coeffs, u, order, width=1.0):
    """(ln T)' = c0 + c1 u + c2 u^2 + c3 u^3 (order 1) or
    (ln T)'' = (c1 + 2 c2 u + 3 c3 u^2)/width (2) of cubic rows, the
    coefficients, u and the width broadcast together."""
    c0, c1, c2, c3 = coeffs
    if order == 1:
        return c0 + u * (c1 + u * (c2 + u * c3))
    return (c1 + u * (2.0 * c2 + u * 3.0 * c3)) / width


def _cubic_slope_range(coeffs, u_lo, u_hi):
    """Least and greatest log-slope c0 + c1 u + c2 u^2 + c3 u^3 on each
    [u_lo, u_hi]; the four coefficients and the ends broadcast together.
    The extremes sit at the ends or at the real roots of
    c1 + 2 c2 u + 3 c3 u^2."""
    c0, c1, c2, c3 = np.asarray(coeffs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cubic = c3 != 0.0
        disc = c2 * c2 - 3.0 * c1 * c3
        root = np.sqrt(disc)
        first = np.where(cubic, (-c2 - root) / (3.0 * c3), -c1 / (2.0 * c2))
        second = np.where(cubic, (-c2 + root) / (3.0 * c3), first)
        real = np.where(cubic, disc >= 0.0, c2 != 0.0)
    # a root outside [u_lo, u_hi] is clipped onto an end; a missing one is
    # read at u_lo, which is a candidate already
    slopes = [_cubic_derivative((c0, c1, c2, c3), u, 1)
              for u in (u_lo, u_hi, *(np.where(real, np.clip(x, u_lo, u_hi), u_lo)
                                      for x in (first, second)))]
    return np.minimum.reduce(slopes), np.maximum.reduce(slopes)


def _cubic_proxy_range(coeffs, width, u_lo, u_hi):
    """Least and greatest curvature proxy (ln T)'' + (ln T)'^2 of cubic
    rows on [u_lo, u_hi], NaN for a row whose proxy's derivative leaves
    the float range.  Row i has the log-slope
    sigma = c0 + c1 u + c2 u^2 + c3 u^3 in u = (t - t0)/width[i], the four
    coefficients given as arrays over the rows.

    The proxy sigma'/width + sigma^2 is a polynomial of degree 6 in u, so
    its extremes sit at the ends or at real roots of its derivative
    sigma''/width + 2 sigma sigma', of degree 5.  The roots of every row
    come from one batched companion-matrix eigenvalue solve; a derivative
    of lower degree d is solved as its product with u^(5-d), whose added
    roots are zeros.  The real part of each root, clipped to the span, is
    a candidate: a complex or an added root only adds a point of the
    span.  On the plateau (s*, 0, 0, 0) of finite s* the derivative
    vanishes and every candidate reads sigma = s* and sigma' = +0.0 (each
    nested sum is +0.0 in round-to-nearest), so the proxy is s*^2 exactly.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        # the derivative's coefficients, highest power first, from the
        # coefficients scaled down by a power of two to at most 1 in size:
        # the scaling is exact and moves no root, and it keeps their
        # products in the float range
        _, exponent = np.frexp(np.max(np.abs(coeffs), axis=0))
        scale = np.ldexp(1.0, np.maximum(exponent, 0))
        c0, c1, c2, c3 = coeffs / scale
        w = width * scale
        deriv = np.stack([6.0 * c3 * c3, 10.0 * c2 * c3,
                          8.0 * c1 * c3 + 4.0 * c2 * c2,
                          6.0 * (c0 * c3 + c1 * c2),
                          6.0 * c3 / w + 2.0 * (2.0 * c0 * c2 + c1 * c1),
                          2.0 * c2 / w + 2.0 * c0 * c1], axis=-1)
        # a leading coefficient below 1e-150 of the largest one counts as
        # zero: the roots it carries lie beyond 1e30 in u, off the span
        size = np.abs(deriv)
        nonzero = size > 1e-150 * size.max(axis=-1, keepdims=True)
        lead = np.argmax(nonzero, axis=-1)
        if lead.any():
            # rolling the leading zeros to the end multiplies by u^(5-d)
            deriv = np.take_along_axis(deriv, (np.arange(6) + lead[:, None]) % 6, -1)
    # a vanishing derivative (a constant proxy) needs no roots; one that
    # leaves the float range is not solved, and its row reads NaN
    solved = np.any(nonzero, axis=-1)
    companion = np.zeros((np.count_nonzero(solved), 5, 5))
    companion[:, 0] = deriv[solved, 1:] / -deriv[solved, :1]
    companion[:, range(1, 5), range(4)] = 1.0
    roots = np.zeros((len(solved), 5))
    roots[solved] = np.linalg.eigvals(companion).real
    u = np.column_stack([u_lo, u_hi, roots])
    np.clip(u, u_lo[:, None], u_hi[:, None], out=u)
    coeffs = coeffs[:, :, None]
    with np.errstate(all="ignore"):
        d1 = _cubic_derivative(coeffs, u, 1)
        proxy = _cubic_derivative(coeffs, u, 2, width[:, None]) + d1 * d1
    finite = np.isfinite(size.max(axis=-1))
    return (np.where(finite, proxy.min(axis=-1), np.nan),
            np.where(finite, proxy.max(axis=-1), np.nan))


def _envelope_ranges(power, rate, lo, hi):
    """Greatest log-slope, and least and greatest curvature proxy, of the
    laws t^power e^{-rate t} on [lo, hi], all arrays over the laws.  The
    log-slope power/t - rate is monotone, and the proxy
    power (power - 1)/t^2 - 2 power rate/t + rate^2 has its one critical
    point at t = (power - 1)/rate; at hi = inf the law reads its limits
    -rate and rate^2.  Power 0 is the pure law, whose proxy is rate^2."""
    with np.errstate(all="ignore"):
        t = np.stack([lo, hi, np.clip((power - 1.0) / rate, lo, hi)])
        d1 = _law_derivative(power, rate, t, 1)
        proxy = _law_derivative(power, rate, t, 2) + d1 * d1
    return np.max(d1[:2], axis=0), np.min(proxy, axis=0), np.max(proxy, axis=0)


def _row_arrays(rows: Sequence[_Envelope | _Cubic]) -> tuple[np.ndarray, ...]:
    """The rows' parameters as arrays over the rows: whether each is a
    cubic; its four log-slope coefficients, t0 and width; and its power
    and rate.  A parameter of the other kind of row reads 0 (1 for a
    width or a rate)."""
    cubic = [isinstance(row, _Cubic) for row in rows]
    params = np.array([(*row.coeffs, row.t0, row.width, 0.0, 1.0) if is_cubic
                       else (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, row.power, row.rate)
                       for row, is_cubic in zip(rows, cubic)]).T
    return np.array(cubic), params[:4], params[4], params[5], params[6], params[7]


@dataclass(frozen=True)
class ProfilePiece:
    """One piece of a profile, active on [t0, t1).

    ``params`` is a plain mapping so pieces serialize directly:

    * pure_exp: {"rate": c}
    * poly_exp: {"power": alpha, "rate": c}
    * bridge:   {"segments": [...]} where each segment is either
        {"kind": "analytic", "t0", "t1", "power", "rate"} or
        {"kind": "cubic", "t0", "t1", "anchor", "coeffs": [c0, c1, c2, c3]}.
      A cubic segment stores the local log-slope polynomial
      sigma(u) = c0 + c1 u + c2 u^2 + c3 u^3 with u = (t - t0)/(t1 - t0)
      and the exact log value ``anchor`` at its left edge.
    """
    t0: float
    t1: float
    form: str
    params: Mapping

    def __post_init__(self) -> None:
        if self.form not in ("pure_exp", "poly_exp", "bridge"):
            raise ProfileError(f"unknown piece form {self.form!r}")
        if not (self.t1 > self.t0 >= 0):
            raise ProfileError(f"bad piece span [{self.t0}, {self.t1})")
        if self.form == "poly_exp" and self.t0 <= 0:
            raise ProfileError("poly_exp pieces need t0 > 0")


def pure_piece(t0: float, t1: float, rate: float) -> ProfilePiece:
    if not 0 < rate < INF:
        raise ProfileError("pure_exp rate must be positive and finite")
    return ProfilePiece(t0, t1, "pure_exp", {"rate": float(rate)})


def poly_piece(t0: float, t1: float, power: float, rate: float) -> ProfilePiece:
    if not (0 < rate < INF and 0 <= power < INF):
        raise ProfileError("poly_exp needs finite rate > 0 and power >= 0")
    return ProfilePiece(t0, t1, "poly_exp",
                        {"power": float(power), "rate": float(rate)})


# -- piece evaluation ---------------------------------------------------------

def _cubic_coeffs(y0: float, y1: float, m0: float, m1: float) -> tuple[float, float, float, float]:
    """Hermite cubic on [0, 1] with end values y0, y1 and end slopes m0, m1."""
    d = y1 - y0
    return (y0, m0, 3.0 * d - 2.0 * m0 - m1, -2.0 * d + m0 + m1)


def _row(seg: Mapping) -> _Envelope | _Cubic:
    if seg["kind"] == "analytic":
        return _Envelope(seg["power"], seg["rate"])
    return _Cubic(seg["t0"], seg["t1"] - seg["t0"], seg["anchor"],
                  tuple(seg["coeffs"]))


def _active_segments(t0: float, segments: Sequence[Mapping]
                     ) -> tuple[list[float], list[Mapping]]:
    """The starts and segments of the rows of a bridge piece that begins
    at t0: a zero-width segment is active nowhere and gets no row, and the
    first row starts at t0."""
    kept = [seg for seg in segments if seg["t1"] > seg["t0"]]
    return [t0] + [seg["t0"] for seg in kept[1:]], kept


class _SegmentTable:
    """The segments of consecutive pieces, flattened in order.

    Row i (an analytic law or a cubic transition) is active from
    ``starts[i]`` to the next start; a piece's first row starts at the
    piece's own t0, and the first and last rows extend past the ends.
    Every row reads ln T and its derivatives through its own
    ``__call__(t, order)``.  There is one row per start, and the starts
    strictly increase: a zero-width segment (a transition whose plateau
    has no room) is active nowhere and gets no row, and ``compile``
    raises ProfileError for a piece that would break this.
    """

    def __init__(self, starts: np.ndarray,
                 rows: tuple[_Envelope | _Cubic, ...]) -> None:
        self.starts = starts
        self.rows = rows

    @classmethod
    def compile(cls, pieces: Sequence[ProfilePiece]) -> "_SegmentTable":
        starts: list[float] = []
        rows: list[_Envelope | _Cubic] = []
        for piece in pieces:
            if piece.form == "bridge":
                seg_starts, segs = _active_segments(piece.t0,
                                                    piece.params["segments"])
                rows.extend(_row(seg) for seg in segs)
            else:
                seg_starts = [piece.t0]
                rows.append(_Envelope(piece.params.get("power", 0.0),
                                      piece.params["rate"]))
            # the piece's starts follow the previous row's and precede its end
            edges = starts[-1:] + seg_starts + [piece.t1]
            starts.extend(seg_starts)
            if len(rows) != len(starts) or not all(
                    lo < hi for lo, hi in zip(edges, edges[1:])):
                raise ProfileError(
                    f"{piece.form} piece on [{piece.t0}, {piece.t1}) needs one "
                    f"row per start, the starts strictly increasing inside it")
        return cls(np.asarray(starts, dtype=float), tuple(rows))

    def _rows_at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The row active at each t, and the distinct rows among them."""
        idx = np.searchsorted(self.starts, t, side="right")
        idx -= 1
        np.maximum(idx, 0, out=idx)
        present = np.flatnonzero(
            np.bincount(idx.ravel(), minlength=len(self.rows)))
        return idx, present

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """ln T on a float array, in any order."""
        idx, present = self._rows_at(t)
        if present.size == 1:
            return self.rows[present[0]](t)
        out = np.empty_like(t)
        for i in present:
            mask = idx == i
            out[mask] = self.rows[i](t[mask])
        return out

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return _row_arrays(self.rows)

    def slope_range(self, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest (ln T)' on each [lo, hi], in closed form from
        its row; no interval may cross a start.  A law's slope is
        monotone, so its extremes sit at the ends."""
        idx = self._rows_at(0.5 * (lo + hi))[0]
        cubic, coeffs, t0, width, power, rate = (x[..., idx] for x in self._arrays)
        least = np.empty_like(lo)
        most = np.empty_like(lo)
        if cubic.any():
            t0, width = t0[cubic], width[cubic]
            least[cubic], most[cubic] = _cubic_slope_range(
                coeffs[:, cubic], (lo[cubic] - t0) / width, (hi[cubic] - t0) / width)
        law = ~cubic
        if law.any():
            at_lo, at_hi = (_law_derivative(power[law], rate[law], x[law], 1)
                            for x in (lo, hi))
            least[law] = np.minimum(at_lo, at_hi)
            most[law] = np.maximum(at_lo, at_hi)
        return least, most


def _table_ranges(tables: Sequence[_SegmentTable], ends: Sequence[float]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greatest log-slope, and least and greatest curvature proxy, of each
    table up to its end, exact per row: every row is read in closed form
    on the span it is active on, the rows of all tables in one batch per
    row kind."""
    spans = []
    for k, (table, end) in enumerate(zip(tables, ends)):
        starts = table.starts.tolist()
        stops = [min(stop, end) for stop in starts[1:] + [end]]
        spans += [(k, row, lo, hi) for row, lo, hi
                  in zip(table.rows, starts, stops) if hi > lo]
    owner, rows, lo, hi = zip(*spans)
    owner, lo, hi = np.array(owner), np.array(lo), np.array(hi)
    cubic, coeffs, t0, width, power, rate = _row_arrays(rows)
    slope, least, most = np.empty((3, len(rows)))
    if cubic.any():
        coeffs, t0, width = coeffs[:, cubic], t0[cubic], width[cubic]
        u_lo = (lo[cubic] - t0) / width
        u_hi = (hi[cubic] - t0) / width
        slope[cubic] = _cubic_slope_range(coeffs, u_lo, u_hi)[1]
        least[cubic], most[cubic] = _cubic_proxy_range(coeffs, width, u_lo, u_hi)
    law = ~cubic
    if law.any():
        slope[law], least[law], most[law] = _envelope_ranges(
            power[law], rate[law], lo[law], hi[law])
    # each table's extremes over its rows; every table has a row
    firsts = np.searchsorted(owner, np.arange(len(tables)))
    return (np.maximum.reduceat(slope, firsts), np.minimum.reduceat(least, firsts),
            np.maximum.reduceat(most, firsts))


@dataclass(frozen=True)
class Profile:
    """A contiguous, strictly decreasing piecewise log-profile.  The
    pieces are its construction and serialization form; every evaluation
    reads the segment table they are compiled into on construction, and
    a piece that leaves a start without a row or the starts not strictly
    increasing raises ProfileError there.  ln T is read through
    ``log_value``, the derivatives through the rows' own ``__call__``
    (the certifier's join checks) and the table's ``slope_range`` (the
    excursion integral's panels)."""
    bounds: CurvatureBounds
    pieces: tuple[ProfilePiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ProfileError("profile needs at least one piece")
        for left, right in zip(self.pieces, self.pieces[1:]):
            gap = abs(right.t0 - left.t1)
            if gap > 1e-9 * max(1.0, abs(left.t1)):
                raise ProfileError(
                    f"pieces not contiguous at t={left.t1} (next starts {right.t0})")
        if self.pieces[-1].t1 != INF:
            raise ProfileError("final piece must extend to infinity")
        table = _SegmentTable.compile(self.pieces)
        if not isinstance(table.rows[-1], _Envelope):
            # a cubic transition extrapolated to infinity is no decay law
            raise ProfileError("final segment must be an analytic law "
                               "t^power e^{-rate t}, not a cubic transition")
        object.__setattr__(self, "_table", table)
        # validate_profile's report, made on its first call
        object.__setattr__(self, "_report", None)

    @property
    def t_start(self) -> float:
        return self.pieces[0].t0

    def final_law(self) -> tuple[float, float, float]:
        """(power, rate, start): the profile is t^power e^{-rate t} on
        [start, infinity)."""
        law = self._table.rows[-1]
        return law.power, law.rate, float(self._table.starts[-1])

    def piece_breaks(self) -> np.ndarray:
        """All interior non-smooth abscissae (piece joins and bridge
        segment joins), increasing, for use as quadrature breakpoints."""
        return self._table.starts[1:].copy()

    def log_value(self, t):
        """ln T(t) for a float or an array.  An abscissa below t_start
        within the rounding tolerance 1e-12 max(1, t_start) reads
        T(t_start); one further below raises DomainError."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < self.t_start - 1e-12 * max(1.0, self.t_start)):
            raise DomainError(
                f"profile evaluated below its start t_start={self.t_start}")
        out = self._table(np.maximum(arr, self.t_start))
        return float(out[0]) if scalar else out


# -- bridge construction ------------------------------------------------------

def _ramp_plateau_ramp(q: float, r: float, theta: float,
                       ends: tuple[tuple[float, float, float], ...]
                       ) -> tuple[dict, dict, dict]:
    """The ramp/plateau/ramp segments of ramp fraction theta on [q, r].
    ends holds ln T, (ln T)' and (ln T)'' of the left envelope at q and of
    the right one at r.  The plateau (the middle segment) has the log-slope
    coefficients (s*, 0, 0, 0)."""
    width = r - q
    (v_q, s_q, d_q), (v_r, s_r, d_r) = ends
    # the exact area constraint: the integral of sigma over [q, r] equals
    # the log-value gap between the envelopes
    s_star = ((v_r - v_q) / width
              - theta * (s_q + s_r) / 2.0
              - theta * theta * width * (d_q - d_r) / 12.0) / (1.0 - theta)

    w_ramp = theta * width
    seg1 = {
        "kind": "cubic",
        "t0": q, "t1": q + w_ramp,
        "anchor": v_q,
        "coeffs": _cubic_coeffs(s_q, s_star, d_q * w_ramp, 0.0),
    }
    a1 = seg1["anchor"] + w_ramp * _poly_integral(seg1["coeffs"])
    seg2 = {
        "kind": "cubic",
        "t0": q + w_ramp, "t1": r - w_ramp,
        "anchor": a1,
        "coeffs": (s_star, 0.0, 0.0, 0.0),
    }
    a2 = a1 + (width - 2.0 * w_ramp) * s_star
    seg3 = {
        "kind": "cubic",
        "t0": r - w_ramp, "t1": r,
        "anchor": a2,
        "coeffs": _cubic_coeffs(s_star, s_r, 0.0, d_r * w_ramp),
    }
    return seg1, seg2, seg3


def _poly_integral(coeffs: Sequence[float]) -> float:
    c0, c1, c2, c3 = coeffs
    return c0 + c1 / 2.0 + c2 / 3.0 + c3 / 4.0


# a transition band (left, right, q, r): the envelopes a bridge joins on [q, r]
_Band = tuple[_Envelope, _Envelope, float, float]


def _transition_pieces(bands: Sequence[_Band]) -> list[ProfilePiece]:
    """Bridge pieces for the transition bands (left, right, q, r), in
    order.  Each carries the admissible ramp/plateau/ramp transition of
    least curvature-proxy slack on [q, r], the earliest ramp fraction of
    the ladder among equals.

    Every ramp fraction's transition is a segment table, and the greatest
    log-slope and proxy range of each up to r are read by the certifier's
    own reader, for all bands in one batch (``_table_ranges``).  The
    monotone ones whose slack is not NaN are ranked by (proxy slack,
    ladder position), and the envelope sandwich, sampled on ``_GRID``
    points of the band, is evaluated in that order only until one passes.
    Raises BridgeConstructionError, for the first band in order that has
    none, when no ramp fraction yields a monotone, envelope-sandwiched
    transition.
    """
    if not bands:
        return []
    ends = [tuple(tuple(float(env(x, k)) for k in range(3))
                  for env, x in ((left, q), (right, r)))
            for left, right, q, r in bands]
    # each band's ladder: the segments of every ramp fraction and their table
    ladders = []
    for (_, _, q, r), band_ends in zip(bands, ends):
        ladder = []
        for theta in _THETA_LADDER:
            segments = _ramp_plateau_ramp(q, r, theta, band_ends)
            starts, kept = _active_segments(q, segments)
            ladder.append((segments, _SegmentTable(np.array(starts),
                                                   tuple(map(_row, kept)))))
        ladders.append(ladder)
    with np.errstate(all="ignore"):
        # huge rates overflow to inf here, as scalar arithmetic would
        ranges = _table_ranges([table for ladder in ladders for _, table in ladder],
                               [r for *_, r in bands for _ in _THETA_LADDER])
    ranges = [x.reshape(len(bands), -1) for x in ranges]
    return [_transition_piece(*band, band_ends, ladder, *(x[k] for x in ranges))
            for k, (band, band_ends, ladder) in enumerate(zip(bands, ends, ladders))]


def _transition_piece(left: _Envelope, right: _Envelope, q: float, r: float,
                      ends, ladder: Sequence[tuple[tuple[dict, ...], _SegmentTable]],
                      slope: np.ndarray, least: np.ndarray,
                      most: np.ndarray) -> ProfilePiece:
    """The bridge piece of one band, from its ends, its ladder's segments
    and tables, and their greatest log-slope and proxy range (see
    ``_transition_pieces``)."""
    if left == right:
        seg = {"kind": "analytic", "t0": q, "t1": r,
               "power": left.power, "rate": left.rate}
        return ProfilePiece(q, r, "bridge", {"segments": (seg,)})
    if ends[0][1] >= 0 or ends[1][1] >= 0:
        raise BridgeConstructionError(
            "envelope not decreasing at a transition endpoint")
    lo_rate = min(left.rate, right.rate)
    hi_rate = max(left.rate, right.rate)
    slack = np.maximum(np.maximum(lo_rate * lo_rate - least,
                                  most - hi_rate * hi_rate), 0.0)
    # a NaN extreme rejects the candidate; an infinite one (a proxy past
    # the float range) ranks it last, and the certificate then fails it
    admissible = np.flatnonzero((slope < 0.0) & ~np.isnan(slack))
    # the sandwich's grid and the envelopes on it do not depend on the
    # ramp fraction
    t = np.linspace(q, r, _GRID)
    at_left = left(t)
    at_right = right(t)
    lo_env = np.minimum(at_left, at_right)
    hi_env = np.maximum(at_left, at_right)
    for rank in sorted(admissible.tolist(), key=lambda k: (slack[k], k)):
        segments, table = ladder[rank]
        g = table(t)
        tol = 1e-9 * np.maximum(1.0, np.abs(g))
        if np.all(g >= lo_env - tol) and np.all(g <= hi_env + tol):
            return ProfilePiece(q, r, "bridge", {"segments": segments})
    raise BridgeConstructionError(
        f"no monotone sandwiched transition on [{q}, {r}] between "
        f"(power={left.power}, rate={left.rate}) and "
        f"(power={right.power}, rate={right.rate})")


def assemble_profile(bounds: CurvatureBounds,
                     pieces: Iterable[ProfilePiece]) -> Profile:
    """Sort pieces, verify contiguity, and wrap them in a Profile."""
    ordered = tuple(sorted(pieces, key=lambda p: p.t0))
    return Profile(bounds=bounds, pieces=ordered)


# -- validation --------------------------------------------------------------

class ValidationReport(NamedTuple):
    passed: bool
    messages: tuple[str, ...]
    ratio_range: tuple[float, float]
    implied_eps: float
    worst_join_gap: float
    worst_slope_gap: float
    convex: bool = True


def validate_profile(profile: Profile) -> ValidationReport:
    """Certify a profile, exactly per row.

    Checks: log-value continuity (relative tolerance ``_JOIN_TOL``) and
    C^1/C^2 continuity (``_SLOPE_TOL``) at every row join of the
    profile's segment table, piece joins and bridge-segment joins alike,
    each side read through its own row; finite log values at both ends
    of every row's span; strict monotone decrease; and the
    curvature-proxy window [a^2 - eps, b^2 + eps] declared by the
    profile's bounds.  The greatest log-slope and the proxy range of
    every row come from closed forms on the span the row is active on
    (``_table_ranges``), the final piece's up to infinity; a NaN or
    infinite proxy fails the profile.
    Convexity of T is implied by the window whenever eps < a^2; when the
    declared slack already admits concave stretches it is reported
    through the ``convex`` flag instead of failing.  A profile is
    certified once; later calls return the same report.
    """
    if profile._report is None:
        object.__setattr__(profile, "_report", _certify(profile))
    return profile._report


def _certify(profile: Profile) -> ValidationReport:
    msgs: list[str] = []
    a2 = profile.bounds.a ** 2
    b2 = profile.bounds.b ** 2
    eps = profile.bounds.eps
    pieces = profile.pieces
    table = profile._table
    starts = table.starts.tolist()

    # every row in orders 0-2 at both ends of its span (the last row at its
    # start only): each join compares the rows on its two sides
    at_ends = [[row(np.array(starts[i:i + 2]), order) for order in range(3)]
               for i, row in enumerate(table.rows)]
    worst = [0.0, 0.0]  # the relative log-value and derivative jumps
    for i, start in enumerate(starts[1:], 1):
        for order, (left, right) in enumerate(zip(at_ends[i - 1], at_ends[i])):
            gl = float(left[1])
            rel = abs(gl - float(right[0])) / max(1.0, abs(gl))
            worst[order > 0] = max(worst[order > 0], rel)
            if rel > (_SLOPE_TOL if order else _JOIN_TOL):
                kind = f"order-{order} derivative" if order else "log-value"
                msgs.append(f"{kind} jump {rel:.3g} at t={start}")

    # each piece's rows, a slice of the table up to the piece's end
    firsts = np.searchsorted(table.starts, [piece.t0 for piece in pieces]).tolist()
    cuts = list(zip(firsts, firsts[1:] + [len(starts)]))
    per_piece = zip(*(x.tolist() for x in _table_ranges(
        [_SegmentTable(table.starts[a:b], table.rows[a:b]) for a, b in cuts],
        [piece.t1 for piece in pieces])))

    ratio_min = INF
    ratio_max = -INF
    for piece, (a, b), (steepest, p_min, p_max) in zip(pieces, cuts, per_piece):
        if not all(np.all(np.isfinite(read[0])) for read in at_ends[a:b]):
            msgs.append(f"non-finite log value in piece at t0={piece.t0}")
            continue
        if steepest > 1e-12:
            msgs.append(f"non-decreasing log profile in piece at t0={piece.t0}")
        if not steepest < 0.0:
            msgs.append(f"log values not strictly decreasing in piece at t0={piece.t0}")
        if not (math.isfinite(p_min) and math.isfinite(p_max)):
            msgs.append(f"non-finite curvature proxy in piece at t0={piece.t0}")
            continue
        ratio_min = min(ratio_min, p_min)
        ratio_max = max(ratio_max, p_max)
        if p_min < a2 - eps - _RATIO_SLOP:
            msgs.append(
                f"curvature proxy {p_min:.6g} below "
                f"a^2 - eps = {a2 - eps:.6g} in piece at t0={piece.t0}")
        if p_max > b2 + eps + _RATIO_SLOP:
            msgs.append(
                f"curvature proxy {p_max:.6g} above "
                f"b^2 + eps = {b2 + eps:.6g} in piece at t0={piece.t0}")

    implied = max(0.0, a2 - ratio_min, ratio_max - b2)
    return ValidationReport(passed=not msgs,
                            messages=tuple(msgs),
                            ratio_range=(ratio_min, ratio_max),
                            implied_eps=implied,
                            worst_join_gap=worst[0],
                            worst_slope_gap=worst[1],
                            convex=ratio_min >= -_RATIO_SLOP)


# -- serialization ------------------------------------------------------------

_FORMAT_TAG = "cusp-profile/1"


def profile_to_text(profile: Profile) -> str:
    """Serialize to JSON text.  Floats keep full precision (shortest
    round-trip repr), so a profile rebuilt from the parsed pieces
    evaluates bit-identically."""
    doc = {
        "format": _FORMAT_TAG,
        "bounds": {"a": profile.bounds.a, "b": profile.bounds.b,
                   "n": profile.bounds.n, "eps": profile.bounds.eps},
        # tuples serialize as JSON lists
        "pieces": [{"t0": p.t0, "t1": p.t1, "form": p.form,
                    "params": dict(p.params)} for p in profile.pieces],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# -- catalog ------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogParams:
    """Parameters shared by the catalog families; each family reads the
    subset it documents and validates it.

    m           geometric spacing base for the oscillation windows
    mu          lower clamp fraction for the slow-band end (critical ids)
    rate_fast   fast decay rate b (> 2)
    beta        polynomial power of the convergent exotic tail / the fast
                band of the critical family with infinite measure
    gamma       critical-family exponent in (0, 1)
    windows     number of oscillation windows
    head / gap / fast_len / tail_start   small-t layout of the aperiodic ids
    band_ratio  multiplicative width of single-transition bands
    """
    m: int = 3
    mu: float = 1.0 / 16.0
    rate_fast: float = 3.0
    beta: float = 2.2
    gamma: float = 0.5
    windows: int = 3
    head: float = 4.0
    gap: float = 4.0
    fast_len: float = 4.0
    tail_start: float = 20.0
    band_ratio: float = 10.0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CatalogError(msg)


def _require_finite_square(p: CatalogParams) -> None:
    # certification squares the fast rate into the curvature window b^2
    _require(math.isfinite(p.rate_fast * p.rate_fast),
             f"fast rate {p.rate_fast!r} is too large: its square overflows")


# ln of the largest float, past which a window edge m^k overflows
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _require_edge_fits(who: str, m: int, k: int) -> None:
    # checked before the power is taken; an int compares exactly with a
    # float, however large it is
    _require(k < _LOG_FLOAT_MAX / math.log(m),
             f"{who} window edge m^{k} overflows a float: "
             f"m or windows is too large")


def _sparse_pieces(name: str, p: CatalogParams) -> list[ProfilePiece | _Band]:
    _require(p.m >= 3, f"{name} needs integer m >= 3")
    _require(p.rate_fast > 2.0, f"{name} needs fast rate > 2")
    _require(p.windows >= 1, "need at least one oscillation window")
    _require_edge_fits(name, p.m, 4 * p.windows + 2)
    slow = _Envelope(0.0, 1.0)
    fast = _Envelope(0.0, p.rate_fast)
    pieces: list[ProfilePiece | _Band] = []
    prev_end = 0.0
    for n in range(1, p.windows + 1):
        pn = float(p.m) ** (4 * n)
        rn_big = float(p.m) ** (4 * n + 1)
        r = (pn + rn_big) / 2.0
        q = min(2.0 * pn, (pn + r) / 2.0)
        s = (q + rn_big) / 2.0
        end = float(p.m) ** (4 * n + 2)
        _require(prev_end < q < r < s < end, "degenerate sparse window layout")
        pieces.append(pure_piece(prev_end, q, 1.0))
        pieces.append((slow, fast, q, r))
        pieces.append(pure_piece(r, s, p.rate_fast))
        pieces.append((fast, slow, s, end))
        prev_end = end
    pieces.append(pure_piece(prev_end, INF, 1.0))
    return pieces


def _tail_pieces(p: CatalogParams, power: float) -> list[ProfilePiece | _Band]:
    # unit-rate head, then one transition onto the tail t^power e^{-b t}
    _require(p.head > 0 and p.band_ratio > 1, "bad transition band")
    t0 = p.head * p.band_ratio
    _require(t0 > power / p.rate_fast, "tail must start beyond the envelope peak")
    return [pure_piece(0.0, p.head, 1.0),
            (_Envelope(0.0, 1.0), _Envelope(power, p.rate_fast), p.head, t0),
            poly_piece(t0, INF, power, p.rate_fast)]


def _exotic_conv_pieces(name: str, p: CatalogParams) -> list[ProfilePiece | _Band]:
    _require(p.rate_fast > 2.0, f"{name} needs fast rate > 2")
    _require(p.beta > 1.0, f"{name} needs power > 1")
    return _tail_pieces(p, p.beta)


def _exotic_div_pieces(name: str, p: CatalogParams) -> list[ProfilePiece | _Band]:
    _require(p.rate_fast > 2.0, f"{name} needs fast rate > 2")
    a_end = p.head
    fast_start = a_end + p.gap
    fast_end = fast_start + p.fast_len
    tail = p.tail_start
    _require(0 < a_end < fast_start < fast_end < tail,
             f"{name} needs head < fast band < tail start")
    _require(tail > 3.0 / p.rate_fast, "tail must start beyond the envelope peak")
    return [pure_piece(0.0, a_end, 1.0),
            (_Envelope(0.0, 1.0), _Envelope(0.0, p.rate_fast), a_end, fast_start),
            pure_piece(fast_start, fast_end, p.rate_fast),
            (_Envelope(0.0, p.rate_fast), _Envelope(3.0, p.rate_fast), fast_end, tail),
            poly_piece(tail, INF, 3.0, p.rate_fast)]


def _critical_pieces(p: CatalogParams, fast_power: float) -> list[ProfilePiece | _Band]:
    b = p.rate_fast
    _require(p.m >= 3, "critical ids need integer m >= 3")
    _require(b > 2.0, "critical ids need fast rate > 2")
    _require(0 < p.mu < 0.5, "mu must lie in (0, 1/2)")
    _require(p.windows >= 1, "need at least one oscillation window")
    _require_edge_fits("critical ids", p.m, 2 * p.windows + 2)
    slow = _Envelope(1.0, b / 2.0)
    fast = _Envelope(fast_power, b)
    p1 = float(p.m) ** 2
    _require(0 < p.head < p1, "head must finish before the first window")
    _require(p1 > 2.0 / b, "slow envelope must decrease on the windows")
    # Head: unit-rate law, then one transition onto the slow envelope.
    pieces = [pure_piece(0.0, p.head, 1.0),
              (_Envelope(0.0, 1.0), slow, p.head, p1)]
    for n in range(1, p.windows + 1):
        pn = float(p.m) ** (2 * n)
        rn_big = float(p.m) ** (2 * n + 1)
        r = (pn + rn_big / 2.0) / 2.0
        q = max(p.mu * rn_big, min(2.0 * pn, (pn + r) / 2.0))
        _require(q < r, f"mu={p.mu} leaves no transition band at window {n}")
        s = (q + rn_big) / 2.0
        next_p = float(p.m) ** (2 * n + 2)
        _require(s < next_p, "degenerate critical window layout")
        pieces.append(poly_piece(pn, q, 1.0, b / 2.0))
        pieces.append((slow, fast, q, r))
        pieces.append(poly_piece(r, s, fast_power, b))
        pieces.append((fast, slow, s, next_p))
    final_p = float(p.m) ** (2 * p.windows + 2)
    pieces.append(poly_piece(final_p, INF, 1.0, b / 2.0))
    return pieces


def _critical_finite_pieces(name: str, p: CatalogParams) -> list[ProfilePiece | _Band]:
    _require(0.0 < p.gamma < 1.0, "gamma must lie in (0, 1)")
    return _critical_pieces(p, 2.0 + p.gamma)


def _critical_infinite_pieces(name: str, p: CatalogParams) -> list[ProfilePiece | _Band]:
    _require(0.0 < p.gamma < 1.0, "gamma must lie in (0, 1)")
    _require(1.0 + p.gamma < p.beta < 2.0 + p.gamma,
             f"{name} needs beta in (1+gamma, 2+gamma)")
    return _critical_pieces(p, p.beta)


class _Family(NamedTuple):
    """A catalog family: ``pieces(name, params)`` checks and lays out its
    main profile from the fields ``reads``, and ``companion(params)`` the
    second perturbed cusp of a family with one, which also reads
    ``companion_reads``; a transition is laid out as its band, bridged
    when the profile is finalized."""
    pieces: Callable[[str, CatalogParams], list[ProfilePiece | _Band]]
    reads: frozenset[str]
    defaults: CatalogParams = CatalogParams()
    companion: Optional[Callable[[CatalogParams], list[ProfilePiece | _Band]]] = None
    companion_reads: frozenset[str] = frozenset()


_CRITICAL_READS = frozenset({"m", "mu", "rate_fast", "windows", "head"})
# the critical ids shorten the head so it finishes before their first
# oscillation window [m^2, m^4] at the default m = 3
_CRITICAL_DEFAULTS = CatalogParams(head=2.0)

# The catalog, in the paper's order (sections 5.2-5.4).
_FAMILIES = {
    # slow/fast pure-exponential oscillation on windows [m^{4n}, m^{4n+2}]
    "sparse-5.2": _Family(_sparse_pieces, frozenset({"m", "rate_fast", "windows"})),
    # one transition to the convergence-critical tail t^beta e^{-b t}, beta > 1
    "exotic-conv-5.3a": _Family(
        _exotic_conv_pieces, frozenset({"rate_fast", "beta", "head", "band_ratio"})),
    # fast excursion then the divergence-critical tail t^3 e^{-b t}
    "exotic-div-5.3b": _Family(_exotic_div_pieces, frozenset(
        {"rate_fast", "head", "gap", "fast_len", "tail_start"})),
    # oscillation between t e^{-(b/2) t} and t^{2+gamma} e^{-b t} on
    # windows [m^{2n}, m^{2n+2}]
    "critical-finite-5.4a": _Family(_critical_finite_pieces,
                                    _CRITICAL_READS | {"gamma"}, _CRITICAL_DEFAULTS),
    # the same layout with fast power beta in (1+gamma, 2+gamma), and a
    # companion cusp whose tail t^{1+gamma} e^{-b t} makes the relevant
    # series diverge; gamma reaches the main profile only through its
    # range checks
    "critical-infinite-5.4b": _Family(
        _critical_infinite_pieces, _CRITICAL_READS | {"beta"}, _CRITICAL_DEFAULTS,
        lambda p: _tail_pieces(p, 1.0 + p.gamma), frozenset({"gamma", "band_ratio"})),
}

CATALOG_IDS = tuple(_FAMILIES)

# the CatalogParams fields that shape each family's main profile
_PROFILE_READS = {name: family.reads for name, family in _FAMILIES.items()}


def default_catalog_params(name: str) -> CatalogParams:
    """Family-specific defaults."""
    if name not in CATALOG_IDS:
        raise CatalogError(f"unknown catalog id {name!r}; "
                           f"known ids: {', '.join(CATALOG_IDS)}")
    return _FAMILIES[name].defaults


def _round_up(x: float) -> float:
    """x >= 0.1 rounded up to ten significant digits, to within one
    rounding of the last division."""
    scale = 10.0 ** (9 - math.floor(math.log10(x)))
    return math.ceil(x * scale) / scale


def _finalize(layout: list[ProfilePiece | _Band], params: CatalogParams) -> Profile:
    # Every catalog profile requests slack 0.1.  The declared slack is
    # certified against the profile-level window [a^2, b^2], exactly per
    # row; per-transition figures (measured against the narrower local
    # rate pair) are construction diagnostics only.  It is the implied
    # slack widened by 1e-9 and rounded up to ten digits: an extreme at a
    # root of the proxy's derivative is exact only to rounding, and its
    # last bits follow the eigenvalue solver, which the profile text must
    # not.  The probe's window is open (eps = inf), and the final slack is
    # at least the implied one, so the window, the one check that reads
    # eps, passes on both: the final profile's report is the probe's.
    bands = [item for item in layout if not isinstance(item, ProfilePiece)]
    bridges = iter(_transition_pieces(bands))
    pieces = [item if isinstance(item, ProfilePiece) else next(bridges)
              for item in layout]
    bounds = CurvatureBounds(a=1.0, b=params.rate_fast, n=2, eps=INF)
    probe = assemble_profile(bounds, pieces)
    report = validate_profile(probe)
    eps = _round_up(max(0.1, report.implied_eps * (1.0 + 1e-9)))
    profile = replace(probe, bounds=replace(bounds, eps=eps))
    object.__setattr__(profile, "_report", report)
    return profile


def catalog_profile(name: str, params: CatalogParams | None = None) -> Profile:
    """Construct the named catalog profile (the families are described
    in ``_FAMILIES``).

    The returned profile's bounds record the achieved pinching slack when
    it exceeds the requested 0.1; narrow desk-scale bands are valid but
    carry large slack, while wide bands (large m, small mu, large
    band_ratio) reach slack <= 0.1.
    """
    defaults = default_catalog_params(name)  # rejects an unknown id
    params = params or defaults
    _require_finite_square(params)
    return _finalize(_FAMILIES[name].pieces(name, params), params)


def catalog_companions(name: str,
                       params: CatalogParams | None = None) -> tuple[Profile, ...]:
    """Additional perturbed-cusp profiles of the named example lattice:
    one for a family with a companion, none otherwise."""
    defaults = default_catalog_params(name)  # rejects an unknown id
    companion = _FAMILIES[name].companion
    if companion is None:
        return ()
    params = params or defaults
    _require_finite_square(params)
    return (_finalize(companion(params), params),)
