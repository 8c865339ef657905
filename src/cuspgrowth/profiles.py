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
monotonicity, curvature proxy sigma' + sigma^2 and envelope sandwich are
certified rather than assumed: all three are read exactly, row by row,
from closed forms (the proxy of a cubic row is a degree-6 polynomial whose
extremes sit at the row's ends or at real roots of its derivative, and
t times the slope gap to an envelope is a polynomial of degree 4).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (BridgeConstructionError, CatalogError, CuspGrowthError,
                     DomainError, ProfileError)

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
    "catalog_profiles",
    "catalog_profile",
    "catalog_companions",
]

INF = float("inf")

# Ramp fractions attempted for the transition construction, best survivor
# wins.  Wide ramps first (gentler curvature), then progressively thinner
# ramps, which lower the plateau overhead when the value gap is tight.
_THETA_LADDER = (0.25, 0.5, 0.125, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256)

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


def _check_law(power: float, rate: float) -> None:
    # written so that a NaN or an infinity fails each check
    if not 0 < rate < INF:
        raise DomainError("envelope rate must be positive and finite")
    if not 0 <= power < INF:
        raise DomainError("envelope power must be nonnegative and finite")


@dataclass(frozen=True)
class _Envelope:
    """Analytic law t^power * exp(-rate * t), the envelope on one side
    of a transition band."""
    power: float
    rate: float

    def __post_init__(self) -> None:
        _check_law(self.power, self.rate)


def _law(power, rate, t, order: int = 0):
    """ln of the laws t^power e^{-rate t} (order 0), or their first
    (power/t - rate) or second (-power/t^2) derivative, the arguments
    broadcast together.  Power 0 is the pure law, without the log: -rate t,
    -rate and +0.0.  t * t overflows at depths near the float range, where
    -0.0 is the limit."""
    with np.errstate(all="ignore"):
        if order == 0:
            # power ln t + (-rate t) is power ln t - rate t, bit for bit
            value = -rate * t
            power_law = power != 0.0
            if np.all(power_law):
                value += power * np.log(t)
            elif np.any(power_law):
                value = np.where(power_law, power * np.log(t) + value, value)
            return value
        if order == 1:
            return np.where(power == 0.0, -rate, power / t - rate)
        return np.where(power == 0.0, 0.0, -power / (t * t))


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


def _real_roots(poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real parts of the roots of each polynomial of degree at most d
    (a row of d + 1 coefficients, highest power first), and whether its
    coefficients are finite.  One batched companion-matrix eigenvalue
    solve serves every row; a polynomial of lower degree k is solved as
    its product with u^(d-k), whose added roots are zeros, and a vanishing
    or non-finite one is not solved and reads d zeros."""
    d = poly.shape[-1] - 1
    with np.errstate(all="ignore"):
        # a leading coefficient below 1e-150 of the largest one counts as
        # zero: the roots it carries lie beyond 1e30 in u, off the span
        size = np.abs(poly)
        nonzero = size > 1e-150 * size.max(axis=-1, keepdims=True)
        lead = np.argmax(nonzero, axis=-1)
        if lead.any():
            # rolling the leading zeros to the end multiplies by u^(d-k)
            poly = np.take_along_axis(
                poly, (np.arange(d + 1) + lead[:, None]) % (d + 1), -1)
    solved = np.any(nonzero, axis=-1)
    companion = np.zeros((np.count_nonzero(solved), d, d))
    companion[:, 0] = poly[solved, 1:] / -poly[solved, :1]
    companion[:, range(1, d), range(d - 1)] = 1.0
    roots = np.zeros((len(solved), d))
    roots[solved] = np.linalg.eigvals(companion).real
    return roots, np.isfinite(size.max(axis=-1))


def _cubic_proxy_range(coeffs, width, u_lo, u_hi):
    """Least and greatest curvature proxy (ln T)'' + (ln T)'^2 of cubic
    rows on [u_lo, u_hi], NaN for a row whose proxy's derivative leaves
    the float range.  Row i has the log-slope
    sigma = c0 + c1 u + c2 u^2 + c3 u^3 in u = (t - t0)/width[i], the four
    coefficients given as arrays over the rows.

    The proxy sigma'/width + sigma^2 is a polynomial of degree 6 in u, so
    its extremes sit at the ends or at real roots of its derivative
    sigma''/width + 2 sigma sigma', of degree 5 (``_real_roots``).  The
    real part of each root, clipped to the span, is a candidate: a
    complex or an added root only adds a point of the span.  On the
    plateau (s*, 0, 0, 0) of finite s* the derivative vanishes and every
    candidate reads sigma = s* and sigma' = +0.0 (each nested sum is +0.0
    in round-to-nearest), so the proxy is s*^2 exactly.
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
    roots, finite = _real_roots(deriv)
    u = np.column_stack([u_lo, u_hi, roots])
    np.clip(u, u_lo[:, None], u_hi[:, None], out=u)
    coeffs = coeffs[:, :, None]
    with np.errstate(all="ignore"):
        d1 = _cubic_derivative(coeffs, u, 1)
        proxy = _cubic_derivative(coeffs, u, 2, width[:, None]) + d1 * d1
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
        d1 = _law(power, rate, t, 1)
        proxy = _law(power, rate, t, 2) + d1 * d1
    return np.max(d1[:2], axis=0), np.min(proxy, axis=0), np.max(proxy, axis=0)


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


# -- the segment table ---------------------------------------------------------

def _cubic_coeffs(y0, y1, m0, m1):
    """Hermite cubic on [0, 1] with end values y0, y1 and end slopes m0,
    m1; the arguments broadcast together."""
    d = y1 - y0
    return (y0, m0, 3.0 * d - 2.0 * m0 - m1, -2.0 * d + m0 + m1)


def _active_segments(t0: float, segments: Sequence[Mapping]
                     ) -> tuple[list[float], list[Mapping]]:
    """The starts and segments of the rows of a bridge piece that begins
    at t0: a zero-width segment is active nowhere and gets no row, and the
    first row starts at t0."""
    kept = [seg for seg in segments if seg["t1"] > seg["t0"]]
    return [t0] + [seg["t0"] for seg in kept[1:]], kept


def _law_row(power: float, rate: float) -> tuple[float, ...]:
    """The segment-table row of the law t^power e^{-rate t}."""
    _check_law(power, rate)
    return (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, power, rate)


class _SegmentTable(NamedTuple):
    """Rows of analytic laws and cubic transitions, stored as columns.

    Row i is active from ``starts[i]`` to the next start.  It is a cubic
    transition where ``cubic[i]``: its log-slope is the cubic
    c0 + c1 u + c2 u^2 + c3 u^3 (``coeffs[:, i]``) in
    u = (t - t0[i])/width[i], with ln value ``anchor[i]`` at t0[i].  It is
    the law t^power[i] e^{-rate[i] t} otherwise.  A column of the other
    kind of row reads 0 (1 for a width or a rate).

    A profile's table (``compile``) flattens the segments of its pieces
    in order: a piece's first row starts at the piece's own t0, the first
    and last rows extend past the ends, and there is one row per start,
    the starts strictly increasing.  A zero-width segment (a transition
    whose plateau has no room) is active nowhere and gets no row, and
    ``compile`` raises ProfileError for a piece that would break this.
    The bridge ladder's table holds every candidate transition of a
    profile; its starts increase only within each candidate's rows.

    ``read`` is the one point evaluator: it reads ln T and its first two
    derivatives, each point on a given row, in one gather per row kind.
    ``taylor`` expands ln T about a point of a given row, for the
    excursion integral's panels.
    """
    starts: np.ndarray
    cubic: np.ndarray
    t0: np.ndarray
    width: np.ndarray
    anchor: np.ndarray
    coeffs: np.ndarray
    power: np.ndarray
    rate: np.ndarray

    @classmethod
    def compile(cls, pieces: Sequence[ProfilePiece]) -> "_SegmentTable":
        starts: list[float] = []
        # (cubic flag, t0, width, anchor, c0, c1, c2, c3, power, rate) per row
        rows: list[tuple[float, ...]] = []
        for piece in pieces:
            if piece.form == "bridge":
                seg_starts, segs = _active_segments(piece.t0,
                                                    piece.params["segments"])
                rows.extend(_law_row(seg["power"], seg["rate"])
                            if seg["kind"] == "analytic" else
                            (1.0, seg["t0"], seg["t1"] - seg["t0"], seg["anchor"],
                             *seg["coeffs"], 0.0, 1.0) for seg in segs)
            else:
                seg_starts = [piece.t0]
                rows.append(_law_row(piece.params.get("power", 0.0),
                                     piece.params["rate"]))
            # the piece's starts follow the previous row's and precede its end
            edges = starts[-1:] + seg_starts + [piece.t1]
            starts.extend(seg_starts)
            if len(rows) != len(starts) or not all(
                    lo < hi for lo, hi in zip(edges, edges[1:])):
                raise ProfileError(
                    f"{piece.form} piece on [{piece.t0}, {piece.t1}) needs one "
                    f"row per start, the starts strictly increasing inside it")
        cols = np.array(rows, dtype=float).T.copy()
        return cls(np.array(starts, dtype=float), cols[0] != 0.0, *cols[1:4],
                   cols[4:8], *cols[8:])

    def rows_at(self, t: np.ndarray) -> np.ndarray:
        """The row active at each t: the number of later starts at or
        below it (the first row below the first start)."""
        return np.searchsorted(self.starts[1:], t, side="right")

    def read(self, idx, t: np.ndarray, order: int = 0) -> np.ndarray:
        """ln T (order 0) or its derivative of that order at t, each t
        read on row idx, an array shaped like t or one row's index."""
        cubic = self.cubic.take(idx)
        if not cubic.any():
            return _law(self.power.take(idx), self.rate.take(idx), t, order)
        if cubic.all():
            return self._read_cubic(idx, t, order)
        out = np.empty(np.shape(t))
        law = ~cubic
        out[cubic] = self._read_cubic(idx[cubic], t[cubic], order)
        idx = idx[law]
        out[law] = _law(self.power.take(idx), self.rate.take(idx), t[law], order)
        return out

    def _read_cubic(self, idx, t, order):
        width = self.width.take(idx)
        u = (t - self.t0.take(idx)) / width
        coeffs = self.coeffs.take(idx, axis=1)
        if order:
            return _cubic_derivative(coeffs, u, order, width)
        c0, c1, c2, c3 = coeffs
        integ = u * (c0 + u * (c1 / 2.0 + u * (c2 / 3.0 + u * c3 / 4.0)))
        return self.anchor.take(idx) + width * integ

    def taylor(self, idx, c: np.ndarray, h: Optional[np.ndarray] = None
               ) -> np.ndarray:
        """The 5 coefficients, a (5, ...) array, of the polynomial part
        of ln T(c + h x) in x, each expansion on row idx: the whole of a
        cubic row's quartic, and the -rate t of a law row, whose
        power ln t the caller adds.  Law rows read width 1, t0 0, anchor
        0 and coefficients 0, so one formula serves both kinds, without
        masks.  Coefficient 0 is ``read``'s value, bit for bit but for
        the sign of a zero; with h None it alone is computed, a (1, ...)
        array."""
        width = self.width.take(idx)
        u = (c - self.t0.take(idx)) / width
        c0, c1, c2, c3 = self.coeffs.take(idx, axis=1)
        law_rate = np.where(self.cubic, 0.0, self.rate).take(idx)
        out = np.empty((1 if h is None else 5,) + np.shape(u))
        # ln T = anchor + width P(u) - law_rate t, with P' the log-slope
        # cubic; coefficient k is width P^(k)(u) s^k / k!, s = h / width
        value = u * (c0 + u * (c1 / 2.0 + u * (c2 / 3.0 + u * c3 / 4.0)))
        out[0] = self.anchor.take(idx) + width * value - law_rate * c
        if h is not None:
            s = h / width
            out[1] = h * (c0 + u * (c1 + u * (c2 + u * c3)) - law_rate)
            out[2] = h * s * (c1 / 2.0 + u * (c2 + u * 1.5 * c3))
            out[3] = h * s * s * (c2 / 3.0 + u * c3)
            out[4] = h * s * s * s * (c3 / 4.0)
        return out

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """ln T on a float array, in any order."""
        return self.read(self.rows_at(t), t)

    def slope_range(self, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest (ln T)' on each [lo, hi], in closed form from
        its row; no interval may cross a start.  A law's slope is
        monotone, so its extremes sit at the ends."""
        idx = self.rows_at(0.5 * (lo + hi))
        cubic = self.cubic[idx]
        least = np.empty_like(lo)
        most = np.empty_like(lo)
        if cubic.any():
            i = idx[cubic]
            t0, width = self.t0[i], self.width[i]
            least[cubic], most[cubic] = _cubic_slope_range(
                self.coeffs[:, i], (lo[cubic] - t0) / width, (hi[cubic] - t0) / width)
        law = ~cubic
        if law.any():
            i = idx[law]
            at_lo, at_hi = (_law(self.power[i], self.rate[i], x[law], 1)
                            for x in (lo, hi))
            least[law] = np.minimum(at_lo, at_hi)
            most[law] = np.maximum(at_lo, at_hi)
        return least, most


def _row_spans(table: _SegmentTable, owner: np.ndarray,
               ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's span: from its start to the next row's start if the
    two rows have the same owner, and at most to its owner's end."""
    starts = table.starts
    stops = np.append(np.where(owner[1:] == owner[:-1], starts[1:], INF), INF)
    return starts, np.minimum(stops, ends[owner])


def _table_ranges(table: _SegmentTable, owner: np.ndarray, ends: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greatest log-slope, and least and greatest curvature proxy, of the
    rows of each owner, exact per row: the rows of owner k, consecutive
    in the table, are read in closed form on their spans
    (``_row_spans``) up to ``ends[k]``.  One batch per row kind serves
    every row; each owner needs a row of positive span."""
    lo, hi = _row_spans(table, owner, ends)
    rows = np.flatnonzero(hi > lo)
    lo, hi = lo[rows], hi[rows]
    cubic = table.cubic[rows]
    slope, least, most = np.empty((3, rows.size))
    if cubic.any():
        i = rows[cubic]
        coeffs, t0, width = table.coeffs[:, i], table.t0[i], table.width[i]
        u_lo = (lo[cubic] - t0) / width
        u_hi = (hi[cubic] - t0) / width
        slope[cubic] = _cubic_slope_range(coeffs, u_lo, u_hi)[1]
        least[cubic], most[cubic] = _cubic_proxy_range(coeffs, width, u_lo, u_hi)
    law = ~cubic
    if law.any():
        i = rows[law]
        slope[law], least[law], most[law] = _envelope_ranges(
            table.power[i], table.rate[i], lo[law], hi[law])
    firsts = np.searchsorted(owner[rows], np.arange(len(ends)))
    return (np.maximum.reduceat(slope, firsts), np.minimum.reduceat(least, firsts),
            np.maximum.reduceat(most, firsts))


@dataclass(frozen=True)
class Profile:
    """A contiguous, strictly decreasing piecewise log-profile.  The
    pieces are its construction and serialization form; every evaluation
    reads the columnar segment table they are compiled into on
    construction, and a piece that leaves a start without a row or the
    starts not strictly increasing raises ProfileError there.  ln T is
    read through ``log_value``, which refuses an abscissa that is NaN,
    infinite or below the start; the certificate reads the table's
    ``read`` in orders 0-2 and the excursion integral its ``taylor`` and
    ``slope_range``."""
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
        if table.cubic[-1]:
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
        table = self._table
        return float(table.power[-1]), float(table.rate[-1]), float(table.starts[-1])

    def piece_breaks(self) -> np.ndarray:
        """All interior non-smooth abscissae (piece joins and bridge
        segment joins), increasing, for use as quadrature breakpoints."""
        return self._table.starts[1:].copy()

    def log_value(self, t):
        """ln T(t) for a float or an array.  An abscissa below t_start
        within the rounding tolerance 1e-12 max(1, t_start) reads
        T(t_start); one further below, a NaN or an infinity raises
        DomainError."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        floor = self.t_start - 1e-12 * max(1.0, self.t_start)
        least = arr.min(initial=INF)
        # written so that a NaN, which the extremes propagate, fails it
        if not (least >= floor and arr.max(initial=-INF) < INF):
            bad = float(arr[~((arr >= floor) & (arr < INF))].flat[0])
            why = (f"below its start t_start={self.t_start}" if math.isfinite(bad)
                   else "not a finite abscissa")
            raise DomainError(f"profile evaluated at t={bad}, {why}")
        if least < self.t_start:
            arr = np.maximum(arr, self.t_start)
        out = self._table(arr)
        return float(out[0]) if scalar else out


# -- bridge construction ------------------------------------------------------

def _ramp_plateau_ramp(q, r, theta, ends) -> np.ndarray:
    """The ramp/plateau/ramp segments of ramp fraction theta on [q, r], as
    the array of fields (t0, t1, anchor, c0, c1, c2, c3) by segment: shape
    (7, 3) plus the shape that the arguments broadcast to.  ends holds
    ln T, (ln T)' and (ln T)'' of the left envelope at q and of the right
    one at r.  The plateau (the middle segment) has the log-slope
    coefficients (s*, 0, 0, 0)."""
    width = r - q
    (v_q, s_q, d_q), (v_r, s_r, d_r) = ends
    # the exact area constraint: the integral of sigma over [q, r] equals
    # the log-value gap between the envelopes
    s_star = ((v_r - v_q) / width
              - theta * (s_q + s_r) / 2.0
              - theta * theta * width * (d_q - d_r) / 12.0) / (1.0 - theta)
    w_ramp = theta * width
    ramp_in = _cubic_coeffs(s_q, s_star, d_q * w_ramp, 0.0)
    a1 = v_q + w_ramp * _poly_integral(ramp_in)
    a2 = a1 + (width - 2.0 * w_ramp) * s_star
    ramp_out = _cubic_coeffs(s_star, s_r, 0.0, d_r * w_ramp)
    fields = ((q, q + w_ramp, r - w_ramp), (q + w_ramp, r - w_ramp, r), (v_q, a1, a2),
              *zip(ramp_in, (s_star, 0.0, 0.0, 0.0), ramp_out))
    out = np.empty((7, 3) + np.shape(s_star))
    for i, field in enumerate(fields):
        for j, x in enumerate(field):
            out[i, j] = x
    return out


def _poly_integral(coeffs):
    c0, c1, c2, c3 = coeffs
    return c0 + c1 / 2.0 + c2 / 3.0 + c3 / 4.0


# a transition band (left, right, q, r): the envelopes a bridge joins on [q, r]
_Band = tuple[_Envelope, _Envelope, float, float]


class _Ladder(NamedTuple):
    """Every ramp fraction's transition on each band [q, r], as one
    segment table.  Candidate k = band * len(_THETA_LADDER) + ladder
    position owns the rows with ``owner`` k, and
    ``segments[:, :, band, position]`` are its three segments' fields
    (``_ramp_plateau_ramp``).  ``laws`` holds the power and rate of each
    band's left and right envelope, and ``ends`` their ln T, (ln T)' and
    (ln T)'' at q and at r."""
    table: _SegmentTable
    owner: np.ndarray
    segments: np.ndarray
    laws: np.ndarray
    q: np.ndarray
    r: np.ndarray
    ends: np.ndarray

    def spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's span, up to its band's r."""
        return _row_spans(self.table, self.owner,
                          np.repeat(self.r, len(_THETA_LADDER)))


def _ladder(bands: Sequence[_Band]) -> _Ladder:
    """The ladder of the bands (left, right, q, r), in array passes."""
    laws = np.array([(left.power, left.rate, right.power, right.rate)
                     for left, right, _, _ in bands]).T
    q, r = np.array([band[2:] for band in bands], dtype=float).T
    # ln T, (ln T)' and (ln T)'' of the left law at q and the right one at r
    ends = np.array([_law(laws[0::2], laws[1::2], np.array([q, r]), order)
                     for order in range(3)]).swapaxes(0, 1)
    with np.errstate(all="ignore"):
        # huge rates overflow to inf here, as scalar arithmetic would
        segments = _ramp_plateau_ramp(q[:, None], r[:, None], np.array(_THETA_LADDER),
                                      ends[:, :, :, None])
    # the rows of every candidate in (band, ladder position, segment) order;
    # a zero-width segment gets no row, and the first row starts at q
    fields = np.moveaxis(segments, 1, -1).reshape(7, -1, 3)
    kept = fields[1] > fields[0]
    first = kept & (np.cumsum(kept, axis=1) == 1)
    starts = np.where(first, np.repeat(q, len(_THETA_LADDER))[:, None], fields[0])
    t0, t1, anchor, *coeffs = fields[:, kept]
    zero = np.zeros_like(t0)
    table = _SegmentTable(starts[kept], zero == 0.0, t0, t1 - t0, anchor,
                          np.array(coeffs), zero, zero + 1.0)
    return _Ladder(table, np.nonzero(kept)[0], segments, laws, q, r, ends)


def _envelope_crossings(laws: np.ndarray, q: np.ndarray,
                        r: np.ndarray) -> np.ndarray:
    """The abscissae in [q, r] where each band's two envelopes cross, two
    per band, NaN where there is none.  Their log gap
    f = (p_l - p_r) ln t - (c_l - c_r) t has one critical point, at
    t = (p_l - p_r)/(c_l - c_r), so it is monotone on either side of it
    and vanishes at most once on each; each zero is bisected down to
    adjacent floats."""
    dp = laws[0] - laws[2]
    dc = laws[1] - laws[3]

    def gap(band, t):
        return dp[band] * np.log(t) - dc[band] * t

    with np.errstate(all="ignore"):
        turn = np.clip(dp / dc, q, r)
        a = np.stack([q, np.where(np.isnan(turn), q, turn)], axis=-1)
        b = np.stack([a[:, 1], r], axis=-1)
        every = np.arange(q.size)[:, None]
        sign = np.sign(gap(every, a))
        live = ((sign * np.sign(gap(every, b)) <= 0.0)
                & ((dp != 0.0) | (dc != 0.0))[:, None])
        band, side = np.nonzero(live)
        lo, hi, sign = a[band, side], b[band, side], sign[band, side]
        while True:
            mid = 0.5 * (lo + hi)
            inside = (lo < mid) & (mid < hi)
            if not inside.any():
                break
            past = np.sign(gap(band, mid)) != sign
            hi = np.where(inside & past, mid, hi)
            lo = np.where(inside & ~past, mid, lo)
    crossings = np.full((q.size, 2), np.nan)
    crossings[band, side] = lo
    return crossings


def _sandwich(ladder: _Ladder, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """ln T and the lower and upper envelope at the points of each given
    row of the ladder, on its span, among which ln T minus either
    envelope takes its extremes, each shaped (rows, 12).

    The points are the span's ends, the two crossings of the envelopes
    (``_envelope_crossings``; an absent one reads the start) and the four
    roots of t (ln T - law)' for each envelope, each clipped to the span.
    On a cubic row, t = t0 + width u and (ln T - law)' is
    sigma(u) - p/t + c, so t (ln T - law)' is the polynomial
    t sigma(u) + c t - p of degree 4 in u, solved by ``_real_roots``.  A
    row whose polynomial leaves the float range reads NaN points.
    Between two crossings one envelope is the lower, so the deficit
    under it and the excess over the other take their extremes among
    these points: checking there is checking everywhere."""
    table = ladder.table
    lo, hi = (x[rows] for x in ladder.spans())
    band = ladder.owner[rows] // len(_THETA_LADDER)
    t0, width = table.t0[rows], table.width[rows]
    c0, c1, c2, c3 = table.coeffs[:, rows]
    # the left and the right envelope of each row
    power, rate = ladder.laws[0::2, band], ladder.laws[1::2, band]
    poly = np.empty((2, rows.size, 5))
    with np.errstate(all="ignore"):
        poly[:, :, 0] = width * c3
        poly[:, :, 1] = t0 * c3 + width * c2
        poly[:, :, 2] = t0 * c2 + width * c1
        poly[:, :, 3] = t0 * c1 + width * (c0 + rate)
        poly[:, :, 4] = t0 * (c0 + rate) - power
        roots, finite = _real_roots(poly.reshape(-1, 5))
        at_roots = t0[:, None] + width[:, None] * roots.reshape(2, -1, 4)
    crossing = _envelope_crossings(ladder.laws, ladder.q, ladder.r)[band]
    t = np.column_stack([lo, hi, np.where(np.isnan(crossing), lo[:, None], crossing),
                         *at_roots])
    np.clip(t, lo[:, None], hi[:, None], out=t)
    t[~finite.reshape(2, -1).all(axis=0)] = np.nan
    g = table.read(np.broadcast_to(rows[:, None], t.shape), t)
    left, right = _law(power[:, :, None], rate[:, :, None], t)
    return g, np.minimum(left, right), np.maximum(left, right)


def _transition_pieces(bands: Sequence[_Band]
                       ) -> list[ProfilePiece | BridgeConstructionError]:
    """Bridge pieces for the transition bands (left, right, q, r), in
    order.  Each carries the admissible ramp/plateau/ramp transition of
    least curvature-proxy slack on [q, r], the earliest ramp fraction of
    the ladder among equals.

    Every band is ranked and checked on its own, so the bands of any
    number of profiles make one ladder: ``catalog_profiles`` passes
    every band of a catalog batch at once.  Every (band, ramp fraction)
    candidate is a set of rows in one ladder table (``_ladder``), built
    in array passes, and the greatest log-slope and proxy range of each
    up to r are read by the certifier's own reader (``_table_ranges``).  The monotone candidates whose slack is not NaN
    are ranked by (proxy slack, ladder position).  The envelope sandwich
    is exact: ln T must lie between the two envelopes, within
    1e-9 max(1, |ln T|), at every point where its gap to either can take
    an extreme (``_sandwich``).  It is checked for the best-ranked
    candidate of every band at once, then for the next one of the bands
    still open, until each band has one.  A band that has none, where no
    ramp fraction yields a monotone, envelope-sandwiched transition or an
    envelope rises at an end, gets the BridgeConstructionError that
    names it in place of its piece, for the caller to raise.
    """
    if not bands:
        return []
    ladder = _ladder(bands)
    laws = ladder.laws
    (_, s_q, _), (_, s_r, _) = ladder.ends
    with np.errstate(all="ignore"):
        # huge rates overflow to inf here, as scalar arithmetic would
        slope, least, most = (x.reshape(len(bands), -1) for x in _table_ranges(
            ladder.table, ladder.owner, np.repeat(ladder.r, len(_THETA_LADDER))))
        lo_rate = np.minimum(laws[1], laws[3])[:, None]
        hi_rate = np.maximum(laws[1], laws[3])[:, None]
        slack = np.maximum(np.maximum(lo_rate * lo_rate - least,
                                      most - hi_rate * hi_rate), 0.0)
    # a NaN extreme rejects the candidate; an infinite one (a proxy past
    # the float range) ranks it last, and the certificate then fails it
    admissible = (slope < 0.0) & ~np.isnan(slack)
    ranked = np.argsort(np.where(admissible, slack, np.nan), axis=1, kind="stable")
    same = [left == right for left, right, _, _ in bands]
    rising = (s_q >= 0) | (s_r >= 0)
    choice = np.full(len(bands), -1)
    lo, hi = ladder.spans()
    open_bands = np.flatnonzero(~np.array(same) & ~rising & admissible.any(axis=1))
    for rank in range(len(_THETA_LADDER)):
        if not open_bands.size:
            break
        candidates = open_bands * len(_THETA_LADDER) + ranked[open_bands, rank]
        chosen = np.zeros(admissible.size, dtype=bool)
        chosen[candidates] = True
        rows = np.flatnonzero(chosen[ladder.owner] & (hi > lo))
        g, lo_env, hi_env = _sandwich(ladder, rows)
        tol = 1e-9 * np.maximum(1.0, np.abs(g))
        inside = (g >= lo_env - tol) & (g <= hi_env + tol)
        fails = np.bincount(np.searchsorted(candidates, ladder.owner[rows]),
                            weights=np.count_nonzero(~inside, axis=1),
                            minlength=candidates.size)
        choice[open_bands[fails == 0]] = ranked[open_bands[fails == 0], rank]
        open_bands = open_bands[(fails > 0)
                                & (admissible[open_bands].sum(axis=1) > rank + 1)]
    return [_transition_piece(band, rank, ladder.segments[:, :, k, rank].tolist(),
                              same[k], rising[k])
            for k, (band, rank) in enumerate(zip(bands, choice.tolist()))]


def _transition_piece(band: _Band, rank: int, fields: list, same: bool,
                      rising: bool) -> ProfilePiece | BridgeConstructionError:
    """The bridge piece of one band, or the error that says why it has
    none, from its ladder's choice (-1 for none) and the fields of the
    chosen segments (``_transition_pieces``)."""
    left, right, q, r = band
    if same:
        seg = {"kind": "analytic", "t0": q, "t1": r,
               "power": left.power, "rate": left.rate}
        return ProfilePiece(q, r, "bridge", {"segments": (seg,)})
    if rising:
        return BridgeConstructionError(
            "envelope not decreasing at a transition endpoint")
    if rank < 0:
        return BridgeConstructionError(
            f"no monotone sandwiched transition on [{q}, {r}] between "
            f"(power={left.power}, rate={left.rate}) and "
            f"(power={right.power}, rate={right.rate})")
    t0, t1, anchor, *coeffs = fields
    # the band's own q and r bound the bridge
    t0[0], t1[2] = q, r
    segments = tuple({"kind": "cubic", "t0": a, "t1": b, "anchor": v, "coeffs": c}
                     for a, b, v, c in zip(t0, t1, anchor, zip(*coeffs)))
    return ProfilePiece(q, r, "bridge", {"segments": segments})


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
    each side read on its own row; finite log values at both ends of
    every row's span; strict monotone decrease; and the curvature-proxy
    window [a^2 - eps, b^2 + eps] declared by the profile's bounds.  The
    greatest log-slope and the proxy range of every row come from closed
    forms on the span the row is active on (``_table_ranges``), the final
    piece's up to infinity; a NaN or infinite proxy fails the profile.
    Convexity of T is implied by the window whenever eps < a^2; when the
    declared slack already admits concave stretches it is reported
    through the ``convex`` flag instead of failing.  A profile is
    certified once; later calls return the same report.
    ``catalog_profiles`` certifies every profile of a catalog batch in
    one pass (``_certify``), bit for bit as one at a time, so its
    profiles arrive here certified.
    """
    if profile._report is None:
        object.__setattr__(profile, "_report", _certify([profile])[0])
    return profile._report


def _certify(profiles: Sequence[Profile]) -> list[ValidationReport]:
    """The report of each profile, from one read pass per order and one
    ``_table_ranges`` pass over all their tables, stacked: the rows of
    every profile are owned by (profile, piece), and each join is read
    between two rows of one profile."""
    if not profiles:
        return []
    tables = [profile._table for profile in profiles]
    sizes = np.array([table.starts.size for table in tables])
    offsets = np.cumsum(sizes) - sizes
    table = _SegmentTable(*(np.concatenate(cols, axis=-1)
                            for cols in zip(*tables)))
    n = table.starts.size

    # every row in orders 0-2 at its start, then every row but a profile's
    # last at the next row's start, in one pass per order
    inner = np.ones(n, dtype=bool)
    inner[offsets + sizes - 1] = False
    before = np.flatnonzero(inner)
    at = np.concatenate([np.arange(n), before])
    reads = np.array([table.read(at, np.concatenate([table.starts, table.starts[before + 1]]),
                                 order) for order in range(3)])
    # each join compares the rows on its two sides, both of one profile
    left, right = reads[:, n:], reads[:, before + 1]
    with np.errstate(all="ignore"):
        # an infinite side reads a NaN jump, as scalar arithmetic would
        rel = np.abs(left - right) / np.maximum(1.0, np.abs(left))

    # each piece owns its rows, a slice of its profile's table up to the
    # piece's end
    pieces = [piece for profile in profiles for piece in profile.pieces]
    counts = [len(profile.pieces) for profile in profiles]
    firsts = np.concatenate([o + np.searchsorted(t.starts, [p.t0 for p in prof.pieces])
                             for o, t, prof in zip(offsets.tolist(), tables, profiles)])
    owner = np.repeat(np.arange(len(pieces)), np.diff(firsts, append=n))
    non_finite = np.bincount(owner[at], weights=~np.isfinite(reads[0]),
                             minlength=len(pieces))
    ranges = np.array(_table_ranges(table, owner,
                                    np.array([piece.t1 for piece in pieces])))
    cuts = np.cumsum(counts)[:-1]
    return [_report(profile, *parts) for profile, *parts in zip(
        profiles, np.split(rel, np.cumsum(sizes - 1)[:-1], axis=1),
        np.split(non_finite, cuts), np.split(ranges, cuts, axis=1))]


def _report(profile: Profile, rel: np.ndarray, non_finite: np.ndarray,
            ranges: np.ndarray) -> ValidationReport:
    """A profile's report from its relative join jumps (orders 0-2 by
    join), and by piece its count of non-finite reads and its steepest
    slope, least and greatest proxy (``ranges``, 3 by piece)."""
    msgs: list[str] = []
    a2 = profile.bounds.a ** 2
    b2 = profile.bounds.b ** 2
    eps = profile.bounds.eps
    # the relative log-value and derivative jumps; a NaN one is no worst
    worst = [float(np.fmax.reduce(x, axis=None, initial=0.0)) for x in (rel[0], rel[1:])]
    tol = np.array([[_JOIN_TOL], [_SLOPE_TOL], [_SLOPE_TOL]])
    starts = profile._table.starts.tolist()
    rel_list = rel.tolist()
    for i, order in np.argwhere((rel > tol).T).tolist():
        kind = f"order-{order} derivative" if order else "log-value"
        msgs.append(f"{kind} jump {rel_list[order][i]:.3g} at t={starts[i + 1]}")

    ratio_min = INF
    ratio_max = -INF
    for piece, bad, (steepest, p_min, p_max) in zip(profile.pieces, non_finite.tolist(),
                                                    ranges.T.tolist()):
        if bad:
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


def _layouts(families: Sequence[tuple[str, CatalogParams | None]], *,
             main: bool, companions: bool):
    """Check and lay out the profiles of each (name, params) family in
    order, its main profile if ``main`` and its companion if
    ``companions``: yields (family index, layout, params), each layout
    checked only once the ones before it are laid out."""
    for k, (name, params) in enumerate(families):
        defaults = default_catalog_params(name)  # rejects an unknown id
        family = _FAMILIES[name]
        params = params or defaults
        if main:
            _require_finite_square(params)
            yield k, family.pieces(name, params), params
        if companions and family.companion is not None:
            _require_finite_square(params)
            yield k, family.companion(params), params


def catalog_profiles(families: Sequence[tuple[str, CatalogParams | None]], *,
                     main: bool = True, companions: bool = True
                     ) -> list[tuple[Profile, ...]]:
    """The profiles of each (name, params) family (the families are
    described in ``_FAMILIES``; params None reads the family's defaults):
    its main profile if ``main``, then its companion if ``companions``
    and it has one.

    One batch builds them all.  The bands of every layout make one
    bridge ladder (``_transition_pieces``), and every profile is
    certified in one pass (``_certify``); each keeps its own report, and
    its pieces and report are bit for bit those of a batch of one.  The
    batch raises the error that building the profiles one at a time, in
    order, raises first: a layout's CatalogError, or the error of the
    first band in order that has no bridge.

    Every catalog profile requests slack 0.1.  The declared slack is
    certified against the profile-level window [a^2, b^2], exactly per
    row; per-transition figures (measured against the narrower local
    rate pair) are construction diagnostics only.  It is the implied
    slack widened by 1e-9 and rounded up to ten digits: an extreme at a
    root of the proxy's derivative is exact only to rounding, and its
    last bits follow the eigenvalue solver, which the profile text must
    not.  Narrow desk-scale bands are valid but carry large slack, while
    wide bands (large m, small mu, large band_ratio) reach slack <= 0.1.
    """
    laid = []
    error = None
    try:
        for item in _layouts(families, main=main, companions=companions):
            laid.append(item)
    except CuspGrowthError as exc:
        # raised once the profiles laid out before it are built
        error = exc
    bands = [item for _, layout, _ in laid for item in layout
             if not isinstance(item, ProfilePiece)]
    bridges = iter(_transition_pieces(bands))
    probes = []
    for _, layout, params in laid:
        pieces = [item if isinstance(item, ProfilePiece) else next(bridges)
                  for item in layout]
        for piece in pieces:
            if isinstance(piece, BridgeConstructionError):
                raise piece
        # the probe's window is open (eps = inf)
        probes.append(assemble_profile(
            CurvatureBounds(a=1.0, b=params.rate_fast, n=2, eps=INF), pieces))
    if error is not None:
        raise error
    built: list[list[Profile]] = [[] for _ in families]
    for (k, _, _), probe, report in zip(laid, probes, _certify(probes)):
        # the probe becomes the profile: only its declared slack changes,
        # and its table and report stay; the final slack is at least the
        # implied one, so the window, the one check that reads eps, passes
        # on both
        eps = _round_up(max(0.1, report.implied_eps * (1.0 + 1e-9)))
        object.__setattr__(probe, "bounds", replace(probe.bounds, eps=eps))
        object.__setattr__(probe, "_report", report)
        built[k].append(probe)
    return [tuple(profiles) for profiles in built]


def catalog_profile(name: str, params: CatalogParams | None = None) -> Profile:
    """Construct the named catalog profile: ``catalog_profiles`` on this
    family's main profile alone."""
    return catalog_profiles([(name, params)], companions=False)[0][0]


def catalog_companions(name: str,
                       params: CatalogParams | None = None) -> tuple[Profile, ...]:
    """Additional perturbed-cusp profiles of the named example lattice:
    one for a family with a companion, none otherwise
    (``catalog_profiles`` on its companions alone)."""
    return catalog_profiles([(name, params)], main=False)[0]
