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
transition is therefore value- and C^2-exact at both ends, monotone when
the plateau is negative, and its curvature proxy sigma' + sigma^2 is
certified on a dense grid rather than assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

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

_GRID = 4097  # verification samples per transition band

# validate_profile's dense samples per piece, its relative tolerances on
# value (join) and derivative (slope) jumps at the joins, and the slop
# allowed on the curvature-proxy window
_SAMPLES_PER_PIECE = 4096
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
        if not (0 < self.a <= self.b):
            raise DomainError(f"need 0 < a <= b, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise DomainError(f"dimension must be >= 2, got {self.n}")
        if self.eps < 0:
            raise DomainError("pinching slack must be nonnegative")


@dataclass(frozen=True)
class _Envelope:
    """Analytic law t^power * exp(-rate * t), handled in the log domain."""
    power: float
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise DomainError("envelope rate must be positive")
        if self.power < 0:
            raise DomainError("envelope power must be nonnegative")

    def __call__(self, t, order: int = 0):
        """ln of the law (order 0) or its first (1) or second (2)
        derivative; power 0 is the pure exponential, without the log."""
        t = np.asarray(t, dtype=float)
        if self.power == 0.0:
            if order == 0:
                return -self.rate * t
            return np.full_like(t, -self.rate) if order == 1 else np.zeros_like(t)
        if order == 0:
            return self.power * np.log(t) - self.rate * t
        return self.power / t - self.rate if order == 1 else -self.power / (t * t)

    def slope_range(self, lo: np.ndarray, hi: np.ndarray):
        """Least and greatest log-slope on [lo, hi]: power/t - rate is
        monotone, so they sit at the ends."""
        at_lo = self(lo, 1)
        at_hi = self(hi, 1)
        return np.minimum(at_lo, at_hi), np.maximum(at_lo, at_hi)


@dataclass(frozen=True)
class _Cubic:
    """Transition segment whose log-slope is the cubic
    c0 + c1 u + c2 u^2 + c3 u^3 in u = (t - t0)/width, with ln value
    ``anchor`` at t0."""
    t0: float
    width: float
    anchor: float
    coeffs: tuple[float, float, float, float]

    def __call__(self, t, order: int = 0):
        u = (t - self.t0) / self.width
        c0, c1, c2, c3 = self.coeffs
        if order == 1:
            return c0 + u * (c1 + u * (c2 + u * c3))
        if order == 2:
            return (c1 + u * (2.0 * c2 + u * 3.0 * c3)) / self.width
        integ = u * (c0 + u * (c1 / 2.0 + u * (c2 / 3.0 + u * c3 / 4.0)))
        return self.anchor + self.width * integ

    def slope_range(self, lo: np.ndarray, hi: np.ndarray):
        """Least and greatest log-slope on [lo, hi]: the cubic's extremes
        sit at the ends or at the roots of c1 + 2 c2 u + 3 c3 u^2."""
        c0, c1, c2, c3 = self.coeffs
        if c3 != 0.0:
            disc = c2 * c2 - 3.0 * c1 * c3
            roots = ((-c2 - math.sqrt(disc)) / (3.0 * c3),
                     (-c2 + math.sqrt(disc)) / (3.0 * c3)) if disc >= 0.0 else ()
        else:
            roots = (-c1 / (2.0 * c2),) if c2 != 0.0 else ()
        u_lo = (lo - self.t0) / self.width
        u_hi = (hi - self.t0) / self.width
        # a root outside [lo, hi] is clipped onto an end
        slopes = [c0 + u * (c1 + u * (c2 + u * c3))
                  for u in (u_lo, u_hi, *(np.clip(x, u_lo, u_hi) for x in roots))]
        return np.minimum.reduce(slopes), np.maximum.reduce(slopes)


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
    if rate <= 0:
        raise ProfileError("pure_exp rate must be positive")
    return ProfilePiece(t0, t1, "pure_exp", {"rate": float(rate)})


def poly_piece(t0: float, t1: float, power: float, rate: float) -> ProfilePiece:
    if rate <= 0 or power < 0:
        raise ProfileError("poly_exp needs rate > 0 and power >= 0")
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


def _row_slices(t: np.ndarray,
                starts: Sequence[float]) -> list[tuple[int, int]]:
    """The [lo, hi) index range of the sorted array t that each row of
    the given strictly increasing starts is active on; below the first
    start reads the first row."""
    cuts = np.searchsorted(t, starts, side="left").tolist()
    cuts[0] = 0
    return list(zip(cuts, cuts[1:] + [t.size]))


@dataclass(frozen=True, eq=False)
class _SegmentTable:
    """The segments of consecutive pieces, flattened in order.

    Row i (an analytic law or a cubic transition) is active from
    ``starts[i]`` to the next start; a piece's first row starts at the
    piece's own t0, and the first and last rows extend past the ends.
    Starts strictly increase: a zero-width segment (a transition whose
    plateau has no room) is active nowhere and gets no row.
    """
    starts: np.ndarray
    rows: tuple[_Envelope | _Cubic, ...]

    @classmethod
    def compile(cls, pieces: Sequence[ProfilePiece]) -> "_SegmentTable":
        starts: list[float] = []
        rows: list[_Envelope | _Cubic] = []
        for piece in pieces:
            if piece.form == "bridge":
                seg_starts, segs = _active_segments(piece.t0,
                                                    piece.params["segments"])
                starts.extend(seg_starts)
                rows.extend(_row(seg) for seg in segs)
            else:
                starts.append(piece.t0)
                rows.append(_Envelope(piece.params.get("power", 0.0),
                                      piece.params["rate"]))
        return cls(np.asarray(starts, dtype=float), tuple(rows))

    def _rows_at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The row active at each t, and the distinct rows among them."""
        idx = np.searchsorted(self.starts, t, side="right")
        idx -= 1
        np.maximum(idx, 0, out=idx)
        present = np.flatnonzero(
            np.bincount(idx.ravel(), minlength=len(self.rows)))
        return idx, present

    def __call__(self, t: np.ndarray, order: int) -> np.ndarray:
        """ln T (order 0), (ln T)' (1) or (ln T)'' (2) on a float array."""
        idx, present = self._rows_at(t)
        if present.size == 1:
            return self.rows[present[0]](t, order)
        out = np.empty_like(t)
        for i in present:
            mask = idx == i
            out[mask] = self.rows[i](t[mask], order)
        return out

    def jets(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ln T, (ln T)' and (ln T)'' on a sorted float array.  Each row
        reads its contiguous slice once per order, element for element
        as ``__call__`` evaluates it."""
        jet = (np.empty_like(t), np.empty_like(t), np.empty_like(t))
        for row, (lo, hi) in zip(self.rows, _row_slices(t, self.starts)):
            if hi > lo:
                for order, out in enumerate(jet):
                    out[lo:hi] = row(t[lo:hi], order)
        return jet

    def slope_range(self, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest (ln T)' on each [lo, hi], in closed form from
        its row; no interval may cross a start."""
        idx, present = self._rows_at(0.5 * (lo + hi))
        least = np.empty_like(lo)
        most = np.empty_like(lo)
        for i in present:
            mask = idx == i
            least[mask], most[mask] = self.rows[i].slope_range(lo[mask], hi[mask])
        return least, most


@dataclass(frozen=True)
class Profile:
    """A contiguous, strictly decreasing piecewise log-profile.  The
    pieces are its construction and serialization form; every evaluation
    reads the segment table they are compiled into on construction."""
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
        segment joins), for use as quadrature breakpoints."""
        # np.unique, without the numpy.ma import its first call costs
        starts = np.sort(self._table.starts[1:])
        return np.r_[starts[:1], starts[1:][starts[1:] != starts[:-1]]]

    def _dlog_range(self, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest (ln T)' on each [lo, hi]; no interval may
        cross a piece break.  Sizes the excursion integral's panels."""
        return self._table.slope_range(lo, hi)

    def _eval(self, t, order: int):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < self.t_start - 1e-12 * max(1.0, self.t_start)):
            raise DomainError(
                f"profile evaluated below its start t_start={self.t_start}")
        out = self._table(np.maximum(arr, self.t_start), order)
        return float(out[0]) if scalar else out

    def log_value(self, t):
        """ln T(t)."""
        return self._eval(t, 0)

    def dlog(self, t):
        """(ln T)'(t)."""
        return self._eval(t, 1)

    def d2log(self, t):
        """(ln T)''(t)."""
        return self._eval(t, 2)

    def curvature_ratio(self, t):
        """T''(t)/T(t) = (ln T)'' + ((ln T)')^2, the pinching proxy."""
        d1 = self._eval(t, 1)
        d2 = self._eval(t, 2)
        return d2 + d1 * d1


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
    gap = v_r - v_q

    # Plateau level from the exact area constraint: integral of sigma over
    # [q, r] equals the log-value gap between the envelopes.
    s_star = (gap / width
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


def _monotone_proxy_range(plateau: dict,
                          slices: Sequence[tuple[dict, _Cubic, int, int]],
                          t: np.ndarray) -> tuple[float, float] | None:
    """Least and greatest curvature proxy (ln T)'' + (ln T)'^2 of a
    ramp/plateau/ramp transition on the grid t, read over the
    (segment, row, lo, hi) slices of t; None when (ln T)' is not negative
    at every grid point.

    The plateau needs no per-point work.  Its row evaluates, at a finite
    u, (ln T)' = s* + u (0 + u (0 + u 0)) and
    (ln T)'' = (0 + u (2 0 + u 3 0)) / width.  In round-to-nearest
    u * (+-0) is a zero and 0.0 + (+-0) is +0.0, so each nested sum is
    +0.0 and each product a signed zero.  Hence (ln T)' = s* + (+-0) = s*
    (for s* = +-0 only the sign of the zero may change, which neither
    ``< 0`` nor the square sees), (ln T)'' = +0.0 / width = +0.0, and the
    proxy is +0.0 + s* s* = s*^2 exactly, NaN and infinities included.
    """
    s_star = plateau["coeffs"][0]
    least: list[float] = []
    most: list[float] = []
    for seg, row, lo, hi in slices:
        if seg is plateau:
            if not s_star < 0.0:
                return None
            least.append(s_star * s_star)
            most.append(s_star * s_star)
            continue
        d1 = row(t[lo:hi], 1)
        if not np.all(d1 < 0.0):
            return None
        ratio = row(t[lo:hi], 2) + d1 * d1
        least.append(np.min(ratio))
        most.append(np.max(ratio))
    # np.min and np.max propagate a NaN proxy, as on the whole grid
    return float(np.min(least)), float(np.max(most))


def _transition_piece(left: _Envelope, right: _Envelope,
                      q: float, r: float) -> ProfilePiece:
    """Bridge piece on [q, r] carrying the admissible ramp/plateau/ramp
    transition of least curvature-proxy slack, the earliest ramp fraction
    of the ladder among equals.

    Every ramp fraction is checked on one shared grid of the band.  The
    monotone ones are ranked by (proxy slack, ladder position), and the
    envelope sandwich is evaluated in that order only until one passes.
    Raises BridgeConstructionError when no ramp fraction yields a
    monotone, envelope-sandwiched transition.
    """
    if left == right:
        seg = {"kind": "analytic", "t0": q, "t1": r,
               "power": left.power, "rate": left.rate}
        return ProfilePiece(q, r, "bridge", {"segments": (seg,)})
    # the end values, the grid and the envelopes on it do not depend on
    # the ramp fraction
    ends = tuple(tuple(float(env(x, k)) for k in range(3))
                 for env, x in ((left, q), (right, r)))
    if ends[0][1] >= 0 or ends[1][1] >= 0:
        raise BridgeConstructionError(
            "envelope not decreasing at a transition endpoint")
    lo_rate = min(left.rate, right.rate)
    hi_rate = max(left.rate, right.rate)
    t = np.linspace(q, r, _GRID)
    at_left = left(t)
    at_right = right(t)
    lo_env = np.minimum(at_left, at_right)
    hi_env = np.maximum(at_left, at_right)

    ranked = []
    for rank, theta in enumerate(_THETA_LADDER):
        segments = _ramp_plateau_ramp(q, r, theta, ends)
        starts, kept = _active_segments(q, segments)
        slices = [(seg, _row(seg), lo, hi) for seg, (lo, hi)
                  in zip(kept, _row_slices(t, starts)) if hi > lo]
        proxy = _monotone_proxy_range(segments[1], slices, t)
        if proxy is not None:
            # max(0.0, ...) reads a NaN proxy as slack 0.0
            slack = max(0.0, lo_rate * lo_rate - proxy[0],
                        proxy[1] - hi_rate * hi_rate)
            ranked.append((slack, rank, segments, slices))
    ranked.sort(key=lambda cand: cand[:2])
    for _, _, segments, slices in ranked:
        g = np.empty_like(t)
        for _, row, lo, hi in slices:
            g[lo:hi] = row(t[lo:hi])
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

@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    messages: tuple[str, ...]
    ratio_range: tuple[float, float]
    implied_eps: float
    worst_join_gap: float
    worst_slope_gap: float
    convex: bool = True

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        lines = [
            f"profile validation: {state}",
            f"  curvature proxy range: [{self.ratio_range[0]:.6g}, {self.ratio_range[1]:.6g}]",
            f"  implied pinching slack: {self.implied_eps:.6g}",
            f"  worst relative join gap: {self.worst_join_gap:.3g}",
            f"  worst relative slope gap: {self.worst_slope_gap:.3g}",
            f"  everywhere convex: {self.convex}",
        ]
        lines.extend("  " + m for m in self.messages)
        return "\n".join(lines)


def _piece_sample_grid(piece: ProfilePiece, samples: int) -> np.ndarray:
    hi = piece.t1
    if hi == INF:
        hi = piece.t0 + max(100.0, 9.0 * piece.t0)
    return np.linspace(piece.t0, hi, samples)


def validate_profile(profile: Profile) -> ValidationReport:
    """Certify a profile on dense per-piece grids.

    Checks: contiguity, log-value continuity at joins (relative tolerance
    ``_JOIN_TOL``), C^1/C^2 continuity at joins, strict monotone decrease,
    and the curvature-proxy window [a^2 - eps, b^2 + eps] declared by the
    profile's bounds.  Convexity of T is implied by the window whenever
    eps < a^2; when the declared slack already admits concave stretches it
    is reported through the ``convex`` flag instead of failing.  A
    profile is certified once; later calls return the same report.
    """
    if profile._report is None:
        object.__setattr__(profile, "_report", _certify(profile))
    return profile._report


def _certify(profile: Profile) -> ValidationReport:
    msgs: list[str] = []
    a2 = profile.bounds.a ** 2
    b2 = profile.bounds.b ** 2
    eps = profile.bounds.eps

    worst_join = 0.0
    worst_slope = 0.0
    # one table per piece: a join is checked with each side's own law
    tables = [_SegmentTable.compile([piece]) for piece in profile.pieces]
    for k, leftp in enumerate(profile.pieces[:-1]):
        t = np.array([leftp.t1])
        left_jet = [float(v[0]) for v in tables[k].jets(t)]
        right_jet = [float(v[0]) for v in tables[k + 1].jets(t)]
        gl, gr = left_jet[0], right_jet[0]
        rel = abs(gl - gr) / max(1.0, abs(gl))
        worst_join = max(worst_join, rel)
        if rel > _JOIN_TOL:
            msgs.append(f"log-value jump {rel:.3g} at t={leftp.t1}")
        for order in (1, 2):
            dl, dr = left_jet[order], right_jet[order]
            srel = abs(dl - dr) / max(1.0, abs(dl))
            worst_slope = max(worst_slope, srel)
            if srel > _SLOPE_TOL:
                msgs.append(
                    f"order-{order} derivative jump {srel:.3g} at t={leftp.t1}")

    ratio_min = INF
    ratio_max = -INF
    for piece, table in zip(profile.pieces, tables):
        g, d1, d2 = table.jets(_piece_sample_grid(piece, _SAMPLES_PER_PIECE))
        if not np.all(np.isfinite(g)):
            msgs.append(f"non-finite log value in piece at t0={piece.t0}")
            continue
        if np.any(d1 > 1e-12):
            msgs.append(f"non-decreasing log profile in piece at t0={piece.t0}")
        if np.any(np.diff(g) >= 0):
            msgs.append(f"sampled values not strictly decreasing in piece at t0={piece.t0}")
        ratio = d2 + d1 * d1
        ratio_min = min(ratio_min, float(np.min(ratio)))
        ratio_max = max(ratio_max, float(np.max(ratio)))
        if float(np.min(ratio)) < a2 - eps - _RATIO_SLOP:
            msgs.append(
                f"curvature proxy {float(np.min(ratio)):.6g} below "
                f"a^2 - eps = {a2 - eps:.6g} in piece at t0={piece.t0}")
        if float(np.max(ratio)) > b2 + eps + _RATIO_SLOP:
            msgs.append(
                f"curvature proxy {float(np.max(ratio)):.6g} above "
                f"b^2 + eps = {b2 + eps:.6g} in piece at t0={piece.t0}")

    implied = max(0.0, a2 - ratio_min, ratio_max - b2)
    return ValidationReport(passed=not msgs,
                            messages=tuple(msgs),
                            ratio_range=(ratio_min, ratio_max),
                            implied_eps=implied,
                            worst_join_gap=worst_join,
                            worst_slope_gap=worst_slope,
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


def _sparse_pieces(name: str, p: CatalogParams) -> list[ProfilePiece]:
    _require(p.m >= 3, f"{name} needs integer m >= 3")
    _require(p.rate_fast > 2.0, f"{name} needs fast rate > 2")
    _require(p.windows >= 1, "need at least one oscillation window")
    slow = _Envelope(0.0, 1.0)
    fast = _Envelope(0.0, p.rate_fast)
    pieces: list[ProfilePiece] = []
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
        pieces.append(_transition_piece(slow, fast, q, r))
        pieces.append(pure_piece(r, s, p.rate_fast))
        pieces.append(_transition_piece(fast, slow, s, end))
        prev_end = end
    pieces.append(pure_piece(prev_end, INF, 1.0))
    return pieces


def _tail_pieces(p: CatalogParams, power: float) -> list[ProfilePiece]:
    # unit-rate head, then one transition onto the tail t^power e^{-b t}
    t0 = p.head * p.band_ratio
    _require(t0 > power / p.rate_fast, "tail must start beyond the envelope peak")
    return [pure_piece(0.0, p.head, 1.0),
            _transition_piece(_Envelope(0.0, 1.0),
                              _Envelope(power, p.rate_fast), p.head, t0),
            poly_piece(t0, INF, power, p.rate_fast)]


def _exotic_conv_pieces(name: str, p: CatalogParams) -> list[ProfilePiece]:
    _require(p.rate_fast > 2.0, f"{name} needs fast rate > 2")
    _require(p.beta > 1.0, f"{name} needs power > 1")
    _require(p.head > 0 and p.band_ratio > 1, "bad transition band")
    return _tail_pieces(p, p.beta)


def _exotic_div_pieces(name: str, p: CatalogParams) -> list[ProfilePiece]:
    _require(p.rate_fast > 2.0, f"{name} needs fast rate > 2")
    a_end = p.head
    fast_start = a_end + p.gap
    fast_end = fast_start + p.fast_len
    tail = p.tail_start
    _require(0 < a_end < fast_start < fast_end < tail,
             f"{name} needs head < fast band < tail start")
    _require(tail > 3.0 / p.rate_fast, "tail must start beyond the envelope peak")
    return [pure_piece(0.0, a_end, 1.0),
            _transition_piece(_Envelope(0.0, 1.0),
                              _Envelope(0.0, p.rate_fast), a_end, fast_start),
            pure_piece(fast_start, fast_end, p.rate_fast),
            _transition_piece(_Envelope(0.0, p.rate_fast),
                              _Envelope(3.0, p.rate_fast), fast_end, tail),
            poly_piece(tail, INF, 3.0, p.rate_fast)]


def _critical_pieces(p: CatalogParams, fast_power: float) -> list[ProfilePiece]:
    b = p.rate_fast
    _require(p.m >= 3, "critical ids need integer m >= 3")
    _require(b > 2.0, "critical ids need fast rate > 2")
    _require(0 < p.mu < 0.5, "mu must lie in (0, 1/2)")
    _require(p.windows >= 1, "need at least one oscillation window")
    slow = _Envelope(1.0, b / 2.0)
    fast = _Envelope(fast_power, b)
    p1 = float(p.m) ** 2
    _require(0 < p.head < p1, "head must finish before the first window")
    _require(p1 > 2.0 / b, "slow envelope must decrease on the windows")
    # Head: unit-rate law, then one transition onto the slow envelope.
    pieces = [pure_piece(0.0, p.head, 1.0),
              _transition_piece(_Envelope(0.0, 1.0), slow, p.head, p1)]
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
        pieces.append(_transition_piece(slow, fast, q, r))
        pieces.append(poly_piece(r, s, fast_power, b))
        pieces.append(_transition_piece(fast, slow, s, next_p))
    final_p = float(p.m) ** (2 * p.windows + 2)
    pieces.append(poly_piece(final_p, INF, 1.0, b / 2.0))
    return pieces


def _critical_finite_pieces(name: str, p: CatalogParams) -> list[ProfilePiece]:
    _require(0.0 < p.gamma < 1.0, "gamma must lie in (0, 1)")
    return _critical_pieces(p, 2.0 + p.gamma)


def _critical_infinite_pieces(name: str, p: CatalogParams) -> list[ProfilePiece]:
    _require(0.0 < p.gamma < 1.0, "gamma must lie in (0, 1)")
    _require(1.0 + p.gamma < p.beta < 2.0 + p.gamma,
             f"{name} needs beta in (1+gamma, 2+gamma)")
    return _critical_pieces(p, p.beta)


@dataclass(frozen=True)
class _Family:
    """A catalog family: ``pieces(name, params)`` checks and builds its
    main profile from the fields ``reads``, and ``companion(params)`` the
    second perturbed cusp of a family with one, which also reads
    ``companion_reads``."""
    pieces: Callable[[str, CatalogParams], list[ProfilePiece]]
    reads: frozenset[str]
    defaults: CatalogParams = CatalogParams()
    companion: Optional[Callable[[CatalogParams], list[ProfilePiece]]] = None
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
        raise CatalogError(f"unknown catalog id {name!r}")
    return _FAMILIES[name].defaults


def _finalize(pieces: list[ProfilePiece], params: CatalogParams) -> Profile:
    # Every catalog profile requests slack 0.1.  The declared slack is
    # certified against the profile-level window [a^2, b^2] on the
    # validator's dense grids; per-transition figures (measured against
    # the narrower local rate pair) are construction diagnostics only.
    # The probe's window is open (eps = inf), and the final slack is at
    # least the implied one, so the window, the one check that reads
    # eps, passes on both: the final profile's report is the probe's.
    bounds = CurvatureBounds(a=1.0, b=params.rate_fast, n=2, eps=INF)
    probe = assemble_profile(bounds, pieces)
    report = validate_profile(probe)
    profile = replace(probe, bounds=replace(
        bounds, eps=max(0.1, report.implied_eps * (1.0 + 1e-9))))
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
    params = params or default_catalog_params(name)
    _require_finite_square(params)
    if name not in CATALOG_IDS:
        raise CatalogError(f"unknown catalog id {name!r}; "
                           f"known ids: {', '.join(CATALOG_IDS)}")
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
