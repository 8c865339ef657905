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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BridgeConstructionError, CatalogError, DomainError, ProfileError

__all__ = [
    "CurvatureBounds",
    "ProfilePiece",
    "Profile",
    "pure_piece",
    "poly_piece",
    "BridgeRequest",
    "build_bridge",
    "assemble_profile",
    "ValidationReport",
    "validate_profile",
    "profile_to_text",
    "profile_from_text",
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

_GRID = 4097  # verification samples per transition band and per piece


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


@dataclass(frozen=True, eq=False)
class _SegmentTable:
    """The segments of consecutive pieces, flattened in order.

    Row i (an analytic law or a cubic transition) is active from
    ``starts[i]`` to the next start; a piece's first row starts at the
    piece's own t0, and the first and last rows extend past the ends.
    """
    starts: np.ndarray
    rows: tuple[_Envelope | _Cubic, ...]

    @classmethod
    def compile(cls, pieces: Sequence[ProfilePiece]) -> "_SegmentTable":
        starts: list[float] = []
        rows: list[_Envelope | _Cubic] = []
        for piece in pieces:
            if piece.form == "bridge":
                segs = piece.params["segments"]
                starts.append(piece.t0)
                starts.extend(seg["t0"] for seg in segs[1:])
                rows.extend(_row(seg) for seg in segs)
            else:
                starts.append(piece.t0)
                rows.append(_Envelope(piece.params.get("power", 0.0),
                                      piece.params["rate"]))
        return cls(np.asarray(starts, dtype=float), tuple(rows))

    def __call__(self, t: np.ndarray, order: int) -> np.ndarray:
        """ln T (order 0), (ln T)' (1) or (ln T)'' (2) on a float array."""
        idx = np.searchsorted(self.starts, t, side="right")
        idx -= 1
        np.maximum(idx, 0, out=idx)
        present = np.flatnonzero(
            np.bincount(idx.ravel(), minlength=len(self.rows)))
        if present.size == 1:
            return self.rows[present[0]](t, order)
        out = np.empty_like(t)
        for i in present:
            mask = idx == i
            out[mask] = self.rows[i](t[mask], order)
        return out


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
        object.__setattr__(self, "_table", _SegmentTable.compile(self.pieces))

    @property
    def t_start(self) -> float:
        return self.pieces[0].t0

    def piece_breaks(self) -> np.ndarray:
        """All interior non-smooth abscissae (piece joins and bridge
        segment joins), for use as quadrature breakpoints."""
        return np.unique(self._table.starts[1:])

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

@dataclass(frozen=True)
class BridgeRequest:
    """Transition between t^{left_power} e^{-left_rate t} active before q
    and t^{right_power} e^{-right_rate t} active after r, with optional
    exact analytic flanks [p, q] and [r, s].  ``eps`` is the requested
    curvature-proxy slack."""
    p: float
    q: float
    r: float
    s: float
    left_power: float
    left_rate: float
    right_power: float
    right_rate: float
    eps: float = 0.1

    def __post_init__(self) -> None:
        if not (self.p <= self.q < self.r <= self.s):
            raise DomainError("bridge needs p <= q < r <= s")
        if self.q <= 0 and (self.left_power != 0 or self.right_power != 0):
            raise DomainError("polynomial envelopes need a positive band")
        if self.eps < 0:
            raise DomainError("eps must be nonnegative")


@dataclass(frozen=True)
class _Candidate:
    segments: tuple[dict, ...]
    achieved_eps: float
    monotone: bool
    sandwiched: bool


def _transition_candidate(left: _Envelope, right: _Envelope,
                          q: float, r: float, theta: float) -> _Candidate:
    width = r - q
    s_q = float(left(q, 1))
    s_r = float(right(r, 1))
    d_q = float(left(q, 2))
    d_r = float(right(r, 2))
    gap = float(right(r)) - float(left(q))

    # Plateau level from the exact area constraint: integral of sigma over
    # [q, r] equals the log-value gap between the envelopes.
    s_star = (gap / width
              - theta * (s_q + s_r) / 2.0
              - theta * theta * width * (d_q - d_r) / 12.0) / (1.0 - theta)

    w_ramp = theta * width
    seg1 = {
        "kind": "cubic",
        "t0": q, "t1": q + w_ramp,
        "anchor": float(left(q)),
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
    segments = (seg1, seg2, seg3)

    t = np.linspace(q, r, _GRID)
    table = _SegmentTable.compile(
        [ProfilePiece(q, r, "bridge", {"segments": segments})])
    g = table(t, 0)
    d1 = table(t, 1)
    d2 = table(t, 2)
    ratio = d2 + d1 * d1

    lo_rate = min(left.rate, right.rate)
    hi_rate = max(left.rate, right.rate)
    achieved = max(0.0,
                   lo_rate * lo_rate - float(np.min(ratio)),
                   float(np.max(ratio)) - hi_rate * hi_rate)

    monotone = bool(np.all(d1 < 0.0))
    lo_env = np.minimum(left(t), right(t))
    hi_env = np.maximum(left(t), right(t))
    slack = 1e-9 * np.maximum(1.0, np.abs(g))
    sandwiched = bool(np.all(g >= lo_env - slack) and np.all(g <= hi_env + slack))

    return _Candidate(segments=segments, achieved_eps=achieved,
                      monotone=monotone, sandwiched=sandwiched)


def _poly_integral(coeffs: Sequence[float]) -> float:
    c0, c1, c2, c3 = coeffs
    return c0 + c1 / 2.0 + c2 / 3.0 + c3 / 4.0


def _build_transition(left: _Envelope, right: _Envelope,
                      q: float, r: float) -> tuple[tuple[dict, ...], float]:
    """Best admissible ramp/plateau/ramp transition on [q, r].

    Returns the segment list and the achieved curvature-proxy slack.
    Raises BridgeConstructionError when no ramp fraction yields a
    monotone, envelope-sandwiched transition.
    """
    if left == right:
        seg = {"kind": "analytic", "t0": q, "t1": r,
               "power": left.power, "rate": left.rate}
        return (seg,), 0.0
    if float(left(q, 1)) >= 0 or float(right(r, 1)) >= 0:
        raise BridgeConstructionError(
            "envelope not decreasing at a transition endpoint")
    best: _Candidate | None = None
    for theta in _THETA_LADDER:
        cand = _transition_candidate(left, right, q, r, theta)
        if not (cand.monotone and cand.sandwiched):
            continue
        if best is None or cand.achieved_eps < best.achieved_eps:
            best = cand
    if best is None:
        raise BridgeConstructionError(
            f"no monotone sandwiched transition on [{q}, {r}] between "
            f"(power={left.power}, rate={left.rate}) and "
            f"(power={right.power}, rate={right.rate})")
    return best.segments, best.achieved_eps


def build_bridge(req: BridgeRequest) -> ProfilePiece:
    """Construct the bridge piece for ``req``, spanning [p, s].

    The analytic flanks [p, q] and [r, s] are evaluated exactly; only
    [q, r] carries the slope-space transition.  Raises
    BridgeConstructionError (with the best achieved slack attached) when
    the requested ``eps`` cannot be met; the usual remedy is a wider band.
    """
    left = _Envelope(req.left_power, req.left_rate)
    right = _Envelope(req.right_power, req.right_rate)
    segments, achieved = _build_transition(left, right, req.q, req.r)
    if achieved > req.eps:
        raise BridgeConstructionError(
            f"transition slack {achieved:.6g} exceeds requested eps "
            f"{req.eps:.6g}; widen [q, r] = [{req.q}, {req.r}]",
            achieved_eps=achieved)
    segs: list[dict] = []
    if req.p < req.q:
        segs.append({"kind": "analytic", "t0": req.p, "t1": req.q,
                     "power": left.power, "rate": left.rate})
    segs.extend(segments)
    if req.r < req.s:
        segs.append({"kind": "analytic", "t0": req.r, "t1": req.s,
                     "power": right.power, "rate": right.rate})
    return ProfilePiece(req.p, req.s, "bridge", {"segments": tuple(segs)})


def _transition_piece(left: _Envelope, right: _Envelope,
                      q: float, r: float) -> ProfilePiece:
    segments, _ = _build_transition(left, right, q, r)
    return ProfilePiece(q, r, "bridge", {"segments": segments})


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
    samples_per_piece: int
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


def validate_profile(profile: Profile,
                     *,
                     samples_per_piece: int = 4096,
                     join_tol: float = 1e-9,
                     slope_tol: float = 1e-6,
                     ratio_slop: float = 1e-6) -> ValidationReport:
    """Certify a profile on dense per-piece grids.

    Checks: contiguity, log-value continuity at joins (relative tolerance
    ``join_tol``), C^1/C^2 continuity at joins, strict monotone decrease,
    and the curvature-proxy window [a^2 - eps, b^2 + eps] declared by the
    profile's bounds.  Convexity of T is implied by the window whenever
    eps < a^2; when the declared slack already admits concave stretches it
    is reported through the ``convex`` flag instead of failing.
    """
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
        gl = float(tables[k](t, 0)[0])
        gr = float(tables[k + 1](t, 0)[0])
        rel = abs(gl - gr) / max(1.0, abs(gl))
        worst_join = max(worst_join, rel)
        if rel > join_tol:
            msgs.append(f"log-value jump {rel:.3g} at t={leftp.t1}")
        for order in (1, 2):
            dl = float(tables[k](t, order)[0])
            dr = float(tables[k + 1](t, order)[0])
            srel = abs(dl - dr) / max(1.0, abs(dl))
            worst_slope = max(worst_slope, srel)
            if srel > slope_tol:
                msgs.append(
                    f"order-{order} derivative jump {srel:.3g} at t={leftp.t1}")

    ratio_min = INF
    ratio_max = -INF
    for piece, table in zip(profile.pieces, tables):
        t = _piece_sample_grid(piece, samples_per_piece)
        g = table(t, 0)
        d1 = table(t, 1)
        d2 = table(t, 2)
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
        if float(np.min(ratio)) < a2 - eps - ratio_slop:
            msgs.append(
                f"curvature proxy {float(np.min(ratio)):.6g} below "
                f"a^2 - eps = {a2 - eps:.6g} in piece at t0={piece.t0}")
        if float(np.max(ratio)) > b2 + eps + ratio_slop:
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
                            samples_per_piece=samples_per_piece,
                            convex=ratio_min >= -ratio_slop)


# -- serialization ------------------------------------------------------------

_FORMAT_TAG = "cusp-profile/1"


def _piece_from_jsonable(obj: Mapping) -> ProfilePiece:
    params = obj["params"]
    if obj["form"] == "bridge":
        segs = []
        for s in params["segments"]:
            s = dict(s)
            if "coeffs" in s:
                s["coeffs"] = tuple(float(c) for c in s["coeffs"])
            segs.append(s)
        params = {"segments": tuple(segs)}
    return ProfilePiece(t0=float(obj["t0"]), t1=float(obj["t1"]),
                        form=str(obj["form"]), params=params)


def profile_to_text(profile: Profile) -> str:
    """Serialize to JSON text.  Floats keep full precision (shortest
    round-trip repr), so parse(serialize(p)) evaluates bit-identically."""
    doc = {
        "format": _FORMAT_TAG,
        "bounds": {"a": profile.bounds.a, "b": profile.bounds.b,
                   "n": profile.bounds.n, "eps": profile.bounds.eps},
        # tuples serialize as JSON lists
        "pieces": [{"t0": p.t0, "t1": p.t1, "form": p.form,
                    "params": dict(p.params)} for p in profile.pieces],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def profile_from_text(text: str) -> Profile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"unparseable profile text: {exc}") from exc
    if doc.get("format") != _FORMAT_TAG:
        raise ProfileError(f"unknown profile format {doc.get('format')!r}")
    b = doc["bounds"]
    bounds = CurvatureBounds(a=float(b["a"]), b=float(b["b"]),
                             n=int(b["n"]), eps=float(b["eps"]))
    pieces = tuple(_piece_from_jsonable(p) for p in doc["pieces"])
    return Profile(bounds=bounds, pieces=pieces)


# -- catalog ------------------------------------------------------------------

CATALOG_IDS = (
    "sparse-5.2",
    "exotic-conv-5.3a",
    "exotic-div-5.3b",
    "critical-finite-5.4a",
    "critical-infinite-5.4b",
)


@dataclass(frozen=True)
class CatalogParams:
    """Parameters shared by the catalog families; each family reads the
    subset it documents and validates it.

    m           geometric spacing base for the oscillation windows
    mu          lower clamp fraction for the slow-band end (critical ids)
    rate_fast   fast decay rate b (> 2)
    beta        polynomial power of the convergent exotic tail / the fast
                band of critical-infinite-5.4b
    gamma       critical-family exponent in (0, 1)
    windows     number of oscillation windows
    eps         requested pinching slack; the constructed profile's bounds
                record max(eps, achieved slack)
    head / gap / fast_len / tail_start   small-t layout of the aperiodic ids
    band_ratio  multiplicative width of single-transition bands
    dim         ambient dimension n
    """
    m: int = 3
    mu: float = 1.0 / 16.0
    rate_fast: float = 3.0
    beta: float = 2.2
    gamma: float = 0.5
    windows: int = 3
    eps: float = 0.1
    head: float = 4.0
    gap: float = 4.0
    fast_len: float = 4.0
    tail_start: float = 20.0
    band_ratio: float = 10.0
    dim: int = 2


def default_catalog_params(name: str) -> CatalogParams:
    """Family-specific defaults.

    The critical ids shorten the head so it finishes before their first
    oscillation window [m^2, m^4] at the default m=3.
    """
    if name not in CATALOG_IDS:
        raise CatalogError(f"unknown catalog id {name!r}")
    base = CatalogParams()
    if name in ("critical-finite-5.4a", "critical-infinite-5.4b"):
        return replace(base, head=2.0)
    return base


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CatalogError(msg)


def _require_finite_square(p: CatalogParams) -> None:
    # certification squares the fast rate into the curvature window b^2
    _require(math.isfinite(p.rate_fast * p.rate_fast),
             f"fast rate {p.rate_fast!r} is too large: its square overflows")


def _sparse_pieces(p: CatalogParams) -> list[ProfilePiece]:
    _require(p.m >= 3, "sparse-5.2 needs integer m >= 3")
    _require(p.rate_fast > 2.0, "sparse-5.2 needs fast rate > 2")
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


def _exotic_conv_pieces(p: CatalogParams) -> list[ProfilePiece]:
    _require(p.rate_fast > 2.0, "exotic-conv-5.3a needs fast rate > 2")
    _require(p.beta > 1.0, "exotic-conv-5.3a needs power > 1")
    _require(p.head > 0 and p.band_ratio > 1, "bad transition band")
    return _tail_pieces(p, p.beta)


def _exotic_div_pieces(p: CatalogParams) -> list[ProfilePiece]:
    _require(p.rate_fast > 2.0, "exotic-div-5.3b needs fast rate > 2")
    a_end = p.head
    fast_start = a_end + p.gap
    fast_end = fast_start + p.fast_len
    tail = p.tail_start
    _require(0 < a_end < fast_start < fast_end < tail,
             "exotic-div-5.3b needs head < fast band < tail start")
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


def _finalize(pieces: list[ProfilePiece], params: CatalogParams) -> Profile:
    # The declared slack is certified against the profile-level window
    # [a^2, b^2] on the validator's dense grids; per-transition figures
    # (measured against the narrower local rate pair) are construction
    # diagnostics only.
    bounds = CurvatureBounds(a=1.0, b=params.rate_fast, n=params.dim,
                             eps=max(params.eps, 1e6))
    probe = assemble_profile(bounds, pieces)
    implied = validate_profile(probe).implied_eps
    final = replace(bounds, eps=max(params.eps, implied * (1.0 + 1e-9)))
    return Profile(bounds=final, pieces=probe.pieces)


def catalog_profile(name: str, params: CatalogParams | None = None) -> Profile:
    """Construct the named catalog profile.

    Families:

    * ``sparse-5.2``            slow/fast pure-exponential oscillation on
                                windows [m^{4n}, m^{4n+2}]
    * ``exotic-conv-5.3a``      one transition to the convergence-critical
                                tail t^beta e^{-b t}, beta > 1
    * ``exotic-div-5.3b``       fast excursion then the divergence-critical
                                tail t^3 e^{-b t}
    * ``critical-finite-5.4a``  oscillation between t e^{-(b/2) t} and
                                t^{2+gamma} e^{-b t} on windows
                                [m^{2n}, m^{2n+2}]
    * ``critical-infinite-5.4b`` same layout with fast power beta in
                                (1+gamma, 2+gamma); its second perturbed
                                cusp comes from catalog_companions

    The returned profile's bounds record the achieved pinching slack when
    it exceeds the requested one; narrow desk-scale bands are valid but
    carry large slack, while wide bands (large m, small mu, large
    band_ratio) reach slack <= 0.1.
    """
    params = params or default_catalog_params(name)
    _require_finite_square(params)
    if name == "sparse-5.2":
        pieces = _sparse_pieces(params)
    elif name == "exotic-conv-5.3a":
        pieces = _exotic_conv_pieces(params)
    elif name == "exotic-div-5.3b":
        pieces = _exotic_div_pieces(params)
    elif name == "critical-finite-5.4a":
        _require(0.0 < params.gamma < 1.0, "gamma must lie in (0, 1)")
        pieces = _critical_pieces(params, 2.0 + params.gamma)
    elif name == "critical-infinite-5.4b":
        _require(0.0 < params.gamma < 1.0, "gamma must lie in (0, 1)")
        _require(1.0 + params.gamma < params.beta < 2.0 + params.gamma,
                 "critical-infinite-5.4b needs beta in (1+gamma, 2+gamma)")
        pieces = _critical_pieces(params, params.beta)
    else:
        raise CatalogError(f"unknown catalog id {name!r}; "
                           f"known ids: {', '.join(CATALOG_IDS)}")
    return _finalize(pieces, params)


def catalog_companions(name: str,
                       params: CatalogParams | None = None) -> tuple[Profile, ...]:
    """Additional perturbed-cusp profiles of the named example lattice.

    Only ``critical-infinite-5.4b`` has one: the cusp whose tail
    t^{1+gamma} e^{-b t} makes the relevant series diverge.
    """
    if name not in CATALOG_IDS:
        raise CatalogError(f"unknown catalog id {name!r}")
    params = params or default_catalog_params(name)
    if name != "critical-infinite-5.4b":
        return ()
    _require_finite_square(params)
    # the second perturbed cusp: one transition to the divergence-critical
    # tail t^{1+gamma} e^{-b t}
    return (_finalize(_tail_pieces(params, 1.0 + params.gamma), params),)
