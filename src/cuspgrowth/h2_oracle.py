"""Exact hyperbolic-plane oracle.

Everything here happens in the upper half-plane with the congruence
lattice of level two inside the integral Moebius group, and the
parabolic subgroup generated by the translation z -> z+2.  Matrix
entries are exact integers, so group membership, coset identities, and
displacement formulas carry no floating error beyond the final acosh.
The oracle exists to brute-force the geometric inequalities that the
rest of the package assumes analytically: triangle defects, horoball
additivity, the flow-time approximation of distances, coset-count
sandwiches, and the counting-formula envelope.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, EnumerationCapError
from .asymptotics import (
    CuspModel,
    ExponentEstimate,
    GrowthSeries,
    WindowPolicy,
    estimate_exponents,
)
from .convolution import VGammaModel, counting_band
from .profiles import CurvatureBounds, assemble_profile, pure_piece

__all__ = [
    "R_CAP",
    "BALL_CAP",
    "prop28_radius",
    "MoebiusElement",
    "enumerate_group",
    "CountTable",
    "coset_counts",
    "LemmaReport",
    "verify_lemmas",
    "Prop28Report",
    "verify_prop28",
    "DeltaReport",
    "estimate_delta",
    "CountingBandReport",
    "verify_counting",
]

R_CAP = 14.0
# largest ball any count may read: what verify_prop28 needs at R_CAP with
# the default gauge 1
BALL_CAP = R_CAP + 0.5
# most gauge multiples a count table may hold (r / gauge of them): at
# Rcap 14, oracle-verify peaked at 100 MB with 100,000 rows, 47 MB with
# 14 and 620 MB with a million
_COUNT_ROWS = 100_000


def prop28_radius(r: float, gauge: float) -> float:
    """Radius of the ball that coset_counts(r, gauge) and verify_prop28(r,
    gauge) read: the top of the outermost annulus.  It must not exceed
    BALL_CAP."""
    return r + gauge / 2.0


@dataclass(frozen=True)
class MoebiusElement:
    """Projective integral Moebius transformation in the level-two
    congruence group: unit determinant, diagonal odd, off-diagonal even,
    stored with canonical sign (first nonzero entry positive)."""
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        entries = (self.a, self.b, self.c, self.d)
        if any(not isinstance(e, (int, np.integer)) for e in entries):
            raise DomainError("matrix entries must be integers")
        entries = tuple(int(e) for e in entries)
        for e in entries:
            if e != 0:
                if e < 0:
                    entries = tuple(-v for v in entries)
                break
        a, b, c, d = entries
        if a * d - b * c != 1:
            raise DomainError("determinant must be exactly 1")
        if a % 2 == 0 or d % 2 == 0 or b % 2 != 0 or c % 2 != 0:
            raise DomainError("entries violate the level-two congruence")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "MoebiusElement":
        return cls(1, 0, 0, 1)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "MoebiusElement") -> "MoebiusElement":
        return MoebiusElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def inverse(self) -> "MoebiusElement":
        return MoebiusElement(self.d, -self.b, -self.c, self.a)

    @property
    def sq_sum(self) -> int:
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2

    def weighted_sum(self, h: float) -> float:
        """exp(h)(a^2+c^2) + exp(-h)(b^2+d^2); at h = 0 this is twice the
        cosh of the displacement of the base point i."""
        return (math.exp(h) * (self.a ** 2 + self.c ** 2)
                + math.exp(-h) * (self.b ** 2 + self.d ** 2))

    def displacement(self, h: float = 0.0) -> float:
        """Distance from i to the image of i * e^h."""
        return math.acosh(max(1.0, self.weighted_sum(h) / 2.0))


# -- enumeration --------------------------------------------------------------


def _check_cap(r: float, cap: float = R_CAP) -> None:
    # the ball bound 2 cosh(r) is even in r: a negative radius would
    # enumerate the ball of radius |r|
    if not (math.isfinite(r) and r >= 0):
        raise DomainError(f"radius {r!r} must be finite and non-negative")
    if r > cap:
        raise EnumerationCapError(
            f"radius {r!r} exceeds the enumeration cap {cap!r}")


def _check_gauge(gauge: float) -> None:
    if not (math.isfinite(gauge) and gauge > 0):
        raise DomainError(f"gauge {gauge!r} must be finite and positive")


def _ragged_offsets(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths laid end to end: each slot's run
    index and its offset inside the run."""
    run = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return run, np.arange(run.size) - starts[run]


# the identity as a start state (x, y, u, v) of _walk: the row that the
# first syllable moves, then the row that it adds.  A = [[1, 2], [0, 1]]
# adds twice the bottom row to the top one, B = [[1, 0], [2, 1]] twice
# the top row to the bottom one
_A_FIRST = (1, 0, 0, 1)
_B_FIRST = (0, 1, 1, 0)

# words that _walk grows at a time: the temporaries of one step, its
# syllables and its chains, stay a few MB however many words wait
_CHUNK = 1 << 14


def _in_ball(s_cap: float, eh: float, x, y, u, v) -> np.ndarray:
    """Whether each state's weighted sum is at most s_cap, to rounding."""
    return (eh * (x * x + u * u) + (y * y + v * v) / eh
            <= s_cap * (1.0 + 1e-12))


def _chain(x, y, u, v, s, m):
    """The states after m pairs of unit steps T_s then T_{-s}, where T_k
    takes (x, y, u, v) to (u, v, x + 2ku, y + 2kv).  On the rows p = (x,
    y) and q = (u, v) the pair acts as [[1, 2s], [-2s, -3]] = -(I + N),
    N^2 = 0, so with d = p + s q the pairs give (-1)^m (p - 2m d, q +
    2sm d), exactly."""
    dx, dy = x + s * u, y + s * v
    sign = 1 - 2 * (m & 1)
    two_m = 2 * m
    return (sign * (x - two_m * dx), sign * (y - two_m * dy),
            sign * (u + s * two_m * dx), sign * (v + s * two_m * dy))


def _window(qa: np.ndarray, qb: np.ndarray,
            qc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers k with qa k^2 + qb k + qc <= 0, qa > 0, as [lo, hi],
    widened by a slop of 1e-9 that the exact test of _in_ball undoes."""
    root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    return (np.ceil((-qb - root) / (2.0 * qa) - 1e-9).astype(np.int64),
            np.floor((-qb + root) / (2.0 * qa) + 1e-9).astype(np.int64))


def _grow(s_cap, eh, first, x, y, u, v, blocked, odd):
    """One step of _walk (see there) on words with their blocked signs
    and odd syllable counts: the words in the ball that are one syllable
    X^k, |k| >= 2, or one chain longer, as the same six arrays."""
    # the weighted sum of X^k w, less s_cap, is quadratic in k
    row = eh * (u * u) + (v * v) / eh
    k_lo, k_hi = _window(4.0 * row, 4.0 * (eh * (x * u) + (y * v) / eh),
                         eh * (x * x) + (y * y) / eh + row - s_cap)
    # a chain starts at T_s w for each unit s in the window but the
    # blocked one
    chains = [np.flatnonzero((k_lo <= s) & (s <= k_hi) & (blocked != s))
              for s in (1, -1)]
    if first:
        k_lo = np.maximum(k_lo, 2)
    # k = 0 is the word itself, and k = +-1 start its chains
    units = np.maximum(np.minimum(k_hi, 1) - np.maximum(k_lo, -1) + 1, 0)
    run, step = _ragged_offsets(np.maximum(k_hi - k_lo + 1 - units, 0))
    k = k_lo[run] + step
    k += (k >= -1) * units[run]
    ur, vr = u[run], v[run]
    grown = [(ur, vr, x[run] + 2 * k * ur, y[run] + 2 * k * vr,
              np.zeros(k.size, dtype=np.int8), ~odd[run])]
    # the chain of sign s = -t: its first member e = T_s w, then the
    # states m pairs of steps t, -t past e, whose weighted sums, less
    # s_cap, are 8a m^2 + 4b m + c, each also one step t further
    run = np.concatenate(chains)
    t = np.repeat(np.array([-1, 1], dtype=np.int8), [i.size for i in chains])
    x, y, u, v = (u[run], v[run], x[run] - 2 * t * u[run],
                  y[run] - 2 * t * v[run])
    odd = odd[run]
    dx, dy = x + t * u, y + t * v
    b = eh * ((t * u - x) * dx) + ((t * v - y) * dy) / eh
    _, m_hi = _window(8.0 * (eh * (dx * dx) + (dy * dy) / eh), 4.0 * b,
                      eh * (x * x + u * u) + (y * y + v * v) / eh - s_cap)
    run, m = _ragged_offsets(np.maximum(m_hi + 1, 0))
    t, odd = t[run], odd[run]
    x, y, u, v = _chain(x[run], y[run], u[run], v[run], t, m)
    grown.append((x, y, u, v, t, ~odd))
    grown.append((u, v, x + 2 * t * u, y + 2 * t * v, -t, odd))
    keep = [_in_ball(s_cap, eh, *part[:4]) for part in grown]
    return tuple(np.concatenate([z[k] for z, k in zip(column, keep)])
                 for column in zip(*grown))


def _walk(r: float, h: float, starts: tuple[tuple[int, ...], ...]):
    """The reduced words in A and B with weighted displacement <= r whose
    rightmost syllable is a start's letter to a positive power, grown on
    the left: first the identity, once, then batches of words, each as
    int64 arrays (x, y, u, v) and a bool array, whether the word has an
    odd syllable count.  (x, y) is the row that the next syllable moves
    and (u, v) the row that it adds: X^k takes (x, y, u, v) to (u, v, x +
    2ku, y + 2kv).  The weighted sum e^h (x^2 + u^2) + e^{-h} (y^2 + v^2)
    does not change when the rows swap, so the walk needs no letter, and
    the top row is the one with the odd first entry.  Only words in the
    ball grow, since every letter prepended raises the weighted sum (see
    _sorted_norms).

    A word w grows in one step (_grow) by the syllables X^k, |k| >= 2,
    and by its chains: the runs of unit syllables whose signs alternate,
    X^s Y^{-s} X^s ..., along the third cusp, whose parabolic subgroups
    are the conjugates of A B^{-1}.  The sum of X^k w is quadratic in k,
    so each word's k window is solved in closed form.  A pair of unit
    steps, +s then -s, acts on the rows as [[1, 2s], [-2s, -3]] =
    -(I + N), N^2 = 0, so the chain's members have a closed form
    (_chain) whose sums are quadratic in the number m of pairs; each
    member is the one before it with one letter prepended, so the
    members in the ball are a prefix, and its end is solved in closed
    form as well.  The windows take a slop of 1e-9 and the exact test
    filters what they let in.  A word carries the unit sign that would
    continue its own chain, blocked, since that chain is walked whole: a
    chain member starts one chain, of the sign it ends in, a word ending
    in |k| >= 2 two, and a start, which takes positive powers only, the
    chain of sign +1.  So every reduced word is walked once, and a batch
    holds words of several syllable counts.  The words grow _CHUNK at a
    time, depth first, which bounds the temporaries and the words
    waiting.  The squares stay exact: they overflow only past entries of
    3e9, and a ball with such an entry also holds the unipotent elements
    up to it, over a billion of them."""
    s_cap = 2.0 * math.cosh(r)
    eh = math.exp(h)
    x, y, u, v = (np.array(z, dtype=np.int64) for z in zip(*starts))
    # the start states are all the identity
    if not _in_ball(s_cap, eh, x, y, u, v)[0]:
        return
    yield x[:1], y[:1], u[:1], v[:1], np.zeros(1, dtype=bool)
    # a start takes positive powers only: its -1 chain is blocked
    pending = [(_grow(s_cap, eh, True, x, y, u, v,
                      np.full(x.size, -1, dtype=np.int8),
                      np.zeros(x.size, dtype=bool)), 0)]
    while pending:
        batch, i = pending.pop()
        if batch[0].size == 0:
            continue
        if i == 0:
            yield batch[:4] + batch[5:]
        if i + _CHUNK < batch[0].size:
            pending.append((batch, i + _CHUNK))
        pending.append((_grow(s_cap, eh, False,
                              *(z[i:i + _CHUNK] for z in batch)), 0))


def _weighted_sums(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   d: np.ndarray, h: float) -> np.ndarray:
    """MoebiusElement.weighted_sum over entry arrays, in the same float
    operations."""
    return math.exp(h) * (a * a + c * c) + math.exp(-h) * (b * b + d * d)


def enumerate_group(r: float, *, h: float = 0.0) -> list[MoebiusElement]:
    """Complete, duplicate-free list of group elements moving the
    weighted base point by at most r, sorted by displacement then
    lexicographically.  Canonical signs make the list projective."""
    _check_cap(r)
    words = list(_walk(r, h, (_A_FIRST, _B_FIRST)))
    if not words:
        return []
    x, y, u, v, _ = (np.concatenate(z) for z in zip(*words))
    # the top row (a, b) is the one with the odd first entry
    top = x % 2 == 1
    a, b, c, d = (np.where(top, p, q) for p, q in ((x, u), (y, v), (u, x),
                                                    (v, y)))
    # conjugation by diag(1, -1) maps A to A^{-1} and B to B^{-1}: the
    # mirror (a, -b, -c, d) of each word but the identity, the first
    a, b, c, d = (np.concatenate((p, sign * p[1:]))
                  for p, sign in ((a, 1), (b, -1), (c, -1), (d, 1)))
    # a is odd: the canonical sign makes it positive
    sign = np.where(a > 0, 1, -1)
    a, b, c, d = a * sign, b * sign, c * sign, d * sign
    order = np.lexsort((d, c, b, a, _weighted_sums(a, b, c, d, h)))
    return [MoebiusElement(*t) for t in zip(
        a[order].tolist(), b[order].tolist(),
        c[order].tolist(), d[order].tolist())]


# -- coset counting -----------------------------------------------------------


def _distinct(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted weighted sums: the index of each distinct sum's first
    copy, and each distinct sum's displacement, in
    MoebiusElement.displacement's float operations."""
    fresh = np.ones(sums.size, dtype=bool)
    np.not_equal(sums[1:], sums[:-1], out=fresh[1:])
    first = np.flatnonzero(fresh)
    # Python's acosh, not numpy's, whose last digit can differ: every
    # count compares these displacements with radii, so they must equal
    # MoebiusElement.displacement bit for bit
    half = np.maximum(sums[first] / 2.0, 1.0)
    return first, np.fromiter(map(math.acosh, half.tolist()), dtype=float,
                              count=half.size)


def _tally(dist: np.ndarray, below: np.ndarray, ones: np.ndarray,
           times: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The counted form of weighted sums, from the displacements dist of
    the distinct sorted sums, the number of sums below each distinct sum
    and then in all (below), and how many of those count once (ones,
    alike).

    The form is distinct, the sorted distinct displacements, then for
    each multiplicity t in times an array below: the number of counted
    displacements under each distinct one and, last, in all, where each
    sum counts t times and those in ones once.  On the sorted array arr
    of all counted displacements, searchsorted(arr, x, "left") equals
    below[searchsorted(distinct, x, "left")]."""
    # distinct sums may round to one displacement
    keep = np.flatnonzero(np.diff(dist, prepend=-math.inf))
    ends = np.r_[keep, dist.size]
    below, ones = below[ends], ones[ends]
    return (dist[keep], *(t * below - (t - 1) * ones for t in times))


# Largest complete ball built so far per base-point depth h, as h ->
# (radius, counted norms).  Serving a smaller radius from it is exact:
# every count is a count of norms below some x at most the radius asked
# for, and the displacement grows with the weighted entry sum, so what a
# larger ball adds lies at or above that radius and is never counted.
_BALLS: dict[float,
             tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]] = {}


def _sorted_norms(r: float,
                  h: float = 0.0) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Displacements of the counted objects, complete below radius r
    about the base point i * e^h, in the counted form of _tally: the
    group elements, and at h = 0 also the cosets of P and the nontrivial
    double cosets.  The oracle's one enumeration path: the
    arrays are shared and read-only, and a request above the ball held
    at depth h replaces it.

    The ball is one walk over reduced words (see _walk): modulo +-1 the
    group is free on A and B (Sanov 1947), so each element is one reduced
    word, and each coset of the parabolic subgroup P = <A> is a set of
    words.  The walk prunes exactly, at every depth h.  D = {|Re z| <= 1,
    |z +- 1/2| >= 1/2} is the Dirichlet domain at i, and its sides pair
    A^{+-1} and B^{+-1}.  By ping-pong, w z0 lies beyond the side of the
    first letter Y of w, the side between i and Y i, for every z0 in the
    interior of D, and i e^h lies there.  So for a letter X with X w
    reduced, X^{-1} is not Y, w z0 is strictly nearer i than X^{-1} i,
    and d(i, X w z0) = d(X^{-1} i, w z0) > d(i, w z0): every letter
    prepended raises the weighted sum, 2 cosh d(i, g i e^h).  Along a
    chain of the third cusp each member prepends one letter to the one
    before, so the members in the ball are a prefix of the chain, and
    the walk's closed-form window for it is exact.

    At h = 0 inversion keeps the entry sum and reverses words, so every
    letter appended raises it too.  The minimum of each right coset g P
    then sits at its word that does not end in A^{+-1}, and the minimum
    of each double coset P g P, g outside P, at its word that neither
    starts nor ends in A^{+-1}; inversion maps left cosets onto right
    ones, so the two counts are one, kept once as the cosets.  There (a,
    b, c, d) -> (d, c, b, a), conjugation by [[0, 1], [1, 0]], swaps A
    and B and keeps the entry sum, and at every depth the mirror (a, -b,
    -c, d), conjugation by diag(1, -1), flips the exponents and keeps
    the weighted sum.  So at h = 0 one walk over the words ending in B^k,
    k > 0, gives every count: the group is the identity once and each
    walked sum four times, the cosets the identity's coset once and each
    walked sum twice, and the double cosets the walked words with an odd
    syllable count, which start in B too, each twice.  At h != 0 the walk
    starts from A and B, and each sum but the identity's counts twice.
    The displacement acosh(max(1, s/2)) never decreases as the weighted
    sum s grows, so the one sort runs on the sums, and one acosh pass
    maps the distinct ones: the odd words' sums are walked sums, counted
    under the group's distinct sums.
    """
    _check_cap(r, BALL_CAP)
    built = _BALLS.get(h)
    if built is not None and r <= built[0]:
        return built[1]
    starts = (_B_FIRST,) if h == 0.0 else (_A_FIRST, _B_FIRST)
    walked, odd_sums = [np.empty(0)], [np.empty(0)]
    for *word, odd in _walk(r, h, starts):
        sums = _weighted_sums(*word, h)
        walked.append(sums)
        if h == 0.0:
            odd_sums.append(sums[odd])
    sums = np.concatenate(walked)
    # the batches are a second copy of the ball's largest array: free
    # them before the sort and the tallies, which set the peak memory
    del walked
    # the identity, walked first, counts once
    identity = sums[:1].copy()
    # in place: the ball's largest array
    sums.sort()
    first, dist = _distinct(sums)
    ones = np.searchsorted(identity, np.r_[sums[first], math.inf])
    group, *below = _tally(dist, np.r_[first, sums.size], ones,
                           (4, 2) if h == 0.0 else (2,))
    norms = {"group": (group, below[0])}
    if h == 0.0:
        norms["cosets"] = (group, below[1])
        # the odd words' sums are walked sums: below each distinct sum
        # lie the odd ones up to the one before it
        odd_sums = np.concatenate(odd_sums)
        odd_sums.sort()
        below = np.searchsorted(odd_sums, np.r_[sums[first], math.inf])
        has = np.flatnonzero(np.diff(below))
        below = below[np.r_[has, first.size]]
        norms["double"] = _tally(dist[has], below, np.zeros_like(below),
                                 (2,))
    for pair in norms.values():
        for arr in pair:
            arr.flags.writeable = False
    _BALLS[h] = (r, norms)
    return norms


def _ball(norms: tuple[np.ndarray, np.ndarray], r):
    """Count of norms below r, for a radius or an array of radii."""
    distinct, below = norms
    return below[np.searchsorted(distinct, r, side="left")]


def _annulus(norms: tuple[np.ndarray, np.ndarray], r, gauge):
    """Count of norms in [r - gauge/2, r + gauge/2), 0 for a gauge <= 0;
    radii and gauges broadcast."""
    return np.maximum(
        _ball(norms, r + gauge / 2.0) - _ball(norms, r - gauge / 2.0), 0)


class CountTable(NamedTuple):
    """Ball and annulus counts on a gauge grid."""
    gauge: float
    radii: np.ndarray
    v_group: np.ndarray
    v_group_annulus: np.ndarray
    v_cosets: np.ndarray
    v_double: np.ndarray


def coset_counts(r: float, gauge: float) -> CountTable:
    """Counts of group elements, cosets, and double cosets at every
    multiple of the gauge up to r, plus the group annulus counts."""
    _check_cap(r)
    _check_gauge(gauge)
    radii = np.arange(gauge, r + gauge / 2.0, gauge)
    radii = radii[radii <= r + 1e-12]
    if radii.size == 0:
        raise DomainError(f"gauge {gauge!r} exceeds radius {r!r}: "
                          f"no gauge multiple to count at")
    norms = _sorted_norms(prop28_radius(r, gauge))
    return CountTable(
        gauge=gauge,
        radii=radii,
        v_group=_ball(norms["group"], radii),
        v_group_annulus=_annulus(norms["group"], radii, gauge),
        v_cosets=_ball(norms["cosets"], radii),
        v_double=_ball(norms["double"], radii),
    )


# -- lemma verification -------------------------------------------------------

# SplitMix64's counter increment (the golden-ratio constant) and finalizer
_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array; products wrap mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_MULTIPLIERS[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX_MULTIPLIERS[1]
    return z ^ (z >> np.uint64(31))


class _CounterUniforms:
    """Uniform draws from SplitMix64 on uint64 counters keyed by a seed.

    Draw i (from 0) is the top 53 bits of mix(key + (i + 1) gamma) over
    2^53, so any stretch of draws is one array pass and no generator
    state is carried but the count.  The key folds the seed, of any
    non-negative size, 64 bits at a time from the low end, the number of
    words included.  A draw on [low, high) is low + (high - low) u, as
    numpy's ``Generator.uniform`` makes it."""

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise DomainError(f"seed must be non-negative, got {seed}")
        words = [(seed >> shift) & _MASK64
                 for shift in range(0, max(seed.bit_length(), 1), 64)]
        key = np.array([len(words)], dtype=np.uint64)
        for word in words:
            key = _mix64((key ^ np.uint64(word)) + _MIX_GAMMA)
        self._key = key
        self._drawn = 0

    def uniform(self, low, high, size=None):
        """Draws on [low, high) (broadcast against ``size``), in row-major
        order; a float when ``size`` is None."""
        count = int(np.prod(size)) if size is not None else 1
        counter = np.arange(self._drawn + 1, self._drawn + count + 1,
                            dtype=np.uint64)
        self._drawn += count
        bits = _mix64(self._key + counter * _MIX_GAMMA) >> np.uint64(11)
        u = bits.astype(float) * 2.0 ** -53
        if size is None:
            return float(low + (high - low) * u[0])
        return low + (high - low) * u.reshape(size)


def _h2_distances(zr, zi, wr, wi) -> np.ndarray:
    """Hyperbolic distances between the points zr + i zi and wr + i wi of
    the upper half-plane, over coordinate arrays."""
    gap = np.square(zr - wr) + np.square(zi - wi)
    return np.arccosh(1.0 + gap / (2.0 * zi * wi))


def _triangle_allowance(a: np.ndarray, b: np.ndarray,
                        c: np.ndarray) -> np.ndarray:
    """Thin-triangle allowance ln(2 / (1 - cos g)) at the angle g between
    the sides a and b, opposite c; by the half-angle law (Beardon 1983,
    7.12) ln(sinh a sinh b / (sinh(s-a) sinh(s-b))), s = (a+b+c)/2, and
    +inf where a side or s - a or s - b vanishes."""
    s = (a + b + c) / 2.0
    sides = np.stack([a, b, s - a, s - b])
    ok = np.all(sides > 0.0, axis=0)
    sh = np.sinh(np.where(ok, sides, 1.0))
    return np.where(ok, np.log((sh[0] * sh[1]) / (sh[2] * sh[3])), math.inf)


def _horoball_allowance(d: np.ndarray) -> np.ndarray:
    """Horoball-additivity allowance at gap d > 0: ln 2 for a right angle
    plus the triangle allowance at the complement of the largest entry
    angle arctan(1/sinh d) into the far horoball, whose cosine is 1/cosh d."""
    return np.log(4.0 / (1.0 - 1.0 / np.cosh(d)))


class LemmaReport(NamedTuple):
    """Outcome of the randomized geometric-lemma sweep."""
    samples: int
    seed: int
    triangle_violations: int
    triangle_max_defect: float
    approx_eps0: float
    approx_window_low: float
    approx_window_high: float
    horoball_violations: int
    horoball_min_defect: float
    eps1_fitted: float

    @property
    def approx_window_growth(self) -> float:
        return self.approx_window_high - self.approx_window_low

    @property
    def passed(self) -> bool:
        return (self.triangle_violations == 0
                and self.horoball_violations == 0
                and self.horoball_min_defect >= -1e-9)


def verify_lemmas(sample_count: int, seed: int) -> LemmaReport:
    """Randomized sweep of the three comparison lemmas.

    Triangles: the excess d(x,z) + d(z,y) - d(x,y) never exceeds the
    thin-triangle allowance at the apex angle, read off the three side
    lengths by the half-angle law.  Flow-time
    approximation: |d - (2 t + |b|)| is uniformly bounded; the fitted
    bound and its growth between distance windows are recorded.
    Horoball additivity: for points in two disjoint horoballs the path
    through the closest boundary points overshoots by at most the
    analytic allowance at the measured gap, and never undershoots.
    """
    if sample_count < 1:
        raise DomainError("need at least one sample")
    rng = _CounterUniforms(seed)

    def draw(*bounds: tuple[float, float]) -> list[np.ndarray]:
        # one column per uniform(low, high) call of a sample, in call order
        low, high = np.array(bounds).T
        return list(rng.uniform(low, high, (sample_count, len(bounds))).T)

    point = ((-50.0, 50.0), (-5.0, 5.0))
    xr, xl, yr, yl, zr, zl = draw(*point * 3)
    xi, yi, zi = np.exp(xl), np.exp(yl), np.exp(zl)
    d_zx, d_zy = _h2_distances(zr, zi, xr, xi), _h2_distances(zr, zi, yr, yi)
    d_xy = _h2_distances(xr, xi, yr, yi)
    excess = d_zx + d_zy - d_xy
    tri_violations = int(np.count_nonzero(
        excess > _triangle_allowance(d_zx, d_zy, d_xy) + 1e-9))
    tri_max = float(excess.max(initial=0.0))

    xr, xl, yr, yl = draw(*point * 2)
    xi, yi = np.exp(xl), np.exp(yl)
    d = _h2_distances(xr, xi, yr, yi)
    # the defect d - (2 t_xi + |busemann|): t_xi is 0 unless the
    # horizontal gap exceeds the level
    gap, level = np.abs(xr - yr), np.maximum(xi, yi)
    far = gap > level
    t = np.zeros(sample_count)
    t[far] = np.log(gap[far]) - np.log(level[far])
    busemann = np.log(yi) - np.log(xi)
    dev = np.abs(d - (2.0 * t + np.abs(busemann)))
    eps0 = float(dev.max(initial=0.0))
    win_low = float(dev[(5.0 <= d) & (d < 10.0)].max(initial=0.0))
    win_high = float(dev[(10.0 <= d) & (d <= 14.0)].max(initial=0.0))

    # horoball at infinity with boundary level S, horoball tangent to the
    # real axis at 0 with top height T; gap = ln(S/T) > 0
    sigma, tau, xr, xu, ry, yu = draw(
        (0.1, 3.0), (0.1, 3.0), (-50.0, 50.0), (0.0, 3.0), (-50.0, 50.0),
        (0.0, 3.0))
    level, top = np.exp(sigma), np.exp(-tau)
    xi = level * np.exp(xu)
    uy = (1.0 / top) * np.exp(yu)
    denom = np.square(ry) + np.square(uy)
    yr, yi = -ry / denom, uy / denom
    through = (_h2_distances(xr, xi, 0.0, level) + (sigma + tau)
               + _h2_distances(0.0, top, yr, yi))
    defect = through - _h2_distances(xr, xi, yr, yi)
    horo_violations = int(np.count_nonzero(
        defect > _horoball_allowance(sigma + tau) + 1e-9))
    min_defect = float(defect.min())

    return LemmaReport(
        samples=sample_count, seed=seed, triangle_violations=tri_violations,
        triangle_max_defect=tri_max, approx_eps0=eps0,
        approx_window_low=win_low, approx_window_high=win_high,
        horoball_violations=horo_violations, horoball_min_defect=min_defect,
        eps1_fitted=float(defect.max(initial=0.0)))


# -- coset-count sandwiches ---------------------------------------------------


class Prop28Report(NamedTuple):
    """Two-phase verification of the coset-count sandwiches.

    Right-hand sides hold exactly by injectivity (each coset is witnessed
    by its minimizing element); the left-hand sides need gauge shifts and
    prefactors, so those shifts are fitted on the inner half of the
    radius range and then asserted on the outer half.  Left and right
    cosets count alike (see _sorted_norms), so one sandwich and one
    shift serve both.
    """
    gauge: float
    r_max: float
    fit_max: float
    n_fit: int
    n_assert: int
    right_left_in_group: bool
    right_double_in_group: bool
    shift_cosets_lower: Optional[float]
    shift_double_lower: Optional[float]
    assert_ok: bool

    @property
    def passed(self) -> bool:
        return (self.right_left_in_group and self.right_double_in_group
                and self.assert_ok
                and None not in (self.shift_cosets_lower,
                                 self.shift_double_lower))


def verify_prop28(r: float, gauge: float) -> Prop28Report:
    """Verify the ball/annulus sandwiches between group, coset, and
    double-coset counts.

    Checks run on a quarter-unit radius grid rather than gauge
    multiples: the double-coset inequality is asymptotically tight, so
    coarse rows can miss borderline radii and produce a fit that fails
    outside its range.
    """
    _check_cap(r)
    _check_gauge(gauge)
    radii = np.arange(0.25, r + 1e-12, 0.25)
    fit_max = r / 2.0
    fit = radii <= fit_max
    if not fit.any() or fit.all():
        raise DomainError(f"radius {r!r} leaves no fit row or no assert row "
                          f"on the quarter-unit grid; it must be at least 0.5")
    norms = _sorted_norms(prop28_radius(r, gauge))
    annuli = {name: _annulus(arr, radii, gauge) for name, arr in norms.items()}

    right_left = bool(np.all(annuli["cosets"] <= annuli["group"]))
    right_double = bool(np.all(annuli["double"] <= annuli["group"]))

    # prefactor * v^{gauge-s}_group <= v^gauge_coset with one row per
    # shift s and one column per radius; the left side shrinks as s grows,
    # so each fit is the first shift that holds on every fit radius, and
    # its row is then asserted on the rest
    shift_grid = np.arange(0.0, gauge + 2.0 + 1e-9, 0.25)
    group = _annulus(norms["group"], radii, gauge - shift_grid[:, None])
    fits = {}
    assert_ok = True
    for name, prefactor in (("cosets", 0.5), ("double", 0.25)):
        holds = prefactor * group <= annuli[name] + 1e-9
        ok = np.flatnonzero(np.all(holds[:, fit], axis=1))
        if ok.size == 0:
            fits[name], assert_ok = None, False
            continue
        fits[name] = float(shift_grid[ok[0]])
        assert_ok = assert_ok and bool(np.all(holds[ok[0], ~fit]))

    return Prop28Report(
        gauge=gauge, r_max=r, fit_max=fit_max,
        n_fit=int(np.count_nonzero(fit)), n_assert=int(np.count_nonzero(~fit)),
        right_left_in_group=right_left, right_double_in_group=right_double,
        shift_cosets_lower=fits["cosets"], shift_double_lower=fits["double"],
        assert_ok=assert_ok)


# -- critical exponent and counting formula -----------------------------------


class DeltaReport(NamedTuple):
    """Windowed critical-exponent estimate from exact orbit counts; the
    point estimate is the midpoint of the outermost window's ratio range,
    the window least biased by the finite radius."""
    estimate: float
    est: ExponentEstimate
    r_cap: float
    n_elements: int


# estimate_delta fits np.linspace(_DELTA_R_MIN, r_cap, _DELTA_POINTS)
# with two halving windows, which cover the exactly countable radius
# range; the convergence tolerance matches the O(1/R) drift that the
# windowed ratio statistic carries at these radii.  _DELTA_FLOOR, 996/121,
# is the least r_cap at which every window holds the samples it needs
_DELTA_R_MIN = 4.0
_DELTA_POINTS = 257
_DELTA_POLICY = WindowPolicy(n_windows=2, tol=0.05)
_DELTA_FLOOR = _DELTA_POLICY.min_r_max(_DELTA_R_MIN, _DELTA_POINTS)


def estimate_delta(*, r_cap: float = 12.0) -> DeltaReport:
    """Estimate the lattice's critical exponent from exact ball counts;
    constant curvature -1 in the plane pins the true value at 1."""
    _check_cap(r_cap)
    if r_cap < _DELTA_FLOOR:
        raise DomainError(
            f"r_cap {r_cap!r} is below estimate_delta's floor "
            f"{_DELTA_FLOOR!r}: its fit windows would hold too few samples")
    norms = _sorted_norms(r_cap)["group"]
    radii = np.linspace(_DELTA_R_MIN, r_cap, _DELTA_POINTS)
    counts = _ball(norms, radii).astype(float)
    series = GrowthSeries(radii, np.log(counts))
    est = estimate_exponents(series, _DELTA_POLICY)
    return DeltaReport(
        estimate=0.5 * (est.window_peaks[0] + est.window_floors[0]), est=est,
        r_cap=r_cap, n_elements=int(counts[-1]))


class CountingBandReport(NamedTuple):
    """Two-phase counting-formula check: the log constant absorbing the
    empirical deviation from the convolution envelope is fitted on the
    inner radii and then asserted, frozen, on the outer radii."""
    depth: float
    fit_max: float
    r_cap: float
    log_constant: float
    fit_pad: float
    max_fit_deviation: float
    max_assert_deviation: float
    max_center_drift: float
    assert_ok: bool

    @property
    def passed(self) -> bool:
        return self.assert_ok


# verify_counting compares the counts toward the point at cusp depth
# _COUNTING_DEPTH with the counting band, computed to _COUNTING_REL_TOL,
# on np.arange(_COUNTING_R_MIN, _COUNTING_R_CAP, _COUNTING_STEP) with
# _COUNTING_R_CAP included; it fits on the radii up to _COUNTING_FIT_MAX
_COUNTING_DEPTH = 2.0
_COUNTING_R_MIN = 4.0
_COUNTING_R_CAP = 12.0
_COUNTING_FIT_MAX = 6.0
_COUNTING_STEP = 0.25
_COUNTING_REL_TOL = 1e-8


def verify_counting(*, fit_pad: float = 0.05) -> CountingBandReport:
    """Check exact orbit counts toward a point at cusp depth
    ``_COUNTING_DEPTH`` against the convolution counting band.

    The ambient model is the bare unit-exponent count and the cusp is the
    plane's parabolic with horocyclic fundamental length 2, so the only
    free parameter is the band's log constant: it is fitted on the inner
    radii, padded for the residual approach drift of the count toward its
    limit constant, then frozen and asserted outside.
    """
    norms = _sorted_norms(_COUNTING_R_CAP, _COUNTING_DEPTH)["group"]
    radii = np.arange(_COUNTING_R_MIN, _COUNTING_R_CAP + 1e-12, _COUNTING_STEP)
    counts = _ball(norms, radii).astype(float)
    log_emp = np.log(counts)

    prof = assemble_profile(CurvatureBounds(a=1.0, b=1.0),
                            [pure_piece(0.0, math.inf, 1.0)])
    cusp = CuspModel(profile=prof, c_norm=2.0)
    vg = VGammaModel(1.0)
    mids = counting_band(vg, cusp, _COUNTING_DEPTH, radii,
                         rel_tol=_COUNTING_REL_TOL)

    dev = log_emp - mids
    fit_mask = radii <= _COUNTING_FIT_MAX + 1e-12
    max_fit = float(np.max(np.abs(dev[fit_mask])))
    log_c = max_fit + fit_pad
    max_assert = float(np.max(np.abs(dev[~fit_mask])))
    center = float(np.mean(dev[fit_mask]))
    drift = float(np.max(np.abs(dev[~fit_mask] - center)))
    return CountingBandReport(
        depth=_COUNTING_DEPTH, fit_max=_COUNTING_FIT_MAX,
        r_cap=_COUNTING_R_CAP,
        log_constant=log_c, fit_pad=fit_pad, max_fit_deviation=max_fit,
        max_assert_deviation=max_assert, max_center_drift=drift,
        assert_ok=max_assert <= log_c)
