"""Lattice taxonomy and the growth-behaviour dispatcher.

A lattice specification bundles cusp models, an ambient orbit-count
model, and curvature bounds.  Classification reads the per-cusp
parabolic exponents, sorts the lattice into the sparse/exotic/pinched
taxonomy, settles the invariant-measure verdict, and emits the predicted
growth classes; ``run_example`` drives the whole pipeline on a catalog
family and scores the computed behaviour against the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .profiles import (
    _FAMILIES,
    CatalogParams,
    CurvatureBounds,
    catalog_profiles,
    default_catalog_params,
)
from .asymptotics import (
    CuspModel,
    ExponentEstimate,
    GrowthClass,
    GrowthSeries,
    TrendPolicy,
    WindowPolicy,
    classify_growth,
    estimate_exponents,
    log_orbital_parabolic,
    series_convergence_at,
)
from .convolution import (
    VGammaModel,
    cuspidal_interpolants,
    volume_band,
)

__all__ = [
    "PINCH_STRICT",
    "PINCH_EXACT",
    "PINCH_NONE",
    "LatticeSpec",
    "Predictions",
    "PinchGateReport",
    "quarter_pinch_gate",
    "TaxonomyReport",
    "classify_lattice",
    "catalog_specs",
    "catalog_spec",
    "Claim",
    "ExampleReport",
    "run_example",
]

PINCH_STRICT = "strictly-half-pinched"
PINCH_EXACT = "exactly-half-pinched"
PINCH_NONE = "not-half-pinched"


@dataclass(frozen=True)
class LatticeSpec:
    """A cusped lattice as seen by the classifier: its cusp models, the
    ambient orbit-count model, the curvature window, and per-cusp
    dominance assertions (the flagged cusps' upper parabolic exponent is
    claimed to equal the ambient exponent exactly, by construction).

    ``bounds`` should describe the curvature window away from the core,
    since the pinch gate models asymptotic pinching; a wobbly compact
    part may be ignored when declaring it.  The entropy floor (n-1)*a is
    only sound when curvature <= -a^2 holds globally, so keep ``a`` at
    the global value even when tightening ``b`` to the tail window."""
    cusps: tuple[CuspModel, ...]
    vgamma: VGammaModel
    bounds: CurvatureBounds
    dominant_flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cusps", tuple(self.cusps))
        object.__setattr__(self, "dominant_flags", tuple(self.dominant_flags))
        if not self.cusps:
            raise DomainError("a lattice specification needs at least one cusp")
        if len(self.dominant_flags) != len(self.cusps):
            raise DomainError("need one dominance flag per cusp")


class Predictions(NamedTuple):
    """Predicted growth behaviour; None marks a claim the taxonomy does
    not constrain."""
    vgamma_class: Optional[GrowthClass]
    vx_class: Optional[GrowthClass]
    bm_finite: Optional[bool]
    margulis: Optional[bool]


class PinchGateReport(NamedTuple):
    """Consequences of a quarter-pinched curvature window.

    When b^2 <= 4a^2 the parabolic exponents of every cusp are
    trapped in [a(n-1)/2, b(n-1)/2], which lies strictly below the
    ambient exponent as soon as that exceeds the entropy floor (n-1)a; an
    ambient exponent below the floor is a specification inconsistency.
    """
    applies: bool
    delta_floor: float
    delta_plus_cap: float
    entropy_floor: float
    entropy_floor_ok: bool
    critical_gap: bool
    delta_gamma: float


def quarter_pinch_gate(bounds: CurvatureBounds,
                       delta_gamma: float) -> PinchGateReport:
    """Check b^2 <= 4a^2 and derive its exponent consequences."""
    if delta_gamma <= 0:
        raise DomainError("ambient exponent must be positive")
    n1 = bounds.n - 1
    applies = bounds.b ** 2 <= 4.0 * bounds.a ** 2 + 1e-12
    floor = n1 * bounds.a
    return PinchGateReport(
        applies=applies,
        delta_floor=bounds.a * n1 / 2.0,
        delta_plus_cap=bounds.b * n1 / 2.0,
        entropy_floor=floor,
        entropy_floor_ok=(not applies) or delta_gamma >= floor - 1e-12,
        critical_gap=bool(applies and delta_gamma > floor),
        delta_gamma=delta_gamma,
    )


def _group_divergent(vg: VGammaModel) -> bool:
    # The ambient orbit series at its own exponent sums the subexponential
    # factor R^{-decay}, which diverges iff decay <= 1.
    return vg.decay <= 1.0


class TaxonomyReport(NamedTuple):
    sparse: bool
    exotic: bool
    pinch_class: str
    quarter_pinched: bool
    predictions: Predictions
    delta_gamma: float
    estimates: tuple[ExponentEstimate, ...]
    dominant_flags: tuple[bool, ...]
    group_divergent: bool
    series_verdicts: tuple[Optional[bool], ...]
    bm_finite: bool
    tol: float
    notes: tuple[str, ...] = ()


# classify_lattice samples the parabolic orbit series on
# np.linspace(1, _CLASSIFY_R_MAX, _CLASSIFY_POINTS)
_CLASSIFY_R_MAX = 4500.0
_CLASSIFY_POINTS = 1025


def classify_lattice(spec: LatticeSpec,
                     *,
                     tol_factor: float = 0.02) -> TaxonomyReport:
    """Sort a lattice specification into the sparse/exotic/pinched
    taxonomy and dispatch its growth predictions.

    Per-cusp exponents are estimated from the closed-form parabolic orbit
    series sampled on [1, _CLASSIFY_R_MAX]; that radius covers a full
    oscillation cycle of every catalog family at desk scale, where the
    finite-radius bias of the window estimator is smallest.  Equality
    tests use the relative tolerance ``tol_factor * delta``, and the
    quarter-pinch gate allows no pinching slack.
    """
    delta = spec.vgamma.delta
    tol = tol_factor * delta
    radii = np.linspace(1.0, _CLASSIFY_R_MAX, _CLASSIFY_POINTS)
    estimates = tuple(
        estimate_exponents(GrowthSeries(radii, log_orbital_parabolic(c, radii)))
        for c in spec.cusps)

    notes: list[str] = []
    for i, (flag, est) in enumerate(zip(spec.dominant_flags, estimates)):
        if flag and abs(est.omega_plus - delta) > tol:
            raise ConfigError(
                f"cusp {i} is flagged dominant but its upper exponent "
                f"{est.omega_plus:.4f} differs from the ambient exponent "
                f"{delta:.4f} by more than {tol:.4f}")
    highest = max(est.omega_plus for est in estimates)
    if delta < highest - tol:
        raise ConfigError(
            f"ambient exponent {delta:.4f} lies below a cusp exponent "
            f"{highest:.4f}; a subgroup cannot outgrow the lattice")

    diffs = [est.omega_plus - 2.0 * est.omega_minus for est in estimates]
    sparse = any(d > tol for d in diffs)
    exotic = any(spec.dominant_flags)
    if sparse:
        pinch = PINCH_NONE
    elif any(abs(d) <= tol for d in diffs):
        pinch = PINCH_EXACT
    else:
        pinch = PINCH_STRICT

    gate = quarter_pinch_gate(spec.bounds, delta)
    if not gate.entropy_floor_ok:
        notes.append("ambient exponent violates the curvature entropy floor")
    if gate.critical_gap and exotic:
        raise ConfigError(
            "dominant flag contradicts the quarter-pinch critical gap "
            "(every cusp exponent must stay below the ambient exponent)")

    group_div = _group_divergent(spec.vgamma)
    notes.append(
        "group divergence type is read from the ambient model's "
        "subexponential factor, a modelling assumption")
    verdicts: list[Optional[bool]] = []
    for cusp, flag in zip(spec.cusps, spec.dominant_flags):
        verdicts.append(
            series_convergence_at(cusp, delta).verdict
            if flag else None)
    dom = [v for v, f in zip(verdicts, spec.dominant_flags) if f]
    bm = group_div and all(dom)
    if group_div and not dom:
        notes.append("no dominant cusps; the weighted-series criterion "
                     "is vacuous and the verdict follows divergence alone")

    # Theorem dispatch keyed on the dominant cusps' pinch behaviour, in
    # four branches: sparse, regular, exotic at the half-pinch boundary,
    # and exotic strictly half-pinched.
    dom_diffs = [d for d, f in zip(diffs, spec.dominant_flags) if f]
    ambient = GrowthClass.PURE if bm else GrowthClass.LOWER
    if sparse:
        predictions = Predictions(None, None, None, None)
    elif not exotic:
        predictions = Predictions(GrowthClass.PURE, GrowthClass.PURE, True, True)
    elif any(abs(d) <= tol for d in dom_diffs):
        predictions = Predictions(ambient, GrowthClass.UPPER, bm, False)
    else:
        predictions = Predictions(ambient, ambient, bm, None)

    return TaxonomyReport(
        sparse=sparse, exotic=exotic, pinch_class=pinch,
        quarter_pinched=gate.applies, predictions=predictions,
        delta_gamma=delta, estimates=estimates,
        dominant_flags=spec.dominant_flags, group_divergent=group_div,
        series_verdicts=tuple(verdicts), bm_finite=bm, tol=tol,
        notes=tuple(notes))


# -- catalog example driver ------------------------------------------------------

def catalog_specs(families: Sequence[tuple[str, CatalogParams | None]]
                  ) -> list[LatticeSpec]:
    """Assemble the full lattice description of each (name, params)
    catalog family: cusp models for the main profile and its companions,
    the ambient count model, and the dominance flags.  Every profile is
    built in one batch (``catalog_profiles``), which raises the first
    error a family-by-family build would."""
    built = catalog_profiles(families)
    specs = []
    for (name, params), profiles in zip(families, built):
        delta, decay, flags = _LATTICES[name].model(
            params or default_catalog_params(name))
        specs.append(LatticeSpec(cusps=tuple(CuspModel(p) for p in profiles),
                                 vgamma=VGammaModel(delta, decay),
                                 bounds=profiles[0].bounds,
                                 dominant_flags=flags))
    return specs


def catalog_spec(name: str,
                 params: CatalogParams | None = None) -> LatticeSpec:
    """The lattice description of one catalog family (``catalog_specs``)."""
    return catalog_specs([(name, params)])[0]


# sampled-band residuals carry a polynomial transient; below this radius
# the computed growth classes reflect the transient, not the regime
_SAMPLED_CLAIM_RADIUS = 500.0


def _class_name(kind: Optional[GrowthClass]) -> str:
    return "unconstrained" if kind is None else kind.value


# The claims every run scores, in order, each with the printer of its
# expected and computed values: the taxonomy's decisions, the dispatched
# predictions, and the growth class the ambient series realizes
_CLAIMS = (
    ("sparse", str), ("exotic", str), ("pinch-class", str),
    ("predicted-ambient-class", _class_name),
    ("predicted-volume-class", _class_name),
    ("predicted-invariant-measure", lambda v: "unconstrained" if v is None
     else ("finite" if v else "infinite")),
    ("margulis-prediction", lambda v: "no prediction" if v is None else str(v)),
    ("computed-ambient-class", _class_name),
)


class _Lattice(NamedTuple):
    """A catalog family's example lattice: ``model(params)`` gives its
    ambient model (delta, decay, dominance flags) from the fields
    ``reads``, and ``expect`` one value per ``_CLAIMS`` entry.  The
    sampled figures, where set, are scored from ``_SAMPLED_CLAIM_RADIUS``
    on: the volume class, and the least peak trend and rate gap."""
    model: Callable[[CatalogParams], tuple[float, float, tuple[bool, ...]]]
    reads: frozenset[str]
    expect: tuple
    volume: Optional[GrowthClass] = None
    peak_trend: Optional[float] = None
    gap: Optional[float] = None


# The critical families' upper-excursion regime lies far beyond desk
# radii, so they score the rising volume-to-ambient peaks, its finite-
# radius footprint, and not their computed volume class.
_LATTICES = {
    "sparse-5.2": _Lattice(
        # the oscillating cusp pushes the ambient exponent slightly above
        # b/2, by half a bump that scales like the inverse spacing base
        model=lambda p: (p.rate_fast / 2.0 + (p.rate_fast / 2.0 - 1.0) / p.m / 2.0,
                         0.0, (False,)),
        reads=frozenset({"rate_fast", "m"}),
        expect=(True, False, PINCH_NONE, None, None, None, None,
                GrowthClass.PURE),
        gap=0.05),
    "exotic-conv-5.3a": _Lattice(
        model=lambda p: (p.rate_fast / 2.0, p.beta - 1.0, (True,)),
        reads=frozenset({"rate_fast", "beta"}),
        expect=(False, True, PINCH_STRICT, GrowthClass.LOWER,
                GrowthClass.LOWER, False, None, GrowthClass.LOWER),
        volume=GrowthClass.LOWER),
    "exotic-div-5.3b": _Lattice(
        model=lambda p: (p.rate_fast / 2.0, 0.0, (True,)),
        reads=frozenset({"rate_fast"}),
        expect=(False, True, PINCH_STRICT, GrowthClass.PURE,
                GrowthClass.PURE, True, None, GrowthClass.PURE),
        volume=GrowthClass.PURE),
    "critical-finite-5.4a": _Lattice(
        model=lambda p: (p.rate_fast / 2.0, 0.0, (True,)),
        reads=frozenset({"rate_fast"}),
        expect=(False, True, PINCH_EXACT, GrowthClass.PURE,
                GrowthClass.UPPER, True, False, GrowthClass.PURE),
        peak_trend=0.15),
    "critical-infinite-5.4b": _Lattice(
        model=lambda p: (p.rate_fast / 2.0, 1.0 - p.gamma, (True, True)),
        reads=frozenset({"rate_fast", "gamma"}),
        expect=(False, True, PINCH_EXACT, GrowthClass.LOWER,
                GrowthClass.UPPER, False, False, GrowthClass.LOWER),
        peak_trend=0.15),
}

# The CatalogParams fields each family reads in all: through its main
# profile, its companions and its ambient model.
_FAMILY_READS = {name: f.reads | f.companion_reads | _LATTICES[name].reads
                 for name, f in _FAMILIES.items()}


class Claim(NamedTuple):
    name: str
    expected: str
    computed: str
    passed: bool


class ExampleReport(NamedTuple):
    name: str
    params: CatalogParams
    taxonomy: TaxonomyReport
    delta_gamma: float
    vgamma_class: GrowthClass
    vx_class: GrowthClass
    vx_upper_rate: float
    vx_peak_trend: float
    radii: np.ndarray
    log_vgamma: np.ndarray
    log_vx_lower: np.ndarray
    log_vx_upper: np.ndarray
    claims: tuple[Claim, ...]
    passed: bool
    notes: tuple[str, ...] = ()


# run_example samples its growth series on np.linspace(1, r_max,
# _GRID_POINTS), classifies to _CLASSIFY_R_MAX and caches the excursion
# integrals every _CACHE_STEP.  _R_MAX_FLOOR is the least r_max at which
# every tail window of its growth fit holds the samples it needs.  Each
# cache holds ceil((r_max + 1 - t_start) / _CACHE_STEP) nodes, and a
# profile starts at t_start >= 0, so up to _R_MAX_CAP none holds more
# than _CACHE_NODES; there, example-run on the one-cusp exotic-div-5.3b
# took about a minute and peaked at 134 MB on a 2-vCPU Xeon
_GRID_POINTS = 257
_CACHE_STEP = 2.0
_R_MAX_FLOOR = WindowPolicy().min_r_max(1.0, _GRID_POINTS)
_CACHE_NODES = 1_000_000
_R_MAX_CAP = _CACHE_NODES * _CACHE_STEP - 1.0


def run_example(name: str,
                params: CatalogParams | None = None,
                *,
                r_max: float = 500.0,
                trend: TrendPolicy = TrendPolicy(),
                rel_tol: float = 1e-6,
                tol_factor: float = 0.02) -> ExampleReport:
    """Build a catalog family, classify it (``tol_factor`` as in
    ``classify_lattice``), compute its growth series, and score the
    computed behaviour against the taxonomy prediction."""
    params = params or default_catalog_params(name)
    spec = catalog_spec(name, params)
    vg = spec.vgamma
    delta = vg.delta
    taxonomy = classify_lattice(spec, tol_factor=tol_factor)

    radii = np.linspace(1.0, r_max, _GRID_POINTS)
    log_vg = np.asarray(vg.log_value(radii), dtype=float)
    vgamma_class = classify_growth(GrowthSeries(radii, log_vg), delta, trend).kind

    caches = cuspidal_interpolants(spec.cusps, r_max + 1.0, step=_CACHE_STEP,
                                   rel_tol=rel_tol)
    band = volume_band(vg, caches, radii, rel_tol=rel_tol)
    vx_lower, vx_upper = band.lower, band.upper
    vx_series = GrowthSeries(radii, vx_upper)
    vx_class = classify_growth(vx_series, delta, trend).kind
    vx_rate = estimate_exponents(vx_series).omega_plus

    ratio_series = GrowthSeries(radii, vx_upper - log_vg)
    peak_trend = classify_growth(ratio_series, 0.0, trend).trend_peak

    lattice = _LATTICES[name]
    pred = taxonomy.predictions
    computed = (taxonomy.sparse, taxonomy.exotic, taxonomy.pinch_class,
                pred.vgamma_class, pred.vx_class, pred.bm_finite,
                pred.margulis, vgamma_class)
    claims = [Claim(claim, show(want), show(got), got == want)
              for (claim, show), want, got
              in zip(_CLAIMS, lattice.expect, computed)]
    notes: list[str] = []
    if r_max + 1e-9 < _SAMPLED_CLAIM_RADIUS:
        # band-residual classes flatten only near the calibrated radius;
        # below it the sampled-band claims would score a known transient
        notes.append(
            f"sampled-band claims need radius >= "
            f"{_SAMPLED_CLAIM_RADIUS!r} to clear the residual transient; "
            f"ran at {r_max!r}, so only prediction claims are scored")
    else:
        want_vx = lattice.expect[4]  # the predicted volume class
        if lattice.volume is not None:
            claims.append(Claim("computed-volume-class",
                                lattice.volume.value, vx_class.value,
                                vx_class == lattice.volume))
        elif want_vx is not None:
            notes.append(
                f"the predicted '{want_vx.value}' volume regime lies beyond "
                f"desk radii; the computed class at R <= {r_max!r} is "
                f"'{vx_class.value}' and is not scored")
        for claim, least, got in (
                ("excursion-peak-trend", lattice.peak_trend, peak_trend),
                ("upper-volume-rate-gap", lattice.gap, vx_rate - delta)):
            if least is not None:
                claims.append(Claim(claim, f">= {least!r}", f"{got!r}",
                                    got >= least))

    return ExampleReport(
        name=name, params=params, taxonomy=taxonomy, delta_gamma=delta,
        vgamma_class=vgamma_class, vx_class=vx_class, vx_upper_rate=vx_rate,
        vx_peak_trend=peak_trend, radii=radii, log_vgamma=log_vg,
        log_vx_lower=vx_lower, log_vx_upper=vx_upper, claims=tuple(claims),
        passed=all(c.passed for c in claims), notes=tuple(notes))
