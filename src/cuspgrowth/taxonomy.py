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
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .profiles import (
    _FAMILIES,
    CatalogParams,
    CurvatureBounds,
    catalog_companions,
    catalog_profile,
    default_catalog_params,
)
from .asymptotics import (
    CuspModel,
    ExponentEstimate,
    GrowthClass,
    GrowthSeries,
    TrendPolicy,
    classify_growth,
    estimate_exponents,
    sample_orbital_parabolic,
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


@dataclass(frozen=True)
class Predictions:
    """Predicted growth behaviour; None marks a claim the taxonomy does
    not constrain."""
    vgamma_class: Optional[GrowthClass]
    vx_class: Optional[GrowthClass]
    bm_finite: Optional[bool]
    margulis: Optional[bool]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PinchGateReport:
    """Consequences of a quarter-pinched curvature window.

    When b^2 <= 4a^2 (+ slack) the parabolic exponents of every cusp are
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


def quarter_pinch_gate(bounds: CurvatureBounds, delta_gamma: float,
                       *, slack: float = 0.0) -> PinchGateReport:
    """Check b^2 <= 4a^2 + slack and derive its exponent consequences.

    ``slack`` is the pinching perturbation allowed by the gate; it is NOT
    the bounds' certification tolerance, which measures how far a desk
    profile's curvature proxy strays and can be large near bridges.
    """
    if delta_gamma <= 0:
        raise DomainError("ambient exponent must be positive")
    if slack < 0:
        raise DomainError("pinching slack must be nonnegative")
    n1 = bounds.n - 1
    applies = bounds.b ** 2 <= 4.0 * bounds.a ** 2 + slack + 1e-12
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


@dataclass(frozen=True)
class TaxonomyReport:
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
    gate: PinchGateReport
    tol: float
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        lines = [
            f"sparse: {self.sparse}",
            f"exotic: {self.exotic}",
            f"pinch class: {self.pinch_class}",
            f"quarter pinched: {self.quarter_pinched}",
            f"ambient exponent: {self.delta_gamma!r}",
            f"invariant measure: {'finite' if self.bm_finite else 'infinite'}",
        ]
        for i, est in enumerate(self.estimates):
            lines.append(
                f"cusp {i}: upper {est.omega_plus:.4f} lower {est.omega_minus:.4f}"
                + (" (dominant)" if self.dominant_flags[i] else ""))
        return "\n".join(lines)


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
        estimate_exponents(sample_orbital_parabolic(c, radii))
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
    if any(d > tol for d in diffs):
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

    # Theorem dispatch keyed on the dominant cusps' pinch behaviour.
    dom_diffs = [d for d, f in zip(diffs, spec.dominant_flags) if f]
    if sparse:
        predictions = Predictions(
            vgamma_class=None, vx_class=None, bm_finite=None, margulis=None,
            notes=("sparse: any asymptotic behaviour is achievable; an upper "
                   "volume rate strictly above the ambient exponent is "
                   "realized by the catalog construction",))
    elif not exotic:
        predictions = Predictions(
            vgamma_class=GrowthClass.PURE, vx_class=GrowthClass.PURE,
            bm_finite=True, margulis=True,
            notes=("regular: volume tracks the orbit count and a limiting "
                   "growth constant exists",))
    else:
        if any(abs(d) <= tol for d in dom_diffs):
            predictions = Predictions(
                vgamma_class=GrowthClass.PURE if bm else GrowthClass.LOWER,
                vx_class=GrowthClass.UPPER,
                bm_finite=bm, margulis=False,
                notes=("exotic at the half-pinch boundary: volume outgrows "
                       "the orbit count on excursion radii",))
        else:
            predictions = Predictions(
                vgamma_class=GrowthClass.PURE if bm else GrowthClass.LOWER,
                vx_class=GrowthClass.PURE if bm else GrowthClass.LOWER,
                bm_finite=bm, margulis=None,
                notes=("exotic, strictly half-pinched: volume and orbit "
                       "count share a growth class",))

    return TaxonomyReport(
        sparse=sparse, exotic=exotic, pinch_class=pinch,
        quarter_pinched=gate.applies, predictions=predictions,
        delta_gamma=delta, estimates=estimates,
        dominant_flags=spec.dominant_flags, group_divergent=group_div,
        series_verdicts=tuple(verdicts), bm_finite=bm, gate=gate, tol=tol,
        notes=tuple(notes))


# -- catalog example driver ------------------------------------------------------

def catalog_spec(name: str,
                 params: CatalogParams | None = None) -> LatticeSpec:
    """Assemble the full lattice description of a catalog family: cusp
    models for the main profile and its companions, the ambient count
    model, and the dominance flags."""
    params = params or default_catalog_params(name)
    main = catalog_profile(name, params)
    companions = catalog_companions(name, params)
    delta, decay, flags = _LATTICES[name]["model"](params)
    return LatticeSpec(cusps=tuple(CuspModel(p) for p in (main, *companions)),
                       vgamma=VGammaModel(delta, decay),
                       bounds=main.bounds,
                       dominant_flags=flags)


# sampled-band residuals carry a polynomial transient; below this radius
# the computed growth classes reflect the transient, not the regime
_SAMPLED_CLAIM_RADIUS = 500.0


# Each catalog family's example lattice: "model" gives its ambient
# model (delta, decay, dominance flags) from the fields "reads", and the
# rest is its expected behaviour: the dispatched prediction triple
# (ambient class, volume class, measure verdict), the Margulis-function
# prediction, the growth classes the desk-scale series actually realize,
# and the realizable excursion signatures.  The upper-excursion regime of
# the critical families lives at radii far beyond desk scale, so for
# those the computed volume class is recorded but not scored; what IS
# scored is the rising trend of the volume-to-ambient peaks, the finite-
# radius footprint of the same mechanism.
_LATTICES = {
    "sparse-5.2": dict(
        # the oscillating cusp pushes the ambient exponent slightly above
        # b/2, by half a bump that scales like the inverse spacing base
        model=lambda p: (p.rate_fast / 2.0 + (p.rate_fast / 2.0 - 1.0) / p.m / 2.0,
                         0.0, (False,)),
        reads=frozenset({"rate_fast", "m"}),
        sparse=True, exotic=False, pinch=PINCH_NONE,
        pred=(None, None, None), margulis=None,
        ambient=GrowthClass.PURE, volume=None, peak_trend=None, gap=0.05),
    "exotic-conv-5.3a": dict(
        model=lambda p: (p.rate_fast / 2.0, p.beta - 1.0, (True,)),
        reads=frozenset({"rate_fast", "beta"}),
        sparse=False, exotic=True, pinch=PINCH_STRICT,
        pred=(GrowthClass.LOWER, GrowthClass.LOWER, False), margulis=None,
        ambient=GrowthClass.LOWER, volume=GrowthClass.LOWER,
        peak_trend=None, gap=None),
    "exotic-div-5.3b": dict(
        model=lambda p: (p.rate_fast / 2.0, 0.0, (True,)),
        reads=frozenset({"rate_fast"}),
        sparse=False, exotic=True, pinch=PINCH_STRICT,
        pred=(GrowthClass.PURE, GrowthClass.PURE, True), margulis=None,
        ambient=GrowthClass.PURE, volume=GrowthClass.PURE,
        peak_trend=None, gap=None),
    "critical-finite-5.4a": dict(
        model=lambda p: (p.rate_fast / 2.0, 0.0, (True,)),
        reads=frozenset({"rate_fast"}),
        sparse=False, exotic=True, pinch=PINCH_EXACT,
        pred=(GrowthClass.PURE, GrowthClass.UPPER, True), margulis=False,
        ambient=GrowthClass.PURE, volume=None, peak_trend=0.15, gap=None),
    "critical-infinite-5.4b": dict(
        model=lambda p: (p.rate_fast / 2.0, 1.0 - p.gamma, (True, True)),
        reads=frozenset({"rate_fast", "gamma"}),
        sparse=False, exotic=True, pinch=PINCH_EXACT,
        pred=(GrowthClass.LOWER, GrowthClass.UPPER, False), margulis=False,
        ambient=GrowthClass.LOWER, volume=None, peak_trend=0.15, gap=None),
}

# The CatalogParams fields each family reads in all: through its main
# profile, its companions and its ambient model.
_FAMILY_READS = {name: f.reads | f.companion_reads | _LATTICES[name]["reads"]
                 for name, f in _FAMILIES.items()}


def _class_name(kind: Optional[GrowthClass]) -> str:
    return "unconstrained" if kind is None else kind.value


def _verdict_name(v: Optional[bool]) -> str:
    return "unconstrained" if v is None else ("finite" if v else "infinite")


def _margulis_name(v: Optional[bool]) -> str:
    return "no prediction" if v is None else str(v)


@dataclass(frozen=True)
class Claim:
    name: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class ExampleReport:
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

    def to_text(self) -> str:
        t = self.taxonomy
        lines = [f"example: {self.name}", "", "== taxonomy =="]
        lines.append(t.summary())
        lines += ["", "== exponents =="]
        for i, est in enumerate(t.estimates):
            lines.append(
                f"cusp {i}: upper {est.omega_plus!r} lower {est.omega_minus!r} "
                f"converged {est.converged_plus}/{est.converged_minus}")
        lines += ["", "== invariant measure =="]
        lines.append(f"group divergent: {t.group_divergent}")
        for i, v in enumerate(t.series_verdicts):
            state = ("not computed" if v is None
                     else ("converges" if v else "diverges"))
            lines.append(f"cusp {i} weighted series: {state}")
        lines.append("verdict: " + ("finite" if t.bm_finite else "infinite"))
        lines += ["", "== growth classes =="]
        lines.append(f"ambient: {self.vgamma_class.value}")
        lines.append(f"volume: {self.vx_class.value} "
                     f"(upper rate {self.vx_upper_rate!r}, "
                     f"volume-to-ambient peak trend {self.vx_peak_trend!r})")
        lines += ["", "== claims =="]
        for c in self.claims:
            lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
                         f"expected {c.expected}, computed {c.computed}")
        lines += ["", f"overall: {'PASS' if self.passed else 'FAIL'}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list[tuple[float, float, float, float]]:
        return [
            (float(r), float(a), float(lo), float(hi))
            for r, a, lo, hi in zip(self.radii, self.log_vgamma,
                                    self.log_vx_lower, self.log_vx_upper)
        ]

    def csv_text(self) -> str:
        rows = ["R,log_v_gamma,log_v_x_lower,log_v_x_upper"]
        for r, a, lo, hi in self.csv_rows():
            rows.append(f"{r!r},{a!r},{lo!r},{hi!r}")
        return "\n".join(rows) + "\n"


# run_example samples its growth series on np.linspace(1, r_max,
# _GRID_POINTS), classifies to _CLASSIFY_R_MAX and caches the excursion
# integrals every _CACHE_STEP
_GRID_POINTS = 257
_CACHE_STEP = 2.0


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
    vgamma_class = classify_growth(
        GrowthSeries(radii, log_vg, label=f"{name}-ambient"), delta, trend).kind

    caches = cuspidal_interpolants(spec.cusps, r_max + 1.0, step=_CACHE_STEP,
                                   rel_tol=rel_tol)
    band = volume_band(vg, caches, radii, rel_tol=rel_tol)
    vx_lower, vx_upper = band.lower, band.upper
    vx_series = GrowthSeries(radii, vx_upper, label=f"{name}-volume")
    vx_class = classify_growth(vx_series, delta, trend).kind
    vx_rate = estimate_exponents(vx_series).omega_plus

    ratio_series = GrowthSeries(radii, vx_upper - log_vg,
                                label=f"{name}-volume-to-ambient")
    peak_trend = classify_growth(ratio_series, 0.0, trend).trend_peak

    exp = _LATTICES[name]
    pred = taxonomy.predictions
    want_vg, want_vx, want_bm = exp["pred"]
    claims = [
        Claim("sparse", str(exp["sparse"]), str(taxonomy.sparse),
              taxonomy.sparse == exp["sparse"]),
        Claim("exotic", str(exp["exotic"]), str(taxonomy.exotic),
              taxonomy.exotic == exp["exotic"]),
        Claim("pinch-class", exp["pinch"], taxonomy.pinch_class,
              taxonomy.pinch_class == exp["pinch"]),
        Claim("predicted-ambient-class", _class_name(want_vg),
              _class_name(pred.vgamma_class), pred.vgamma_class == want_vg),
        Claim("predicted-volume-class", _class_name(want_vx),
              _class_name(pred.vx_class), pred.vx_class == want_vx),
        Claim("predicted-invariant-measure", _verdict_name(want_bm),
              _verdict_name(pred.bm_finite), pred.bm_finite == want_bm),
        Claim("margulis-prediction", _margulis_name(exp["margulis"]),
              _margulis_name(pred.margulis), pred.margulis == exp["margulis"]),
        Claim("computed-ambient-class", exp["ambient"].value,
              vgamma_class.value, vgamma_class == exp["ambient"]),
    ]
    notes: list[str] = []
    if r_max + 1e-9 < _SAMPLED_CLAIM_RADIUS:
        # band-residual classes flatten only near the calibrated radius;
        # below it the sampled-band claims would score a known transient
        notes.append(
            f"sampled-band claims need radius >= "
            f"{_SAMPLED_CLAIM_RADIUS!r} to clear the residual transient; "
            f"ran at {r_max!r}, so only prediction claims are scored")
    else:
        if exp["volume"] is not None:
            claims.append(Claim("computed-volume-class",
                                exp["volume"].value, vx_class.value,
                                vx_class == exp["volume"]))
        elif want_vx is not None:
            notes.append(
                f"the predicted '{want_vx.value}' volume regime lies beyond "
                f"desk radii; the computed class at R <= {r_max!r} is "
                f"'{vx_class.value}' and is not scored")
        if exp["peak_trend"] is not None:
            claims.append(Claim("excursion-peak-trend",
                                f">= {exp['peak_trend']!r}", f"{peak_trend!r}",
                                peak_trend >= exp["peak_trend"]))
        if exp["gap"] is not None:
            gap = vx_rate - delta
            claims.append(Claim("upper-volume-rate-gap",
                                f">= {exp['gap']!r}", f"{gap!r}",
                                gap >= exp["gap"]))

    return ExampleReport(
        name=name, params=params, taxonomy=taxonomy, delta_gamma=delta,
        vgamma_class=vgamma_class, vx_class=vx_class, vx_upper_rate=vx_rate,
        vx_peak_trend=peak_trend, radii=radii, log_vgamma=log_vg,
        log_vx_lower=vx_lower, log_vx_upper=vx_upper, claims=tuple(claims),
        passed=all(c.passed for c in claims), notes=tuple(notes))
