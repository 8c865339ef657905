"""Tests for the lattice taxonomy, the quarter-pinch gate, and the
catalog example driver."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgrowth import (
    PINCH_EXACT,
    PINCH_NONE,
    PINCH_STRICT,
    CATALOG_IDS,
    CatalogError,
    ConfigError,
    CurvatureBounds,
    CuspModel,
    DomainError,
    ExampleReport,
    GrowthClass,
    LatticeSpec,
    VGammaModel,
    assemble_profile,
    catalog_companions,
    catalog_profile,
    classify_lattice,
    default_catalog_params,
    pure_piece,
    quarter_pinch_gate,
    run_example,
)
from cuspgrowth.profiles import _PROFILE_READS, CatalogParams, profile_to_text
from cuspgrowth.taxonomy import (
    _CLAIMS,
    _FAMILY_READS,
    _LATTICES,
    _R_MAX_FLOOR,
    _group_divergent,
    catalog_spec,
)

INF = float("inf")


def _pure_cusp(rate: float = 1.0, n: int = 2) -> CuspModel:
    prof = assemble_profile(CurvatureBounds(a=rate, b=rate, n=n),
                            [pure_piece(0.0, INF, rate)])
    return CuspModel(profile=prof)


def _catalog_spec(name: str) -> LatticeSpec:
    params = default_catalog_params(name)
    main = catalog_profile(name, params)
    companions = catalog_companions(name, params)
    delta, decay, flags = _LATTICES[name].model(params)
    return LatticeSpec(cusps=tuple(CuspModel(p) for p in (main, *companions)),
                       vgamma=VGammaModel(delta, decay),
                       bounds=main.bounds,
                       dominant_flags=flags)


_REPORTS: dict = {}


def _classified(name: str):
    if name not in _REPORTS:
        _REPORTS[name] = classify_lattice(_catalog_spec(name))
    return _REPORTS[name]


_EXAMPLES: dict = {}


def _example(name: str) -> ExampleReport:
    if name not in _EXAMPLES:
        _EXAMPLES[name] = run_example(name)
    return _EXAMPLES[name]


class TestQuarterPinchGate:
    def test_applies_with_critical_gap(self):
        rep = quarter_pinch_gate(CurvatureBounds(a=1.0, b=2.0), 1.2)
        assert rep.applies
        assert rep.delta_floor == pytest.approx(0.5)
        assert rep.delta_plus_cap == pytest.approx(1.0)
        assert rep.entropy_floor == pytest.approx(1.0)
        assert rep.entropy_floor_ok
        assert rep.critical_gap

    def test_entropy_floor_violation(self):
        rep = quarter_pinch_gate(CurvatureBounds(a=1.0, b=2.0), 0.9)
        assert rep.applies
        assert not rep.entropy_floor_ok
        assert not rep.critical_gap

    def test_not_applicable(self):
        rep = quarter_pinch_gate(CurvatureBounds(a=1.0, b=3.0), 1.5)
        assert not rep.applies
        assert not rep.critical_gap
        # no inconsistency can be flagged by a gate that does not apply
        assert rep.entropy_floor_ok

    def test_exact_quarter_pinch_boundary(self):
        rep = quarter_pinch_gate(CurvatureBounds(a=1.5, b=3.0), 1.5)
        assert rep.applies
        # the gap needs delta strictly above the floor
        assert rep.entropy_floor == pytest.approx(1.5)
        assert not rep.critical_gap

    def test_higher_dimension_scales_caps(self):
        rep = quarter_pinch_gate(CurvatureBounds(a=1.0, b=2.0, n=3), 2.5)
        assert rep.delta_floor == pytest.approx(1.0)
        assert rep.delta_plus_cap == pytest.approx(2.0)
        assert rep.entropy_floor == pytest.approx(2.0)
        assert rep.critical_gap

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            quarter_pinch_gate(CurvatureBounds(a=1.0, b=2.0), 0.0)

    @given(a=st.floats(0.05, 10.0), ratio=st.floats(0.1, 2.0),
           delta=st.floats(0.01, 50.0))
    @settings(deadline=None, max_examples=60)
    def test_pinched_window_always_applies(self, a, ratio, delta):
        rep = quarter_pinch_gate(CurvatureBounds(a=a, b=a * max(ratio, 1.0)),
                                 delta)
        assert rep.applies
        assert rep.delta_floor <= rep.delta_plus_cap + 1e-12
        assert rep.critical_gap == (rep.applies and delta > rep.entropy_floor)

    @given(a=st.floats(0.05, 10.0), ratio=st.floats(2.1, 8.0))
    @settings(deadline=None, max_examples=40)
    def test_wide_window_never_applies(self, a, ratio):
        rep = quarter_pinch_gate(CurvatureBounds(a=a, b=a * ratio), 1.0)
        assert not rep.applies


class TestLatticeSpec:
    def test_needs_a_cusp(self):
        with pytest.raises(DomainError):
            LatticeSpec(cusps=(), vgamma=VGammaModel(1.0),
                        bounds=CurvatureBounds(a=1.0, b=1.0),
                        dominant_flags=())

    def test_flag_count_must_match(self):
        with pytest.raises(DomainError):
            LatticeSpec(cusps=(_pure_cusp(),),
                        vgamma=VGammaModel(1.0),
                        bounds=CurvatureBounds(a=1.0, b=1.0),
                        dominant_flags=(True, False))

    def test_sequences_become_tuples(self):
        spec = LatticeSpec(cusps=[_pure_cusp()],
                           vgamma=VGammaModel(1.0),
                           bounds=CurvatureBounds(a=1.0, b=1.0),
                           dominant_flags=[False])
        assert isinstance(spec.cusps, tuple)
        assert isinstance(spec.dominant_flags, tuple)


class TestGroupDivergent:
    def test_constant_factor_diverges(self):
        assert _group_divergent(VGammaModel(1.0)) is True

    def test_power_decay_boundary(self):
        assert _group_divergent(VGammaModel(1.0, 0.5)) is True
        assert _group_divergent(VGammaModel(1.0, 1.0)) is True
        assert _group_divergent(VGammaModel(1.0, 1.2)) is False


class TestClassifyLattice:
    def test_regular_lattice_gets_margulis_prediction(self):
        spec = LatticeSpec(
            cusps=(_pure_cusp(1.0), _pure_cusp(1.0)),
            vgamma=VGammaModel(1.0),
            bounds=CurvatureBounds(a=1.0, b=1.0),
            dominant_flags=(False, False))
        rep = classify_lattice(spec)
        assert not rep.sparse
        assert not rep.exotic
        assert rep.pinch_class == PINCH_STRICT
        assert rep.quarter_pinched
        assert rep.predictions.vgamma_class is GrowthClass.PURE
        assert rep.predictions.vx_class is GrowthClass.PURE
        assert rep.predictions.bm_finite is True
        assert rep.predictions.margulis is True
        assert rep.series_verdicts == (None, None)
        assert rep.bm_finite is True

    def test_dominant_flag_must_match_ambient_exponent(self):
        spec = LatticeSpec(
            cusps=(_pure_cusp(1.0),),
            vgamma=VGammaModel(1.0),
            bounds=CurvatureBounds(a=1.0, b=1.0),
            dominant_flags=(True,))
        with pytest.raises(ConfigError, match="flagged dominant"):
            classify_lattice(spec)

    def test_ambient_exponent_cannot_undercut_cusps(self):
        spec = LatticeSpec(
            cusps=(_pure_cusp(2.0),),
            vgamma=VGammaModel(0.3),
            bounds=CurvatureBounds(a=1.0, b=2.0),
            dominant_flags=(False,))
        with pytest.raises(ConfigError, match="outgrow"):
            classify_lattice(spec)

    def test_critical_gap_rejects_dominant_flags(self):
        spec = LatticeSpec(
            cusps=(_pure_cusp(2.4),),
            vgamma=VGammaModel(1.2),
            bounds=CurvatureBounds(a=1.0, b=2.0),
            dominant_flags=(True,))
        with pytest.raises(ConfigError, match="quarter-pinch"):
            classify_lattice(spec)

    def test_sparse_family_decision(self):
        rep = _classified("sparse-5.2")
        assert rep.sparse
        assert not rep.exotic
        assert rep.pinch_class == PINCH_NONE
        assert not rep.quarter_pinched
        assert rep.predictions.vgamma_class is None
        assert rep.predictions.vx_class is None
        assert rep.predictions.bm_finite is None
        assert rep.predictions.margulis is None
        est = rep.estimates[0]
        assert abs(est.omega_plus - 1.5) <= 0.01
        assert abs(est.omega_minus - 0.5) <= 0.01
        assert rep.series_verdicts == (None,)

    def test_convergent_exotic_family_decision(self):
        rep = _classified("exotic-conv-5.3a")
        assert not rep.sparse
        assert rep.exotic
        assert rep.pinch_class == PINCH_STRICT
        assert rep.predictions.vgamma_class is GrowthClass.LOWER
        assert rep.predictions.vx_class is GrowthClass.LOWER
        assert rep.predictions.bm_finite is False
        assert rep.predictions.margulis is None
        assert rep.group_divergent is False
        assert rep.series_verdicts == (True,)
        assert rep.bm_finite is False

    def test_divergent_exotic_family_decision(self):
        rep = _classified("exotic-div-5.3b")
        assert not rep.sparse
        assert rep.exotic
        assert rep.pinch_class == PINCH_STRICT
        assert rep.predictions.vgamma_class is GrowthClass.PURE
        assert rep.predictions.vx_class is GrowthClass.PURE
        assert rep.predictions.bm_finite is True
        assert rep.predictions.margulis is None
        assert rep.group_divergent is True
        assert rep.series_verdicts == (True,)
        assert rep.bm_finite is True

    def test_critical_finite_family_decision(self):
        rep = _classified("critical-finite-5.4a")
        assert not rep.sparse
        assert rep.exotic
        assert rep.pinch_class == PINCH_EXACT
        assert rep.predictions.vgamma_class is GrowthClass.PURE
        assert rep.predictions.vx_class is GrowthClass.UPPER
        assert rep.predictions.bm_finite is True
        assert rep.predictions.margulis is False
        assert rep.series_verdicts == (True,)
        assert rep.bm_finite is True
        est = rep.estimates[0]
        assert abs(est.omega_plus - 2.0 * est.omega_minus) <= rep.tol

    def test_critical_infinite_family_decision(self):
        rep = _classified("critical-infinite-5.4b")
        assert not rep.sparse
        assert rep.exotic
        assert rep.pinch_class == PINCH_EXACT
        assert rep.predictions.vgamma_class is GrowthClass.LOWER
        assert rep.predictions.vx_class is GrowthClass.UPPER
        assert rep.predictions.bm_finite is False
        assert rep.predictions.margulis is False
        assert rep.group_divergent is True
        # the companion's weighted series diverges and flips the verdict
        assert rep.series_verdicts == (True, False)
        assert rep.bm_finite is False

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_taxonomy_invariants(self, name):
        rep = _classified(name)
        # sparse and strictly-half-pinched exclude each other
        assert not (rep.sparse and rep.pinch_class == PINCH_STRICT)
        if rep.sparse:
            assert rep.predictions.margulis is None
        assert len(rep.series_verdicts) == len(rep.dominant_flags)
        assert len(rep.estimates) == len(rep.dominant_flags)
        assert rep.delta_gamma >= max(e.omega_plus for e in rep.estimates) - rep.tol
        assert any("modelling assumption" in n for n in rep.notes)


# the claims every run scores, then each family's sampled claims, which
# it scores from radius 500 on
_PREDICTION_CLAIMS = [
    "sparse", "exotic", "pinch-class",
    "predicted-ambient-class", "predicted-volume-class",
    "predicted-invariant-measure", "margulis-prediction",
    "computed-ambient-class",
]
_SAMPLED_CLAIMS = {
    "sparse-5.2": ["upper-volume-rate-gap"],
    "exotic-conv-5.3a": ["computed-volume-class"],
    "exotic-div-5.3b": ["computed-volume-class"],
    "critical-finite-5.4a": ["excursion-peak-trend"],
    "critical-infinite-5.4b": ["excursion-peak-trend"],
}


class TestRunExample:
    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_claim_names_at_full_radius(self, name):
        rep = _example(name)
        assert [c.name for c in rep.claims] == (
            _PREDICTION_CLAIMS + _SAMPLED_CLAIMS[name])
        assert rep.passed

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_claim_names_at_the_radius_floor(self, name):
        rep = run_example(name, r_max=_R_MAX_FLOOR)
        assert [c.name for c in rep.claims] == _PREDICTION_CLAIMS
        assert rep.passed
        assert len(rep.notes) == 1
        assert rep.notes[0].startswith("sampled-band claims need radius >= ")

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_every_record_expects_one_value_per_claim(self, name):
        assert len(_LATTICES[name].expect) == len(_CLAIMS)

    def test_divergent_exotic_example_passes(self):
        rep = _example("exotic-div-5.3b")
        assert rep.passed
        assert all(c.passed for c in rep.claims)
        assert rep.vgamma_class is GrowthClass.PURE
        assert rep.vx_class is GrowthClass.PURE
        assert rep.delta_gamma == pytest.approx(1.5)
        assert rep.notes == ()

    def test_sparse_example_realizes_the_rate_gap(self):
        rep = _example("sparse-5.2")
        assert rep.passed
        names = [c.name for c in rep.claims]
        assert "upper-volume-rate-gap" in names
        assert "computed-volume-class" not in names
        assert rep.delta_gamma == pytest.approx(19.0 / 12.0)
        gap = rep.vx_upper_rate - rep.delta_gamma
        assert gap == pytest.approx(0.22155227161381097, abs=1e-9)
        assert gap >= 0.05
        # at desk radii the sparse construction already outgrows the
        # ambient rate, landing in the upper regime
        assert rep.vx_class is GrowthClass.UPPER
        margulis = next(c for c in rep.claims if c.name == "margulis-prediction")
        assert margulis.computed == "no prediction"

    def test_unknown_family_rejected(self):
        from cuspgrowth import CatalogError
        with pytest.raises(CatalogError):
            run_example("no-such-family")


def _family_view(name: str, params: CatalogParams):
    """What a family builds from its parameters: the text of its profile
    and its companions, its ambient model and its dominance flags."""
    spec = catalog_spec(name, params)
    return (tuple(profile_to_text(c.profile) for c in spec.cusps),
            spec.vgamma, spec.dominant_flags)


def _profiles_view(name: str, params: CatalogParams):
    """What profile-validate builds: the main profile and its companions."""
    return tuple(profile_to_text(p) for p in
                 (catalog_profile(name, params),)
                 + catalog_companions(name, params))


def _main_view(name: str, params: CatalogParams):
    """What cusp-analyze builds: the main profile alone."""
    return profile_to_text(catalog_profile(name, params))


def _perturbations(field: str, value, *, wild: bool = False):
    if field == "mu":
        # at the default m = 3, mu binds only above 0.375
        near = [0.4]
    elif isinstance(value, int):
        near = [value + 1, value - 1]
    else:
        near = [value * 1.05, value * 0.95]
    if not wild:
        return near
    return near + ([10 ** 6, -value] if isinstance(value, int)
                   else [1e30, -value])


def _assert_undeclared_change_nothing(name, reads, view):
    params = default_catalog_params(name)
    base = view(name, params)
    for field in dataclasses.fields(CatalogParams):
        if field.name in reads[name]:
            continue
        value = getattr(params, field.name)
        for moved_value in _perturbations(field.name, value, wild=True):
            moved = dataclasses.replace(params, **{field.name: moved_value})
            try:
                got = view(name, moved)
            except CatalogError:
                # a range check on a field the family reads elsewhere
                # rejects the value, which is no silent change; a nearby
                # value must pass it
                assert field.name in _FAMILY_READS[name], field.name
                assert moved_value not in _perturbations(field.name, value)
                continue
            assert got == base, (field.name, moved_value)


def _assert_declared_change_something(name, reads, view):
    params = default_catalog_params(name)
    base = view(name, params)
    for field in sorted(reads[name]):
        views = []
        for value in _perturbations(field, getattr(params, field)):
            try:
                views.append(view(
                    name, dataclasses.replace(params, **{field: value})))
            except CatalogError:
                continue
        assert any(v != base for v in views), field


class TestFamilyReads:
    """_FAMILY_READS names exactly the CatalogParams fields a family reads,
    and _PROFILE_READS those that shape its main profile."""

    def test_declares_every_family(self):
        fields = {f.name for f in dataclasses.fields(CatalogParams)}
        assert set(_FAMILY_READS) == set(_PROFILE_READS) == set(CATALOG_IDS)
        assert all(reads <= fields for reads in _FAMILY_READS.values())
        assert all(_PROFILE_READS[name] <= _FAMILY_READS[name]
                   for name in CATALOG_IDS)
        # each override flag's field is read by some family
        assert {"rate_fast", "gamma", "m", "mu"} <= set().union(
            *_FAMILY_READS.values())

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_undeclared_fields_change_nothing(self, name):
        _assert_undeclared_change_nothing(name, _FAMILY_READS, _family_view)

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_declared_fields_change_something(self, name):
        _assert_declared_change_something(name, _FAMILY_READS, _family_view)

    @pytest.mark.parametrize("name", CATALOG_IDS)
    @pytest.mark.parametrize("reads, view", [
        (_FAMILY_READS, _profiles_view), (_PROFILE_READS, _main_view)],
        ids=["profile-validate", "cusp-analyze"])
    def test_each_command_reads_its_declared_set(self, name, reads, view):
        _assert_undeclared_change_nothing(name, reads, view)
        _assert_declared_change_something(name, reads, view)
