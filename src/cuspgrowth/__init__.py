"""Computable volume growth for pinched negatively curved cusped spaces.

The package models cusp decay profiles piecewise-analytically, evaluates
horospherical areas and their renewal-type integrals in the log domain,
estimates critical exponents and growth types from sampled log data,
assembles counting/volume envelopes by discrete log-convolution, and
cross-checks everything against an exact arithmetic lattice acting on the
hyperbolic plane.
"""

from .errors import (
    BridgeConstructionError,
    CatalogError,
    ConfigError,
    CuspGrowthError,
    DomainError,
    EnumerationCapError,
    ProfileError,
    QuadratureError,
)
from .profiles import (
    CATALOG_IDS,
    CatalogParams,
    CurvatureBounds,
    Profile,
    ProfilePiece,
    ValidationReport,
    assemble_profile,
    catalog_companions,
    catalog_profile,
    catalog_profiles,
    default_catalog_params,
    poly_piece,
    profile_to_text,
    pure_piece,
    validate_profile,
)
from .asymptotics import (
    ChainCheckReport,
    CuspModel,
    ExponentEstimate,
    GrowthClass,
    GrowthClassification,
    GrowthSeries,
    SeriesTail,
    TrendPolicy,
    WindowPolicy,
    classify_growth,
    critical_exponent_chain_bound,
    cuspidal_chain_check,
    estimate_exponents,
    log_cuspidal,
    log_orbital_parabolic,
    poincare_abscissa,
    series_convergence_at,
    series_log_integrand,
)

from .convolution import (
    Band,
    CuspidalInterpolant,
    SandwichReport,
    VGammaModel,
    conv_continuous,
    conv_gauge,
    counting_band,
    cuspidal_interpolants,
    sandwich_check,
    volume_band,
)

from .taxonomy import (
    PINCH_EXACT,
    PINCH_NONE,
    PINCH_STRICT,
    Claim,
    ExampleReport,
    LatticeSpec,
    PinchGateReport,
    Predictions,
    TaxonomyReport,
    catalog_spec,
    catalog_specs,
    classify_lattice,
    quarter_pinch_gate,
    run_example,
)

from .h2_oracle import (
    R_CAP,
    CountingBandReport,
    CountTable,
    DeltaReport,
    LemmaReport,
    MoebiusElement,
    Prop28Report,
    coset_counts,
    enumerate_group,
    estimate_delta,
    verify_counting,
    verify_lemmas,
    verify_prop28,
)

__version__ = "0.1.0"
