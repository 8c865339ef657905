"""Experiment runner.

One invocation executes one command against the cusp catalog or the
exact-plane oracle and writes its artifacts (CSV tables, a plain-text
report, and a machine-readable summary) into the output directory.
Every float is emitted through repr and nothing records wall-clock
state, so identical configurations produce byte-identical outputs.

The command runners compute their artifacts, rendering every report's
text here, and return them; ``run`` alone writes them, only after all of
the command's computations finish, with ``summary.json`` last, listing
exactly the files written; first it removes the files that an earlier
``summary.json`` there lists.  A run that stops on an error before then
(exit 2, 3 or 4) writes nothing, and an artifact path that is a
directory exits 2 naming it before any file is touched.  Another failed
write exits 2 too, leaving the files before it but no ``summary.json``.

Exit codes: 0 all assertions passed, 1 at least one assertion failed,
2 configuration problem, 3 internal error, 4 numerical failure (an
integral missed its tolerance within its budget).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .asymptotics import (
    CuspModel,
    TrendPolicy,
    log_cuspidal,
    log_orbital_parabolic,
    poincare_abscissa,
    series_convergence_at,
)
from .errors import CatalogError, ConfigError, CuspGrowthError, QuadratureError
from .h2_oracle import (
    _COUNT_ROWS,
    _DELTA_FLOOR,
    BALL_CAP,
    R_CAP,
    coset_counts,
    estimate_delta,
    prop28_radius,
    verify_counting,
    verify_lemmas,
    verify_prop28,
)
from .profiles import (
    _PROFILE_READS,
    CATALOG_IDS,
    CatalogParams,
    catalog_profiles,
    default_catalog_params,
    profile_to_text,
    validate_profile,
)
from .taxonomy import (
    _CACHE_NODES,
    _FAMILY_READS,
    _R_MAX_CAP,
    _R_MAX_FLOOR,
    ExampleReport,
    TaxonomyReport,
    catalog_specs,
    classify_lattice,
    run_example,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
EXIT_NUMERICAL = 4

COMMANDS = ("profile-validate", "cusp-analyze", "lattice-classify",
            "example-run", "oracle-verify")

# every knob an acceptance run may override, with its default; unknown
# keys in a tolerance file are configuration errors, not typos to skip
TOLERANCE_DEFAULTS = {
    "pinch_tol": 0.02,
    "trend_tau": 0.4,
    "trend_band": 1.0,
    "rel_tol": 1e-6,
    "fit_pad": 0.05,
}

# Smallest value of a numeric flag, (floor, floor itself allowed), for
# each command that reads it.  The radius floors are where the tail
# windows of the command's growth fit first fill: run_example's is
# _R_MAX_FLOOR, estimate_delta's _DELTA_FLOOR.
_MINIMA: dict[str, dict[str, tuple[float, bool]]] = {
    "Rmax": {"cusp-analyze": (0.0, False),
             "example-run": (_R_MAX_FLOOR, True)},
    "Rcap": {"oracle-verify": (_DELTA_FLOOR, True)},
    "delta": {"oracle-verify": (0.0, False)},
    "seed": {"oracle-verify": (0, True)},
}

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOLEANS)}, "
                         f"got {text!r}") from None


# Every flag but --config, by its config-file key: (ExperimentConfig
# field, type, default, help).  The flag is --key with '_' read as '-';
# a _boolean flag takes no value on the command line.
_FLAGS = {
    "name": ("name", str, "all", "catalog id or 'all'"),
    "Rmax": ("r_max", float, 500.0, "sampling radius for growth data"),
    "Rcap": ("r_cap", float, 12.0, "oracle enumeration radius"),
    "delta": ("gauge", float, 1.0, "annulus gauge for oracle counts"),
    "seed": ("seed", int, 7, "PRNG seed"),
    "b": ("b", float, None, "override: fast decay rate of the catalog"),
    "gamma": ("gamma", float, None,
              "override: critical-family exponent in (0, 1)"),
    "M": ("m", int, None,
          "override: geometric spacing base of the oscillation windows"),
    "mu": ("mu", float, None, "override: lower clamp fraction of the "
           "slow-band end (critical ids)"),
    "out": ("out", str, "cuspgrowth-out", "output directory"),
    "tolerances": ("tolerances", str, None,
                   "key=value overrides for check tolerances"),
    "plot_script": ("plot_script", _boolean, False,
                    "also emit a gnuplot script for the CSVs"),
}

# catalog override flags: flag -> CatalogParams field
_OVERRIDES = {"b": "rate_fast", "gamma": "gamma", "M": "m", "mu": "mu"}


class ExperimentConfig(NamedTuple):
    command: str
    name: str
    r_max: float
    r_cap: float
    gauge: float
    seed: int
    out: Path
    tolerances: dict
    plot_script: bool
    b: Optional[float] = None
    gamma: Optional[float] = None
    m: Optional[int] = None
    mu: Optional[float] = None


def _parse_kv_file(flag: str, name: str, allowed: dict) -> dict:
    """key=value lines; '#' starts a comment; keys must be recognized,
    each set once."""
    if not name:
        raise ConfigError(f"{flag} must name a file, got ''")
    path = Path(name)
    if not path.is_file():
        raise ConfigError(f"no such file: {path}")
    out = {}
    set_on = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(known: {', '.join(sorted(allowed))})")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key!r} is set again "
                              f"(first on line {set_on[key]})")
        set_on[key] = lineno
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            out[key] = allowed[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for "
                              f"{key!r}: {exc}") from exc
    return out


def _load_tolerances(path: Optional[str]) -> dict:
    tol = dict(TOLERANCE_DEFAULTS)
    if path is not None:
        coercers = {k: float for k in TOLERANCE_DEFAULTS}
        tol.update(_parse_kv_file("--tolerances", path, coercers))
    for key, value in tol.items():
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if key == "fit_pad":
            if value < 0:
                raise ConfigError(f"{key} must be nonnegative")
        elif value <= 0:
            raise ConfigError(f"{key} must be positive")
    if tol["rel_tol"] >= 1.0:
        # a relative tolerance of 1 or more asks for no digit at all
        raise ConfigError(f"rel_tol must lie in (0, 1), got {tol['rel_tol']!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspgrowth",
        description="Run cusp-growth experiments and verification suites.")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="what to run (may also come from --config)")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file mirroring the flags below")
    for key, (_, kind, _, text) in _FLAGS.items():
        flag = "--" + key.replace("_", "-")
        if kind is _boolean:
            # None when absent, so that a config file can still set it
            parser.add_argument(flag, action="store_true", default=None,
                                help=text)
        else:
            metavar = "FILE" if key == "tolerances" else None
            parser.add_argument(flag, type=kind, metavar=metavar, help=text)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {key: default for key, (_, _, default, _) in _FLAGS.items()}
    if args.config is not None:
        kinds = {key: kind for key, (_, kind, _, _) in _FLAGS.items()}
        values.update(_parse_kv_file("--config", args.config,
                                     {"command": str, **kinds}))
    # a flag given on the command line beats the config file
    values.update((k, v) for k, v in vars(args).items() if v is not None)

    command = values.get("command")
    if command is None:
        raise ConfigError("no command given (flags and config file are "
                          "both silent); expected one of: "
                          + ", ".join(COMMANDS))
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    name = values["name"]
    if name != "all" and name not in CATALOG_IDS:
        raise ConfigError(f"unknown catalog id {name!r} "
                          f"(known: all, {', '.join(CATALOG_IDS)})")
    for key in ("Rmax", "Rcap", "delta", "seed"):
        _check_number(key, values[key], command)
    r_cap, gauge = values["Rcap"], values["delta"]
    if r_cap > R_CAP:
        raise ConfigError(f"--Rcap {r_cap!r} exceeds the oracle enumeration "
                          f"cap {R_CAP!r}")
    reach = prop28_radius(r_cap, gauge)
    if command == "oracle-verify" and reach > BALL_CAP:
        raise ConfigError(
            f"--delta {gauge!r} with --Rcap {r_cap!r} would enumerate the "
            f"lattice to radius {reach!r}, above the oracle's ball cap "
            f"{BALL_CAP!r}; lower --delta or --Rcap")
    if command == "oracle-verify" and gauge > r_cap:
        # the count table holds the gauge multiples up to Rcap
        raise ConfigError(
            f"--delta {gauge!r} exceeds --Rcap {r_cap!r}: no multiple of "
            f"the gauge lies within the counting radius")
    if command == "oracle-verify" and gauge < r_cap / _COUNT_ROWS:
        raise ConfigError(
            f"--delta {gauge!r} with --Rcap {r_cap!r} would count at "
            f"{r_cap / gauge:.6g} gauge multiples, above the oracle's budget "
            f"of {_COUNT_ROWS}; it needs --delta >= {r_cap / _COUNT_ROWS!r}")
    if command == "example-run" and values["Rmax"] > _R_MAX_CAP:
        raise ConfigError(
            f"--Rmax {values['Rmax']!r} is out of range for example-run: it "
            f"needs --Rmax <= {_R_MAX_CAP!r}, where each excursion cache "
            f"holds its budget of {_CACHE_NODES} nodes")
    for key in ("b", "gamma", "M", "mu"):
        if values[key] is not None:
            _check_number(key, values[key], command)
    families = (() if command == "oracle-verify"
                else CATALOG_IDS if name == "all" else (name,))
    # cusp-analyze builds each family's main profile and nothing else
    reads = _PROFILE_READS if command == "cusp-analyze" else _FAMILY_READS
    for flag, field in _OVERRIDES.items():
        if values[flag] is None or any(field in reads[f] for f in families):
            continue
        if not families:
            raise ConfigError(f"--{flag} has no effect: "
                              "oracle-verify reads no catalog family")
        if any(field in _FAMILY_READS[f] for f in families):
            raise ConfigError(f"--{flag} has no effect: cusp-analyze reads "
                              f"only the main profile of {name}")
        raise ConfigError(f"--{flag} has no effect: {name} does not read it")
    if not values["out"]:
        # an empty path would write the artifacts into the working directory
        raise ConfigError("--out must name a directory, got ''")
    values["out"] = Path(values["out"])
    values["tolerances"] = _load_tolerances(values["tolerances"])
    return ExperimentConfig(command=command, **{
        field: values[key] for key, (field, *_) in _FLAGS.items()})


def _check_number(key: str, value: float, command: str) -> None:
    try:
        finite = math.isfinite(value)
    except OverflowError:
        # an integer flag past the float range: its digits would flood
        # the message
        raise ConfigError(f"--{key} is too large: it exceeds the float "
                          f"range") from None
    if not finite:
        raise ConfigError(f"--{key} must be a finite number, got {value!r}")
    if command not in _MINIMA.get(key, {}):
        return
    floor, inclusive = _MINIMA[key][command]
    if value < floor or (value == floor and not inclusive):
        bound = ">=" if inclusive else ">"
        raise ConfigError(f"--{key} {value!r} is out of range for {command}: "
                          f"it needs --{key} {bound} {floor!r}")


def _names(cfg: ExperimentConfig) -> tuple[str, ...]:
    return CATALOG_IDS if cfg.name == "all" else (cfg.name,)


def _overrides(cfg: ExperimentConfig) -> dict[str, object]:
    """The catalog override flags in effect, with their values."""
    values = {flag: getattr(cfg, _FLAGS[flag][0]) for flag in _OVERRIDES}
    return {flag: v for flag, v in values.items() if v is not None}


def _params_for(cfg: ExperimentConfig, name: str) -> CatalogParams:
    return dataclasses.replace(
        default_catalog_params(name),
        **{_OVERRIDES[flag]: v for flag, v in _overrides(cfg).items()})


def _csv(header: str, *columns) -> str:
    """CSV text with one row per entry of the columns: an integer column
    through str(int), any other through repr(float)."""
    cells = [[str(int(v)) for v in c] if np.asarray(c).dtype.kind in "iu"
             else [repr(float(v)) for v in c] for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _taxonomy_text(t: TaxonomyReport) -> str:
    """A lattice's taxonomy, as lattice-classify and each example's
    report print it."""
    lines = [
        f"sparse: {t.sparse}",
        f"exotic: {t.exotic}",
        f"pinch class: {t.pinch_class}",
        f"quarter pinched: {t.quarter_pinched}",
        f"ambient exponent: {t.delta_gamma!r}",
        f"invariant measure: {'finite' if t.bm_finite else 'infinite'}",
    ]
    for i, est in enumerate(t.estimates):
        lines.append(
            f"cusp {i}: upper {est.omega_plus:.4f} lower {est.omega_minus:.4f}"
            + (" (dominant)" if t.dominant_flags[i] else ""))
    return "\n".join(lines)


def _example_text(rep: ExampleReport) -> str:
    """The report of one example run: its taxonomy, exponents,
    invariant-measure verdict, growth classes and scored claims."""
    t = rep.taxonomy
    lines = [f"example: {rep.name}", "", "== taxonomy ==", _taxonomy_text(t),
             "", "== exponents =="]
    for i, est in enumerate(t.estimates):
        lines.append(
            f"cusp {i}: upper {est.omega_plus!r} lower {est.omega_minus!r} "
            f"converged {est.converged_plus}/{est.converged_minus}")
    lines += ["", "== invariant measure ==",
              f"group divergent: {t.group_divergent}"]
    for i, v in enumerate(t.series_verdicts):
        state = ("not computed" if v is None
                 else ("converges" if v else "diverges"))
        lines.append(f"cusp {i} weighted series: {state}")
    lines += ["verdict: " + ("finite" if t.bm_finite else "infinite"),
              "", "== growth classes ==",
              f"ambient: {rep.vgamma_class.value}",
              f"volume: {rep.vx_class.value} "
              f"(upper rate {rep.vx_upper_rate!r}, "
              f"volume-to-ambient peak trend {rep.vx_peak_trend!r})",
              "", "== claims =="]
    for c in rep.claims:
        lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
                     f"expected {c.expected}, computed {c.computed}")
    lines += ["", f"overall: {'PASS' if rep.passed else 'FAIL'}"]
    for note in rep.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# -- command runners -----------------------------------------------------------
# Each takes the config alone and returns its assertions and its
# artifacts, a dict from file name to text in write order.


def _run_profile_validate(cfg: ExperimentConfig):
    assertions = []
    artifacts = {}
    lines = []
    names = _names(cfg)
    built = catalog_profiles([(name, _params_for(cfg, name)) for name in names])
    for name, profiles in zip(names, built):
        for i, prof in enumerate(profiles):
            rep = validate_profile(prof)
            tag = name if i == 0 else f"{name}-companion{i}"
            assertions.append({
                "name": f"certified:{tag}",
                "passed": bool(rep.passed),
                "implied_eps": rep.implied_eps,
                "convex": bool(rep.convex),
            })
            lines.append(f"[{tag}]")
            lines.append(f"certified: {'yes' if rep.passed else 'NO'}")
            lines.append(f"curvature-window slack: {rep.implied_eps!r}")
            lines.append(f"ratio range: {rep.ratio_range[0]!r} "
                         f"to {rep.ratio_range[1]!r}")
            for msg in rep.messages:
                lines.append(f"note: {msg}")
            lines.append("")
            artifacts[f"profile-{tag}.txt"] = profile_to_text(prof)
    artifacts["profiles.txt"] = "\n".join(lines)
    return assertions, artifacts


def _run_cusp_analyze(cfg: ExperimentConfig):
    assertions = []
    artifacts = {}
    lines = []
    rel_tol = cfg.tolerances["rel_tol"]
    names = _names(cfg)
    built = catalog_profiles([(name, _params_for(cfg, name)) for name in names],
                             companions=False)
    for name, (profile,) in zip(names, built):
        cusp = CuspModel(profile=profile)
        radii = np.linspace(min(8.0, cfg.r_max / 4.0), cfg.r_max, 65)
        excursion = log_cuspidal(cusp, radii, rel_tol=rel_tol)
        orbital = log_orbital_parabolic(cusp, radii)
        abscissa = poincare_abscissa(cusp)
        tail = series_convergence_at(cusp, abscissa)
        monotone = bool(np.all(np.diff(orbital) >= -1e-9))
        assertions.append({"name": f"orbit-monotone:{name}",
                           "passed": monotone})
        lines.append(f"[{name}]")
        lines.append(f"series abscissa: {abscissa!r}")
        lines.append(f"weighted tail verdict at the abscissa: "
                     f"{'converges' if tail.verdict else 'diverges'}")
        lines.append("")
        artifacts[f"cusp-{name}.csv"] = _csv(
            "R,log_excursion_mass,log_orbit_count",
            radii, excursion, orbital)
    artifacts["cusps.txt"] = "\n".join(lines)
    return assertions, artifacts


def _run_lattice_classify(cfg: ExperimentConfig):
    assertions = []
    chunks = []
    names = _names(cfg)
    specs = catalog_specs([(name, _params_for(cfg, name)) for name in names])
    for name, spec in zip(names, specs):
        rep = classify_lattice(spec, tol_factor=cfg.tolerances["pinch_tol"])
        assertions.append({
            "name": f"classified:{name}",
            "passed": True,
            "pinch_class": rep.pinch_class,
            "bm_finite": rep.bm_finite,
            "predicted_ambient": getattr(rep.predictions.vgamma_class,
                                         "value", None),
            "predicted_volume": getattr(rep.predictions.vx_class, "value", None),
            "delta_gamma": rep.delta_gamma,
            "omega_plus": [e.omega_plus for e in rep.estimates],
            "omega_minus": [e.omega_minus for e in rep.estimates],
        })
        chunks.append(f"[{name}]\n{_taxonomy_text(rep)}\n")
    return assertions, {"classification.txt": "\n".join(chunks)}


def _run_example(cfg: ExperimentConfig):
    assertions = []
    artifacts = {}
    trend = TrendPolicy(tau=cfg.tolerances["trend_tau"],
                        band=cfg.tolerances["trend_band"])
    for name in _names(cfg):
        rep = run_example(name, _params_for(cfg, name), r_max=cfg.r_max,
                          trend=trend, rel_tol=cfg.tolerances["rel_tol"],
                          tol_factor=cfg.tolerances["pinch_tol"])
        for claim in rep.claims:
            assertions.append({
                "name": f"{name}:{claim.name}",
                "passed": bool(claim.passed),
                "expected": claim.expected,
                "computed": claim.computed,
            })
        artifacts[f"example-{name}.txt"] = _example_text(rep)
        artifacts[f"growth-{name}.csv"] = _csv(
            "R,log_v_gamma,log_v_x_lower,log_v_x_upper",
            rep.radii, rep.log_vgamma, rep.log_vx_lower, rep.log_vx_upper)
    return assertions, artifacts


def _run_oracle_verify(cfg: ExperimentConfig):
    assertions = []
    lemmas = verify_lemmas(10000, cfg.seed)
    sandwich = verify_prop28(cfg.r_cap, cfg.gauge)
    exponent = estimate_delta(r_cap=cfg.r_cap)
    # the counting-band protocol is calibrated on its own radius split,
    # independent of the enumeration cap chosen for the count tables
    band = verify_counting(fit_pad=cfg.tolerances["fit_pad"])
    table = coset_counts(cfg.r_cap, cfg.gauge)

    assertions.append({"name": "geometric-lemmas",
                       "passed": bool(lemmas.passed)})
    assertions.append({"name": "count-sandwiches",
                       "passed": bool(sandwich.passed)})
    assertions.append({"name": "exponent-near-one",
                       "passed": bool(0.85 <= exponent.estimate <= 1.15),
                       "estimate": exponent.estimate})
    assertions.append({"name": "counting-band", "passed": bool(band.passed)})

    constants = [
        ("triangle_max_defect", lemmas.triangle_max_defect),
        ("flow_defect_sup", lemmas.approx_eps0),
        ("horoball_defect_sup", lemmas.eps1_fitted),
        # left and right cosets count alike: one shift fills both slots
        ("left_gauge_shift", sandwich.shift_cosets_lower),
        ("right_gauge_shift", sandwich.shift_cosets_lower),
        ("double_gauge_shift", sandwich.shift_double_lower),
        ("exponent_estimate", exponent.estimate),
        ("counting_log_constant", band.log_constant),
    ]
    report = "\n".join([
        "== geometric lemmas ==",
        f"samples: {lemmas.samples} (seed {lemmas.seed})",
        f"triangle defect: {lemmas.samples} checked, "
        f"{lemmas.triangle_violations} violations, "
        f"max defect {lemmas.triangle_max_defect:.6f}",
        f"flow-time approximation: fitted eps0 {lemmas.approx_eps0:.6f}, "
        f"window max {lemmas.approx_window_low:.6f} -> "
        f"{lemmas.approx_window_high:.6f}",
        f"horoball additivity: {lemmas.samples} checked, "
        f"{lemmas.horoball_violations} violations, fitted eps1 "
        f"{lemmas.eps1_fitted:.6f}",
        f"verdict: {'PASS' if lemmas.passed else 'FAIL'}", "",
        "== count sandwiches ==",
        f"gauge {sandwich.gauge!r}, radii up to {sandwich.r_max!r} "
        f"({sandwich.n_fit} fit rows, {sandwich.n_assert} assert rows)",
        "exact: left-coset annuli <= group annuli: "
        + ("ok" if sandwich.right_left_in_group else "FAIL"),
        "exact: double-coset annuli <= group annuli: "
        + ("ok" if sandwich.right_double_in_group else "FAIL"),
        f"fitted lower shifts (left / right / double): "
        f"{sandwich.shift_cosets_lower!r} / {sandwich.shift_cosets_lower!r} / "
        f"{sandwich.shift_double_lower!r}",
        "outer-half assertion: " + ("ok" if sandwich.assert_ok else "FAIL"),
        f"verdict: {'PASS' if sandwich.passed else 'FAIL'}", "",
        "== critical exponent ==",
        f"critical exponent {exponent.estimate:.4f} "
        f"(outer window {exponent.est.window_floors[0]:.4f} to "
        f"{exponent.est.window_peaks[0]:.4f}, "
        f"{exponent.n_elements} orbit points within {exponent.r_cap!r})", "",
        "== counting band ==",
        f"target depth {band.depth!r}, fitted on radii <= "
        f"{band.fit_max!r}, asserted up to {band.r_cap!r}",
        f"fitted log constant {band.log_constant:.6f} "
        f"(deviation {band.max_fit_deviation:.6f} + pad "
        f"{band.fit_pad:.6f})",
        f"outer deviation {band.max_assert_deviation:.6f}: "
        + ("inside the band" if band.assert_ok else "ESCAPES the band"),
        f"outer drift around the fitted center: "
        f"{band.max_center_drift:.6f}", "",
        "== fitted constants ==",
        *[f"{key} = {value!r}" for key, value in constants], ""])
    counts = _csv("R,v_gamma,v_gamma_annulus,v_left_cosets,v_right_cosets,"
                  "v_double_cosets", table.radii, table.v_group,
                  table.v_group_annulus, table.v_cosets, table.v_cosets,
                  table.v_double)
    return assertions, {"oracle-counts.csv": counts, "oracle.txt": report}


_RUNNERS = {
    "profile-validate": _run_profile_validate,
    "cusp-analyze": _run_cusp_analyze,
    "lattice-classify": _run_lattice_classify,
    "example-run": _run_example,
    "oracle-verify": _run_oracle_verify,
}


def _plot_script(csvs: list[str]) -> str:
    lines = ['set datafile separator ","', "set key autotitle columnhead",
             "set xlabel 'R'"]
    for fname in csvs:
        lines.append(f'plot "{fname}" using 1:2 with lines')
    return "\n".join(lines) + "\n"


def _stale_files(out: Path) -> list[Path]:
    """The files that an earlier ``summary.json`` in ``out`` lists in its
    ``artifacts``, by plain file name; none if it does not parse."""
    try:
        listed = json.loads((out / "summary.json").read_text())["artifacts"]
    except (OSError, ValueError, LookupError, TypeError):
        return []
    return [out / name for name in (listed if isinstance(listed, list) else [])
            if isinstance(name, str) and name == Path(name).name
            and (out / name).is_file()]


def run(cfg: ExperimentConfig) -> int:
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory "
                          f"{cfg.out}: {exc}") from exc
    try:
        assertions, artifacts = _RUNNERS[cfg.command](cfg)
    except CatalogError as exc:
        flags = " ".join(f"--{flag} {value!r}"
                         for flag, value in _overrides(cfg).items())
        if not flags:
            raise
        raise CatalogError(f"{exc} (overrides in effect: {flags})") from exc
    csvs = [name for name in artifacts if name.endswith(".csv")]
    if cfg.plot_script and csvs:
        artifacts["plot.gp"] = _plot_script(csvs)
    passed = all(a["passed"] for a in assertions)
    summary = {
        "command": cfg.command,
        "name": cfg.name,
        "seed": cfg.seed,
        "passed": passed,
        "assertions": assertions,
        "artifacts": sorted(artifacts) + ["summary.json"],
        "tolerances": cfg.tolerances,
    }
    artifacts["summary.json"] = json.dumps(summary, indent=2,
                                           sort_keys=True) + "\n"
    # the one writer of the output directory, after every computation:
    # it checks every path, writes every file into a temporary sibling
    # directory, and only then removes the earlier run's files and moves
    # the new ones into place, summary.json last, so that a write that
    # fails midway (a full disk, say) leaves the directory as it was
    for path in (cfg.out / name for name in artifacts):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: is a directory")
    out = cfg.out.resolve()
    try:
        staging = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    except OSError as exc:
        raise ConfigError(f"cannot write next to {cfg.out}: {exc}") from exc
    try:
        for name, text in artifacts.items():
            try:
                (staging / name).write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {cfg.out / name}: {exc}") from exc
        for path in _stale_files(cfg.out):
            try:
                path.unlink()
            except OSError as exc:
                raise ConfigError(f"cannot remove {path}: {exc}") from exc
        for name in artifacts:
            try:
                (staging / name).replace(out / name)
            except OSError as exc:
                raise ConfigError(f"cannot write {cfg.out / name}: {exc}") from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    for entry in assertions:
        print(("ok   " if entry["passed"] else "FAIL ") + entry["name"])
    print(f"{cfg.command}: {'PASS' if passed else 'FAIL'} "
          f"({cfg.out / 'summary.json'})")
    return EXIT_PASS if passed else EXIT_FAIL


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except CuspGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(cfg)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CuspGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
