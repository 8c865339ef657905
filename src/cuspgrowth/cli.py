"""Experiment runner.

One invocation executes one command against the cusp catalog or the
exact-plane oracle and writes its artifacts (CSV tables, a plain-text
report, and a machine-readable summary) into the output directory.
Every float is emitted through repr and nothing records wall-clock
state, so identical configurations produce byte-identical outputs.

Exit codes: 0 all assertions passed, 1 at least one assertion failed,
2 configuration problem, 3 internal error, 4 numerical failure (an
integral missed its tolerance within its budget).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .asymptotics import (
    CuspModel,
    TrendPolicy,
    WindowPolicy,
    poincare_abscissa,
    sample_cuspidal,
    sample_orbital_parabolic,
    series_convergence_at,
)
from .errors import CatalogError, ConfigError, CuspGrowthError, QuadratureError
from .h2_oracle import (
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
    catalog_companions,
    catalog_profile,
    default_catalog_params,
    profile_to_text,
    validate_profile,
)
from .taxonomy import (
    _FAMILY_READS,
    _GRID_POINTS,
    catalog_spec,
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

_DEFAULTS = {
    "name": "all",
    "Rmax": 500.0,
    "Rcap": 12.0,
    "delta": 1.0,
    "seed": 7,
    "out": "cuspgrowth-out",
}

# Smallest value of a numeric flag, (floor, floor itself allowed), for
# each command that reads it.  The radius floors are where the tail
# windows of the command's growth fit first fill: run_example fits
# np.linspace(1, Rmax, _GRID_POINTS); estimate_delta's is _DELTA_FLOOR.
_MINIMA: dict[str, dict[str, tuple[float, bool]]] = {
    "Rmax": {"cusp-analyze": (0.0, False),
             "example-run": (
                 WindowPolicy().min_r_max(1.0, _GRID_POINTS), True)},
    "Rcap": {"oracle-verify": (_DELTA_FLOOR, True)},
    "delta": {"oracle-verify": (0.0, False)},
    "seed": {"oracle-verify": (0, True)},
}

# catalog override flags: flag -> (ExperimentConfig field, CatalogParams field)
_OVERRIDES = {"b": ("b", "rate_fast"), "gamma": ("gamma", "gamma"),
              "M": ("m", "m"), "mu": ("mu", "mu")}

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOLEANS)}, "
                         f"got {text!r}") from None


_COERCE: dict[str, Callable[[str], object]] = {
    "command": str,
    "name": str,
    "Rmax": float,
    "Rcap": float,
    "delta": float,
    "seed": int,
    "b": float,
    "gamma": float,
    "M": int,
    "mu": float,
    "out": str,
    "tolerances": str,
    "plot_script": _boolean,
}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
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
    """key=value lines; '#' starts a comment; keys must be recognized."""
    if not name:
        raise ConfigError(f"{flag} must name a file, got ''")
    path = Path(name)
    if not path.is_file():
        raise ConfigError(f"no such file: {path}")
    out = {}
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
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspgrowth",
        description="Run cusp-growth experiments and verification suites.")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="what to run (may also come from --config)")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file mirroring the flags below")
    parser.add_argument("--name", help="catalog id or 'all'")
    parser.add_argument("--Rmax", type=float,
                        help="sampling radius for growth data")
    parser.add_argument("--Rcap", type=float,
                        help="oracle enumeration radius")
    parser.add_argument("--delta", type=float,
                        help="annulus gauge for oracle counts")
    parser.add_argument("--seed", type=int, help="PRNG seed")
    parser.add_argument("--b", type=float,
                        help="override: fast decay rate of the catalog")
    parser.add_argument("--gamma", type=float,
                        help="override: slow polynomial tail exponent")
    parser.add_argument("--M", type=int,
                        help="override: excursion scale base")
    parser.add_argument("--mu", type=float,
                        help="override: excursion amplitude")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--tolerances", metavar="FILE",
                        help="key=value overrides for check tolerances")
    parser.add_argument("--plot-script", action="store_true",
                        dest="plot_script", default=None,
                        help="also emit a gnuplot script for the CSVs")
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values = {}
    if args.config is not None:
        file_values = _parse_kv_file("--config", args.config, _COERCE)

    def pick(key: str, default=None):
        cli = getattr(args, key, None)
        if cli is not None:
            return cli
        if key in file_values:
            return file_values[key]
        return _DEFAULTS.get(key, default)

    command = pick("command")
    if command is None:
        raise ConfigError("no command given (flags and config file are "
                          "both silent); expected one of: "
                          + ", ".join(COMMANDS))
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    name = pick("name")
    if name != "all" and name not in CATALOG_IDS:
        raise ConfigError(f"unknown catalog id {name!r} "
                          f"(known: all, {', '.join(CATALOG_IDS)})")
    numbers = {"Rmax": float(pick("Rmax")), "Rcap": float(pick("Rcap")),
               "delta": float(pick("delta")), "seed": int(pick("seed"))}
    for key, value in numbers.items():
        _check_number(key, value, command)
    if numbers["Rcap"] > R_CAP:
        raise ConfigError(f"--Rcap {numbers['Rcap']!r} exceeds the oracle "
                          f"enumeration cap {R_CAP!r}")
    reach = prop28_radius(numbers["Rcap"], numbers["delta"])
    if command == "oracle-verify" and reach > BALL_CAP:
        raise ConfigError(
            f"--delta {numbers['delta']!r} with --Rcap {numbers['Rcap']!r} "
            f"would enumerate the lattice to radius {reach!r}, above the "
            f"oracle's ball cap {BALL_CAP!r}; lower --delta or --Rcap")
    if command == "oracle-verify" and numbers["delta"] > numbers["Rcap"]:
        # the count table holds the gauge multiples up to Rcap
        raise ConfigError(
            f"--delta {numbers['delta']!r} exceeds --Rcap {numbers['Rcap']!r}: "
            f"no multiple of the gauge lies within the counting radius")
    for key in ("b", "gamma", "mu"):  # --M is an integer
        if pick(key) is not None:
            _check_number(key, pick(key), command)
    families = (() if command == "oracle-verify"
                else CATALOG_IDS if name == "all" else (name,))
    # cusp-analyze builds each family's main profile and nothing else
    reads = _PROFILE_READS if command == "cusp-analyze" else _FAMILY_READS
    for flag, (_, field) in _OVERRIDES.items():
        if pick(flag) is None or any(field in reads[f] for f in families):
            continue
        if not families:
            raise ConfigError(f"--{flag} has no effect: "
                              "oracle-verify reads no catalog family")
        if any(field in _FAMILY_READS[f] for f in families):
            raise ConfigError(f"--{flag} has no effect: cusp-analyze reads "
                              f"only the main profile of {name}")
        raise ConfigError(f"--{flag} has no effect: {name} does not read it")
    if not pick("out"):
        # an empty path would write the artifacts into the working directory
        raise ConfigError("--out must name a directory, got ''")
    return ExperimentConfig(
        command=command,
        name=name,
        r_max=numbers["Rmax"],
        r_cap=numbers["Rcap"],
        gauge=numbers["delta"],
        seed=numbers["seed"],
        out=Path(pick("out")),
        tolerances=_load_tolerances(pick("tolerances")),
        plot_script=bool(pick("plot_script", False)),
        b=pick("b"), gamma=pick("gamma"), m=pick("M"), mu=pick("mu"))


def _check_number(key: str, value: float, command: str) -> None:
    if not math.isfinite(value):
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
    values = {flag: getattr(cfg, field)
              for flag, (field, _) in _OVERRIDES.items()}
    return {flag: v for flag, v in values.items() if v is not None}


def _params_for(cfg: ExperimentConfig, name: str) -> CatalogParams:
    return dataclasses.replace(
        default_catalog_params(name),
        **{_OVERRIDES[flag][1]: v for flag, v in _overrides(cfg).items()})


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "value"):
        return value.value
    return str(value)


# -- command runners -----------------------------------------------------------


def _run_profile_validate(cfg: ExperimentConfig, outdir: Path):
    assertions = []
    artifacts = []
    lines = []
    for name in _names(cfg):
        params = _params_for(cfg, name)
        profiles = ((catalog_profile(name, params),)
                    + catalog_companions(name, params))
        for i, prof in enumerate(profiles):
            rep = validate_profile(prof)
            tag = name if i == 0 else f"{name}-companion{i}"
            assertions.append({
                "name": f"certified:{tag}",
                "passed": bool(rep.passed),
                "implied_eps": _jsonable(rep.implied_eps),
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
            fname = f"profile-{tag}.txt"
            (outdir / fname).write_text(profile_to_text(prof))
            artifacts.append(fname)
    (outdir / "profiles.txt").write_text("\n".join(lines))
    artifacts.append("profiles.txt")
    return assertions, artifacts


def _run_cusp_analyze(cfg: ExperimentConfig, outdir: Path):
    assertions = []
    artifacts = []
    lines = []
    rel_tol = cfg.tolerances["rel_tol"]
    for name in _names(cfg):
        cusp = CuspModel(profile=catalog_profile(name, _params_for(cfg, name)))
        radii = np.linspace(min(8.0, cfg.r_max / 4.0), cfg.r_max, 65)
        excursion = sample_cuspidal(cusp, radii, rel_tol=rel_tol)
        orbital = sample_orbital_parabolic(cusp, radii)
        abscissa = poincare_abscissa(cusp)
        tail = series_convergence_at(cusp, abscissa)
        monotone = bool(np.all(np.diff(orbital.log_values) >= -1e-9))
        assertions.append({"name": f"orbit-monotone:{name}",
                           "passed": monotone})
        lines.append(f"[{name}]")
        lines.append(f"series abscissa: {abscissa!r}")
        lines.append(f"weighted tail verdict at the abscissa: "
                     f"{'converges' if tail.converges else 'diverges'}")
        lines.append("")
        fname = f"cusp-{name}.csv"
        rows = ["R,log_excursion_mass,log_orbit_count"]
        for i, r in enumerate(radii):
            rows.append(f"{float(r)!r},{float(excursion.log_values[i])!r},"
                        f"{float(orbital.log_values[i])!r}")
        (outdir / fname).write_text("\n".join(rows) + "\n")
        artifacts.append(fname)
    (outdir / "cusps.txt").write_text("\n".join(lines))
    artifacts.append("cusps.txt")
    return assertions, artifacts


def _run_lattice_classify(cfg: ExperimentConfig, outdir: Path):
    assertions = []
    artifacts = []
    chunks = []
    for name in _names(cfg):
        spec = catalog_spec(name, _params_for(cfg, name))
        rep = classify_lattice(spec, tol_factor=cfg.tolerances["pinch_tol"])
        assertions.append({
            "name": f"classified:{name}",
            "passed": True,
            "pinch_class": rep.pinch_class,
            "bm_finite": _jsonable(rep.bm_finite),
            "predicted_ambient": _jsonable(rep.predictions.vgamma_class),
            "predicted_volume": _jsonable(rep.predictions.vx_class),
            "delta_gamma": _jsonable(rep.delta_gamma),
            "omega_plus": [_jsonable(e.omega_plus) for e in rep.estimates],
            "omega_minus": [_jsonable(e.omega_minus) for e in rep.estimates],
        })
        chunks.append(f"[{name}]\n{rep.summary()}\n")
    (outdir / "classification.txt").write_text("\n".join(chunks))
    artifacts.append("classification.txt")
    return assertions, artifacts


def _run_example(cfg: ExperimentConfig, outdir: Path):
    assertions = []
    artifacts = []
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
                "expected": _jsonable(claim.expected),
                "computed": _jsonable(claim.computed),
            })
        (outdir / f"example-{name}.txt").write_text(rep.to_text())
        (outdir / f"growth-{name}.csv").write_text(rep.csv_text())
        artifacts.extend([f"example-{name}.txt", f"growth-{name}.csv"])
    return assertions, artifacts


def _run_oracle_verify(cfg: ExperimentConfig, outdir: Path):
    assertions = []
    artifacts = []
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
                       "estimate": _jsonable(exponent.estimate)})
    assertions.append({"name": "counting-band", "passed": bool(band.passed)})

    (outdir / "oracle-counts.csv").write_text(table.to_csv_text())
    artifacts.append("oracle-counts.csv")

    constants = [
        ("triangle_max_defect", lemmas.triangle_max_defect),
        ("flow_defect_sup", lemmas.approx_eps0),
        ("horoball_defect_sup", lemmas.eps1_fitted),
        ("left_gauge_shift", sandwich.shift_left_lower),
        ("right_gauge_shift", sandwich.shift_right_lower),
        ("double_gauge_shift", sandwich.shift_double_lower),
        ("exponent_estimate", exponent.estimate),
        ("counting_log_constant", band.log_constant),
    ]
    report = "\n".join([
        "== geometric lemmas ==", lemmas.summary(), "",
        "== count sandwiches ==", sandwich.summary(), "",
        "== critical exponent ==", exponent.summary(), "",
        "== counting band ==", band.summary(), "",
        "== fitted constants ==",
        *[f"{key} = {value!r}" for key, value in constants], ""])
    (outdir / "oracle.txt").write_text(report)
    artifacts.append("oracle.txt")
    return assertions, artifacts


_RUNNERS = {
    "profile-validate": _run_profile_validate,
    "cusp-analyze": _run_cusp_analyze,
    "lattice-classify": _run_lattice_classify,
    "example-run": _run_example,
    "oracle-verify": _run_oracle_verify,
}


def _write_plot_script(outdir: Path, artifacts: list[str]) -> Optional[str]:
    csvs = [a for a in artifacts if a.endswith(".csv")]
    if not csvs:
        return None
    lines = ['set datafile separator ","', "set key autotitle columnhead",
             "set xlabel 'R'"]
    for fname in csvs:
        lines.append(f'plot "{fname}" using 1:2 with lines')
    (outdir / "plot.gp").write_text("\n".join(lines) + "\n")
    return "plot.gp"


def run(cfg: ExperimentConfig) -> int:
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory "
                          f"{cfg.out}: {exc}") from exc
    try:
        assertions, artifacts = _RUNNERS[cfg.command](cfg, cfg.out)
    except CatalogError as exc:
        flags = " ".join(f"--{flag} {value!r}"
                         for flag, value in _overrides(cfg).items())
        if not flags:
            raise
        raise CatalogError(f"{exc} (overrides in effect: {flags})") from exc
    if cfg.plot_script:
        extra = _write_plot_script(cfg.out, artifacts)
        if extra is not None:
            artifacts.append(extra)
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
    (cfg.out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
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
