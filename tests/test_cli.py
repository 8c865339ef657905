"""Command-line runner tests.

Exercises configuration resolution (flag beats config file beats
default), the key=value parser's failure modes, the exit-code contract
(0 pass, 1 assertion failure, 2 bad configuration, 4 numerical
failure), artifact layout, and byte-level reproducibility of a fixed
invocation.
"""

import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cuspgrowth import cli, h2_oracle, numerics, profiles
from cuspgrowth.asymptotics import GrowthSeries, TrendPolicy, estimate_exponents
from cuspgrowth.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERICAL,
    EXIT_PASS,
    TOLERANCE_DEFAULTS,
    build_parser,
    resolve_config,
)
from cuspgrowth.errors import ConfigError, DomainError
from cuspgrowth.h2_oracle import estimate_delta, verify_counting
from cuspgrowth.profiles import CATALOG_IDS
from cuspgrowth.taxonomy import classify_lattice, run_example


def _resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = cli.main([*argv, "--out", str(out)])
    return rc, out


def _summary(out):
    return json.loads((out / "summary.json").read_text())


def _assertion_map(summary):
    return {a["name"]: a for a in summary["assertions"]}


class TestResolveConfig:
    def test_defaults(self):
        cfg = _resolve(["oracle-verify"])
        assert cfg.command == "oracle-verify"
        assert cfg.name == "all"
        assert cfg.r_max == 500.0
        assert cfg.r_cap == 12.0
        assert cfg.gauge == 1.0
        assert cfg.seed == 7
        assert cfg.out.name == "cuspgrowth-out"
        assert cfg.tolerances == TOLERANCE_DEFAULTS
        assert cfg.plot_script is False
        assert cfg.b is None and cfg.gamma is None
        assert cfg.m is None and cfg.mu is None

    def test_cli_flags(self):
        cfg = _resolve(["example-run", "--name", "critical-infinite-5.4b",
                        "--b", "3", "--Rmax", "60", "--seed", "11",
                        "--M", "5", "--mu", "0.1", "--gamma", "0.7"])
        assert cfg.name == "critical-infinite-5.4b"
        assert cfg.b == 3.0
        assert cfg.r_max == 60.0
        assert cfg.seed == 11
        assert cfg.m == 5
        assert cfg.mu == 0.1
        assert cfg.gamma == 0.7

    def test_config_file_supplies_command(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=cusp-analyze\n"
                        "name=sparse-5.2\n"
                        "Rmax=40\n"
                        "seed=11\n")
        cfg = _resolve(["--config", str(path)])
        assert cfg.command == "cusp-analyze"
        assert cfg.name == "sparse-5.2"
        assert cfg.r_max == 40.0
        assert cfg.seed == 11

    def test_cli_beats_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=example-run\nname=sparse-5.2\nRmax=40\n")
        cfg = _resolve(["--config", str(path), "--Rmax", "80"])
        assert cfg.r_max == 80.0
        assert cfg.name == "sparse-5.2"

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run setup\n"
                        "\n"
                        "command=profile-validate\n"
                        "Rmax=60  # sampling radius\n")
        cfg = _resolve(["--config", str(path)])
        assert cfg.command == "profile-validate"
        assert cfg.r_max == 60.0

    def test_plot_script_from_file(self, tmp_path):
        for raw, expected in (("yes", True), ("true", True), ("1", True),
                              ("no", False), ("0", False)):
            path = tmp_path / f"run-{raw}.cfg"
            path.write_text(f"command=profile-validate\nplot_script={raw}\n")
            assert _resolve(["--config", str(path)]).plot_script is expected

    def test_no_command_anywhere(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(ConfigError, match="no command given"):
            _resolve(["--config", str(path)])

    def test_unknown_command_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=transmogrify\n")
        with pytest.raises(ConfigError, match="unknown command"):
            _resolve(["--config", str(path)])

    def test_unknown_command_on_cli(self):
        # argparse owns positional validation and exits on its own
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmogrify"])

    def test_unknown_catalog_id(self):
        with pytest.raises(ConfigError, match="unknown catalog id"):
            _resolve(["example-run", "--name", "dense-9.9"])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="no such file"):
            _resolve(["--config", "/nonexistent/run.cfg"])

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=oracle-verify\nfrobnicate\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            _resolve(["--config", str(path)])

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=oracle-verify\nspeed=11\n")
        with pytest.raises(ConfigError, match="unknown key 'speed'"):
            _resolve(["--config", str(path)])

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=oracle-verify\nM=4.5\n")
        with pytest.raises(ConfigError, match="bad value for 'M'"):
            _resolve(["--config", str(path)])

    @pytest.mark.parametrize("raw", ["ture", "on", "2"])
    def test_unrecognized_plot_script_exits_2(self, tmp_path, capsys,
                                              monkeypatch, raw):
        # an unrecognized value used to turn the plot off and exit 0
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text(f"command=profile-validate\nname=sparse-5.2\n"
                        f"plot_script = {raw}\n")
        rc = cli.main(["--config", str(path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: {path}:3: bad value for 'plot_script': ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("key", ["out", "plot_script", "name"])
    def test_empty_config_value_exits_2(self, tmp_path, capsys, monkeypatch,
                                        key):
        # an empty out used to write the artifacts into the working directory
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text(f"command=profile-validate\n{key} =\n")
        rc = cli.main(["--config", str(path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}:2: empty value for {key!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_empty_out_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["profile-validate", "--name", "sparse-5.2",
                       "--out", ""])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --out must name a directory, got ''\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--tolerances", "--config"])
    def test_empty_file_flag_exits_2(self, tmp_path, capsys, monkeypatch,
                                     flag):
        # Path('') is the working directory, which is no file to read
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["profile-validate", "--name", "sparse-5.2",
                       flag, "", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {flag} must name a file, got ''\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, message", [
        ("profile-validate --name sparse-5.2 --mu 1e30",
         "--mu has no effect: sparse-5.2 does not read it"),
        ("profile-validate --name sparse-5.2 --gamma 1e30",
         "--gamma has no effect: sparse-5.2 does not read it"),
        ("profile-validate --name exotic-conv-5.3a --M 5",
         "--M has no effect: exotic-conv-5.3a does not read it"),
        ("cusp-analyze --name exotic-div-5.3b --mu 0.2",
         "--mu has no effect: exotic-div-5.3b does not read it"),
        # gamma reaches 5.4b only through its companion and its ambient
        # model, and cusp-analyze builds neither
        ("cusp-analyze --name critical-infinite-5.4b --gamma 0.3",
         "--gamma has no effect: cusp-analyze reads only the main profile "
         "of critical-infinite-5.4b"),
        ("oracle-verify --b 5",
         "--b has no effect: oracle-verify reads no catalog family"),
        ("oracle-verify --name sparse-5.2 --M 4",
         "--M has no effect: oracle-verify reads no catalog family"),
    ])
    def test_override_no_family_reads_exits_2(self, tmp_path, capsys,
                                              command, message):
        rc, out = _run(tmp_path, *command.split())
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_override_no_family_reads_from_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=lattice-classify\nname=exotic-div-5.3b\n"
                        "gamma=0.3\n")
        with pytest.raises(ConfigError, match="--gamma has no effect"):
            _resolve(["--config", str(path)])

    def test_override_only_companions_read_from_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=cusp-analyze\nname=critical-infinite-5.4b\n"
                        "gamma=0.3\n")
        with pytest.raises(ConfigError, match=(
                "^--gamma has no effect: cusp-analyze reads only the main "
                "profile of critical-infinite-5.4b$")):
            _resolve(["--config", str(path)])

    @pytest.mark.parametrize("argv", [
        ["profile-validate", "--name", "critical-finite-5.4a", "--mu", "0.4"],
        ["lattice-classify", "--b", "2.5", "--gamma", "0.3", "--M", "4",
         "--mu", "0.2"],
        ["profile-validate", "--name", "critical-infinite-5.4b", "--gamma",
         "0.3"],
        ["cusp-analyze", "--name", "critical-finite-5.4a", "--gamma", "0.3"],
        ["cusp-analyze", "--gamma", "0.3"],
    ])
    def test_override_some_family_reads_is_accepted(self, argv):
        assert _resolve(argv).command == argv[0]

    def test_rcap_beyond_enumeration_cap(self):
        with pytest.raises(ConfigError, match="enumeration cap"):
            _resolve(["oracle-verify", "--Rcap", "14.5"])


class TestNumberRanges:
    @pytest.mark.parametrize("command", [
        "oracle-verify --Rcap nan",
        "oracle-verify --delta nan",
        "oracle-verify --seed -1",
        "example-run --Rmax 0",
        "example-run --Rmax -3",
        "oracle-verify --Rcap 3",
        "cusp-analyze --Rmax nan",
        "cusp-analyze --Rmax inf",
    ], ids=lambda c: c.replace(" --", "-").replace(" ", "="))
    def test_bad_value_exits_2_naming_the_flag(self, tmp_path, capsys,
                                               command):
        argv = command.split()
        rc, out = _run(tmp_path, *argv)
        assert rc == EXIT_CONFIG
        assert f"error: {argv[1]} " in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_values_are_checked(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=oracle-verify\ndelta=0\n")
        with pytest.raises(ConfigError, match="--delta 0.0 is out of range"):
            _resolve(["--config", str(path)])

    def test_working_values_still_accepted(self):
        assert _resolve(["example-run", "--Rmax", "10"]).r_max == 10.0
        assert _resolve(["cusp-analyze", "--Rmax", "0.5"]).r_max == 0.5
        assert _resolve(["oracle-verify", "--seed", "0"]).seed == 0
        # minima bind only the commands that read the flag
        assert _resolve(["lattice-classify", "--Rmax", "2"]).r_max == 2.0

    @pytest.mark.parametrize("command", [
        "oracle-verify --Rcap 9 --delta 1e6",
        "oracle-verify --Rcap 14 --delta 8",
        "oracle-verify --Rcap 14 --delta 1.5",
        "oracle-verify --Rcap 12 --delta 5.5",
        "oracle-verify --delta inf",
    ], ids=lambda c: c.replace(" --", "-").replace(" ", "="))
    def test_delta_beyond_the_ball_cap_exits_2(self, tmp_path, capsys,
                                               command):
        rc, out = _run(tmp_path, *command.split())
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--delta" in err and ("--Rcap" in err or "inf" in err)
        assert not out.exists()

    def test_ball_cap_from_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=oracle-verify\nRcap=14\ndelta=8\n")
        with pytest.raises(ConfigError, match="--delta 8.0 with --Rcap 14.0 "
                           "would enumerate the lattice to radius 18.0"):
            _resolve(["--config", str(path)])

    @pytest.mark.parametrize("command", [
        "oracle-verify --Rcap 9 --delta 11",
        "oracle-verify --Rcap 9 --delta 9.5",
    ], ids=lambda c: c.replace(" --", "-").replace(" ", "="))
    def test_delta_above_rcap_exits_2(self, tmp_path, capsys, command):
        argv = command.split()
        rc, out = _run(tmp_path, *argv)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: --delta {float(argv[4])!r} exceeds --Rcap 9.0: ")
        assert not out.exists()

    def test_delta_above_rcap_from_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=oracle-verify\nRcap=9\ndelta=11\n")
        with pytest.raises(ConfigError, match="--delta 11.0 exceeds --Rcap 9.0"):
            _resolve(["--config", str(path)])

    @pytest.mark.parametrize("argv", [
        ["oracle-verify", "--Rcap", "14", "--delta", "1"],
        ["oracle-verify", "--Rcap", "12", "--delta", "5"],
        ["oracle-verify", "--delta", "0.001"],
        # only oracle-verify reads --delta
        ["example-run", "--Rcap", "14", "--delta", "100"],
        # a gauge equal to Rcap still has one multiple to count at
        ["oracle-verify", "--Rcap", "9", "--delta", "9"],
    ])
    def test_delta_within_the_ball_cap_accepted(self, argv):
        assert _resolve(argv).gauge == float(argv[argv.index("--delta") + 1])

    @pytest.mark.parametrize("command", [
        "profile-validate --name sparse-5.2 --b nan",
        "profile-validate --name critical-finite-5.4a --mu nan",
        "profile-validate --name critical-infinite-5.4b --gamma inf",
        "example-run --name exotic-div-5.3b --b inf",
        "lattice-classify --name critical-finite-5.4a --gamma nan",
    ], ids=lambda c: c.split(" --", 2)[-1].replace(" ", "="))
    def test_non_finite_override_exits_2(self, tmp_path, capsys, command):
        argv = command.split()
        rc, out = _run(tmp_path, *argv)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {argv[3]} must be a finite number, got "
            f"{float(argv[4])!r}\n")
        assert not out.exists()

    def test_override_in_config_file_is_checked(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=profile-validate\nname=sparse-5.2\nb=nan\n")
        with pytest.raises(ConfigError, match="--b must be a finite number"):
            _resolve(["--config", str(path)])

    @pytest.mark.parametrize("command, message", [
        ("profile-validate --name sparse-5.2 --b 1.5",
         "sparse-5.2 needs fast rate > 2 (overrides in effect: --b 1.5)"),
        ("profile-validate --name critical-finite-5.4a --M 2 --mu 0.1",
         "critical ids need integer m >= 3 "
         "(overrides in effect: --M 2 --mu 0.1)"),
        ("profile-validate --name critical-finite-5.4a --mu 0.7",
         "mu must lie in (0, 1/2) (overrides in effect: --mu 0.7)"),
        ("lattice-classify --name critical-infinite-5.4b --gamma 1.5",
         "gamma must lie in (0, 1) (overrides in effect: --gamma 1.5)"),
    ], ids=["b", "M-mu", "mu", "gamma"])
    def test_out_of_range_override_names_the_flags(self, tmp_path, capsys,
                                                   command, message):
        rc, _ = _run(tmp_path, *command.split())
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["1e300", "1e200"])
    def test_override_whose_square_overflows_exits_2(self, tmp_path, capsys,
                                                     value):
        rc, _ = _run(tmp_path, "profile-validate", "--name",
                     "critical-finite-5.4a", "--b", value)
        assert rc == EXIT_CONFIG
        b = float(value)
        assert capsys.readouterr().err == (
            f"error: fast rate {b!r} is too large: its square overflows "
            f"(overrides in effect: --b {b!r})\n")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_override_whose_square_is_finite_still_runs(self, tmp_path):
        # b^2 is finite at b = 1e154, so the run completes; the validator's
        # curvature ratio overflows there and certification fails
        rc, out = _run(tmp_path, "profile-validate", "--name",
                       "critical-finite-5.4a", "--b", "1e154")
        assert rc == EXIT_FAIL
        assert not _assertion_map(_summary(out))[
            "certified:critical-finite-5.4a"]["passed"]

    def test_finite_overrides_still_accepted(self, tmp_path):
        cfg = _resolve(["example-run", "--b", "2.5", "--gamma", "0.3",
                        "--mu", "0.2", "--M", "4"])
        assert (cfg.b, cfg.gamma, cfg.mu, cfg.m) == (2.5, 0.3, 0.2, 4)
        rc, _ = _run(tmp_path, "profile-validate", "--name", "sparse-5.2",
                     "--b", "2.5")
        assert rc == EXIT_PASS

    def test_radius_floors_match_the_fits(self):
        floor = cli._MINIMA["Rcap"]["oracle-verify"][0]
        assert estimate_delta(r_cap=floor).n_elements > 0
        # below its floor estimate_delta refuses before the fit, whose
        # windows would be short of samples there
        below = math.nextafter(floor, 0.0)
        with pytest.raises(DomainError, match="below estimate_delta's floor"):
            estimate_delta(r_cap=below)
        radii = np.linspace(h2_oracle._DELTA_R_MIN, below,
                            h2_oracle._DELTA_POINTS)
        with pytest.raises(DomainError, match="holds 7 samples"):
            estimate_exponents(GrowthSeries(radii, radii),
                               h2_oracle._DELTA_POLICY)
        floor = cli._MINIMA["Rmax"]["example-run"][0]
        assert run_example("exotic-div-5.3b", r_max=floor).passed
        with pytest.raises(DomainError, match="holds 7 samples"):
            run_example("exotic-div-5.3b", r_max=0.99 * floor)


class TestToleranceFile:
    def _with(self, tmp_path, text):
        path = tmp_path / "tol.cfg"
        path.write_text(text)
        return _resolve(["profile-validate", "--tolerances", str(path)])

    def test_override_merges_with_defaults(self, tmp_path):
        cfg = self._with(tmp_path, "pinch_tol=0.05\n")
        assert cfg.tolerances["pinch_tol"] == 0.05
        assert cfg.tolerances["trend_tau"] == TOLERANCE_DEFAULTS["trend_tau"]

    def test_defaults_are_the_library_defaults(self):
        # each knob overrides a library default; the copies must agree
        def default(func, name):
            return inspect.signature(func).parameters[name].default

        assert TOLERANCE_DEFAULTS == {
            "pinch_tol": default(classify_lattice, "tol_factor"),
            "trend_tau": TrendPolicy().tau,
            "trend_band": TrendPolicy().band,
            "rel_tol": default(run_example, "rel_tol"),
            "fit_pad": default(verify_counting, "fit_pad"),
        }
        assert (default(run_example, "tol_factor")
                == default(classify_lattice, "tol_factor"))

    def test_unknown_knob(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'weird_knob'"):
            self._with(tmp_path, "weird_knob=1\n")

    def test_nonpositive_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="must be positive"):
            self._with(tmp_path, "trend_tau=0\n")

    def test_fit_pad_zero_allowed_negative_rejected(self, tmp_path):
        assert self._with(tmp_path, "fit_pad=0\n").tolerances["fit_pad"] == 0.0
        with pytest.raises(ConfigError, match="nonnegative"):
            self._with(tmp_path, "fit_pad=-0.1\n")

    @pytest.mark.parametrize("line", ["pinch_tol=nan", "rel_tol=inf",
                                      "fit_pad=inf"])
    def test_non_finite_rejected(self, tmp_path, line):
        key = line.split("=")[0]
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            self._with(tmp_path, line + "\n")


class TestExitCodes:
    def test_empty_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert cli.main(["--config", str(path)]) == EXIT_CONFIG
        assert "no command given" in capsys.readouterr().err

    def test_bad_name_is_config_error(self, tmp_path):
        rc, _ = _run(tmp_path, "example-run", "--name", "dense-9.9")
        assert rc == EXIT_CONFIG

    def test_bad_tolerance_is_config_error(self, tmp_path):
        tol = tmp_path / "tol.cfg"
        tol.write_text("weird_knob=1\n")
        rc, _ = _run(tmp_path, "profile-validate", "--tolerances", str(tol))
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("line, argv", [
        # a NaN pinch tolerance passed every comparison and classified the
        # not-half-pinched family as strictly half-pinched
        ("pinch_tol=nan", ["lattice-classify", "--name", "sparse-5.2"]),
        ("rel_tol=inf", ["cusp-analyze", "--name", "sparse-5.2"]),
    ])
    def test_non_finite_tolerance_is_config_error(self, tmp_path, capsys,
                                                  line, argv):
        tol = tmp_path / "tol.cfg"
        tol.write_text(line + "\n")
        rc, out = _run(tmp_path, *argv, "--tolerances", str(tol))
        assert rc == EXIT_CONFIG
        assert f"{line.split('=')[0]} must be finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_quadrature_miss_is_numerical_failure(self, tmp_path, capsys,
                                                  monkeypatch):
        # with no halving allowed, an excursion integral of the sparse
        # family misses a 1e-12 tolerance and raises QuadratureError
        monkeypatch.setattr(numerics, "_MAX_HALVINGS", 0)
        tol = tmp_path / "tol.cfg"
        tol.write_text("rel_tol=1e-12\n")
        rc, out = _run(tmp_path, "cusp-analyze", "--name", "sparse-5.2",
                       "--tolerances", str(tol))
        assert rc == EXIT_NUMERICAL
        assert "numerical failure: the excursion integral" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", [
        "cusp-analyze --name exotic-div-5.3b --b 1e50",
        "cusp-analyze --name critical-finite-5.4a --b 1e30",
        "example-run --name exotic-conv-5.3a --b 1e30",
        "example-run --name exotic-div-5.3b --b 1e50",
        "example-run --name critical-finite-5.4a --b 1e50",
        "example-run --name critical-infinite-5.4b --b 1e30",
    ], ids=lambda c: c.replace(" --name ", ":").replace(" --b ", "-b"))
    def test_panel_count_past_int64_is_numerical_failure(self, tmp_path,
                                                         capsys, command):
        # such counts used to wrap around negative, pass the panel budget
        # and exit 3 with an internal error
        rc, out = _run(tmp_path, *command.split())
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the excursion integral")
        assert "over the budget of" in err
        assert not (out / "summary.json").exists()

    def test_failed_claim_is_assertion_failure(self, tmp_path, capsys):
        # a huge trend threshold blinds the classifier to the power-law
        # factor of this family, so the computed ambient class misses
        tol = tmp_path / "tol.cfg"
        tol.write_text("trend_tau=1000\n")
        rc, out = _run(tmp_path, "example-run", "--name", "exotic-conv-5.3a",
                       "--Rmax", "60", "--tolerances", str(tol))
        assert rc == EXIT_FAIL
        summary = _summary(out)
        assert summary["passed"] is False
        amap = _assertion_map(summary)
        assert not amap["exotic-conv-5.3a:computed-ambient-class"]["passed"]
        assert "FAIL" in capsys.readouterr().out


def _maybe(values):
    return st.one_of(st.none(), values)


# finite values of every magnitude, and the non-finite ones
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestBoundaryFuzz:
    """Whatever the catalog overrides and the radius, a run passes, fails
    its assertions, rejects its configuration or reports a numerical
    failure: never an internal error, never an escaping exception."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(command=st.sampled_from(["profile-validate", "cusp-analyze"]),
           name=st.sampled_from(CATALOG_IDS),
           b=_maybe(st.one_of(st.floats(0.0, 20.0), _ANY_FLOAT)),
           gamma=_maybe(st.one_of(st.floats(0.0, 1.0), _ANY_FLOAT)),
           m=_maybe(st.integers(-3, 12)),
           mu=_maybe(st.one_of(st.floats(0.0, 0.5), _ANY_FLOAT)),
           r_max=_maybe(st.floats(-1.0, 500.0)))
    @example(command="cusp-analyze", name="exotic-div-5.3b", b=1e30,
             gamma=None, m=None, mu=None, r_max=None)
    @example(command="cusp-analyze", name="critical-finite-5.4a", b=1e150,
             gamma=None, m=None, mu=None, r_max=None)
    @example(command="profile-validate", name="sparse-5.2", b=1e30,
             gamma=None, m=None, mu=None, r_max=None)
    @example(command="profile-validate", name="exotic-conv-5.3a", b=1e150,
             gamma=None, m=None, mu=None, r_max=None)
    def test_exit_code_in_contract(self, tmp_path_factory, command, name, b,
                                   gamma, m, mu, r_max):
        argv = [command, "--name", name,
                "--out", str(tmp_path_factory.mktemp("fuzz"))]
        for flag, value in (("--b", b), ("--gamma", gamma), ("--M", m),
                            ("--mu", mu), ("--Rmax", r_max)):
            if value is not None:
                argv.append(f"{flag}={value!r}")
        assert cli.main(argv) in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG,
                                  EXIT_NUMERICAL)


class TestProfileValidate:
    def test_single_catalog_entry(self, tmp_path):
        rc, out = _run(tmp_path, "profile-validate", "--name", "sparse-5.2")
        assert rc == EXIT_PASS
        summary = _summary(out)
        assert summary["command"] == "profile-validate"
        assert summary["passed"] is True
        names = [a["name"] for a in summary["assertions"]]
        assert "certified:sparse-5.2" in names
        assert all(a["passed"] for a in summary["assertions"])
        text = (out / "profiles.txt").read_text()
        assert "certified: yes" in text
        assert (out / "profile-sparse-5.2.txt").is_file()

    def test_each_profile_is_certified_once(self, tmp_path, monkeypatch):
        certify = profiles._certify
        calls = []

        def counted(profile):
            calls.append(profile)
            return certify(profile)

        monkeypatch.setattr(profiles, "_certify", counted)
        rc, out = _run(tmp_path, "profile-validate", "--name", "all")
        assert rc == EXIT_PASS
        # five main profiles and one companion
        assert len(calls) == len(_summary(out)["assertions"]) == 6

    def test_artifact_list_matches_disk(self, tmp_path):
        rc, out = _run(tmp_path, "profile-validate", "--name",
                       "critical-finite-5.4a")
        assert rc == EXIT_PASS
        summary = _summary(out)
        assert summary["artifacts"] == sorted(summary["artifacts"])
        assert "summary.json" in summary["artifacts"]
        on_disk = sorted(p.name for p in out.iterdir())
        assert summary["artifacts"] == on_disk


class TestCuspAnalyze:
    def test_csv_and_report(self, tmp_path):
        rc, out = _run(tmp_path, "cusp-analyze", "--name", "sparse-5.2",
                       "--Rmax", "40")
        assert rc == EXIT_PASS
        csv = (out / "cusp-sparse-5.2.csv").read_text().splitlines()
        assert csv[0] == "R,log_excursion_mass,log_orbit_count"
        assert len(csv) == 66
        # the abscissa is (n-1) c / 2 for the final law e^{-t}; at it the
        # weighted integrand is t, so the tail diverges
        assert (out / "cusps.txt").read_text().splitlines() == [
            "[sparse-5.2]",
            "series abscissa: 0.5",
            "weighted tail verdict at the abscissa: diverges"]
        amap = _assertion_map(_summary(out))
        assert amap["orbit-monotone:sparse-5.2"]["passed"]


class TestLatticeClassify:
    def test_single_entry(self, tmp_path):
        rc, out = _run(tmp_path, "lattice-classify", "--name",
                       "critical-infinite-5.4b")
        assert rc == EXIT_PASS
        amap = _assertion_map(_summary(out))
        entry = amap["classified:critical-infinite-5.4b"]
        assert entry["passed"]
        assert entry["bm_finite"] is False
        assert entry["predicted_volume"] == "upper"
        assert len(entry["omega_plus"]) == 2
        assert "pinch" in (out / "classification.txt").read_text()


class TestExampleRun:
    def test_short_radius_scores_prediction_claims(self, tmp_path):
        rc, out = _run(tmp_path, "example-run", "--name", "exotic-div-5.3b",
                       "--b", "3", "--Rmax", "60")
        assert rc == EXIT_PASS
        summary = _summary(out)
        amap = _assertion_map(summary)
        prefix = "exotic-div-5.3b:"
        assert set(amap) == {prefix + claim for claim in (
            "sparse", "exotic", "pinch-class", "predicted-ambient-class",
            "predicted-volume-class", "predicted-invariant-measure",
            "margulis-prediction", "computed-ambient-class")}
        assert amap[prefix + "predicted-invariant-measure"]["passed"]
        volume = amap[prefix + "predicted-volume-class"]
        assert volume["passed"] and volume["computed"] == "pure"
        text = (out / "example-exotic-div-5.3b.txt").read_text()
        assert "only prediction claims are scored" in text
        assert (out / "growth-exotic-div-5.3b.csv").is_file()

    def test_pinch_tol_reaches_the_pinch_class_claim(self, tmp_path):
        # at pinch_tol 1.0 the family reads as exactly half-pinched; both
        # commands must classify with the tolerance file's value
        tol = tmp_path / "tol.cfg"
        tol.write_text("pinch_tol=1.0\n")
        name = "exotic-div-5.3b"
        args = ("--name", name, "--tolerances", str(tol))
        rc, out = _run(tmp_path / "classify", "lattice-classify", *args)
        assert rc == EXIT_PASS
        classified = _assertion_map(_summary(out))[f"classified:{name}"]
        rc, out = _run(tmp_path / "example", "example-run", *args,
                       "--Rmax", "60")
        claim = _assertion_map(_summary(out))[f"{name}:pinch-class"]
        assert classified["pinch_class"] == claim["computed"] == "exactly-half-pinched"
        assert rc == EXIT_FAIL and not claim["passed"]

    def test_plot_script_emission(self, tmp_path):
        rc, out = _run(tmp_path, "example-run", "--name", "sparse-5.2",
                       "--Rmax", "60", "--plot-script")
        assert rc == EXIT_PASS
        assert "plot.gp" in _summary(out)["artifacts"]
        script = (out / "plot.gp").read_text()
        assert 'plot "growth-sparse-5.2.csv"' in script


class TestOracleVerify:
    def test_default_invocation(self, tmp_path):
        rc, out = _run(tmp_path, "oracle-verify", "--Rcap", "12",
                       "--delta", "1", "--seed", "7")
        assert rc == EXIT_PASS
        summary = _summary(out)
        amap = _assertion_map(summary)
        assert set(amap) == {"geometric-lemmas", "count-sandwiches",
                             "exponent-near-one", "counting-band"}
        assert all(a["passed"] for a in summary["assertions"])
        assert 0.85 <= amap["exponent-near-one"]["estimate"] <= 1.15
        report = (out / "oracle.txt").read_text()
        assert "== fitted constants ==" in report
        assert "counting_log_constant" in report
        counts = (out / "oracle-counts.csv").read_text().splitlines()
        assert counts[0].startswith("R,v_gamma,")

    def test_one_enumeration_per_depth(self, tmp_path, monkeypatch):
        depths = []
        enumerate_ball = h2_oracle._enumerate

        def counted(r, h=0.0):
            depths.append(h)
            return enumerate_ball(r, h)

        monkeypatch.setattr(h2_oracle, "_enumerate", counted)
        monkeypatch.setattr(h2_oracle, "_BALLS", {}, raising=False)
        rc, _ = _run(tmp_path, "oracle-verify", "--Rcap", "9", "--seed", "3")
        assert rc == EXIT_PASS
        # the count sandwiches, the exponent and the count table at h = 0,
        # the counting band at its target depth 2
        assert sorted(depths) == [0.0, 2.0]


class TestReproducibility:
    def test_identical_config_and_seed_bytes(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("command=example-run\n"
                        "name=exotic-div-5.3b\n"
                        "b=3\n"
                        "Rmax=60\n"
                        "seed=5\n")
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            assert cli.main(["--config", str(path),
                             "--out", str(out)]) == EXIT_PASS
            outs.append(out)
        first = {p.name: p.read_bytes() for p in outs[0].iterdir()}
        second = {p.name: p.read_bytes() for p in outs[1].iterdir()}
        assert first == second


class TestGrowthTablesFrozen:
    # sha256 of growth-<name>.csv from `example-run --name all --Rmax 500`,
    # frozen from the per-radius volume band that the one-pass band
    # replaced: a band sum that moves by one bit changes them
    FROZEN_DIGESTS = {
        "sparse-5.2":
            "95ff83d12ddb41993790f6b74b7e6636a5467ea98cf2a5ad53083a6e28159ade",
        "exotic-conv-5.3a":
            "c89af36a7def3e8212623dfae060c6d64d35e909d0c88a25e5007851f428a6c3",
        "exotic-div-5.3b":
            "e0658636285e9fed7217a8bb4d0c3dabc73f9a2854b8da999343833b721c75e9",
        "critical-finite-5.4a":
            "7b60dd8d9a3f0892694544a600a94697cce6629879aaab08db64f601849cc24d",
        "critical-infinite-5.4b":
            "0519aef99a535233fdd4c5ed133cd1c8f7933f9a3cd8e80b990b185734be80b5",
    }

    def test_every_family_at_the_default_radius(self, tmp_path):
        rc, out = _run(tmp_path, "example-run", "--name", "all",
                       "--Rmax", "500")
        assert rc == EXIT_PASS
        digests = {name: hashlib.sha256(
            (out / f"growth-{name}.csv").read_bytes()).hexdigest()
            for name in CATALOG_IDS}
        assert digests == self.FROZEN_DIGESTS


class TestStdout:
    def test_final_status_line(self, tmp_path, capsys):
        rc, out = _run(tmp_path, "profile-validate", "--name", "sparse-5.2")
        assert rc == EXIT_PASS
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == f"profile-validate: PASS ({out / 'summary.json'})"
        assert all(line.startswith("ok   ") for line in lines[:-1])
