"""Command-line runner tests.

Exercises configuration resolution (flag beats config file beats
default), the key=value parser's failure modes, the exit-code contract
(0 pass, 1 assertion failure, 2 bad configuration, 4 numerical
failure), artifact layout, and byte-level reproducibility of a fixed
invocation.
"""

import errno
import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cuspgrowth import cli, h2_oracle, numerics, profiles, taxonomy
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
from cuspgrowth.taxonomy import catalog_spec, classify_lattice, run_example

# a spacing base inside the float range
_HUGE_M = "1" + "0" * 300


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

    @pytest.mark.parametrize("flag, text, key, first, again", [
        ("--config", "command=profile-validate\nname=sparse-5.2\n"
         "name = exotic-div-5.3b\n", "name", 2, 3),
        ("--tolerances", "rel_tol=1e-6\n\n# looser\nrel_tol=0.5\n",
         "rel_tol", 1, 4),
    ])
    def test_key_set_twice_exits_2(self, tmp_path, capsys, monkeypatch, flag,
                                   text, key, first, again):
        # the last value used to win without a word: a tolerance file
        # setting rel_tol to 1e-6 and then 0.5 ran at 0.5 and exited 0
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        argv = ([flag, str(path)] if flag == "--config" else
                ["profile-validate", "--name", "sparse-5.2", flag, str(path)])
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}:{again}: {key!r} is set again "
            f"(first on line {first})\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

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


class TestFlagTable:
    """cli._FLAGS is the one definition of the flags: the parser, the
    config-file keys and the README all follow it."""

    def test_parser_options_are_the_table(self):
        dests = {action.dest for action in build_parser()._actions}
        assert dests - {"help", "config", "command"} == set(cli._FLAGS)

    def test_config_file_resolves_like_the_flags(self, tmp_path):
        tol = tmp_path / "tol.cfg"
        tol.write_text("pinch_tol=0.05\n")
        values = {"name": "critical-finite-5.4a", "Rmax": "60", "Rcap": "10",
                  "delta": "0.5", "seed": "3", "b": "2.5", "gamma": "0.3",
                  "M": "4", "mu": "0.2", "out": str(tmp_path / "elsewhere"),
                  "tolerances": str(tol), "plot_script": "yes"}
        assert set(values) == set(cli._FLAGS)
        path = tmp_path / "run.cfg"
        path.write_text("command=profile-validate\n" + "".join(
            f"{key}={value}\n" for key, value in values.items()))
        from_file = _resolve(["--config", str(path)])
        argv = ["profile-validate", "--plot-script"]
        for key, value in values.items():
            if key != "plot_script":
                argv += [f"--{key}", value]
        assert from_file == _resolve(argv)
        default = _resolve(["profile-validate"])
        for field, *_ in cli._FLAGS.values():
            assert getattr(from_file, field) != getattr(default, field), field

    def test_readme_names_every_flag(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        flags = readme[readme.index("\nFlags: "):]
        flags = flags[:flags.index("\n\n")]
        for action in build_parser()._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert option in flags, option


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
        "example-run --name exotic-div-5.3b --Rmax 1e12",
        "oracle-verify --Rcap 14 --delta 1e-9",
    ], ids=lambda c: c.split()[-2])
    def test_value_past_the_memory_budget_exits_2(self, tmp_path, capsys,
                                                  command):
        argv = command.split()
        rc, out = _run(tmp_path, *argv)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {argv[-2]} ")
        assert not out.exists()

    def test_rmax_cap_is_the_cache_node_budget(self):
        cap = taxonomy._R_MAX_CAP
        # a profile starting at 0 fills exactly the budget
        assert math.ceil((cap + 1.0) / taxonomy._CACHE_STEP) == taxonomy._CACHE_NODES
        assert _resolve(["example-run", "--Rmax", repr(cap)]).r_max == cap
        with pytest.raises(ConfigError, match=f"needs --Rmax <= {cap!r}, "):
            _resolve(["example-run", "--Rmax", repr(math.nextafter(cap, math.inf))])
        # only example-run caches excursion integrals
        assert _resolve(["cusp-analyze", "--Rmax", "1e300"]).r_max == 1e300

    def test_delta_floor_is_the_row_budget(self):
        least = 14.0 / h2_oracle._COUNT_ROWS
        argv = ["oracle-verify", "--Rcap", "14", "--delta"]
        assert _resolve([*argv, repr(least)]).gauge == least
        with pytest.raises(ConfigError, match=f"needs --delta >= {least!r}$"):
            _resolve([*argv, repr(math.nextafter(least, 0.0))])
        assert h2_oracle.coset_counts(14.0, least).radii.size <= h2_oracle._COUNT_ROWS

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

    @pytest.mark.parametrize("command", [
        "oracle-verify --seed",
        "profile-validate --name sparse-5.2 --M",
    ], ids=["seed", "M"])
    def test_integer_past_the_float_range_exits_2(self, tmp_path, capsys,
                                                  command):
        huge = "1" + "0" * 400
        rc, out = _run(tmp_path, *command.split(), huge)
        assert rc == EXIT_CONFIG
        flag = command.split()[-1]
        err = capsys.readouterr().err
        assert err == (f"error: {flag} is too large: it exceeds the float "
                       f"range\n")
        assert "0" * 20 not in err
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
        # a float, but the last window edge m^14 or m^8 is past the range
        (f"profile-validate --name sparse-5.2 --M {_HUGE_M}",
         f"sparse-5.2 window edge m^14 overflows a float: m or windows is "
         f"too large (overrides in effect: --M {_HUGE_M})"),
        (f"profile-validate --name critical-finite-5.4a --M {_HUGE_M}",
         f"critical ids window edge m^8 overflows a float: m or windows is "
         f"too large (overrides in effect: --M {_HUGE_M})"),
    ], ids=["b", "M-mu", "mu", "gamma", "M-edge-sparse", "M-edge-critical"])
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

    def test_deep_envelope_curvature_runs_without_a_warning(self, tmp_path):
        # at m = 10^21 the deepest windows reach t * t past the float
        # range, where the envelope's second log-derivative -power / t^2
        # is -0.0; a RuntimeWarning there is an error under this suite
        rc, out = _run(tmp_path, "profile-validate", "--name",
                       "critical-finite-5.4a", "--M", "1" + "0" * 21)
        assert rc == EXIT_PASS
        assert _assertion_map(_summary(out))[
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

    @pytest.mark.parametrize("value", ["1", "5"])
    def test_rel_tol_of_one_or_more_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match=r"rel_tol must lie in \(0, 1\)"):
            self._with(tmp_path, f"rel_tol={value}\n")

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

    @pytest.mark.parametrize("command", ["profile-validate", "cusp-analyze",
                                         "lattice-classify"])
    def test_first_family_error_wins(self, tmp_path, capsys, command):
        # at --b 2.5 no ramp fraction bridges critical-finite-5.4a's head
        # band, and --gamma 0.1 leaves critical-infinite-5.4b's default
        # beta 2.2 outside (1+gamma, 2+gamma); the batch build raises the
        # earlier family's error, as building the families in order does
        rc, out = _run(tmp_path, command, "--b", "2.5", "--gamma", "0.1")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: no monotone sandwiched transition on [2.0, 9.0] between "
            "(power=0.0, rate=1.0) and (power=1.0, rate=1.25)\n")
        assert not (out / "summary.json").exists()

    def test_rel_tol_of_one_or_more_is_config_error(self, tmp_path, capsys):
        # rel_tol=5 ran every command and passed its claims
        tol = tmp_path / "tol.cfg"
        tol.write_text("rel_tol=5\n")
        rc, out = _run(tmp_path, "example-run", "--name", "exotic-div-5.3b",
                       "--tolerances", str(tol))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: rel_tol must lie in (0, 1), got 5.0\n"
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

    def test_unwritable_artifact_is_config_error(self, tmp_path, capsys):
        # a directory where the report goes: the run refuses it after the
        # computations, like an output directory that cannot be created,
        # and before it writes any file
        out = tmp_path / "out"
        (out / "oracle.txt").mkdir(parents=True)
        rc, _ = _run(tmp_path, "oracle-verify", "--Rcap", "9")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'oracle.txt'}: ")
        assert not (out / "summary.json").exists()
        assert not (out / "oracle-counts.csv").exists()

    def test_write_that_fails_midway_leaves_nothing(self, tmp_path, capsys,
                                                    monkeypatch):
        # a full disk after the first file: the earlier run's artifacts
        # stay as they were, no file of the new run lands, and no staging
        # directory is left next to the output directory
        rc, out = _run(tmp_path, "oracle-verify", "--Rcap", "9")
        assert rc == EXIT_PASS
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_text = Path.write_text
        written = []

        def full_disk(path, text):
            if written:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            written.append(path)
            return write_text(path, text)

        monkeypatch.setattr(Path, "write_text", full_disk)
        rc, _ = _run(tmp_path, "oracle-verify", "--Rcap", "10")
        monkeypatch.undo()
        assert rc == EXIT_CONFIG
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_failed_family_writes_nothing(self, tmp_path, capsys):
        # the first three families accept --mu 0.45 and finish; the
        # fourth rejects it, and the run leaves none of their artifacts
        rc, out = _run(tmp_path, "example-run", "--name", "all",
                       "--mu", "0.45")
        assert rc == EXIT_CONFIG
        assert "mu=0.45 leaves no transition band" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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

        def counted(profiles):
            calls.append(list(profiles))
            return certify(profiles)

        monkeypatch.setattr(profiles, "_certify", counted)
        rc, out = _run(tmp_path, "profile-validate", "--name", "all")
        assert rc == EXIT_PASS
        # five main profiles and one companion, in one batch
        assert len(calls) == 1
        assert len(calls[0]) == len(_summary(out)["assertions"]) == 6

    def test_artifact_list_matches_disk(self, tmp_path):
        rc, out = _run(tmp_path, "profile-validate", "--name",
                       "critical-finite-5.4a")
        assert rc == EXIT_PASS
        summary = _summary(out)
        assert summary["artifacts"] == sorted(summary["artifacts"])
        assert "summary.json" in summary["artifacts"]
        on_disk = sorted(p.name for p in out.iterdir())
        assert summary["artifacts"] == on_disk


class TestReusedOutputDirectory:
    def test_earlier_run_files_are_removed(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        rc, _ = _run(tmp_path, "example-run", "--name", "all", "--Rmax", "60")
        assert rc == EXIT_PASS
        rc, _ = _run(tmp_path, "example-run", "--name", "sparse-5.2",
                     "--Rmax", "60")
        assert rc == EXIT_PASS
        assert sorted(p.name for p in out.iterdir()) == sorted(
            _summary(out)["artifacts"] + ["notes.txt"])
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_only_plain_listed_files_are_removed(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        for path in (tmp_path / "outside.txt", out / "sub" / "inner.txt",
                     out / "old.txt", out / "kept.txt"):
            path.write_text("x\n")
        (out / "summary.json").write_text(json.dumps({"artifacts": [
            "old.txt", "../outside.txt", "sub/inner.txt", "sub", "..", 7]}))
        rc, _ = _run(tmp_path, "profile-validate", "--name", "sparse-5.2")
        assert rc == EXIT_PASS
        assert not (out / "old.txt").exists()
        for path in (tmp_path / "outside.txt", out / "sub" / "inner.txt",
                     out / "kept.txt"):
            assert path.read_text() == "x\n"

    @pytest.mark.parametrize("text", ["{not json", '{"artifacts": "kept.txt"}',
                                      '["kept.txt"]', "{}"])
    def test_unreadable_summary_removes_nothing(self, tmp_path, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.txt").write_text("x\n")
        (out / "summary.json").write_text(text)
        rc, _ = _run(tmp_path, "profile-validate", "--name", "sparse-5.2")
        assert rc == EXIT_PASS
        assert (out / "kept.txt").read_text() == "x\n"


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

    def test_growth_csv_shape(self, tmp_path):
        name = "exotic-div-5.3b"
        rc, out = _run(tmp_path, "example-run", "--name", name,
                       "--Rmax", "500")
        assert rc == EXIT_PASS
        lines = (out / f"growth-{name}.csv").read_text().strip().split("\n")
        assert lines[0] == "R,log_v_gamma,log_v_x_lower,log_v_x_upper"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        # one row per radius of the report, which repr round-trips
        assert [r for r, *_ in rows] == list(run_example(name).radii)
        assert rows[0][0] == pytest.approx(1.0)
        assert rows[-1][0] == pytest.approx(500.0)
        # log-domain envelope ordering survives the round trip
        for _, _, lo, hi in rows:
            assert lo <= hi + 1e-9


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
        walk = h2_oracle._walk

        def counted(r, h, starts):
            depths.append(h)
            return walk(r, h, starts)

        monkeypatch.setattr(h2_oracle, "_walk", counted)
        monkeypatch.setattr(h2_oracle, "_BALLS", {}, raising=False)
        rc, _ = _run(tmp_path, "oracle-verify", "--Rcap", "9", "--seed", "3")
        assert rc == EXIT_PASS
        # the count sandwiches, the exponent and the count table at h = 0,
        # the counting band at its target depth 2
        assert sorted(depths) == [0.0, 2.0]

    def test_count_table_csv(self, tmp_path):
        rc, out = _run(tmp_path, "oracle-verify", "--Rcap", "12",
                       "--delta", "2")
        assert rc == EXIT_PASS
        lines = (out / "oracle-counts.csv").read_text().strip().split("\n")
        assert lines[0] == ("R,v_gamma,v_gamma_annulus,v_left_cosets,"
                            "v_right_cosets,v_double_cosets")
        assert lines[1] == "2.0,5,12,3,3,2"
        assert len(lines) == 7


def _section(report: str, title: str) -> list[str]:
    """The lines of the section '== title ==' of a report."""
    return report.split(f"== {title} ==\n", 1)[1].split("\n\n", 1)[0].split("\n")


class TestReportText:
    """cli renders every report from the library's records.  No flag
    reaches the FAIL lines of the lemma, sandwich and counting sections,
    so their tests replace fields of the real records."""

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_taxonomy_text(self, name):
        rep = classify_lattice(catalog_spec(name))
        lines = cli._taxonomy_text(rep).split("\n")
        assert lines[2] == f"pinch class: {rep.pinch_class}"
        assert [line.split(":")[0] for line in lines[6:]] == [
            f"cusp {i}" for i in range(len(rep.estimates))]

    def test_example_text_sections(self):
        text = cli._example_text(run_example("exotic-div-5.3b"))
        for section in ("== taxonomy ==", "== exponents ==",
                        "== invariant measure ==", "== growth classes ==",
                        "== claims =="):
            assert section in text
        assert "overall: PASS" in text
        assert "PASS  computed-volume-class" in text

    def test_oracle_sections_pass(self, tmp_path):
        rc, out = _run(tmp_path, "oracle-verify", "--Rcap", "12")
        assert rc == EXIT_PASS
        report = (out / "oracle.txt").read_text()
        # the one coset shift fills both the left and the right slot
        assert _section(report, "count sandwiches")[3:] == [
            "fitted lower shifts (left / right / double): 0.0 / 0.0 / 0.75",
            "outer-half assertion: ok", "verdict: PASS"]
        assert _section(report, "fitted constants")[3:6] == [
            "left_gauge_shift = 0.0", "right_gauge_shift = 0.0",
            "double_gauge_shift = 0.75"]

    @pytest.mark.parametrize("runner, fields, assertion, section, want", [
        ("verify_lemmas", {"triangle_violations": 2, "horoball_violations": 1},
         "geometric-lemmas", "geometric lemmas",
         ["10000 checked, 2 violations, max defect ",
          "10000 checked, 1 violations, fitted eps1 ", "verdict: FAIL"]),
        ("verify_lemmas", {"horoball_min_defect": -0.5},
         "geometric-lemmas", "geometric lemmas",
         ["10000 checked, 0 violations, fitted eps1 ", "verdict: FAIL"]),
        ("verify_prop28", {"right_left_in_group": False},
         "count-sandwiches", "count sandwiches",
         ["exact: left-coset annuli <= group annuli: FAIL",
          "exact: double-coset annuli <= group annuli: ok",
          "outer-half assertion: ok", "verdict: FAIL"]),
        ("verify_prop28", {"right_double_in_group": False, "assert_ok": False},
         "count-sandwiches", "count sandwiches",
         ["exact: left-coset annuli <= group annuli: ok",
          "exact: double-coset annuli <= group annuli: FAIL",
          "outer-half assertion: FAIL", "verdict: FAIL"]),
        ("verify_prop28", {"shift_cosets_lower": None},
         "count-sandwiches", "count sandwiches",
         ["fitted lower shifts (left / right / double): None / None / 0.75",
          "verdict: FAIL"]),
        ("verify_counting", {"assert_ok": False}, "counting-band",
         "counting band", [": ESCAPES the band\n"]),
    ])
    def test_failing_section(self, tmp_path, monkeypatch, runner, fields,
                             assertion, section, want):
        real = getattr(cli, runner)
        monkeypatch.setattr(cli, runner, lambda *args, **kwargs:
                            real(*args, **kwargs)._replace(**fields))
        rc, out = _run(tmp_path, "oracle-verify", "--Rcap", "12")
        assert rc == EXIT_FAIL
        assert [a["name"] for a in _summary(out)["assertions"]
                if not a["passed"]] == [assertion]
        text = "\n".join(_section((out / "oracle.txt").read_text(), section))
        for part in want:
            assert part in text


class TestCsv:
    def test_int64_counts_are_plain_integers(self):
        # numpy 2 prints an np.int64 as np.int64(5)
        text = cli._csv("R,count,log", np.array([2.0, 4.0]),
                        np.array([5, 12], dtype=np.int64),
                        np.array([0.5, 1.5]))
        assert text == "R,count,log\n2.0,5,0.5\n4.0,12,1.5\n"


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
    # frozen from the exponential-sum band once it agreed with the secant
    # reference (tests/band_reference.py) to 1e-12 nats at decay 0 and to
    # rel_tol at a positive decay, and lay within [exact, exact + rel_tol]
    # of the mpmath convolution; frozen again from the Taylor excursion
    # kernel and its ln(8 / rel_tol) cut once its panel values agreed with
    # the log_value integrand to 1e-12 and its excursion integrals with
    # the mpmath reference to rel_tol: a band sum or an excursion value
    # that moves by one bit changes them
    FROZEN_DIGESTS = {
        "sparse-5.2":
            "9d12210f20936c9abc680663593bfd0de95b1f17bf2e05c20cc525238fa263a7",
        "exotic-conv-5.3a":
            "01a6e54a5a6aea33d8711f93a4a1f76846e8107e48c270f88e11c47ebdf7eb15",
        "exotic-div-5.3b":
            "c6e365c1a9cf6b8909bd9e7224e524aead087eaca21c559fada3500064d4e42b",
        "critical-finite-5.4a":
            "27e9f1ca6961aa89fecb63f96e033e5d1e83c0ad844155e34b123820a82809be",
        "critical-infinite-5.4b":
            "d953cbc190a6102ae98fbd424b37215da67ef38a578f69b4cd428eec2169c79e",
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
