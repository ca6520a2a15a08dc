"""Command-line behavior: config resolution, output files, exit codes,
and byte-level reproducibility."""

import argparse
import dataclasses
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import modcnls
from modcnls import cli, export, transform
from modcnls.cli import main
from modcnls.errors import (DivergenceError, LatticeTooCoarseError,
                            ValidationError)
from modcnls.export import (FORMATS, _atomic_write, _write_columns,
                            write_coefficients, write_diagnostics,
                            write_fields, write_modulation, COEFFICIENT_COLUMNS,
                            DIAGNOSTICS_COLUMNS, FIELD_COLUMNS, TRACE_COLUMNS)
from modcnls.families import (FieldPair, dark_bright_family, default_grid,
                              default_trace, elliptic_family, sech_family)
from modcnls.grid import SpatialGrid, is_integer
from modcnls.modulation import _closed_form, closed_form_trace, explicit_trace
from modcnls.propagator import DiagnosticsTrace
from modcnls.transform import CoefficientSampler
from coefficient_helpers import worst_of
from worker_helpers import assert_reaped, force_workers


def data_lines(path):
    with open(path, "rb") as fh:
        return [line for line in fh if not line.startswith(b"#")]


def read_csv(path):
    meta, columns, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, columns, np.asarray(rows)


class TestExportHelpers:
    def test_atomic_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "data.txt"
        _atomic_write(str(target), ["payload"])
        assert target.read_text() == "payload"
        assert os.listdir(tmp_path) == ["data.txt"]

    def test_failed_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "data.txt"
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(str(target), ["a lone surrogate \ud800"])
        assert os.listdir(tmp_path) == []

    def test_float_round_trip(self, tmp_path):
        values = [1 / 3, 0.1, 2.0920992401062033, 1e-300]
        target = tmp_path / "t.csv"
        _write_columns(str(target), ("v",), [values], {"k": "1"}, "csv")
        _, cols, rows = read_csv(str(target))
        assert cols == ["v"]
        assert rows[:, 0].tolist() == values

    def test_json_lines_format(self, tmp_path):
        target = tmp_path / "t.jsonl"
        _write_columns(str(target), ("a", "b"), [[1.5], [2.5]], {"k": "v"},
                       "json-lines")
        lines = target.read_text().splitlines()
        assert json.loads(lines[0]) == {"meta": {"k": "v"}}
        assert json.loads(lines[1]) == {"a": 1.5, "b": 2.5}


def render_rows(columns, rows, meta, fmt):
    # oracle: the row-wise renderer, one repr(float(v)) per value
    if fmt == "csv":
        lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"
    lines = [json.dumps({"meta": meta}, sort_keys=True)]
    for row in rows:
        lines.append(json.dumps(
            {c: float(v) for c, v in zip(columns, row)}, sort_keys=True))
    return "\n".join(lines) + "\n"


# values whose text is easy to get wrong: non-finite, signed zero, the
# smallest subnormal, a huge one, and a short decimal with no exact binary
SPECIALS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300,
            0.1]
META = {"b": "2", "a": "x y", "t": repr(0.25)}


def mixed_column(rng, n):
    col = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    col[rng.choice(n, len(SPECIALS), replace=False)] = SPECIALS
    return col


@pytest.mark.parametrize("fmt", FORMATS)
class TestColumnRendering:
    """Every writer against the row-wise oracle, byte for byte."""

    def test_write_table(self, tmp_path, fmt):
        rows = [(v, -v, 1) for v in SPECIALS] + [(1 / 3, 2.0920992401062033,
                                                   -1e-300)]
        target = tmp_path / "t"
        _write_columns(str(target), ("a", "b", "c"), list(zip(*rows)), META,
                       fmt)
        assert target.read_text() == render_rows(("a", "b", "c"), rows, META,
                                                 fmt)

    def test_empty_table(self, tmp_path, fmt):
        target = tmp_path / "t"
        _write_columns(str(target), ("a", "b"), [[], []], META, fmt)
        assert target.read_text() == render_rows(("a", "b"), [], META, fmt)

    def test_write_fields(self, tmp_path, fmt):
        rng = np.random.default_rng(3)
        n = 64
        x = mixed_column(rng, n)
        psi1, psi2 = np.empty((2, n), complex)
        for psi in (psi1, psi2):
            psi.real, psi.imag = mixed_column(rng, n), mixed_column(rng, n)
        target = tmp_path / "f"
        with np.errstate(over="ignore"):  # |1e300|^2
            write_fields(str(target), FieldPair(x, psi1, psi2, 0.25), META,
                         fmt)
            rows = zip(x, psi1.real, psi1.imag, psi2.real, psi2.imag,
                       np.abs(psi1) ** 2, np.abs(psi2) ** 2)
        assert target.read_text() == render_rows(FIELD_COLUMNS, rows, META,
                                                 fmt)

    def test_write_coefficients(self, tmp_path, fmt):
        fam = sech_family()
        sampler = CoefficientSampler(fam, closed_form_trace())
        x = SpatialGrid(20.0, 64).x
        x[:len(SPECIALS)] = SPECIALS  # the shared x column, specials included
        times = [0.0, 0.1, 0.7]
        calls = []

        def counted(name, method):
            def call(x, t):
                calls.append((name, t))
                return method(x, t)
            return call

        for name in ("potential", "couplings"):
            setattr(sampler, name, counted(name, getattr(sampler, name)))
        target = tmp_path / "c"
        with np.errstate(over="ignore", invalid="ignore"):
            write_coefficients(str(target), sampler, x, times, META, fmt)
            # one potential and one couplings sample per time
            assert calls == [(name, t) for t in times
                             for name in ("potential", "couplings")]
            rows = []
            for t in times:
                v = sampler.potential(x, t)
                g = sampler.couplings(x, t)
                for i in range(len(x)):
                    rows.append((x[i], t, v[0, i], v[1, i], g[0, 0, i],
                                 g[0, 1, i], g[1, 0, i], g[1, 1, i]))
        assert target.read_text() == render_rows(COEFFICIENT_COLUMNS, rows,
                                                 META, fmt)

    def test_coefficient_columns_apart_by_a_zero_sign(self, tmp_path, fmt):
        # v2 = v1 and g21 = g12 in value, but not in the sign of a zero;
        # g11 has v1's bytes and g22 g21's, so those two may share
        v = np.array([[0.0, 1.5], [-0.0, 1.5]])
        g = np.array([[[0.0, 1.5], [0.0, 3.0]], [[-0.0, 3.0], [-0.0, 3.0]]])
        sampler = SimpleNamespace(potential=lambda x, t: v,
                                  couplings=lambda x, t: g)
        x, times = np.array([-1.0, 1.0]), [0.0, 0.5]
        target = tmp_path / "c"
        write_coefficients(str(target), sampler, x, times, META, fmt)
        rows = [(x[i], t, *v[:, i], *g[:, :, i].ravel())
                for t in times for i in range(len(x))]
        text = target.read_text()
        assert text == render_rows(COEFFICIENT_COLUMNS, rows, META, fmt)
        assert text.count("-0.0") == 6  # v2, g21, g22 in both blocks

    def test_write_diagnostics(self, tmp_path, fmt):
        rng = np.random.default_rng(4)
        cols = [mixed_column(rng, 40) for _ in DIAGNOSTICS_COLUMNS]
        cols[1:3] = rng.uniform(0.5, 2.0, (2, 40))  # norms must be positive
        target = tmp_path / "d"
        write_diagnostics(str(target), DiagnosticsTrace(*cols), META, fmt)
        assert target.read_text() == render_rows(DIAGNOSTICS_COLUMNS,
                                                 zip(*cols), META, fmt)

    def test_write_modulation(self, tmp_path, fmt):
        samples = closed_form_trace().samples(1e-2 * np.arange(51))
        target = tmp_path / "m"
        write_modulation(str(target), samples, META, fmt)
        rows = zip(*samples)
        assert target.read_text() == render_rows(TRACE_COLUMNS, rows, META,
                                                 fmt)


def writers():
    """Each table writer, as write(path, fmt), on inputs of a few blocks."""
    rng = np.random.default_rng(5)
    n = 10
    x = mixed_column(rng, n)
    psi1, psi2 = np.empty((2, n), complex)
    for psi in (psi1, psi2):
        psi.real, psi.imag = mixed_column(rng, n), mixed_column(rng, n)
    cols = [mixed_column(rng, n) for _ in DIAGNOSTICS_COLUMNS]
    cols[1:3] = rng.uniform(0.5, 2.0, (2, n))  # norms must be positive
    sampler = CoefficientSampler(sech_family(), closed_form_trace())
    return {
        "table": lambda path, fmt: _write_columns(
            path, ("a", "b"), (x, x[::-1]), META, fmt),
        "fields": lambda path, fmt: write_fields(
            path, FieldPair(x, psi1, psi2, 0.25), META, fmt),
        "coefficients": lambda path, fmt: write_coefficients(
            path, sampler, np.linspace(-5.0, 5.0, 7), [0.0, 0.1, 0.7], META,
            fmt),
        "diagnostics": lambda path, fmt: write_diagnostics(
            path, DiagnosticsTrace(*cols), META, fmt),
        "modulation": lambda path, fmt: write_modulation(
            path, closed_form_trace().samples(1e-2 * np.arange(21)), META,
            fmt),
    }


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("writer", sorted(writers()))
def test_forked_blocks_write_the_same_bytes(tmp_path, monkeypatch, writer,
                                            fmt):
    # three-row blocks, so every table has a block boundary to get wrong
    write = writers()[writer]
    with np.errstate(over="ignore"):  # |1e300|^2
        write(str(tmp_path / "serial"), fmt)
        monkeypatch.setattr(export, "_BLOCK_ROWS", 3)
        forked = force_workers(monkeypatch, 2)
        write(str(tmp_path / "forked"), fmt)
    assert len(forked) == 1
    assert_reaped(forked)
    assert ((tmp_path / "forked").read_bytes()
            == (tmp_path / "serial").read_bytes())


class TestConfigResolution:
    def test_flags_over_config_file_over_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("gamma = 5.0\nt-end = 0.2\n# comment\n\nseed = 9\n")
        out = tmp_path / "o"
        code = main(["solution", "--family", "sech", "--config", str(conf),
                     "--gamma", "7.0", "--dt", "0.05", "--stride", "2",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gamma"] == 7.0  # flag wins
        assert manifest["t_end"] == 0.2  # config file wins over default
        assert manifest["seed"] == 9
        assert len(manifest["files"]) == 3  # snapshots at 0, 0.1, 0.2

    def test_lambda_alias_in_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("lambda = -0.5\nfamily = dark-bright\n")
        out = tmp_path / "o"
        code = main(["solution", "--config", str(conf), "--t-end", "0.1",
                     "--dt", "0.05", "--stride", "2", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["lam"] == -0.5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("gama = 5\n")
        assert main(["solution", "--config", str(conf)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_config_line_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("gamma 5\n")
        assert main(["solution", "--config", str(conf)]) == 1

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["solution", "--config", str(tmp_path / "nope")]) == 1

    def test_unknown_format_in_config_file_rejected(self, tmp_path, capsys):
        # the parser's choices do not see a config file
        conf = tmp_path / "run.conf"
        conf.write_text("format = xml\n")
        out = tmp_path / "o"
        assert main(["solution", "--config", str(conf), "--out", str(out)]) == 1
        assert "unknown format 'xml'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("solution", "family", "elliptc"),
        ("mathieu-trace", "drive", "foo"),
        ("propagate", "perturb_mode", "additve"),
        ("potential", "mu_sign", "flipd"),
    ])
    def test_unknown_choice_in_config_file_rejected(self, tmp_path, capsys,
                                                    command, key, value):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(conf), "--out", str(out)]) == 1
        assert f"unknown {key} '{value}'" in capsys.readouterr().err
        assert not out.exists()


def command_parsers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


def all_parsers():
    return [cli.build_parser(), *command_parsers().values()]


def flags_of(parser):
    return {flag for action in parser._actions
            for flag in action.option_strings} - {"-h", "--help"}


def flag_of(opt):
    return "--" + (opt.name or opt.key).replace("_", "-")


def recorded_config(out):
    """The settings a run recorded: its manifest, or its report's config."""
    for name, block in (("manifest.json", None), ("report.json", "config"),
                        ("stability.json", "config")):
        if (out / name).exists():
            data = json.loads((out / name).read_text())
            return data[block] if block else data
    raise AssertionError(f"no settings recorded in {out}")


# the options each command's handler reads, 75 (command, option) pairs;
# the dumps also take an unread seed, which perfbench's dump workloads pass
FAMILY_RUN = {"family", "n", "gamma", "lam", "alpha", "beta", "epsilon",
              "omega0", "drive", "L", "N", "t_end", "out"}
READS = {
    "solution": FAMILY_RUN | {"dt", "stride", "format", "seed"},
    "potential": FAMILY_RUN | {"dt", "stride", "format", "mu_sign", "seed"},
    "verify": FAMILY_RUN | {"seed", "corrupt_rho"},
    "propagate": FAMILY_RUN | {"dt", "stride", "format", "perturb",
                               "perturb_mode", "seed"},
    "mathieu-trace": {"drive", "epsilon", "omega0", "t_end", "dt", "stride",
                      "out", "format"},
}
# the family options each family reads; the parser offers them all
FAMILY_READS = {"elliptic": {"n", "drive", "epsilon", "omega0"},
                "sech": {"gamma", "drive", "epsilon", "omega0"},
                "dark-bright": {"lam", "alpha", "beta"}}
FAMILY_OPTIONS = set().union(*FAMILY_READS.values())
# the drive options only the quasiperiodic drive reads; f = 1 has neither
DRIVE_OPTIONS = {"epsilon", "omega0"}


class TestOptionTable:
    """Flags and config files are two spellings of the same OPTIONS rows."""

    # a valid value other than the default, for every row
    VALID = {"family": "sech", "n": "2", "gamma": "5.5", "lam": "-0.25",
             "alpha": "0.1", "beta": "0.15", "epsilon": "0.25",
             "omega0": "1.5", "drive": "quasiperiodic", "L": "12.5",
             "N": "256", "t_end": "0.03", "dt": "5e-4", "stride": "3",
             "perturb": "0.05", "perturb_mode": "additive", "seed": "7",
             "out": None, "mu_sign": "flipped", "format": "json-lines",
             "corrupt_rho": "1e-9"}
    # cheap stepping for the rows not under test; verify's constraint
    # lattice needs 64 rows, t_end > 62/768
    QUICK = {"t_end": "0.1", "dt": "1e-3"}
    # a command that reads the row, with the family that reads it; the
    # rows not named here are mathieu-trace's
    READER = {"family": ["solution"], "n": ["solution"],
              "gamma": ["solution", "--family", "sech"],
              "lam": ["solution", "--family", "dark-bright"],
              "alpha": ["solution", "--family", "dark-bright"],
              "beta": ["solution", "--family", "dark-bright"],
              "L": ["solution"], "N": ["solution"],
              "perturb": ["propagate"], "perturb_mode": ["propagate"],
              "seed": ["propagate"], "mu_sign": ["potential"],
              "corrupt_rho": ["verify", "--family", "sech"],
              "epsilon": ["mathieu-trace", "--drive", "quasiperiodic"],
              "omega0": ["mathieu-trace", "--drive", "quasiperiodic"]}

    def reader(self, key):
        return self.READER.get(key, ["mathieu-trace"])

    def test_parser_dests_are_the_table(self):
        assert set(self.VALID) == {opt.key for opt in cli.OPTIONS}
        parsers = command_parsers()
        assert sorted(parsers) == sorted(READS)
        for name, parser in parsers.items():
            dests = {a.dest for a in parser._actions} - {"help"}
            assert dests == READS[name] | {"config"}, name
            # and its --help lists those options alone
            listed = set(re.findall(r"--[A-Za-z][\w-]*", parser.format_help()))
            assert listed - {"--help"} == flags_of(parser), name
        # 77 of the 5 x 21 (command, option) pairs, the dumps' seed included
        assert sum(map(len, READS.values())) == 77

    @pytest.mark.parametrize("opt", cli.OPTIONS, ids=lambda opt: opt.key)
    def test_flag_and_config_file_resolve_alike(self, tmp_path, opt):
        out = tmp_path / "o"
        value = self.VALID[opt.key] or str(out)  # out: the run's own path
        command, *family = self.reader(opt.key)
        quick = [arg for key, text in self.QUICK.items()
                 if key != opt.key and key in READS[command]
                 for arg in (f"--{key.replace('_', '-')}", text)]
        tail = [] if opt.key == "out" else ["--out", str(out)]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{flag_of(opt)[2:]} = {value}\n")
        configs = []
        for given in ([flag_of(opt), value], ["--config", str(conf)]):
            assert main([command, *family, *quick, *given, *tail]) == 0
            configs.append(recorded_config(out))
            shutil.rmtree(out)
        default = cli.resolve(cli.build_parser().parse_args([command,
                                                             *family]))
        assert configs[0] == configs[1]
        assert configs[0][opt.key] != default[opt.key]

    @pytest.mark.parametrize(
        "opt", [opt for opt in cli.OPTIONS if opt.key != "out"],
        ids=lambda opt: opt.key)
    def test_flag_and_config_file_refuse_alike(self, tmp_path, capsys, opt):
        # any text is a valid out path, so out has no wrong value
        bad = "bogus" if opt.choices else {int: "1.5", float: "one"}[opt.type]
        out = tmp_path / "o"
        conf = tmp_path / "run.conf"
        conf.write_text(f"{opt.key} = {bad}\n")
        command, *family = self.reader(opt.key)
        errors = []
        for given in ([flag_of(opt), bad], ["--config", str(conf)]):
            assert main([command, *family, *given, "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
        assert not out.exists()
        by_flag = errors[0].removeprefix("error: ")
        assert opt.key in by_flag and repr(bad) in by_flag
        # the config file adds only its location
        assert errors[1] == f"error: config file {conf}:1: {by_flag}"

    @pytest.mark.parametrize("argv, named", [
        (["solution", "--family", "foo"], "unknown family 'foo'"),
        (["solution", "--n", "1.5"], "n must be of type int"),
        (["solution", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["solution", "--n"], "argument --n: expected one argument"),
        (["solutoin"], "invalid choice: 'solutoin'"),
    ])
    def test_bad_flag_exits_one(self, tmp_path, capsys, argv, named):
        # 2 is reserved for a check that ran and failed
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["propagate", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_runs_as_a_module(self):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "modcnls", "--help"],
                             env=env, capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert "mathieu-trace" in run.stdout

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("solution", "t_end", "inf"),
        ("mathieu-trace", "t_end", "inf"),
        ("solution", "stride", "0"),
        ("solution", "dt", "0"),
        ("solution", "t_end", "-1"),
        ("potential", "t_end", "-1"),
        ("verify", "t_end", "nan"),
        ("propagate", "seed", "-1"),
    ])
    def test_out_of_domain_refused(self, tmp_path, capsys, via, command, key,
                                   value):
        # each of these once crashed (overflow, division by zero, an empty
        # snapshot list), named no key, or left an empty output directory
        out = tmp_path / "o"
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        given = ([f"--{key.replace('_', '-')}", value] if via == "flag"
                 else ["--config", str(conf)])
        assert main([command, *given, "--out", str(out)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_names_exactly_the_parser_flags(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## Command line\n")[1]
        section = section.split("\n## ")[0]
        flag = r"(?<![\w-])--[A-Za-z][\w-]*"
        documented = set(re.findall(flag, section))
        assert documented == set().union(*map(flags_of, all_parsers()))
        # each subcommand's line lists its own flags
        lines = dict(re.findall(r"^- `([\w-]+)`: (.*)$", section, re.M))
        for name, parser in command_parsers().items():
            assert set(re.findall(flag, lines[name])) == flags_of(parser), name


def header_keys(path):
    """The settings a csv or json-lines table carries in its header."""
    if path.suffix == ".csv":
        return set(read_csv(str(path))[0])
    return set(json.loads(path.read_text().splitlines()[0])["meta"])


class TestReadOptions:
    """A command takes only the options its handler reads, a family only
    the family options it reads, and a run records what it read."""

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, opt",
        [(command, opt) for command in READS for opt in cli.OPTIONS
         if opt.key not in READS[command]],
        ids=lambda v: getattr(v, "key", v))
    def test_option_the_command_does_not_read_is_refused(
            self, tmp_path, capsys, via, command, opt):
        out = tmp_path / "o"
        value = TestOptionTable.VALID[opt.key]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{flag_of(opt)[2:]} = {value}\n")
        given = ([flag_of(opt), value] if via == "flag"
                 else ["--config", str(conf)])
        assert main([command, *given, "--out", str(out)]) == 1
        # argparse reports a subcommand's leftovers from the root parser,
        # which would name "modcnls" alone
        named = (f"error: modcnls {command}: unrecognized arguments: "
                 f"{flag_of(opt)} {value}\n" if via == "flag"
                 else f"unknown key {flag_of(opt)[2:]!r} for {command}")
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "family, key", [(family, key) for family in FAMILY_READS
                        for key in sorted(FAMILY_OPTIONS
                                          - FAMILY_READS[family])])
    def test_option_the_family_does_not_read_is_refused(
            self, tmp_path, capsys, via, family, key):
        opt = next(opt for opt in cli.OPTIONS if opt.key == key)
        value = TestOptionTable.VALID[key]
        out = tmp_path / "o"
        conf = tmp_path / "run.conf"
        conf.write_text(f"family = {family}\n{flag_of(opt)[2:]} = {value}\n")
        given = (["--family", family, flag_of(opt), value] if via == "flag"
                 else ["--config", str(conf)])
        assert main(["solution", *given, "--out", str(out)]) == 1
        assert (f"family {family} reads no {key}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(DRIVE_OPTIONS))
    @pytest.mark.parametrize("command, family", [
        ("solution", "elliptic"), ("verify", "sech"),
        ("mathieu-trace", None)])
    def test_option_the_periodic_drive_does_not_read_is_refused(
            self, tmp_path, capsys, via, key, command, family):
        # f = 1 has no depth and no frequency, so a run that was given one
        # would record a value it never read
        out = tmp_path / "o"
        conf = tmp_path / "run.conf"
        conf.write_text(f"drive = periodic\n{key} = 0.9\n")
        given = (["--drive", "periodic", f"--{key}", "0.9"] if via == "flag"
                 else ["--config", str(conf)])
        fam = ["--family", family] if family else []
        assert main([command, *fam, *given, "--out", str(out)]) == 1
        assert f"drive periodic reads no {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("drive", modcnls.DRIVES)
    @pytest.mark.parametrize("command", ["solution", "potential", "verify",
                                         "propagate"])
    def test_dark_bright_takes_no_drive(self, tmp_path, capsys, command,
                                        drive):
        # its width is the prescribed two-tone one, whatever the drive
        out = tmp_path / "o"
        assert main([command, "--family", "dark-bright", "--drive", drive,
                     "--out", str(out)]) == 1
        assert ("family dark-bright reads no drive"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_value_is_converted_before_the_family_gate(self, tmp_path,
                                                       capsys):
        out = tmp_path / "o"
        assert main(["solution", "--family", "dark-bright", "--epsilon",
                     "nan", "--out", str(out)]) == 1
        assert "epsilon must be finite, got 'nan'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solution", "--family", "elliptic", "--L", "10"],
        ["solution", "--family", "sech", "--drive", "quasiperiodic",
         "--L", "20", "--format", "json-lines"],
        ["solution", "--family", "dark-bright", "--L", "15"],
        ["potential", "--family", "dark-bright", "--L", "15"],
        ["potential", "--family", "elliptic", "--L", "10",
         "--format", "json-lines"],
        ["verify", "--family", "dark-bright", "--t-end", "1"],
        ["propagate", "--family", "sech", "--L", "20", "--t-end", "0.02",
         "--dt", "1e-3", "--stride", "10"],
        ["mathieu-trace", "--t-end", "0.1"],
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_a_run_records_exactly_what_it_read(self, tmp_path, argv):
        command, family = argv[0], dict(zip(argv, argv[1:])).get("--family")
        read = READS[command]
        if family:
            read = read - (FAMILY_OPTIONS - FAMILY_READS[family])
        if "--drive" not in argv:  # the periodic drive reads no epsilon
            read = read - DRIVE_OPTIONS
        if command in ("solution", "potential"):
            argv = [*argv, "--t-end", "0.5", "--stride", "250"]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 0
        expected = read | {"command", "version"}
        assert set(recorded_config(out)) - {"times", "files"} == expected
        tables = [p for p in out.iterdir() if p.suffix in (".csv", ".jsonl")]
        assert tables or command == "verify"  # its report is all it writes
        for path in tables:
            # less the header's own entries: a snapshot's time, the zoomed
            # window and which twin a diagnostics table is
            keys = header_keys(path) - {"t", "window", "perturbed"}
            assert keys == expected, path.name


class TestValidationGates:
    def test_grid_size_must_be_power_of_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["solution", "--N", "1000", "--out", str(out)]) == 1
        assert "power of two" in capsys.readouterr().err
        assert not out.exists()  # rejected before any write

    def test_zero_points_rejected(self, tmp_path):
        assert main(["solution", "--N", "0", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("n", [0, 4, 6, 12, 1000, 1023, 1024.0, True])
    def test_grid_itself_demands_power_of_two(self, n):
        # the rule lives in SpatialGrid, so library callers get it too
        with pytest.raises(ValidationError,
                           match="n_points must be an integer power of two"):
            SpatialGrid(10.0, n)

    def test_integer_rule_refuses_bool(self):
        # the one integer rule of n_points, record_stride and the elliptic
        # mode index: a bool is an int to isinstance, but none of these
        assert all(is_integer(v) for v in (0, 3, np.int64(3), np.uint8(3)))
        assert not any(is_integer(v)
                       for v in (True, False, np.bool_(True), 3.0, "3"))

    @pytest.mark.parametrize("drive", ["periodic", "quasiperiodic"])
    @pytest.mark.parametrize("key, value", [
        ("epsilon", "nan"), ("epsilon", "inf"), ("omega0", "-inf")])
    def test_non_finite_drive_parameter_refused(self, tmp_path, capsys, drive,
                                                key, value):
        # named as the option it is, on either drive, before any output
        out = tmp_path / "o"
        code = main(["solution", "--drive", drive, f"--{key}={value}",
                     "--t-end", "0.25", "--out", str(out)])
        assert code == 1
        assert (f"{key} must be finite, got '{value}'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_drive_names_are_the_packages(self, tmp_path, capsys):
        # --drive takes exactly modcnls.DRIVES, which the refusal lists
        assert cli.OPTIONS[[o.key for o in cli.OPTIONS].index("drive")
                           ].choices == modcnls.DRIVES
        assert main(["mathieu-trace", "--drive", "constant",
                     "--out", str(tmp_path / "o")]) == 1
        assert ("unknown drive 'constant'; choose from "
                + ", ".join(modcnls.DRIVES)) in capsys.readouterr().err

    def test_bad_family_parameter(self, tmp_path):
        # |alpha| + |beta| >= 1 leaves the width able to vanish
        assert main(["solution", "--family", "dark-bright", "--alpha", "0.8",
                     "--beta", "0.3", "--out", str(tmp_path / "o")]) == 1

    def test_unwritable_output_directory(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["solution", "--t-end", "0.1", "--dt", "0.05",
                     "--stride", "2", "--out", str(blocker)]) == 1


def dump_with_workers(monkeypatch, tmp_path, argv, workers):
    """The files argv writes, by name, with `workers` processes forced, and
    the number of workers forked.  --out is relative and the same for every
    run, so the files' headers match too."""
    run_dir = tmp_path / f"workers{workers}"
    run_dir.mkdir()
    with monkeypatch.context() as m:
        m.chdir(run_dir)
        forked = force_workers(m, workers)
        assert main([*argv, "--out", "out"]) == 0
    assert_reaped(forked)
    files = {p.name: p.read_bytes() for p in (run_dir / "out").iterdir()}
    return files, len(forked)


def assert_workers_write_the_same_bytes(monkeypatch, tmp_path, argv, forks):
    serial, none = dump_with_workers(monkeypatch, tmp_path, argv, 1)
    forked, some = dump_with_workers(monkeypatch, tmp_path, argv, 2)
    assert (none, some) == (0, forks)
    assert sorted(forked) == sorted(serial)
    for name in serial:
        assert forked[name] == serial[name], name


class TestSolutionCommand:
    def test_writes_snapshots_and_manifest(self, tmp_path):
        out = tmp_path / "sol"
        code = main(["solution", "--family", "elliptic", "--t-end", "0.2",
                     "--dt", "0.05", "--stride", "2", "--N", "256",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == [f"fields_{k:04d}.csv" for k in range(3)]
        meta, cols, rows = read_csv(str(out / "fields_0002.csv"))
        assert cols == list(FIELD_COLUMNS)
        assert rows.shape == (256, 7)
        assert meta["t"] == "0.2"
        assert meta["version"] == manifest["version"]
        # density column consistent with the complex pair
        abs2 = rows[:, 1] ** 2 + rows[:, 2] ** 2
        np.testing.assert_allclose(rows[:, 5], abs2, rtol=1e-12)

    def test_reruns_are_byte_identical(self, tmp_path):
        # headers embed the resolved config (which includes the out path);
        # the reproducibility contract is on the numeric columns
        args = ["solution", "--family", "sech", "--t-end", "0.1",
                "--dt", "0.05", "--stride", "2", "--N", "256"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in sorted(os.listdir(a)):
            if not name.endswith(".csv"):
                continue
            assert data_lines(a / name) == data_lines(b / name)

    def test_json_lines_output(self, tmp_path):
        out = tmp_path / "sol"
        code = main(["solution", "--t-end", "0.1", "--dt", "0.05",
                     "--stride", "2", "--N", "256", "--format", "json-lines",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "fields_0000.jsonl").read_text().splitlines()
        assert len(lines) == 257
        row = json.loads(lines[1])
        assert set(row) == set(FIELD_COLUMNS)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_workers_write_the_same_bytes(self, tmp_path, monkeypatch, fmt):
        # one worker writes the snapshots 0.1 to 0.2; one snapshot file is
        # one block, so no file forks workers of its own
        argv = ["solution", "--family", "sech", "--drive", "quasiperiodic",
                "--t-end", "0.2", "--dt", "0.05", "--stride", "1",
                "--N", "256", "--format", fmt]
        assert_workers_write_the_same_bytes(monkeypatch, tmp_path, argv, 1)


class TestPotentialCommand:
    def test_elliptic_harmonic_lattice(self, tmp_path):
        out = tmp_path / "pot"
        code = main(["potential", "--family", "elliptic", "--t-end", "0.1",
                     "--dt", "0.05", "--stride", "1", "--N", "256",
                     "--out", str(out)])
        assert code == 0
        _, cols, rows = read_csv(str(out / "coefficients.csv"))
        assert cols == list(COEFFICIENT_COLUMNS)
        assert rows.shape == (3 * 256, 8)
        # periodic drive: v = x^2 exactly, both components
        np.testing.assert_allclose(rows[:, 2], rows[:, 0] ** 2, atol=1e-12)
        np.testing.assert_allclose(rows[:, 3], rows[:, 0] ** 2, atol=1e-12)

    def test_dark_bright_emits_zoom_window(self, tmp_path):
        out = tmp_path / "pot"
        code = main(["potential", "--family", "dark-bright", "--t-end", "0.1",
                     "--dt", "0.05", "--stride", "2", "--N", "256",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(str(out / "coefficients_zoom.csv"))
        assert rows[:, 0].min() == -2.0 and rows[:, 0].max() == 2.0

    def test_mu_sign_flip_changes_potential_only(self, tmp_path):
        base, flip = tmp_path / "b", tmp_path / "f"
        args = ["potential", "--family", "sech", "--t-end", "0.05",
                "--dt", "0.05", "--stride", "1", "--N", "256"]
        assert main(args + ["--out", str(base)]) == 0
        assert main(args + ["--mu-sign", "flipped", "--out", str(flip)]) == 0
        _, _, rows_b = read_csv(str(base / "coefficients.csv"))
        _, _, rows_f = read_csv(str(flip / "coefficients.csv"))
        assert not np.allclose(rows_b[:, 2], rows_f[:, 2])
        np.testing.assert_allclose(rows_b[:, 4:], rows_f[:, 4:], rtol=1e-15)

    @pytest.mark.parametrize("family, fmt, forks", [
        ("sech", "csv", 1), ("sech", "json-lines", 1),
        ("dark-bright", "csv", 2)])  # and the zoom file
    def test_workers_write_the_same_bytes(self, tmp_path, monkeypatch,
                                          family, fmt, forks):
        # the dark-bright width is its own two-tone one: it takes no drive
        drive = [] if family == "dark-bright" else ["--drive", "quasiperiodic"]
        argv = ["potential", "--family", family, *drive,
                "--t-end", "0.2", "--dt", "0.05", "--stride", "1",
                "--N", "256", "--format", fmt]
        assert_workers_write_the_same_bytes(monkeypatch, tmp_path, argv,
                                            forks)

    @pytest.mark.parametrize("workers, failure", [
        (1, "raises"), (2, "raises"), (2, "dies")])
    def test_failed_late_block_leaves_no_file(self, tmp_path, monkeypatch,
                                              capfd, workers, failure):
        # times 0, 0.1, 0.2: with two processes, the block at 0.2 is the
        # worker's, and so is the failure
        forked = force_workers(monkeypatch, workers)
        caller = os.getpid()
        couplings = CoefficientSampler.couplings

        def failing(self, x, t):
            if t > 0.15:
                if failure == "raises":
                    raise ValueError(f"no couplings at t={t}")
                assert os.getpid() != caller
                os._exit(3)
            return couplings(self, x, t)

        monkeypatch.setattr(CoefficientSampler, "couplings", failing)
        out = tmp_path / "pot"
        code = main(["potential", "--family", "sech", "--t-end", "0.2",
                     "--dt", "0.05", "--stride", "2", "--N", "256",
                     "--out", str(out)])
        err = capfd.readouterr().err  # the worker's output included
        assert code == 1
        assert len(forked) == workers - 1
        if failure == "raises":
            assert err == "error: no couplings at t=0.2\n"
        else:
            assert str(out / "coefficients.csv") in err
            assert "Traceback" not in err
        assert [name for name in os.listdir(out)
                if name.startswith("coefficients") or ".tmp-" in name] == []
        assert_reaped(forked)


class TestVerifyCommand:
    def test_sech_suite_passes(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--family", "sech", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        # where each constraint peaked, inside the window it was maximized over
        constraints = report["constraints"]
        interior = constraints["lattice"]["interior"]
        assert set(constraints["at"]) == {"continuity", "advection", "flux"}
        for t, x in constraints["at"].values():
            assert interior["t"][0] <= t <= interior["t"][1]
            assert interior["x"][0] <= x <= interior["x"][1]
        # the wall seconds of each phase, and nothing else
        timing = report["timing"]
        assert set(timing) == {"trace_s", "constraints_s",
                               "potential_identity_s", "pde_residual_s"}
        assert all(value > 0 for value in timing.values()), timing
        assert constraints["lattice"]["x"][2] == 640

    @pytest.mark.parametrize("argv, family, drive", [
        (["--drive", "quasiperiodic"], elliptic_family(1), "quasiperiodic"),
        (["--family", "dark-bright"], dark_bright_family(0.5), "periodic")])
    def test_report_is_the_library_verify(self, tmp_path, argv, family,
                                          drive):
        # the written report is verify's under the run's config, its
        # timing joined by the trace build's; a node of the Mathieu path
        # is the same bits whatever horizon it is built to
        out = tmp_path / "v"
        assert main(["verify", *argv, "--out", str(out)]) == 0
        written = json.loads((out / "report.json").read_text())
        report = cli.verify(family, default_trace(family, drive, 5.2),
                            default_grid(family, "residual", drive=drive),
                            5.0, 42)
        timing = report.pop("timing")
        assert set(written.pop("timing")) == {"trace_s", *timing}
        assert written == {"config": written["config"],
                           **json.loads(json.dumps(report))}

    @pytest.mark.parametrize("t_end", [0.5, 1.0])
    def test_short_horizon_passes(self, tmp_path, t_end):
        # the horizon asked is the one checked; at t = 1, chi = 0.95, and
        # the trap identity's lattice narrows with chi instead of staying
        # on [-10, 10]
        out = tmp_path / "v"
        code = main(["verify", "--family", "elliptic", "--drive", "periodic",
                     "--t-end", str(t_end), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert code == 0, report["failures"]
        identity = report["potential_identity"]
        assert identity["times"] == np.linspace(0.0, t_end, 5).tolist()
        assert identity["t"] in identity["times"]
        assert identity["gap"] <= 1e-4 and identity["half_width"] < 10.0
        assert max(report["pde_residual"]["times"]) <= t_end
        # the lattice is _constraint_lattice's at this horizon, its
        # residuals maximized over |x| <= 0.975 and every row
        _, t = cli._constraint_lattice(elliptic_family(1), t_end)
        lattice = report["constraints"]["lattice"]
        assert lattice["t"] == [0.0, t_end, len(t)]
        assert lattice["interior"]["x"] == pytest.approx([-0.975, 0.975],
                                                         abs=1e-4)
        assert lattice["interior"]["t"] == [0.0, t_end]

    @pytest.mark.parametrize("drive", modcnls.DRIVES)
    def test_horizon_below_the_first_pde_residual_time_is_refused(
            self, tmp_path, capsys, drive):
        # pde_residual's times are drawn from [0.05, t_end], so a horizon
        # below 0.05 would check times past it; it is refused, naming t_end
        # and the bound, before the output directory is made, and a horizon
        # just above passes, its lattice three rows
        out = tmp_path / "v"
        assert main(["verify", "--family", "sech", "--drive", drive,
                     "--t-end", "0.0499", "--out", str(out)]) == 1
        assert ("verify: t_end = 0.0499 is below 0.05, the earliest time of "
                "its pde_residual checks; use t_end >= 0.05"
                in capsys.readouterr().err)
        assert not out.exists()
        assert main(["verify", "--family", "sech", "--drive", drive,
                     "--t-end", "0.0501", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["constraints"]["lattice"]["t"] == [0.0, 0.0501, 6]
        assert min(report["pde_residual"]["times"]) >= 0.05

    def test_dark_bright_grid_below_its_stencil_is_refused(
            self, tmp_path, capsys, monkeypatch):
        # the dark-bright psi_xx is a nine-point stencil, so N = 8 is
        # refused, naming N and the floor, before any suite runs or the
        # output directory is made
        monkeypatch.setattr(cli, "verify_constraints",
                            lambda *a, **k: pytest.fail("walk ran"))
        out = tmp_path / "v"
        assert main(["verify", "--family", "dark-bright", "--N", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: dark-bright N = 8 is below the 9-point "
                       "floor of its x stencil\n")
        assert not out.exists()
        with pytest.raises(LatticeTooCoarseError):
            cli.verify(dark_bright_family(0.5), explicit_trace(0.3, 0.2),
                       SpatialGrid(15.0, 8), 1.0, 42)

    def test_whole_horizon_is_checked(self, tmp_path, monkeypatch):
        walked = []

        def spy(family, trace, x, t, **kwargs):
            walked.append(np.array(t))
            return transform.verify_constraints(family, trace, x, t, **kwargs)

        monkeypatch.setattr("modcnls.cli.verify_constraints", spy)
        out = tmp_path / "v"
        code = main(["verify", "--family", "sech", "--drive", "periodic",
                     "--t-end", "3", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert code == 0, report["failures"]
        (t,) = walked
        assert t[0] == 0.0 and t[-1] == 3.0
        assert len(t) - 1 == cli._ROWS_PER_UNIT_TIME * 3
        # the residuals are maximized over every row and the lattice less
        # the columns two x stencils consume at each edge
        x = np.linspace(-5.0, 5.0, 640)
        c = 2 * transform.STENCIL_DEPTH
        assert report["constraints"]["lattice"] == {
            "x": [-5.0, 5.0, 640], "t": [0.0, 3.0, len(t)],
            "interior": {"x": [x[c], x[-c - 1]], "t": [0.0, 3.0]}}
        # the trap identity reaches the horizon too
        assert report["potential_identity"]["times"][-1] == 3.0

    def test_full_equation_times_span_the_horizon(self, tmp_path,
                                                  monkeypatch):
        from modcnls.transform import ConstraintResiduals

        times = []
        monkeypatch.setattr("modcnls.cli.verify_constraints",
                            lambda *a, **k: ConstraintResiduals(0.0, 0.0, 0.0))
        monkeypatch.setattr(
            "modcnls.cli.pde_residual",
            lambda family, grid, t, trace: times.append(t) or (0.0, 0.0))
        code = main(["verify", "--family", "sech", "--t-end", "8",
                     "--out", str(tmp_path / "v")])
        assert code == 0 and len(times) == 5
        # a time past 5 shows the draw is not capped below the horizon
        assert 0.05 <= min(times) and 5.0 < max(times) <= 8.0

    def test_report_names_the_worst_residual_times(self, tmp_path,
                                                   monkeypatch):
        # component 1 spikes at the third time, component 2 at the last;
        # no gate moves, so small spikes still pass
        from modcnls.transform import ConstraintResiduals

        times = []

        def residual(family, grid, t, trace):
            times.append(t)
            return (5e-5 if len(times) == 3 else 1e-9,
                    2e-5 if len(times) == 5 else 1e-9)

        monkeypatch.setattr("modcnls.cli.verify_constraints",
                            lambda *a, **k: ConstraintResiduals(0.0, 0.0, 0.0))
        monkeypatch.setattr("modcnls.cli.pde_residual", residual)
        out = tmp_path / "v"
        code = main(["verify", "--family", "sech", "--out", str(out)])
        block = json.loads((out / "report.json").read_text())["pde_residual"]
        assert code == 0 and block["times"] == times
        assert (block["worst1"], block["t1"]) == (5e-5, times[2])
        assert (block["worst2"], block["t2"]) == (2e-5, times[4])

    @pytest.mark.parametrize("t_end", ["0.5", "5"])
    def test_trap_off_by_a_harmonic_term_fails(self, tmp_path, monkeypatch,
                                               t_end):
        original = CoefficientSampler.potential

        def off(self, x, t):
            return original(self, x, t) + 1e-3 * np.asarray(x) ** 2

        monkeypatch.setattr(CoefficientSampler, "potential", off)
        out = tmp_path / "v"
        code = main(["verify", "--family", "elliptic", "--drive", "periodic",
                     "--t-end", t_end, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert code == 2
        assert "potential_identity" in report["failures"]

    def test_corrupted_envelope_fails_naming_flux(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["verify", "--family", "elliptic", "--corrupt-rho",
                     "0.01", "--out", str(out)])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert "flux" in report["failures"]
        assert report["pass"] is False
        assert "flux" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_corruption_refused(self, tmp_path, capsys, value):
        out = tmp_path / "v"
        code = main(["verify", "--family", "sech", f"--corrupt-rho={value}",
                     "--out", str(out)])
        assert code == 1
        assert "corrupt_rho" in capsys.readouterr().err
        # refused before any width trace or output directory is made
        assert not out.exists()

    def test_non_finite_results_fail_every_gate(self, monkeypatch, tmp_path):
        # NaN compares false with any threshold; each gate must still fail,
        # including the pde_residual worst over several times
        from modcnls.transform import ConstraintResiduals

        nan = float("nan")
        monkeypatch.setattr(
            "modcnls.cli.verify_constraints",
            lambda *a, **k: ConstraintResiduals(nan, 0.0, nan))
        monkeypatch.setattr("modcnls.cli.potential_identity_check",
                            lambda *a, **k: nan)
        calls = []

        def residual(*args, **kwargs):
            calls.append(args)
            return (nan, 0.0) if len(calls) == 2 else (1e-9, 1e-9)

        monkeypatch.setattr("modcnls.cli.pde_residual", residual)
        out = tmp_path / "v"
        code = main(["verify", "--family", "sech", "--out", str(out)])
        assert code == 2 and len(calls) == 5
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == ["continuity", "flux",
                                      "potential_identity", "pde_residual"]
        assert report["pass"] is False
        assert report["pde_residual"]["worst1"] != report["pde_residual"]["worst1"]
        # the NaN's time is the one reported
        assert report["pde_residual"]["t1"] == report["pde_residual"]["times"][1]


class TestConstraintLatticeRule:
    """The one lattice rule of verify's constraint walk must clear the 1e-5
    gate on every family and drive, and still catch a 1e-3 defect.  This
    table is the one place the rule's 80 rows per unit of time are pinned.
    Each case's ceiling, by horizon, is the worst residual the walk read at
    them, with 5% headroom, rounded up in the third digit: the rounding
    floor of the x stencils, as the complex-step time derivatives are
    exact to rounding."""

    @pytest.mark.parametrize("t_end", [1.0, 5.0])
    @pytest.mark.parametrize("family, drive, ceiling", [
        (elliptic_family(1), ("periodic",), {1.0: 3.39e-9, 5.0: 7.18e-9}),
        (elliptic_family(1), ("quasiperiodic",), {1.0: 2.0e-8, 5.0: 2.0e-8}),
        # chi dips to 0.374 and 0.363 by t = 0.6, with no more rows
        (elliptic_family(1), ("quasiperiodic", 0.8, 0.5),
         {1.0: 6.77e-8, 5.0: 6.77e-8}),
        (elliptic_family(1), ("quasiperiodic", 0.9, 0.3),
         {1.0: 9.31e-8, 5.0: 1.35e-7}),
        (sech_family(3.0), ("periodic",), {1.0: 1.15e-10, 5.0: 1.21e-10}),
        (sech_family(3.0), ("quasiperiodic",),
         {1.0: 9.21e-10, 5.0: 9.21e-10}),
        (sech_family(6.0), ("periodic",), {1.0: 9.26e-11, 5.0: 9.98e-11}),
        (sech_family(6.0), ("quasiperiodic",),
         {1.0: 1.22e-10, 5.0: 1.22e-10}),
        (dark_bright_family(0.5), ("periodic",),
         {1.0: 1.47e-11, 5.0: 2.9e-11}),
        (dark_bright_family(-0.5), ("periodic",),
         {1.0: 1.35e-11, 5.0: 5.08e-11}),
    ], ids=["elliptic-periodic", "elliptic-quasiperiodic",
            "elliptic-quasiperiodic-0.8-0.5", "elliptic-quasiperiodic-0.9-0.3",
            "sech3-periodic", "sech3-quasiperiodic",
            "sech6-periodic", "sech6-quasiperiodic",
            "dark_bright+0.5", "dark_bright-0.5"])
    def test_rule_clears_the_gate_and_keeps_its_teeth(self, family, drive,
                                                      ceiling, t_end):
        name, *depth_frequency = drive
        trace = default_trace(family, name, t_end, *depth_frequency)
        x, t = cli._constraint_lattice(family, t_end)
        assert len(t) == math.ceil(80 * t_end) + 1
        clean = transform.verify_constraints(family, trace, x, t)
        assert worst_of(clean) <= ceiling[t_end] < 1e-5, str(clean)
        corrupt = transform.verify_constraints(family, trace, x, t,
                                               corrupt_rho=1e-3)
        assert worst_of(corrupt) > 1e-5, str(corrupt)

    @pytest.mark.parametrize("family, drive, skewed", [
        (elliptic_family(1), "periodic", 5.3e-5),
        (elliptic_family(1), "quasiperiodic", 7.1e-4),
        (sech_family(6.0), "periodic", 5.4e-6),
        (sech_family(6.0), "quasiperiodic", 1.4e-5),
    ], ids=["elliptic-periodic", "elliptic-quasiperiodic", "sech-periodic",
            "sech-quasiperiodic"])
    def test_walk_keeps_its_teeth_on_chi_prime(self, family, drive, skewed):
        # chi' alone scaled by 1 + 1e-7 in the width the walk reads: rho_t
        # and zeta_t come from chi at t + ih, so the defect stays in eta_x.
        # Each continuity residual rises at least 100-fold, and the worst
        # residual (continuity for elliptic, advection for sech) reads
        # within 10% of the twelfth-order walk's on the 1,921-row lattice
        # it replaced; a time derivative taken through the trace's chi'
        # would cancel the defect
        good = default_trace(family, drive, 5.0)

        def width(t):
            chi, dchi, d2chi, a = good.width(t)
            return chi, dchi * (1.0 + 1e-7), d2chi, a

        x, t = cli._constraint_lattice(family, 5.0)
        clean = transform.verify_constraints(family, good, x, t)
        bad = transform.verify_constraints(
            family, dataclasses.replace(good, width=width), x, t)
        assert bad.continuity >= 100 * clean.continuity, (bad, clean)
        assert worst_of(bad) == pytest.approx(skewed, rel=0.1), str(bad)


class TestPropagateCommand:
    def test_short_run_with_perturbation(self, tmp_path):
        out = tmp_path / "p"
        code = main(["propagate", "--family", "elliptic", "--t-end", "0.3",
                     "--dt", "1e-3", "--perturb", "0.03", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "stability.json").read_text())
        assert summary["verdict"] is True
        assert summary["unperturbed"]["max_profile_error"] <= 1e-3
        assert 0.01 <= summary["perturbed"]["max_profile_error"] <= 0.1
        _, cols, rows = read_csv(str(out / "diagnostics_perturbed.csv"))
        assert cols == ["t", "norm1", "norm2", "profile_error1",
                        "profile_error2", "peak_pos1"]
        assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(0.3)

    def test_zero_perturbation_skips_second_run(self, tmp_path):
        out = tmp_path / "p"
        code = main(["propagate", "--family", "elliptic", "--t-end", "0.1",
                     "--dt", "1e-3", "--perturb", "0", "--out", str(out)])
        assert code == 0
        assert (out / "diagnostics_unperturbed.csv").exists()
        assert not (out / "diagnostics_perturbed.csv").exists()

    @pytest.mark.parametrize("t_end", ["0.3", "0.7", "1.1", "2.9"])
    def test_quasiperiodic_trace_ends_at_the_horizon(self, tmp_path, t_end):
        # the integrated width is built to --t-end itself, and no step or
        # record asks it for a later time
        out = tmp_path / "p"
        code = main(["propagate", "--family", "elliptic", "--drive",
                     "quasiperiodic", "--t-end", t_end, "--perturb", "0",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(str(out / "diagnostics_unperturbed.csv"))
        assert rows[-1, 0] == pytest.approx(float(t_end))
        assert rows[:, 3].max() <= 1e-3

    def test_dark_family_refused(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(["propagate", "--family", "dark-bright", "--t-end", "0.1",
                     "--out", str(out)])
        assert code == 1
        assert "dark-bright first component tends to a nonzero background" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_reruns_byte_identical(self, tmp_path):
        args = ["propagate", "--family", "sech", "--t-end", "0.1",
                "--dt", "1e-3", "--perturb", "0.03", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("diagnostics_unperturbed.csv",
                     "diagnostics_perturbed.csv"):
            assert data_lines(a / name) == data_lines(b / name)

    @pytest.mark.parametrize("amplitude", ["0.2", "-0.01", "nan"])
    def test_perturbation_outside_small_range_refused(self, tmp_path, capsys,
                                                      amplitude):
        # beyond 20 percent the small-perturbation premise is void
        out = tmp_path / "p"
        code = main(["propagate", "--family", "elliptic", "--t-end", "0.1",
                     "--dt", "1e-3", "--perturb", amplitude, "--out", str(out)])
        assert code == 1
        assert (f"perturb must be in [0, 0.2), got '{amplitude}'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["0.4", "0.3"])
    def test_partial_last_step_refused(self, tmp_path, capsys, dt):
        out = tmp_path / "p"
        code = main(["propagate", "--family", "elliptic", "--t-end", "1.0",
                     "--dt", dt, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "whole number of steps" in err and f"dt {dt}" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["multiplicative", "additive"])
    def test_workers_write_the_same_bytes(self, tmp_path, monkeypatch, mode):
        # the perturbed twin is stepped by one worker; each diagnostics
        # table is one block, so no writer forks
        argv = ["propagate", "--family", "sech", "--t-end", "0.1",
                "--dt", "1e-3", "--perturb", "0.03", "--perturb-mode", mode]
        assert_workers_write_the_same_bytes(monkeypatch, tmp_path, argv, 1)

    def test_divergence_maps_to_exit_three(self, monkeypatch, tmp_path):
        def blow_up(*args, **kwargs):
            raise DivergenceError(2.5)

        monkeypatch.setattr("modcnls.cli.propagate", blow_up)
        code = main(["propagate", "--family", "elliptic", "--t-end", "0.1",
                     "--dt", "1e-3", "--out", str(tmp_path / "p")])
        assert code == 3


class TestMathieuTraceCommand:
    def test_quasiperiodic_dump(self, tmp_path):
        out = tmp_path / "m"
        code = main(["mathieu-trace", "--drive", "quasiperiodic",
                     "--t-end", "1", "--out", str(out)])
        assert code == 0
        _, cols, rows = read_csv(str(out / "trace.csv"))
        assert cols == ["t", "chi", "dchi_dt", "a"]
        assert rows[0, 1] == pytest.approx(2.0)  # chi(0)
        assert rows[0, 3] == 0.0  # a(0)
        assert (rows[:, 1] > 0).all()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_workers_write_the_same_bytes(self, tmp_path, monkeypatch, fmt):
        # 10,001 rows: three row blocks, one of them the caller's
        argv = ["mathieu-trace", "--drive", "quasiperiodic", "--t-end", "1",
                "--format", fmt]
        assert_workers_write_the_same_bytes(monkeypatch, tmp_path, argv, 1)

    def test_stride_keeps_every_stride_th_row(self, tmp_path):
        argv = ["mathieu-trace", "--drive", "quasiperiodic", "--t-end", "0.5",
                "--dt", "1e-3"]
        assert main(argv + ["--out", str(tmp_path / "all")]) == 0
        assert main(argv + ["--stride", "10",
                            "--out", str(tmp_path / "thin")]) == 0
        header, *rows = data_lines(tmp_path / "all" / "trace.csv")
        thin_header, *thin = data_lines(tmp_path / "thin" / "trace.csv")
        assert len(rows) == 501 and len(thin) == 51
        assert thin_header == header
        assert thin == rows[::10]

    def test_horizon_below_one_step(self, tmp_path):
        # two nodes, 0 and dt, cover the horizon; a(dt) = int_0^dt chi^-2
        out = tmp_path / "m"
        code = main(["mathieu-trace", "--drive", "periodic", "--t-end", "1e-5",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(str(out / "trace.csv"))
        assert rows[:, 0].tolist() == [0.0, 1e-4]
        assert rows[1, 3] == pytest.approx(_closed_form(1e-4)[3], rel=1e-13)

    def test_constant_drive_matches_closed_form(self, tmp_path):
        out = tmp_path / "m"
        code = main(["mathieu-trace", "--drive", "periodic", "--t-end", "1",
                     "--dt", "1e-3", "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(str(out / "trace.csv"))
        t = rows[:, 0]
        chi_exact = np.sqrt(1 + 15 * np.cos(2 * t) ** 2) / 2
        np.testing.assert_allclose(rows[:, 1], chi_exact, atol=1e-7)

    def test_unresolved_step_refused_before_output(self, tmp_path, capsys):
        out = tmp_path / "m"
        code = main(["mathieu-trace", "--dt", "0.4", "--out", str(out)])
        assert code == 1
        assert "does not resolve" in capsys.readouterr().err
        assert not out.exists()

    def test_resonant_drive_refused_before_output(self, tmp_path, capsys):
        out = tmp_path / "m"
        code = main(["mathieu-trace", "--drive", "quasiperiodic",
                     "--omega0", "4", "--t-end", "1000", "--dt", "0.05",
                     "--out", str(out)])
        assert code == 1
        assert "parametrically resonant" in capsys.readouterr().err
        assert not out.exists()
