"""CLI surface: config round trips, CSV formatting, exit codes."""

import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bell_record import ORACLE_GAIN, oracle_eve_info

import cvqkd_attacks.cli
import cvqkd_attacks.gaussian
import cvqkd_attacks.keyrate
import cvqkd_attacks.verify
from cvqkd_attacks.attacks import (
    AttackResult,
    _feasible_eta_window,
    _match_noise,
    optimize_attack,
    optimize_attacks,
)
from cvqkd_attacks.cli import (
    _FIELDS,
    CSV_HEADER,
    ConfigError,
    RunConfig,
    format_sweep_csv,
    main,
    parse_config,
    resolve_g_policy,
    scenario_from,
    serialize_config,
    validate_config,
)
from cvqkd_attacks.keyrate import SweepRow, SweepTable, default_gamma_grid
from cvqkd_attacks.verify import Check

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(),
        RunConfig(tau=0.5, epsilon=None, v=0.75, precision=12, output="out/table.csv"),
        RunConfig(g_policy="finite:250.0", gamma_lo=0.5, gamma_hi=0.95, gamma_count=7),
        RunConfig(zeta=0.0, beta=1.0, reconciliation="direct"),
    ],
)
def test_config_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    tau=st.floats(0.0, 1.0),
    noise=st.one_of(
        st.tuples(st.floats(1.0, 10.0), st.none()), st.tuples(st.none(), st.floats(0.0, 10.0))
    ),
    zeta=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 1.0),
    reconciliation=st.sampled_from(["reverse", "direct", "fast"]),
    g_policy=st.one_of(
        st.just("asymptotic"),
        st.floats(1.0, 1e300).map(lambda g: f"finite:{g!r}"),
        st.text(max_size=4).map(lambda tail: "finite:1e3" + tail),
    ),
    gamma_lo=st.one_of(st.none(), st.floats(0.0, 1.0)),
    gamma_hi=st.floats(0.0, 1.0),
    gamma_count=st.integers(1, 10**6),
    output=st.text(max_size=12),
    precision=st.integers(0, 18),
)
def test_every_accepted_config_round_trips(
    tau, noise, zeta, beta, reconciliation, g_policy, gamma_lo, gamma_hi, gamma_count,
    output, precision,
):
    epsilon, v = noise
    cfg = RunConfig(
        tau, epsilon, v, zeta, beta, reconciliation, g_policy, gamma_lo, gamma_hi, gamma_count,
        output, precision,
    )
    try:
        validate_config(cfg)
    except ConfigError:
        # what validation refuses is not written either
        with pytest.raises(ConfigError):
            serialize_config(cfg)
        return
    assert parse_config(serialize_config(cfg)) == cfg


# output paths that a config line cannot hold as given
_UNWRITABLE_PATHS = {
    "hash": "run#1.csv",
    "leading-blank": " run.csv",
    "trailing-blank": "run.csv ",
    "line-break": "run\n1.csv",
    "form-feed": "run\x0c1.csv",
}


@pytest.mark.parametrize("path", _UNWRITABLE_PATHS.values(), ids=list(_UNWRITABLE_PATHS))
def test_output_that_a_config_line_cannot_hold_is_refused(capsys, tmp_path, monkeypatch, path):
    # a config line reads such a path back cut at '#', stripped, or split
    # into lines
    try:
        assert parse_config(f"output = {path}\n").output != path
    except ConfigError:
        pass
    message = (
        f"field 'output': a config line cannot hold {path!r}: "
        "no '#', line break or blank at either end"
    )
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--output", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        serialize_config(RunConfig(output=path))


def test_shipped_default_config_is_the_default():
    text = (REPO / "default.cfg").read_text(encoding="utf-8")
    assert parse_config(text, source="default.cfg") == RunConfig()


@pytest.mark.parametrize(
    "line,needle",
    [
        ("frobnicate = 1", "unknown key"),
        ("tau", "expected 'key = value'"),
        ("tau = ", "empty value"),
        ("tau = abc", "expected a number"),
        ("tau = 0.5\ntau = 0.6", "duplicate key"),
        ("epsilon = 1.1\nv = 0.9", "mutually exclusive"),
        ("gamma_count = 2.5", "expected an integer"),
    ],
)
def test_parse_config_errors(line, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(line)


def test_parse_config_comments_and_auto():
    cfg = parse_config("# full-line comment\ntau = 0.5  # trailing\ngamma_min = auto\n")
    assert cfg.tau == 0.5
    assert cfg.gamma_lo is None


@pytest.mark.parametrize(
    "cfg,needle",
    [
        (RunConfig(tau=1.5), "'tau'"),
        (RunConfig(tau=-0.1), "'tau'"),
        (RunConfig(epsilon=0.9), "'epsilon'"),
        (RunConfig(epsilon=None, v=None), "exactly one"),
        (RunConfig(epsilon=None, v=0.2, tau=0.25), "physical floor"),
        (RunConfig(zeta=1.0), "'zeta'"),
        (RunConfig(beta=1.01), "'beta'"),
        (RunConfig(reconciliation="fast"), "'reconciliation'"),
        (RunConfig(g_policy="finite:0.5"), "finite gain"),
        (RunConfig(g_policy="someday"), "'g_policy'"),
        (RunConfig(gamma_lo=0.99, gamma_hi=0.5), "below gamma_max"),
        (RunConfig(gamma_hi=1.0), "'gamma_max'"),
        (RunConfig(gamma_count=1), "'gamma_count'"),
        (RunConfig(precision=0), "'precision'"),
        (RunConfig(output=""), "'output'"),
        (RunConfig(epsilon=math.nan), "'epsilon'"),
        (RunConfig(epsilon=None, v=math.nan), "'v'"),
    ],
)
def test_validate_config_errors(cfg, needle):
    with pytest.raises(ConfigError, match=needle):
        validate_config(cfg)


def test_resolve_g_policy():
    assert resolve_g_policy("asymptotic") == math.inf
    assert resolve_g_policy("finite:300") == 300.0
    with pytest.raises(ConfigError):
        resolve_g_policy("finite:inf")


def _table_with(row: SweepRow) -> SweepTable:
    return SweepTable(scenario_from(RunConfig()), 0.95, (row,))


def test_format_sweep_csv_renders_nan_rows():
    nan = math.nan
    row = SweepRow(0.3, 0.7, nan, nan, nan, 0.2265, nan, nan, False)
    text = format_sweep_csv(_table_with(row), 4)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.3000,0.7000,nan,nan,nan,0.2265,nan,nan,false"
    assert text.endswith("\n")


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "gamma,ent_ebits,eta_star,kappa_star,eve_info_bits,"
        "holevo_bits,key_rate_bits,residual,feasible"
    )


def test_result_fields_that_the_benchmark_reads_by_name():
    # bench/child.py records rows through dataclasses.asdict and checks them
    # against the CSV's columns by name, so a field renamed or derived here
    # would break the benchmark silently
    kept = "gamma ent_resource eta_star kappa_star eve_info_bits holevo_bits residual feasible"
    assert set(kept.split()) <= {field.name for field in dataclasses.fields(AttackResult)}
    assert [field.name for field in dataclasses.fields(SweepRow)] == CSV_HEADER.split(",")


def test_bad_flag_exits_1(capsys):
    assert main(["sweep", "--no-such-flag"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_value_exits_1(capsys):
    assert main(["channel", "--tau", "1.5"]) == 1
    assert "'tau'" in capsys.readouterr().err


# a valid raw value, not the default, for every config key
_RAW = {
    "tau": "0.5",
    "epsilon": "1.2",
    "v": "0.8",
    "zeta": "0.5",
    "beta": "0.9",
    "reconciliation": "direct",
    "g_policy": "finite:1e3",
    "gamma_min": "0.5",
    "gamma_max": "0.9",
    "gamma_count": "7",
    "output": "x.csv",
    "precision": "5",
}

# a malformed raw value for every config key but output, whose only bad
# value is the empty one, which a config file refuses as a line
_MALFORMED = {
    "tau": "abc",
    "epsilon": "1,2",
    "v": "0.8.1",
    "zeta": "0.5x",
    "beta": "nine",
    "reconciliation": "fast",
    "g_policy": "someday",
    "gamma_min": "sometime",
    "gamma_max": "0x1p-1",
    "gamma_count": "2.5",
    "precision": "five",
}


def _channel_config(monkeypatch, argv: list[str]) -> RunConfig:
    """The RunConfig that `channel` would report on for argv's flags."""
    seen = []
    monkeypatch.setattr(cvqkd_attacks.cli, "cmd_channel", lambda cfg: seen.append(cfg) or 0)
    assert main(["channel", *argv]) == 0
    return seen[0]


def test_every_config_key_has_a_raw_value():
    assert set(_RAW) == set(_FIELDS)
    assert set(_MALFORMED) == set(_FIELDS) - {"output"}


@pytest.mark.parametrize("key", list(_FIELDS))
def test_flag_and_config_file_give_the_same_config(monkeypatch, tmp_path, key):
    path = tmp_path / "one.cfg"
    path.write_text(f"{key} = {_RAW[key]}\n", encoding="utf-8")
    from_flag = _channel_config(monkeypatch, [f"--{key.replace('_', '-')}", _RAW[key]])
    assert from_flag == _channel_config(monkeypatch, ["--config", str(path)])
    assert from_flag == parse_config(path.read_text(encoding="utf-8"))
    assert from_flag != RunConfig()


@pytest.mark.parametrize("key", list(_MALFORMED))
def test_flag_and_config_file_give_the_same_error(capsys, tmp_path, key):
    path = tmp_path / "one.cfg"
    path.write_text(f"{key} = {_MALFORMED[key]}\n", encoding="utf-8")
    assert main(["sweep", f"--{key.replace('_', '-')}={_MALFORMED[key]}"]) == 1
    from_flag = capsys.readouterr()
    assert main(["sweep", "--config", str(path)]) == 1
    from_file = capsys.readouterr()
    assert from_flag.out == from_file.out == ""
    assert from_flag.err == from_file.err
    assert from_flag.err.startswith("error: field ")
    assert from_flag.err.count("\n") == 1


def test_malformed_number_names_the_field(capsys):
    assert main(["sweep", "--tau", "abc"]) == 1
    assert capsys.readouterr().err == "error: field 'tau': expected a number, got 'abc'\n"


@pytest.mark.parametrize(
    "argv,field,value",
    [
        (["--gamma-c", "6"], "gamma_count", 6),
        (["--g-", "finite:50"], "g_policy", "finite:50"),
        (["--tau=0.5"], "tau", 0.5),
        (["--gamma-min=auto"], "gamma_lo", None),
        (["--tau", "0.5", "--tau", "0.6"], "tau", 0.6),
        (["--output", "-"], "output", "-"),
    ],
    ids=["prefix", "short-prefix", "equals", "auto", "repeated", "dash-value"],
)
def test_flag_spellings_reach_the_config(monkeypatch, argv, field, value):
    assert getattr(_channel_config(monkeypatch, argv), field) == value


@pytest.mark.parametrize(
    "argv,needle",
    [
        ([], "expected a command"),
        (["frob"], "expected a command"),
        (["--tau", "0.5", "channel"], "expected a command"),
        (["sweep", "--gamma", "3"], "ambiguous flag --gamma"),
        (["telesim", "--gam", "0.5"], "ambiguous flag --gam"),
        (["channel", "--tau"], "flag --tau: expected a value"),
        (["channel", "--output", "--tau", "0.5"], "flag --output: expected a value"),
        (["channel", "--tau", "-inf"], "flag --tau: expected a value"),
        (["channel", "--frob", "1"], "unknown flag --frob"),
        (["channel", "-x"], "unexpected argument '-x'"),
        (["channel", "stray"], "unexpected argument 'stray'"),
        (["telesim"], "telesim needs --gamma"),
        (["telesim", "--lam", "1"], "telesim needs --gamma"),
        (["telesim", "--gamma", "abc"], "field 'gamma': expected a number"),
        (["telesim", "--gamma", "0.5", "--lam", "x"], "field 'lam': expected a number"),
        (["sweep", "--lam", "1"], "unknown flag --lam for sweep"),
        (["verify", "--gamma=0.5"], "ambiguous flag --gamma"),
        (["channel", "--epsilon", "1.1", "--v", "1"], "mutually exclusive"),
    ],
)
def test_flag_errors_exit_1_with_one_line(capsys, argv, needle):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert needle in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["sweep", "-h"], ["telesim", "--gamma", "0.5", "--help"]]
)
def test_help_prints_every_flag_and_returns_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: cvqkd-attacks")
    for key, (_, _, text) in _FIELDS.items():
        assert re.search(rf"^  --{key.replace('_', '-')} +{re.escape(text)}$", captured.out, re.M)
    for flag in ("config", "gamma", "lam"):
        assert re.search(rf"^  --{flag} ", captured.out, re.M)


def test_config_that_is_not_utf8_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"tau = 0.3\xff\n")
    assert main(["channel", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config {path}: ")
    assert captured.err.count("\n") == 1


def test_cli_import_leaves_out_argparse_gettext_and_locale():
    # in a fresh interpreter, since pytest itself imports argparse
    script = (
        "import sys, cvqkd_attacks.cli; "
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.stderr == ""
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv,code,needle",
    [
        (["channel", "--epsilon", "nan"], 1, "error: field 'epsilon': must be >= 1, got nan"),
        (["sweep", "--v", "nan"], 1, "error: field 'v': must be >= 0, got nan"),
        (["telesim", "--gamma", "0.5", "--lam", "nan"], 2, "teleportation gain must be >= 0"),
        # an infinite gain is out of the teleporter's domain, not a resource fault
        (["telesim", "--gamma", "0.5", "--lam", "inf"], 2, "teleportation gain must be finite"),
        (["channel", "--epsilon", "inf"], 1, "error: field 'epsilon': must be finite, got inf"),
        (["channel", "--v", "inf"], 1, "error: field 'v': must be finite, got inf"),
        (["sweep", "--epsilon", "inf"], 1, "error: field 'epsilon': must be finite, got inf"),
        (["sweep", "--v", "inf"], 1, "error: field 'v': must be finite, got inf"),
    ],
    ids=[
        "channel-epsilon",
        "sweep-v",
        "telesim-lam",
        "telesim-lam-inf",
        "channel-epsilon-inf",
        "channel-v-inf",
        "sweep-epsilon-inf",
        "sweep-v-inf",
    ],
)
def test_nan_value_exits_with_one_line(capsys, tmp_path, argv, code, needle):
    out = tmp_path / "never.csv"
    assert main([*argv, "--output", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_channel_reports_entanglement_breaking(capsys):
    assert main(["channel", "--tau", "0.25", "--v", "1.25"]) == 0
    out = capsys.readouterr().out
    assert "entanglement_breaking = true" in out
    assert "gamma_min = 0.000000000" in out
    assert "ent_lower_bound_ebits = 0.000000000" in out


def test_channel_default_point(capsys):
    assert main(["channel"]) == 0
    out = capsys.readouterr().out
    assert "kind = thermal_loss" in out
    assert "gamma_min = 0.445165" in out


def test_sweep_below_the_floor_inside_the_slack_is_the_pure_loss_table(capsys, tmp_path):
    # v = floor - 5e-10 is inside GaussChannel's 1e-9 slack, so the channel
    # is pure loss, and its rows are those on the floor within the slack
    assert main(["channel", "--tau", "0.5", "--v", "0.4999999995"]) == 0
    assert "kind = pure_loss" in capsys.readouterr().out
    tables = []
    for v in ("0.4999999995", "0.5"):
        out = tmp_path / f"{v}.csv"
        args = ["--tau", "0.5", "--v", v, "--gamma-count", "4", "--output", str(out)]
        assert main(["sweep", *args]) == 0
        assert "rows = 4 (4 feasible)" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        tables.append([[float(x) for x in line.split(",")[:-1]] for line in lines])
    below, floor = tables
    gaps = [abs(x - y) for row, ref in zip(below, floor) for x, y in zip(row, ref)]
    assert len(gaps) == 4 * 8 and max(gaps) <= 2e-9


def test_sweep_rejects_entanglement_breaking(capsys):
    assert main(["sweep", "--tau", "0.25", "--v", "1.3"]) == 2
    assert "entanglement breaking" in capsys.readouterr().err


def test_sweep_unwritable_output_exits_2(capsys, tmp_path):
    code = main(
        [
            "sweep",
            "--gamma-min", "0.5",
            "--gamma-max", "0.6",
            "--gamma-count", "2",
            "--output", "/nonexistent-dir/x.csv",
        ]
    )
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_sweep_identity_channel_exits_2(capsys):
    assert main(["sweep", "--tau", "1", "--v", "0"]) == 2
    err = capsys.readouterr().err
    assert "gamma_min = 1" in err
    assert "identity channel" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        # gamma_min = 0.99995 lies above the default gamma_max = 0.9999;
        # this used to read as the grid's internal bounds check
        (
            ["--tau", "0.9999", "--epsilon", "1.000000001", "--gamma-count", "3"],
            "error: the channel's gamma_min = 0.9999499965138196 is not below gamma_max = 0.9999",
        ),
        # one ulp apart, three points cannot strictly increase: this used to
        # fail SweepTable's check after every row had been optimized
        (
            ["--gamma-min", "0.5", "--gamma-max", "0.5000000000000001", "--gamma-count", "3"],
            "error: 3 grid points from 0.5 to 0.5000000000000001 do not strictly increase in"
            " double precision",
        ),
    ],
    ids=["gamma-min-above-gamma-max", "grid-too-narrow"],
)
def test_sweep_grid_that_cannot_be_formed_exits_2_in_one_line(
    capsys, tmp_path, monkeypatch, flags, message
):
    def no_rows(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(cvqkd_attacks.keyrate, "optimize_attacks", no_rows)
    out = tmp_path / "never.csv"
    assert main(["sweep", *flags, "--output", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,head,needle",
    [
        # at gains this far beyond the paper's, Eve's amplified pair carries
        # rounding of ~eps sqrt(g) into her O(1) mode, and the matrix the
        # high-precision spectrum would certify has entries past what its
        # 30 digits resolve: the row is refused on that scale; only the row
        # and the reason are pinned
        (
            ["--g-policy", "finite:1e100", "--gamma-count", "3"],
            "error: row gamma = 0.4451652046870813: matrix entry",
            "leaves fewer than 16 of the 30 high-precision digits",
        ),
        # Eve's entropies are finite even where (nu - 1)(nu + 1) overflows,
        # so no numpy warning precedes the one line
        (
            ["--g-policy", "finite:1e300", "--gamma-count", "3"],
            "error: row gamma = 0.4451652046870813: matrix entry",
            "leaves fewer than 16 of the 30 high-precision digits",
        ),
        # near the largest doubles Eve's amplified mode overflows where the
        # circuit forms it: one line that names the gain, no numpy warning
        (
            ["--g-policy", "finite:1e308", "--gamma-count", "3"],
            "error: row gamma = 0.4451652046870813: amplifier gain 1e+308 overflows",
            "the attack state's double precision",
        ),
        # from about 1e11 off the default channel (ROADMAP defect 2), a source
        # squeezing near 1 or pure loss sends the same refusal
        (
            ["--zeta", "0.99", "--g-policy", "finite:1e12", "--gamma-count", "6"],
            "error: row gamma = 0.9994391680617926: matrix entry",
            "leaves fewer than 16 of the 30 high-precision digits",
        ),
        (
            ["--tau", "0.9", "--epsilon", "1", "--g-policy", "finite:1e12", "--gamma-count", "6"],
            "error: row gamma = 0.9996516211771085: matrix entry",
            "leaves fewer than 16 of the 30 high-precision digits",
        ),
        # a source squeezing this close to 1 fails a row at the paper's own
        # gains (ROADMAP defect 2); the asymptotic policy gives a table
        (
            ["--g-policy", "finite:100", "--zeta", "0.999999", "--gamma-count", "6"],
            "error: row gamma = 0.9994391680617926: unphysical covariance matrix",
            "smallest symplectic eigenvalue",
        ),
    ],
    ids=[
        "gain-1e100",
        "gain-1e300",
        "gain-1e308",
        "zeta-0.99-gain-1e12",
        "pure-loss-gain-1e12",
        "zeta-0.999999-gain-100",
    ],
)
def test_sweep_row_failure_exits_2_without_traceback(capsys, tmp_path, flags, head, needle):
    out = tmp_path / "never.csv"
    assert main(["sweep", *flags, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(head)
    assert needle in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--tau", "0.9830094439396927", "--epsilon", "1.0", "--zeta", "0.9733417809706306",
         "--reconciliation", "reverse", "--g-policy", "finite:4.1218e+08", "--gamma-count", "3"],
        ["--tau", "0.05367095567141458", "--epsilon", "1.0", "--zeta", "0.9978883801035922",
         "--reconciliation", "reverse", "--g-policy", "finite:2.46733e+06", "--gamma-count", "3"],
        ["--tau", "0.15720918353788216", "--epsilon", "1.000000001", "--zeta",
         "0.9594964267559948", "--reconciliation", "direct", "--g-policy", "finite:32118.8",
         "--gamma-count", "11"],
    ],
    ids=["pure-loss-gain-4e8", "pure-loss-gain-2e6", "direct-gain-3e4"],
)
def test_sweeps_that_need_the_high_precision_spectrum_print_a_table(
    capsys, tmp_path, monkeypatch, flags
):
    # each table holds attack states that double precision cannot certify
    # (equilibrated condition bounds up to 4e11): the high-precision
    # spectrum certifies them, and the run prints its table
    refined = []
    real = cvqkd_attacks.gaussian._refined_spectrum

    def counted(blocks):
        refined.append(blocks.shape)
        return real(blocks)

    monkeypatch.setattr(cvqkd_attacks.gaussian, "_refined_spectrum", counted)
    out = tmp_path / "table.csv"
    assert main(["sweep", *flags, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == int(flags[-1])
    assert refined
    for row in rows:
        if row["feasible"] == "true":
            assert float(row["residual"]) <= 1e-8
            assert float(row["eve_info_bits"]) <= float(row["holevo_bits"])


@pytest.mark.parametrize(
    "fields,tol",
    [
        (dict(g_policy="finite:1e8", gamma_count=2), 1e-9),
        (dict(g_policy="finite:1e12", gamma_count=6), 1e-9),
        (dict(g_policy="finite:1e9", gamma_count=6), 1e-9),
        (dict(g_policy="finite:1e7", gamma_count=2), 1e-9),
        (dict(tau=0.95, epsilon=1.0, zeta=0.95, g_policy="finite:1000", gamma_count=3), 1e-9),
        (dict(g_policy="finite:1e30", gamma_count=6), 1e-10),
    ],
    ids=["gain-1e8", "gain-1e12", "gain-1e9", "gain-1e7", "pure-loss-gain-1e3", "gain-1e30"],
)
def test_high_gain_sweep_rows_match_the_oracle(capsys, tmp_path, fields, tol):
    # with Eve's amplified pair formed in the raw (R1, R2) basis these runs
    # exited 2 (the Holevo check at 1e8 and 1e9, an unphysical attack state
    # at 1e12 and, on pure loss, at 1e3 with nu_min 0.999999994997) or, at
    # 1e7, printed row 0.9999 1.9e-5 bits above the oracle; at 1e30, with
    # the 2n x 2n factor in place of the x and p blocks' (gaussian
    # _split_spectrum), the Holevo check failed row 0.9823600149194993; each
    # row must now be the 60-digit circuit's value at its own pick
    out = tmp_path / "table.csv"
    flags = [f"--{name.replace('_', '-')}" for name in fields]
    flags = [arg for flag, value in zip(flags, fields.values()) for arg in (flag, str(value))]
    assert main(["sweep", *flags, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    printed = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    cfg = RunConfig(**fields)
    sc = scenario_from(cfg)
    grid = default_gamma_grid(sc, cfg.gamma_count, cfg.gamma_lo, cfg.gamma_hi)
    rows = optimize_attacks(sc, grid)
    assert len(printed) == len(rows) == cfg.gamma_count
    for line, row in zip(printed, rows):
        assert row.feasible
        assert abs(float(line["eve_info_bits"]) - row.eve_info_bits) <= 5e-10
        oracle = oracle_eve_info(sc, row.gamma, row.eta_star, row.noise_star, sc.gain)
        assert abs(row.eve_info_bits - oracle) <= tol, row.gamma


@pytest.mark.parametrize(
    "v,reconciliation,g_policy",
    [
        (0.05, "direct", "asymptotic"),
        (0.5, "reverse", "finite:100"),
        (0.5, "direct", "finite:1e6"),
    ],
)
def test_additive_noise_sweep_rows_match_the_oracle(capsys, tmp_path, v, reconciliation, g_policy):
    # tau = 1 with v > 0, the one channel class no other sweep runs: every
    # row is feasible, within its bounds, and the 60-digit circuit's value
    # at its own pick (the asymptotic one at the oracle's gain)
    fields = dict(tau=1.0, v=v, reconciliation=reconciliation, g_policy=g_policy, gamma_count=6)
    flags = [
        arg for name, value in fields.items() for arg in (f"--{name.replace('_', '-')}", str(value))
    ]
    out = tmp_path / "table.csv"
    assert main(["sweep", *flags, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    printed = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    cfg = RunConfig(**fields)
    sc = scenario_from(cfg)
    rows = optimize_attacks(sc, default_gamma_grid(sc, cfg.gamma_count, cfg.gamma_lo, cfg.gamma_hi))
    assert len(printed) == len(rows) == cfg.gamma_count
    gain = sc.gain if math.isfinite(sc.gain) else ORACLE_GAIN
    for line, row in zip(printed, rows):
        assert line["feasible"] == "true" and row.feasible
        assert abs(float(line["eve_info_bits"]) - row.eve_info_bits) <= 5e-10
        assert row.residual <= 1e-8 and row.eve_info_bits <= row.holevo_bits
        oracle = oracle_eve_info(sc, row.gamma, row.eta_star, row.noise_star, gain)
        assert abs(row.eve_info_bits - oracle) <= 1e-9, row.gamma


@pytest.mark.parametrize("flags", [["--gamma-count", "201"]], ids=["asymptotic-201-rows"])
def test_rows_whose_window_reaches_eta_1_match_the_oracle(capsys, tmp_path, flags):
    # with the auxiliary carried as a tmsv(kappa) rounded to doubles this
    # run exited 2 at row 0.4909949955798073 (smallest symplectic
    # eigenvalue 0.969767200618): near kappa = 1 no pair of doubles is a
    # pure tmsv. Now it yields a table, whose rows with a feasible window
    # reaching eta = 1, that row among them, are the 60-digit circuit's
    # values at their picks
    out = tmp_path / "table.csv"
    assert main(["sweep", *flags, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    printed = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    cfg = RunConfig(gamma_count=int(flags[-1]))
    sc = scenario_from(cfg)
    ch = sc.channel
    rows = optimize_attacks(sc, default_gamma_grid(sc, cfg.gamma_count))
    assert len(printed) == len(rows) == cfg.gamma_count
    rim = [
        row
        for row in rows
        if row.feasible and _feasible_eta_window(row.gamma, ch.tau, ch.v)[1] == 1.0
    ]
    assert 0.4909949955798073 in [row.gamma for row in rim]
    for line, row in zip(printed, rows):
        assert abs(float(line["eve_info_bits"]) - row.eve_info_bits) <= 5e-10
        if row.feasible:
            assert row.residual <= 1e-8 and row.eve_info_bits <= row.holevo_bits
    for row in rim:
        oracle = oracle_eve_info(sc, row.gamma, row.eta_star, row.noise_star)
        assert abs(row.eve_info_bits - oracle) <= 1e-9, row.gamma


def test_row_just_above_gamma_min_reaches_the_peak_at_the_rim():
    # the row's window reaches eta = 1, and Eve's information rises all the
    # way to that rim: the row picks the rim, matched with kappa* near 1.
    # With the auxiliary rounded to doubles the objective was off there: the
    # row printed 0.167425654 bits, below the exact 0.1678702826
    sc = scenario_from(RunConfig())
    gamma = 0.4453652046870813
    row = optimize_attack(sc, gamma)
    oracle = oracle_eve_info(sc, gamma, row.eta_star, row.noise_star)
    assert abs(row.eve_info_bits - oracle) <= 1e-9
    eta = 0.9999991
    assert row.eta_star > eta and row.kappa_star > 0.999
    m = float(_match_noise(gamma, eta, sc.channel.tau, sc.channel.v, sc.gain))
    assert row.eve_info_bits >= oracle_eve_info(sc, gamma, eta, m) - 1e-9


@pytest.mark.parametrize(
    "flags",
    [
        # at g = 1e6 a pure-loss row failed validation (smallest symplectic
        # eigenvalue 0.999999997516 at gamma ~ 0.98343), and the two
        # high-transmissivity tables failed the Holevo check
        ["--epsilon", "1.0", "--gamma-count", "6"],
        ["--tau", "0.95", "--epsilon", "1.01", "--gamma-count", "5"],
        ["--tau", "0.99", "--epsilon", "1.01", "--gamma-count", "3"],
    ],
    ids=["pure-loss", "tau-0.95", "tau-0.99"],
)
def test_asymptotic_sweep_yields_a_sound_table(capsys, tmp_path, flags):
    out = tmp_path / "table.csv"
    assert main(["sweep", *flags, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == int(flags[-1])
    feasible = [row for row in rows if row["feasible"] == "true"]
    assert feasible
    for row in feasible:
        assert float(row["residual"]) <= 1e-8
        assert float(row["eve_info_bits"]) <= float(row["holevo_bits"])


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP defect 6: near g = 1 a row reads Eve's spectrum below 1 and the sweep "
    "exits 2 (row 0.9998090972095025 direct at 1.000001, row 0.9999 at 1.0000000001)",
)
@pytest.mark.parametrize(
    "flags",
    [
        ["--g-policy", "finite:1.000001", "--reconciliation", "direct"],
        ["--g-policy", "finite:1.0000000001"],
    ],
    ids=["gain-1.000001-direct", "gain-1.0000000001"],
)
def test_defect_6_low_gain_sweep_prints_a_table(capsys, tmp_path, flags):
    out = tmp_path / "table.csv"
    code = main(["sweep", *flags, "--output", str(out)])
    assert "\n" not in capsys.readouterr().err.rstrip("\n")
    assert code == 0


@pytest.mark.parametrize("g_policy", ["asymptotic", "finite:100"])
@pytest.mark.parametrize("reconciliation", ["reverse", "direct"])
@pytest.mark.parametrize("epsilon", ["1.0", "1.05"])
@pytest.mark.parametrize("tau", ["0.25", "0.7"])
def test_sweep_scenario_matrix_yields_a_table_or_exits_2(
    capsys, tmp_path, tau, epsilon, reconciliation, g_policy
):
    # every accepted configuration either yields a sound table or exits 2
    # with one line; an escaping exception fails the test
    out = tmp_path / "matrix.csv"
    flags = ["--tau", tau, "--epsilon", epsilon, "--reconciliation", reconciliation]
    flags += ["--g-policy", g_policy, "--gamma-count", "3", "--precision", "17"]
    code = main(["sweep", *flags, "--output", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        return
    assert code == 0
    assert err == ""
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 3
    for row in rows:
        if row["feasible"] == "true":
            assert float(row["residual"]) <= 1e-8
            assert float(row["eve_info_bits"]) <= float(row["holevo_bits"])


def test_telesim_identity_environment(capsys):
    code = main(
        ["telesim", "--gamma", "0.5", "--lam", "1", "--tau", "1", "--g-policy", "finite:1e6"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "v_tel = 0.666666667" in out
    diff = float(out.rsplit("=", 1)[1])
    assert diff < 1e-4


def test_telesim_gain_too_small_exits_2(capsys):
    code = main(
        ["telesim", "--gamma", "0.5", "--lam", "1", "--tau", "0.5", "--g-policy", "finite:1.5"]
    )
    assert code == 2
    assert "splitter transmissivity" in capsys.readouterr().err


def test_telesim_tau_one_takes_the_noise_directly(capsys):
    # the channel comes from the config as given, as for `channel`
    code = main(["telesim", "--gamma", "0.5", "--tau", "1", "--v", "0.5"])
    assert code == 0
    assert "all-optical (g = inf)" in capsys.readouterr().out


def test_telesim_asymptotic_prints_the_bk_limit(capsys):
    assert main(["telesim", "--gamma", "0.9"]) == 0
    out = capsys.readouterr().out
    bk = out.split("standard teleportation:")[1].split("v_tel = ")[1].split()[0]
    ao = out.split("all-optical (g = inf):")[1].split("v_tel = ")[1].split()[0]
    assert ao == bk == "0.105263158"
    assert "|v_ao - v_bk| = 0.000000000" in out


def test_sweep_small_grid_deterministic(capsys, tmp_path):
    args = ["--gamma-min", "0.5", "--gamma-max", "0.7", "--gamma-count", "3"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", *args, "--output", str(out_a)]) == 0
    stdout = capsys.readouterr().out
    assert "rows = 3 (3 feasible)" in stdout
    assert f"wrote {out_a}" in stdout
    assert main(["sweep", *args, "--output", str(out_b)]) == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    assert bytes_a.decode().splitlines()[0] == CSV_HEADER

    # the same run driven by a config file must produce the same bytes
    out_c = tmp_path / "c.csv"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"gamma_min = 0.5\ngamma_max = 0.7\ngamma_count = 3\noutput = {out_c}\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert out_c.read_bytes() == bytes_a


def test_sweep_below_threshold_marks_rows_infeasible(capsys, tmp_path):
    out = tmp_path / "infeasible.csv"
    code = main(
        [
            "sweep",
            "--gamma-min", "0.1",
            "--gamma-max", "0.3",
            "--gamma-count", "3",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert "rows = 3 (0 feasible)" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert all(line.endswith(",false") for line in lines[1:])
    assert all(",nan," in line for line in lines[1:])


def test_verify_failure_exits_3(capsys, monkeypatch):
    impossible = Check("always-fails", 0.0, lambda: 1.0)
    monkeypatch.setattr(cvqkd_attacks.verify, "CHECKS", (impossible,))
    assert main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert re.search(r"FAIL  always-fails  measured = .*  time = \d+\.\d ms\n", out)
    assert "0/1 checks passed" in out


def test_verify_reports_at_least_eight_named_checks():
    # contract on the real suite, not the monkeypatched one
    assert len(cvqkd_attacks.verify.CHECKS) >= 8
    names = [c.name for c in cvqkd_attacks.verify.CHECKS]
    assert len(set(names)) == len(names)
