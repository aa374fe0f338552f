"""CLI surface: config round trips, CSV formatting, exit codes."""

import csv
import math
import re
from pathlib import Path

import pytest
from test_bell_record import oracle_eve_info

import cvqkd_attacks.verify
from cvqkd_attacks.attacks import _match_kappa, holevo_bound, optimize_attack
from cvqkd_attacks.cli import (
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
from cvqkd_attacks.keyrate import SweepRow, SweepTable, default_gamma_grid, sweep
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


def test_bad_flag_exits_1(capsys):
    assert main(["sweep", "--no-such-flag"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_value_exits_1(capsys):
    assert main(["channel", "--tau", "1.5"]) == 1
    assert "'tau'" in capsys.readouterr().err


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
    "flags,head,needle",
    [
        # double precision still breaks down at gains this far beyond the
        # paper's: Eve's amplified pair, formed in her local basis, carries
        # rounding of ~eps sqrt(g) into her O(1) mode; only the row and the
        # reason are pinned, and the Holevo bound in the message is the run's
        # own holevo_bound, whatever its last bits
        (
            ["--g-policy", "finite:1e30", "--gamma-count", "6"],
            "error: row gamma = 0.9823600149194993: Eve's information ",
            "outside [0, Holevo bound ",
        ),
        (
            ["--g-policy", "finite:1e100", "--gamma-count", "3"],
            "error: row gamma = 0.4451652046870813: unphysical covariance matrix",
            "smallest symplectic eigenvalue",
        ),
        # Eve's entropies are finite even where (nu - 1)(nu + 1) overflows,
        # so no numpy warning precedes the one line
        (
            ["--g-policy", "finite:1e300", "--gamma-count", "3"],
            "error: row gamma = 0.4451652046870813: unphysical covariance matrix",
            "not positive definite",
        ),
        # a source squeezing this close to 1 fails a row at the paper's own
        # gains (ROADMAP defect 2); the asymptotic policy gives a table
        (
            ["--g-policy", "finite:100", "--zeta", "0.999999", "--gamma-count", "6"],
            "error: row gamma = 0.9823600149194993: unphysical covariance matrix",
            "smallest symplectic eigenvalue",
        ),
        # just above gamma_min the default channel's window reaches eta = 1,
        # where the matched kappa nears 1 and the Bell-record objective
        # spikes above the Holevo bound (ROADMAP defect 1)
        (
            ["--gamma-count", "201"],
            "error: row gamma = 0.4909949955798073: unphysical covariance matrix",
            "smallest symplectic eigenvalue",
        ),
    ],
    ids=["gain-1e30", "gain-1e100", "gain-1e300", "zeta-0.999999-gain-100", "asymptotic-201-rows"],
)
def test_sweep_row_failure_exits_2_without_traceback(capsys, tmp_path, flags, head, needle):
    out = tmp_path / "never.csv"
    assert main(["sweep", *flags, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(head)
    assert needle in err
    if "Holevo" in needle:
        chi = holevo_bound(scenario_from(RunConfig(g_policy=flags[1])))
        assert f"{needle}{chi!r}]" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "fields",
    [
        dict(g_policy="finite:1e8", gamma_count=2),
        dict(g_policy="finite:1e12", gamma_count=6),
        dict(g_policy="finite:1e9", gamma_count=6),
        dict(g_policy="finite:1e7", gamma_count=2),
        dict(tau=0.95, epsilon=1.0, zeta=0.95, g_policy="finite:1000", gamma_count=3),
    ],
    ids=["gain-1e8", "gain-1e12", "gain-1e9", "gain-1e7", "pure-loss-gain-1e3"],
)
def test_high_gain_sweep_rows_match_the_oracle(capsys, tmp_path, fields):
    # with Eve's amplified pair formed in the raw (R1, R2) basis these runs
    # exited 2 (the Holevo check at 1e8 and 1e9, an unphysical attack state
    # at 1e12 and, on pure loss, at 1e3 with nu_min 0.999999994997) or, at
    # 1e7, printed row 0.9999 1.9e-5 bits above the oracle; each row must
    # now be the 60-digit circuit's value at its own pick
    out = tmp_path / "table.csv"
    flags = [f"--{name.replace('_', '-')}" for name in fields]
    flags = [arg for flag, value in zip(flags, fields.values()) for arg in (flag, str(value))]
    assert main(["sweep", *flags, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    printed = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    cfg = RunConfig(**fields)
    sc = scenario_from(cfg)
    grid = default_gamma_grid(sc, cfg.gamma_count, cfg.gamma_lo, cfg.gamma_hi)
    table = sweep(sc, cfg.beta, grid)
    assert len(printed) == len(table.rows) == cfg.gamma_count
    for line, row in zip(printed, table.rows):
        assert row.feasible
        assert abs(float(line["eve_info_bits"]) - row.eve_info_bits) <= 5e-10
        oracle = oracle_eve_info(sc, row.gamma, row.eta_star, row.kappa_star, sc.gain)
        assert abs(row.eve_info_bits - oracle) <= 1e-9, row.gamma


@pytest.mark.xfail(strict=True, reason="ROADMAP defect 1: the scan picks the eta = 1 rim")
def test_row_just_above_gamma_min_reaches_the_interior_peak():
    # the row picks eta* = 1 - 8.7e-13 with kappa* = 0.99999998, where the
    # double-precision objective is off: it prints 0.167425654 bits, the
    # 60-digit circuit reads 0.16746184 there and 0.16787015 inside the window
    sc = scenario_from(RunConfig())
    gamma = 0.4453652046870813
    row = optimize_attack(sc, gamma)
    oracle = oracle_eve_info(sc, gamma, row.eta_star, row.kappa_star)
    assert abs(row.eve_info_bits - oracle) <= 1e-9
    eta = 0.9999991
    kappa = float(_match_kappa(gamma, eta, sc.channel.tau, sc.channel.v, sc.gain))
    assert row.eve_info_bits >= oracle_eve_info(sc, gamma, eta, kappa) - 1e-9


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
