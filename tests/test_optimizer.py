"""optimize_attack's search: the near-edge optimum, row independence, a
deterministic bound on how many objective evaluations a row makes, and the
row-stacked optimize_attacks: equal to single rows, and batched into a fixed
number of objective calls per sweep.

The dense oracle is the maximum of the same objective over a 4,001-point
stacked scan of the feasible window, about 16 times finer than the
optimizer's last scan pass. A row may beat it (the peak can sit between two
oracle points) but must not fall short of it.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_bell_record import ORACLE_GAIN, oracle_eve_info, row_noise

import cvqkd_attacks.attacks
from cvqkd_attacks.attacks import (
    _SCAN_PASSES,
    AttackScenario,
    RowError,
    _attack_point,
    _auxiliary_noise,
    _auxiliary_squeezing,
    _channel_residual,
    _eve_info_objective,
    _feasible_eta_window,
    _match_noise,
    _resource_matrix,
    ao_attack_state,
    eve_info,
    gamma_min,
    optimize_attack,
    optimize_attacks,
    simulation_residual,
)
from cvqkd_attacks.channels import GaussChannel, is_entanglement_breaking
from cvqkd_attacks.cli import RunConfig, scenario_from
from cvqkd_attacks.gaussian import _check_physical, _interleaved, tmsv
from cvqkd_attacks.keyrate import default_gamma_grid, sweep

ORACLE_POINTS = 4001


def _config(**fields):
    cfg = RunConfig(**fields)
    return scenario_from(cfg), cfg


def _grid(sc, cfg, count):
    return default_gamma_grid(sc, count, cfg.gamma_lo, cfg.gamma_hi)


def dense_oracle(sc, gamma):
    """Largest objective value over ORACLE_POINTS evenly spaced etas of the
    window optimize_attack searches."""
    ch = sc.channel
    lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v, max(0.8 * ch.tau, 1e-4))
    etas = lo + (hi - lo) * np.arange(ORACLE_POINTS) / (ORACLE_POINTS - 1)
    noises = _match_noise(gamma, etas, ch.tau, ch.v, sc.gain)
    hits = ~np.isnan(noises)
    alice = tmsv(sc.zeta, ("A", "B")).matrix
    resource = _resource_matrix(gamma)
    values = _eve_info_objective(sc, alice, resource, etas[hits], noises[hits])
    return float(np.max(values))


@pytest.mark.parametrize(
    "fields,pinned",
    [
        # the peak sits 9.1e-5 (0.4% of the window) above the lower edge
        (dict(reconciliation="direct", gamma_count=11), (0.982360015, 1.677147740)),
        (
            dict(g_policy="finite:100", gamma_hi=0.99, reconciliation="direct", gamma_count=11),
            (0.977672878, 1.671996765),
        ),
    ],
    ids=["asymptotic", "finite-100"],
)
def test_direct_rows_reach_the_dense_oracle(fields, pinned):
    sc, cfg = _config(**fields)
    checked = 0
    for gamma in _grid(sc, cfg, cfg.gamma_count):
        res = optimize_attack(sc, gamma)
        if not res.feasible:
            continue
        oracle = dense_oracle(sc, gamma)
        assert res.eve_info_bits >= oracle - 1e-9, (gamma, res.eve_info_bits, oracle)
        if abs(gamma - pinned[0]) <= 1e-9:
            assert res.eve_info_bits >= pinned[1], (gamma, res.eve_info_bits)
            checked += 1
    assert checked == 1


@pytest.mark.parametrize(
    "fields,stride",
    [
        (dict(), 8),
        (dict(g_policy="finite:100", gamma_hi=0.99), 4),
    ],
    ids=["asymptotic", "finite-100"],
)
def test_sub_grid_rows_equal_the_full_table_bit_for_bit(fields, stride):
    # the benchmark's 6- and 11-row tables stand for rows of the 41-row one;
    # that holds only while each row is computed on its own
    sc, cfg = _config(**fields)
    full = sweep(sc, cfg.beta, _grid(sc, cfg, 41)).rows
    sub = sweep(sc, cfg.beta, _grid(sc, cfg, 40 // stride + 1)).rows
    assert [repr(dataclasses.astuple(r)) for r in sub] == [
        repr(dataclasses.astuple(r)) for r in full[::stride]
    ]


@pytest.mark.parametrize("g_policy", ["asymptotic", "finite:1e6"])
def test_rows_stay_within_their_evaluation_budget(monkeypatch, g_policy):
    # a row evaluates at most 51 scan points (three 17-point passes) and one
    # parabola vertex: the refit reuses the last pass's values
    calls = []

    def counted(sc, alice, resource, eta, m):
        calls.append(np.size(eta))
        return _eve_info_objective(sc, alice, resource, eta, m)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_eve_info_objective", counted)
    sc, cfg = _config(g_policy=g_policy)
    for gamma in _grid(sc, cfg, 6):
        calls.clear()
        assert optimize_attack(sc, gamma).feasible
        scan, vertex = calls[:_SCAN_PASSES], calls[_SCAN_PASSES:]
        assert len(scan) == _SCAN_PASSES and sum(scan) <= 51, (gamma, calls)
        assert sum(vertex) <= 1 and len(vertex) <= 1, (gamma, calls)


def _rows(results):
    return [repr(dataclasses.astuple(r)) for r in results]


def _assert_rows_are_the_evaluators(sc, grid, rows):
    # each feasible row's information and residual are, bit for bit, the
    # checked evaluator's at the row's own (eta*, m*), and its kappa* is
    # the auxiliary squeezing of that m*
    alice = tmsv(sc.zeta, ("A", "B")).matrix
    for gamma, row in zip(grid, rows):
        if row.feasible:
            resource = _resource_matrix(gamma)
            m = row_noise(sc, row)
            assert row.kappa_star == _auxiliary_squeezing(row.eta_star, m), gamma
            info, ab = _attack_point(sc, alice, resource, row.eta_star, m, validate=True)
            assert row.eve_info_bits == info, gamma
            ab = _interleaved(_check_physical(ab)[0])
            assert row.residual == _channel_residual(ab, alice, sc.channel)


@pytest.mark.parametrize(
    "fields,count",
    [
        (dict(), 11),
        (dict(epsilon=1.0), 6),
        (dict(reconciliation="direct"), 11),
        (dict(g_policy="finite:100", gamma_hi=0.99), 11),
        # Eve's blocks pass _HP_SCALE at this gain
        (dict(g_policy="finite:1e6"), 3),
    ],
    ids=["asymptotic", "pure-loss", "direct", "finite-100", "finite-1e6"],
)
def test_stacked_rows_equal_single_rows(fields, count):
    sc, cfg = _config(**fields)
    grid = _grid(sc, cfg, count)
    # below gamma_min (infeasible), then gamma_min itself (eta = 1) onwards
    grid = (0.9 * gamma_min(sc.channel),) + grid
    stacked = optimize_attacks(sc, grid)
    assert len(stacked) == len(grid)
    assert _rows(stacked) == _rows(optimize_attack(sc, gamma) for gamma in grid)
    assert not stacked[0].feasible and stacked[1].feasible
    _assert_rows_are_the_evaluators(sc, grid, stacked)


@pytest.mark.parametrize("reconciliation", ["reverse", "direct"])
@pytest.mark.parametrize("g_policy", ["asymptotic", "finite:100", "finite:1e6"])
def test_checked_and_unchecked_routes_agree_on_every_row(g_policy, reconciliation):
    # the checked evaluation is the objective's arithmetic plus the check:
    # at each feasible row's (eta*, m*) of a 41-row sweep the two agree
    # within 1e-14 bits, the rounding of the heterodyne update, which the
    # check symmetrizes
    sc, cfg = _config(g_policy=g_policy, reconciliation=reconciliation)
    grid = _grid(sc, cfg, cfg.gamma_count)
    alice = tmsv(sc.zeta, ("A", "B")).matrix
    rows = optimize_attacks(sc, grid)
    assert len(grid) == 41 and all(row.feasible for row in rows)
    for gamma, row in zip(grid, rows):
        point = (alice, _resource_matrix(gamma), row.eta_star, row_noise(sc, row))
        checked = _attack_point(sc, *point, validate=True)[0]
        assert abs(checked - _eve_info_objective(sc, *point)) <= 1e-14, gamma


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    tau=st.floats(0.05, 0.95),
    epsilon=st.floats(1.0, 3.0, exclude_min=True),
    zeta=st.floats(0.0, 0.95),
    reconciliation=st.sampled_from(["reverse", "direct"]),
    gain=st.one_of(st.just(math.inf), st.floats(1.01, 1.0e4)),
)
def test_stacked_validation_equals_the_single_row_kernels(
    tau, epsilon, zeta, reconciliation, gain
):
    # the rows of a sweep are validated as one stack; each must be what it
    # is alone, and at finite gain the state-level API, which takes kappa*
    # and turns it into its auxiliary noise once, must compute what the
    # checked evaluator does at that noise
    channel = GaussChannel(tau, (1.0 - tau) * epsilon)
    assume(not is_entanglement_breaking(channel))
    sc = AttackScenario(channel, zeta, reconciliation, gain)
    grid = default_gamma_grid(sc, 3)
    try:
        stacked = optimize_attacks(sc, grid)
    except RowError as exc:
        # a row can fail at high gain (ROADMAP defect 2): it must fail
        # alone with the same message, and the rows before it must pass
        with pytest.raises(ValueError) as alone:
            optimize_attack(sc, exc.gamma)
        assert str(alone.value) == str(exc)
        grid = grid[: grid.index(exc.gamma)]
        stacked = optimize_attacks(sc, grid)
    assert _rows(stacked) == _rows(optimize_attack(sc, gamma) for gamma in grid)
    _assert_rows_are_the_evaluators(sc, grid, stacked)
    alice = tmsv(zeta, ("A", "B")).matrix
    for gamma, row in zip(grid, stacked):
        if row.feasible and math.isfinite(gain):
            m = _auxiliary_noise(row.eta_star, row.kappa_star)
            info, ab = _attack_point(
                sc, alice, _resource_matrix(gamma), row.eta_star, m, validate=True
            )
            state = ao_attack_state(sc, gamma, row.eta_star, row.kappa_star)
            assert info == eve_info(state, sc)
            residual = _channel_residual(_interleaved(_check_physical(ab)[0]), alice, channel)
            assert residual == simulation_residual(sc, gamma, row.eta_star, row.kappa_star)


@pytest.mark.parametrize(
    "fields,count",
    [(dict(), 6), (dict(g_policy="finite:100", gamma_hi=0.99), 11)],
    ids=["asymptotic", "finite-100"],
)
def test_sweep_batches_its_objective_calls(monkeypatch, fields, count):
    # one stacked call per scan pass and one more, on the parabola vertices,
    # for the whole sweep, while each row evaluates the same points it would
    # alone
    calls = []

    def counted(sc, alice, resource, eta, m):
        calls.append(np.size(eta))
        return _eve_info_objective(sc, alice, resource, eta, m)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_eve_info_objective", counted)
    sc, cfg = _config(**fields)
    grid = _grid(sc, cfg, count)
    sweep(sc, cfg.beta, grid)
    scan, vertices = calls[:_SCAN_PASSES], calls[_SCAN_PASSES:]
    assert len(scan) == _SCAN_PASSES
    assert len(vertices) == 1
    alone = []
    for gamma in grid:
        calls.clear()
        optimize_attack(sc, gamma)
        alone.append(list(calls))
    assert sum(scan) == sum(sum(row[:_SCAN_PASSES]) for row in alone)
    assert sum(vertices) == sum(sum(row[_SCAN_PASSES:]) for row in alone)


def test_finite_gain_sweep_runs_the_circuit_once_per_stage(monkeypatch):
    # one stacked circuit per scan pass, one for the parabola vertices and
    # one for the validation, whose residual is read off the state that
    # validation formed rather than off a second run of the circuit
    calls = []
    real = cvqkd_attacks.attacks._pipeline_raw

    def counted(*args, **kwargs):
        calls.append(np.shape(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_pipeline_raw", counted)
    sc, cfg = _config(g_policy="finite:100", gamma_hi=0.99)
    grid = _grid(sc, cfg, 11)
    assert all(row.feasible for row in sweep(sc, cfg.beta, grid).rows)
    assert len(calls) == _SCAN_PASSES + 2, calls


def test_asymptotic_sweep_makes_no_lapack_call(monkeypatch):
    # at g = inf every spectrum is of a two-mode block below
    # _INVERSE_SIDE_SCALE, read in closed form, and the Bell record's
    # determinants are products: the 41-row default sweep, scan, refit and
    # validation, makes no np.linalg call
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    sc, cfg = _config()
    grid = _grid(sc, cfg, cfg.gamma_count)
    with monkeypatch.context() as patch:
        for name in ("svd", "cholesky", "det", "eigvals", "inv"):
            patch.setattr(np.linalg, name, refuse)
        rows = optimize_attacks(sc, grid)
    assert len(rows) == 41 and all(row.feasible for row in rows)


def test_finite_gain_sweep_takes_svds_only_past_two_modes(monkeypatch):
    # at g = 100 the two-mode (A, B) blocks take the closed form, and only
    # Eve's four-mode blocks reach LAPACK's SVD
    shapes = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    sc, cfg = _config(g_policy="finite:100", gamma_hi=0.99)
    assert all(row.feasible for row in optimize_attacks(sc, _grid(sc, cfg, 11)))
    assert shapes and min(shapes) > 2, shapes


def test_first_failing_row_in_grid_order_is_reported():
    sc, _ = _config(g_policy="finite:1e100")
    # the g = 1e100 row fails validation (its Eve block needs the
    # high-precision spectrum, whose 30 digits cannot resolve entries that
    # large) before the out-of-range row after it is reached
    message = "matrix entry 7.50182e+103 leaves fewer than 16 of the 30 high-precision digits"
    with pytest.raises(RowError, match=re.escape(message) + "$") as info:
        optimize_attacks(sc, (0.9999, 1.5))
    assert info.value.gamma == 0.9999
    sc, _ = _config()
    with pytest.raises(RowError, match=r"must lie in \[0, 1\), got 1.5") as info:
        optimize_attacks(sc, (0.5, 0.9, 1.5, 0.7))
    assert info.value.gamma == 1.5
    with pytest.raises(ValueError, match=r"^resource squeezing must lie in \[0, 1\), got -0.1$"):
        optimize_attack(sc, -0.1)


def test_failing_row_is_named_whichever_rows_share_its_stack(monkeypatch):
    # the objective fails only on calls that carry a middle row's points;
    # every stacked call carries row 0 as well, yet the error names the
    # middle row, after the rows before it were computed alone in grid order
    sc, cfg = _config()
    grid = _grid(sc, cfg, 6)
    row = 3
    marker = _resource_matrix(grid[row])[0, 0]

    def failing(sc, alice, resource, eta, m):
        if (resource[..., 0, 0] == marker).any():
            raise ValueError("row failed")
        return _eve_info_objective(sc, alice, resource, eta, m)

    alone = []
    real_optimize_attack = cvqkd_attacks.attacks.optimize_attack

    def counted(sc, gamma):
        alone.append(gamma)
        return real_optimize_attack(sc, gamma)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_eve_info_objective", failing)
    monkeypatch.setattr(cvqkd_attacks.attacks, "optimize_attack", counted)
    with pytest.raises(ValueError, match=r"^row gamma = .*: row failed$") as info:
        sweep(sc, cfg.beta, grid)
    assert isinstance(info.value.__cause__, RowError)
    assert info.value.__cause__.gamma == grid[row]
    assert alone == list(grid[: row + 1])


# (tau, epsilon, zeta, reconciliation, g_policy, gamma): rows whose feasible
# window reaches eta = 1, where the matched kappa nears 1. With the
# auxiliary tmsv(kappa) rounded to doubles, the first five and the seventh
# raised (an unphysical state, or Eve's information outside [0, chi]) and
# the others printed rows below the exact maximum: 0.0485 for 0.1268 bits,
# 0.1275752 for 0.1276275 and 0.167425654 for 0.1678702826
RIM_CASES = [
    (0.6227539698294879, 1.1635708962235205, 0.9619201212266064, "reverse", "asymptotic",
     0.8135657642113103),
    (0.9117264811330459, 1.8539118348967476, 0.0, "reverse", "asymptotic",
     0.8781220439297528),
    (0.40983842243226065, 1.1203030432460654, 0.0, "reverse", "asymptotic",
     0.65747849518328),
    (0.9309863294174215, 1.7685324971240939, 0.0, "reverse", "asymptotic",
     0.9730716317805118),
    (0.9749057223545429, 1.1347894821613735, 0.9806628513137279, "reverse", "asymptotic",
     0.9876904868864814),
    (0.872300455311705, 1.332668881671574, 0.40049304990815493, "direct", "finite:14.9266",
     0.9021895393224239),
    (0.558967405189762, 1.7335931429224525, 0.0, "reverse", "finite:4.50899",
     0.5961183916454214),
    (0.9623214958588039, 2.3088234212664354, 0.0, "reverse", "finite:1.26579e+06",
     0.9510455516698244),
    (0.25, 1.01, 0.7, "reverse", "asymptotic",
     0.4453652046870813),
]


@pytest.mark.parametrize("case", range(len(RIM_CASES)))
def test_rim_rows_reach_the_exact_maximum(case):
    # each row is the 60-digit circuit's value at its own pick, and no point
    # of its window beats it: three interior ones and the scan's rim, 1e-9
    # of the window inside eta = 1
    tau, epsilon, zeta, reconciliation, g_policy, gamma = RIM_CASES[case]
    sc, _ = _config(
        tau=tau, epsilon=epsilon, zeta=zeta, reconciliation=reconciliation, g_policy=g_policy
    )
    ch = sc.channel
    gain = sc.gain if math.isfinite(sc.gain) else ORACLE_GAIN
    row = optimize_attack(sc, gamma)
    assert row.feasible
    oracle = oracle_eve_info(sc, gamma, row.eta_star, row_noise(sc, row), gain)
    assert abs(row.eve_info_bits - oracle) <= 1e-9
    lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v, max(0.8 * ch.tau, 1e-4))
    assert hi == 1.0
    for f in (0.25, 0.5, 0.75, 1.0 - 1e-9):
        eta = lo + f * (hi - lo)
        m = float(_match_noise(gamma, eta, ch.tau, ch.v, sc.gain))
        assert row.eve_info_bits >= oracle_eve_info(sc, gamma, eta, m, gain) - 1e-9, f
