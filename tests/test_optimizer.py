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

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cvqkd_attacks.attacks
from cvqkd_attacks.attacks import (
    _SCAN_PASSES,
    AttackScenario,
    RowError,
    _eve_info_objective,
    _feasible_eta_window,
    _match_kappa,
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
from cvqkd_attacks.gaussian import tmsv
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
    kappas = _match_kappa(gamma, etas, ch.tau, ch.v, sc.gain)
    hits = ~np.isnan(kappas)
    alice = tmsv(sc.zeta, ("A", "B")).matrix
    resource = _resource_matrix(gamma, validate=math.isfinite(sc.gain))
    values = _eve_info_objective(
        sc, alice, resource, etas[hits], kappas[hits], sc.gain, exact=True
    )
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


@pytest.mark.parametrize(
    "g_policy,exact_total",
    [("asymptotic", 37), ("finite:1e6", 36)],
)
def test_rows_stay_within_their_evaluation_budget(monkeypatch, g_policy, exact_total):
    # at most 64 scan points a row (three 17-point passes: 51) and 4 exact
    # evaluations a row, against 201 and about 7; the totals are the ones a
    # row-by-row grid search with a two-step polish made on these sweeps
    counts = {"scan": 0, "exact": 0}

    def counted(sc, alice, resource, eta, kappa, g, exact):
        counts["exact" if exact else "scan"] += np.size(eta)
        return _eve_info_objective(sc, alice, resource, eta, kappa, g, exact)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_eve_info_objective", counted)
    sc, cfg = _config(g_policy=g_policy)
    exact_seen = 0
    for gamma in _grid(sc, cfg, 6):
        counts.update(scan=0, exact=0)
        assert optimize_attack(sc, gamma).feasible
        assert counts["scan"] <= 64, (gamma, counts)
        assert 1 <= counts["exact"] <= 4, (gamma, counts)
        exact_seen += counts["exact"]
    assert exact_seen <= exact_total


def _rows(results):
    return [repr(dataclasses.astuple(r)) for r in results]


@pytest.mark.parametrize(
    "fields,count",
    [
        (dict(), 11),
        (dict(epsilon=1.0), 6),
        (dict(reconciliation="direct"), 11),
        (dict(g_policy="finite:100", gamma_hi=0.99), 11),
        # the exact stack escalates to mpmath per matrix at this gain
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
    # is alone, and at finite gain what the state-level API computes
    channel = GaussChannel(tau, (1.0 - tau) * epsilon)
    assume(not is_entanglement_breaking(channel))
    sc = AttackScenario(channel, zeta, reconciliation, gain)
    grid = default_gamma_grid(sc, 3)
    try:
        stacked = optimize_attacks(sc, grid)
    except RowError as exc:
        # a row can fail at high gain (ROADMAP defects 2 and 3): it must fail
        # alone with the same message, and the rows before it must pass
        with pytest.raises(ValueError) as alone:
            optimize_attack(sc, exc.gamma)
        assert str(alone.value) == str(exc)
        grid = grid[: grid.index(exc.gamma)]
        stacked = optimize_attacks(sc, grid)
    assert _rows(stacked) == _rows(optimize_attack(sc, gamma) for gamma in grid)
    for gamma, row in zip(grid, stacked):
        if row.feasible and math.isfinite(gain):
            state = ao_attack_state(sc, gamma, row.eta_star, row.kappa_star)
            assert row.eve_info_bits == eve_info(state, sc)
            assert row.residual == simulation_residual(sc, gamma, row.eta_star, row.kappa_star)


@pytest.mark.parametrize(
    "fields,count",
    [(dict(), 6), (dict(g_policy="finite:100", gamma_hi=0.99), 11)],
    ids=["asymptotic", "finite-100"],
)
def test_sweep_batches_its_objective_calls(monkeypatch, fields, count):
    # one stacked call per scan pass and at most two exact calls (the refit
    # points, then the parabola vertices) for the whole sweep, while each
    # row evaluates the same points it would alone
    calls = []

    def counted(sc, alice, resource, eta, kappa, g, exact):
        calls.append((exact, np.size(eta)))
        return _eve_info_objective(sc, alice, resource, eta, kappa, g, exact)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_eve_info_objective", counted)
    sc, cfg = _config(**fields)
    grid = _grid(sc, cfg, count)
    sweep(sc, cfg.beta, grid)
    scan = [n for exact, n in calls if not exact]
    exact = [n for exact, n in calls if exact]
    assert len(scan) == _SCAN_PASSES
    assert 1 <= len(exact) <= 2
    calls.clear()
    for gamma in grid:
        optimize_attack(sc, gamma)
    assert sum(scan) == sum(n for exact, n in calls if not exact)
    assert sum(exact) == sum(n for exact, n in calls if exact)


def test_first_failing_row_in_grid_order_is_reported():
    sc, _ = _config(g_policy="finite:1e30")
    # the g = 1e30 row fails its Holevo check (double precision breaks down
    # that far beyond the paper's gains) before the out-of-range row after
    # it is reached
    with pytest.raises(RowError, match="Eve's information") as info:
        optimize_attacks(sc, (0.9999, 1.5))
    assert info.value.gamma == 0.9999
    sc, _ = _config()
    with pytest.raises(RowError, match=r"must lie in \[0, 1\), got 1.5") as info:
        optimize_attacks(sc, (0.5, 0.9, 1.5, 0.7))
    assert info.value.gamma == 1.5
    with pytest.raises(ValueError, match=r"^resource squeezing must lie in \[0, 1\), got -0.1$"):
        optimize_attack(sc, -0.1)


def test_failed_stacked_call_fails_its_first_row(monkeypatch):
    # the vertex call carries only the rows whose parabola vertex counts;
    # when it raises, its first row fails and every earlier row is finished
    sc, cfg = _config()
    grid = _grid(sc, cfg, 6)
    resources = [_resource_matrix(gamma, validate=False)[0, 0] for gamma in grid]
    exact_calls = []

    def failing(sc, alice, resource, eta, kappa, g, exact):
        if exact:
            exact_calls.append(resource[..., 0, 0].reshape(-1)[0])
            if len(exact_calls) == 2:
                raise ValueError("stack failed")
        return _eve_info_objective(sc, alice, resource, eta, kappa, g, exact)

    validated = []
    real_validated = cvqkd_attacks.attacks._validated_rows

    def counted(sc, alice, resources, gammas, *rest):
        validated.extend(gammas)
        return real_validated(sc, alice, resources, gammas, *rest)

    monkeypatch.setattr(cvqkd_attacks.attacks, "_eve_info_objective", failing)
    monkeypatch.setattr(cvqkd_attacks.attacks, "_validated_rows", counted)
    with pytest.raises(ValueError, match=r"^row gamma = .*: stack failed$") as info:
        sweep(sc, cfg.beta, grid)
    row = resources.index(exact_calls[1])
    assert row > 0
    assert isinstance(info.value.__cause__, RowError)
    assert info.value.__cause__.gamma == grid[row]
    assert validated == list(grid[:row])
