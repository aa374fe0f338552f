"""The verification suite's anchor rows: one optimizer stack per pass, each
row what the optimizer gives it alone."""

import math
from dataclasses import astuple, fields

import numpy as np
import pytest

import cvqkd_attacks.attacks as attacks
from cvqkd_attacks import gaussian, verify
from cvqkd_attacks.attacks import AttackResult, RowError, gamma_min, optimize_attack


@pytest.fixture
def cold_anchor_rows():
    verify._anchor_rows.cache_clear()
    yield
    verify._anchor_rows.cache_clear()


@pytest.fixture
def stacks(monkeypatch):
    """The gammas of every call to attacks._stacked_rows, in call order."""
    calls = []
    real = attacks._stacked_rows

    def counted(sc, gammas):
        calls.append(gammas)
        return real(sc, gammas)

    monkeypatch.setattr(attacks, "_stacked_rows", counted)
    return calls


def test_run_all_makes_its_anchor_rows_in_one_stack(cold_anchor_rows, stacks):
    assert all(result.passed for result in verify.run_all())
    sc = verify._scenario()
    assert stacks == [(gamma_min(sc.channel), 0.9999, 0.5, 0.7, 0.9)]
    rows = verify._anchor_rows()
    for gamma in stacks[0]:
        stacked, alone = rows[gamma], optimize_attack(sc, gamma)
        for field, a, b in zip(fields(AttackResult), astuple(stacked), astuple(alone)):
            assert a == b or (math.isnan(a) and math.isnan(b)), (gamma, field.name)


def test_failing_anchor_row_raises_its_own_row_error(cold_anchor_rows, stacks, monkeypatch):
    # the objective fails only on calls that carry the 0.7 row's points; the
    # stack fails, and the rows rerun alone in order up to the failing one
    marker = attacks._resource_matrix(0.7)[0, 0, 0]
    real = attacks._eve_info_objective

    def failing(sc, alice, resource, eta, m):
        if (resource[0, ..., 0, 0] == marker).any():
            raise ValueError("row failed")
        return real(sc, alice, resource, eta, m)

    monkeypatch.setattr(attacks, "_eve_info_objective", failing)
    with pytest.raises(RowError, match="^row failed$") as info:
        verify.run_all()
    assert info.value.gamma == 0.7
    assert [len(gammas) for gammas in stacks] == [5, 1, 1, 1, 1]
    assert [gammas[0] for gammas in stacks[1:]] == list(stacks[0][:4])


def test_run_all_stays_within_its_validation_budget(cold_anchor_rows, monkeypatch):
    # tmsv, thermal, direct_sum and ResourceState certify by their exact
    # spectra, and the raw pipelines form their optics without validated
    # intermediates, so only states formed by arithmetic reach the
    # numerical check
    calls = []
    real = gaussian._check_physical

    def counted(mats):
        calls.append(mats.shape)
        return real(mats)

    monkeypatch.setattr(gaussian, "_check_physical", counted)
    monkeypatch.setattr(attacks, "_check_physical", counted)
    assert all(result.passed for result in verify.run_all())
    assert len(calls) <= 160, len(calls)


def test_physicality_battery_fails_when_the_audit_counted_nothing(monkeypatch):
    # an empty audit reads min_nu = inf, and 1 - inf would pass: a battery
    # that checked no state must fail
    (battery,) = [check for check in verify.CHECKS if check.name == "physicality-battery"]
    assert verify.run_all((battery,))[0].passed
    monkeypatch.setattr(verify, "physicality_audit", lambda: (math.inf, 0))
    (result,) = verify.run_all((battery,))
    assert result.measured == math.inf and not result.passed


def _redraw(seed, trials, bounds):
    """Draw `trials` tuples from default_rng(seed), one uniform draw per
    bound in order; a bound is (low, high), or a function of the row drawn
    so far that gives them."""
    rng = np.random.default_rng(seed)
    table = []
    for _ in range(trials):
        row = ()
        for bound in bounds:
            row += (rng.uniform(*(bound(row) if callable(bound) else bound)),)
        table.append(row)
    return tuple(table)


@pytest.mark.parametrize(
    "name, seed, trials, bounds",
    [
        ("_BK_AO_DRAWS", 20250816, 10, [(0.2, 0.95), (0.3, 0.95), (1.0, 1.2), (0.1, 1.0)]),
        (
            "_AO_PIPELINE_DRAWS",
            815001,
            20,
            # gamma, g, tau, eps, and lam on the dependent bound min(1.0, g * tau)
            [
                (0.1, 0.9),
                (2.0, 50.0),
                (0.3, 0.95),
                (1.0, 1.2),
                lambda row: (0.1, min(1.0, row[1] * row[2])),
            ],
        ),
        ("_CLONER_DRAWS", 815002, 10, [(0.1, 0.9), (1.0, 1.2), (0.2, 0.9)]),
        ("_DILATION_DRAWS", 815003, 20, [(0.05, 0.95), (1.0, 3.0)]),
    ],
)
def test_frozen_draws_are_the_generators_draws(name, seed, trials, bounds):
    # the tables are the sampled checks' inputs, drawn once with numpy 2.4.6;
    # a numpy whose stream differs fails here, and the tables stay as drawn
    frozen = getattr(verify, name)
    assert all(type(x) is float for row in frozen for x in row)
    assert frozen == _redraw(seed, trials, bounds), (
        f"{name} differs from default_rng({seed}) under numpy {np.__version__}; "
        "the table was drawn with numpy 2.4.6 and stays the checks' input"
    )
