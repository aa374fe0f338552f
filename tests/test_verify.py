"""The verification suite's anchor rows: one optimizer stack per pass, each
row what the optimizer gives it alone."""

import math
from dataclasses import astuple, fields

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

    def failing(sc, alice, resource, eta, kappa):
        if (resource[0, ..., 0, 0] == marker).any():
            raise ValueError("row failed")
        return real(sc, alice, resource, eta, kappa)

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
