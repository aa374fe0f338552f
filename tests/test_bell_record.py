"""The asymptotic attack's Bell-record closed form against a 60-digit oracle.

The oracle is _pipeline_raw's circuit run in mpmath at 60 digits from the
same float inputs (the rounded tmsv entries, eta, kappa and the channel),
at g = 1e20, where the circuit's distance to g = infinity is far below the
tolerance. It shares no code with the closed form past those inputs: its
own squeezer, splitters, channel map, heterodyne Schur complement and
symplectic spectra. About 0.05 s a point.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import cvqkd_attacks.gaussian
from cvqkd_attacks.attacks import (
    AttackScenario,
    _eve_info_objective,
    _feasible_eta_window,
    _match_kappa,
    _resource_matrix,
    gamma_min,
)
from cvqkd_attacks.channels import GaussChannel
from cvqkd_attacks.cli import main
from cvqkd_attacks.gaussian import _tmsv_entries, symplectic_form, tmsv
from cvqkd_attacks.keyrate import default_gamma_grid
from cvqkd_attacks.teleportation import _is_pure_loss_like

ORACLE_GAIN = 1e20
ORACLE_DPS = 60


def mp_spectrum(sigma):
    """Symplectic eigenvalues, descending, of a positive-definite mpmath
    matrix: with sigma = L L^T, the eigenvalues of the Hermitian
    i L^T Omega L are +/- nu."""
    n = sigma.rows // 2
    chol = mpmath.cholesky(sigma)
    herm = chol.T * mpmath.matrix(symplectic_form(n).tolist()) * chol * 1j
    return sorted((abs(z) for z in mpmath.eighe(herm, eigvals_only=True)), reverse=True)[::2]


def _mp_entropy(sigma):
    total = mpmath.mpf(0)
    for nu in mp_spectrum(sigma):
        if nu > 1:
            hi, lo = (nu + 1) / 2, (nu - 1) / 2
            total += hi * mpmath.log(hi, 2) - lo * mpmath.log(lo, 2)
    return total


def _mp_act(sigma, s, idx):
    full = mpmath.eye(sigma.rows)
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            for r in range(2):
                for q in range(2):
                    full[2 * ia + r, 2 * ib + q] = s[2 * a + r, 2 * b + q]
    return full * sigma * full.T


def _mp_beam_splitter(t):
    st, sr = mpmath.sqrt(t), mpmath.sqrt(1 - t)
    return mpmath.matrix([[st, 0, -sr, 0], [0, st, 0, -sr], [sr, 0, st, 0], [0, sr, 0, st]])


def oracle_state(sc, gamma, eta, kappa, g=ORACLE_GAIN):
    """The all-optical attack's state on (A, B, R1, R2, F1[, F2]) as an
    mpmath matrix; call it inside mpmath.workdps(ORACLE_DPS)."""
    ch = sc.channel
    blocks = [tmsv(sc.zeta).matrix, _resource_matrix(gamma)]
    if _is_pure_loss_like(ch):
        blocks.append(np.eye(2))
    else:
        a, c = _tmsv_entries(kappa)
        blocks.append(np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]]))
    dim = sum(len(b) for b in blocks)
    sigma = mpmath.zeros(dim, dim)
    at = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                sigma[at + i, at + j] = mpmath.mpf(float(b[i, j]))
        at += len(b)
    gain = mpmath.mpf(g)
    sg, sgm = mpmath.sqrt(gain), mpmath.sqrt(gain - 1)
    squeezer = mpmath.matrix(
        [[sg, 0, sgm, 0], [0, sg, 0, -sgm], [sgm, 0, sg, 0], [0, -sgm, 0, sg]]
    )
    sigma = _mp_act(sigma, squeezer, (1, 2))  # (B, R1)
    root = mpmath.sqrt(mpmath.mpf(ch.tau))
    for k in range(dim):
        for q in (2, 3):
            sigma[q, k] *= root
            sigma[k, q] *= root
    sigma[2, 2] += mpmath.mpf(ch.v)
    sigma[3, 3] += mpmath.mpf(ch.v)
    sigma = _mp_act(sigma, _mp_beam_splitter(mpmath.mpf(eta)), (3, 4))  # (R2, F1)
    return _mp_act(sigma, _mp_beam_splitter(1 / gain), (1, 3))  # (B, R2)


def oracle_heterodyne(sigma, mode):
    """sigma conditioned on a heterodyne of one mode, in mpmath."""
    m = 2 * mode
    rest = [k for k in range(sigma.rows) if k not in (m, m + 1)]
    rest_block = mpmath.matrix([[sigma[i, j] for j in rest] for i in rest])
    cross = mpmath.matrix([[sigma[i, j] for j in (m, m + 1)] for i in rest])
    meas = mpmath.matrix([[sigma[i, j] for j in (m, m + 1)] for i in (m, m + 1)])
    return rest_block - cross * (meas + mpmath.eye(2)) ** -1 * cross.T


def oracle_eve_info(sc, gamma, eta, kappa, g=ORACLE_GAIN):
    """S(Eve) - S(Eve | heterodyne on the reconciliation mode) of the
    all-optical attack on (A, B, R1, R2, F1[, F2]), in 60-digit arithmetic."""
    with mpmath.workdps(ORACLE_DPS):
        sigma = oracle_state(sc, gamma, eta, kappa, g)
        cond = oracle_heterodyne(sigma, 1 if sc.reconciliation == "reverse" else 0)
        return float(_mp_entropy(sigma[4:, 4:]) - _mp_entropy(cond[2:, 2:]))


def _scenario(tau, epsilon, reconciliation):
    return AttackScenario(GaussChannel(tau, (1.0 - tau) * epsilon), 0.7, reconciliation)


def _cases():
    """(scenario, gamma, eta, kappa): on thermal loss at four
    transmissivities, the gamma_min row at eta = 1 and two etas inside the
    window at a middle gamma and at 0.9999; on pure loss, the closed-form
    eta of the grid rows that used to fail at g = 1e6 and of gamma_min.
    Both reconciliations throughout."""
    cases = []
    for reconciliation in ("reverse", "direct"):
        for tau in (0.25, 0.7, 0.95, 0.997):
            sc = _scenario(tau, 1.01, reconciliation)
            ch = sc.channel
            g_min = gamma_min(ch)
            cases.append((sc, g_min, 1.0, 0.0))
            for gamma in (1.0 - 0.3 * (1.0 - g_min), 0.9999):
                lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v, max(0.8 * ch.tau, 1e-4))
                for eta in (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)):
                    kappa = float(_match_kappa(gamma, eta, ch.tau, ch.v, math.inf))
                    cases.append((sc, gamma, eta, kappa))
        sc = _scenario(0.25, 1.0, reconciliation)
        grid = default_gamma_grid(sc, 6)
        for gamma in (grid[0], grid[2], grid[-1]):  # grid[2] ~ 0.98343
            cases.append((sc, gamma, min(0.25 / gamma**2, 1.0), 0.0))
    return cases


CASES = _cases()


def test_cases_cover_the_checked_ground():
    assert len(CASES) == 46
    assert all(not math.isnan(k) and 0.0 <= k < 1.0 for _, _, _, k in CASES)
    assert any(abs(gamma - 0.98343) < 1e-5 for sc, gamma, _, _ in CASES if sc.channel.v == 0.75)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_closed_form_matches_the_60_digit_circuit(case):
    sc, gamma, eta, kappa = CASES[case]
    alice, resource = tmsv(sc.zeta).matrix, _resource_matrix(gamma)
    closed = _eve_info_objective(sc, alice, resource, eta, kappa)
    assert abs(closed - oracle_eve_info(sc, gamma, eta, kappa)) <= 1e-11


def test_oracle_has_converged_in_the_gain():
    sc, gamma, eta, kappa = CASES[4]
    assert gamma == 0.9999
    at_1e20 = oracle_eve_info(sc, gamma, eta, kappa)
    assert abs(oracle_eve_info(sc, gamma, eta, kappa, 1e30) - at_1e20) <= 1e-14


@pytest.mark.parametrize("tau", [0.25, 0.7, 0.95, 0.99])
@pytest.mark.parametrize("reconciliation", ["reverse", "direct"])
def test_finite_gains_approach_the_closed_form_from_below(tau, reconciliation):
    sc = _scenario(tau, 1.01, reconciliation)
    ch = sc.channel
    gamma = 1.0 - 0.1 * (1.0 - gamma_min(ch))
    lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v, max(0.8 * ch.tau, 1e-4))
    eta = 0.5 * (lo + hi)
    kappa = float(_match_kappa(gamma, eta, ch.tau, ch.v, math.inf))
    alice, resource = tmsv(sc.zeta).matrix, _resource_matrix(gamma)
    values = [
        _eve_info_objective(dataclasses.replace(sc, gain=g), alice, resource, eta, kappa)
        for g in (1e2, 1e4, math.inf)
    ]
    assert values[0] < values[1] < values[2]


def test_stacked_closed_form_equals_per_point_calls():
    gamma = 0.97
    resource = _resource_matrix(gamma)
    for reconciliation in ("reverse", "direct"):
        for tau, epsilon in ((0.25, 1.01), (0.7, 1.05), (0.25, 1.0)):
            sc = _scenario(tau, epsilon, reconciliation)
            ch = sc.channel
            if _is_pure_loss_like(ch):
                etas = np.linspace(0.2, 0.4, 7)
                kappas = np.zeros_like(etas)
            else:
                lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v, 0.0)
                etas = np.linspace(lo, hi, 23)[1:-1]
                kappas = _match_kappa(gamma, etas, ch.tau, ch.v, math.inf)
            assert not np.isnan(kappas).any()
            alice = tmsv(sc.zeta).matrix
            stacked = _eve_info_objective(sc, alice, resource, etas, kappas)
            assert stacked.shape == etas.shape
            for eta, kappa, value in zip(etas.tolist(), kappas.tolist(), stacked.tolist()):
                assert value == _eve_info_objective(sc, alice, resource, eta, kappa)


class _NoMpmath:
    def __getattr__(self, name):
        raise AssertionError(f"mpmath.{name} reached")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--gamma-count", "6"],
        ["sweep", "--gamma-count", "6", "--reconciliation", "direct"],
        ["sweep", "--gamma-count", "6", "--epsilon", "1.0"],
        ["sweep", "--g-policy", "finite:1e4"],
        ["sweep", "--g-policy", "finite:1e6"],
        ["sweep", "--g-policy", "finite:1e6", "--reconciliation", "direct"],
        ["verify"],
    ],
    ids=["default", "direct", "pure-loss", "finite-1e4", "finite-1e6", "finite-1e6-direct", "verify"],
)
def test_sweep_makes_no_mpmath_call(monkeypatch, tmp_path, capsys, argv):
    # the Bell-record closed form at g = inf, and the attack's states in
    # Eve's local basis at finite gains, run in double precision throughout:
    # objective, validation and conditioning
    monkeypatch.setattr(cvqkd_attacks.gaussian, "mpmath", _NoMpmath())
    if argv[0] == "sweep":
        argv = [*argv, "--output", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
