"""The asymptotic attack's Bell-record closed form against a 60-digit oracle.

The oracle is the attack's circuit run in mpmath at 60 digits from the
same float inputs (the rounded tmsv entries of the source and the
resource, eta, the auxiliary noise m and the channel), at g = 1e20, where
the circuit's distance to g = infinity is far below the tolerance. Its
auxiliary is the exact tmsv(kappa) with kappa^2 = (m - d)/(m + d),
d = 1 - eta, built at 60 digits, mixed into R2 by a splitter: the textbook
tap, not the program's map. It shares no code with the closed form past
those inputs: its own auxiliary, squeezer, splitters, channel map,
heterodyne Schur complement and symplectic spectra. About 0.05 s a point.
"""

import dataclasses
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import cvqkd_attacks
from cvqkd_attacks.attacks import (
    AttackScenario,
    _eve_info_objective,
    _feasible_eta_window,
    _is_pure_loss_like,
    _match_noise,
    _resource_matrix,
    gamma_min,
)
from cvqkd_attacks.channels import GaussChannel
from cvqkd_attacks.gaussian import _interleaved, tmsv
from cvqkd_attacks.keyrate import default_gamma_grid
from conftest import symplectic_form

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


def _mp_auxiliary(eta, m):
    """The auxiliary tmsv(kappa) on (F1, F2) whose noise through a tap at
    eta is m, d a = m with d = 1 - eta: a = m / d and c = sqrt(a^2 - 1),
    from kappa^2 = (m - d)/(m + d) exactly; vacuum where m is the rounded
    1 - eta, the program's vacuum auxiliary."""
    if m == 1.0 - eta:
        return mpmath.eye(4)
    d, m = 1 - mpmath.mpf(eta), mpmath.mpf(m)
    a, c = m / d, mpmath.sqrt((m - d) * (m + d)) / d
    return mpmath.matrix([[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]])


def oracle_state(sc, gamma, eta, m, g=ORACLE_GAIN):
    """The all-optical attack's state on (A, B, R1, R2, F1, F2) as an
    mpmath matrix, with Eve's tap at eta adding the auxiliary noise m; call
    it inside mpmath.workdps(ORACLE_DPS)."""
    ch = sc.channel
    dim = 12
    sigma = mpmath.zeros(dim, dim)
    for at, b in ((0, tmsv(sc.zeta).matrix), (4, _interleaved(_resource_matrix(gamma)))):
        for i in range(4):
            for j in range(4):
                sigma[at + i, at + j] = mpmath.mpf(float(b[i, j]))
    aux = _mp_auxiliary(eta, m)
    for i in range(4):
        for j in range(4):
            sigma[8 + i, 8 + j] = aux[i, j]
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


def oracle_eve_info(sc, gamma, eta, m, g=ORACLE_GAIN):
    """S(Eve) - S(Eve | heterodyne on the reconciliation mode) of the
    all-optical attack on (A, B, R1, R2, F1, F2), in 60-digit arithmetic."""
    with mpmath.workdps(ORACLE_DPS):
        sigma = oracle_state(sc, gamma, eta, m, g)
        cond = oracle_heterodyne(sigma, 1 if sc.reconciliation == "reverse" else 0)
        return float(_mp_entropy(sigma[4:, 4:]) - _mp_entropy(cond[2:, 2:]))


def _scenario(tau, epsilon, reconciliation):
    return AttackScenario(GaussChannel(tau, (1.0 - tau) * epsilon), 0.7, reconciliation)


def _cases():
    """(scenario, gamma, eta, m): on thermal loss at four
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
                lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v)
                for eta in (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)):
                    m = float(_match_noise(gamma, eta, ch.tau, ch.v, math.inf))
                    cases.append((sc, gamma, eta, m))
        sc = _scenario(0.25, 1.0, reconciliation)
        grid = default_gamma_grid(sc, 6)
        for gamma in (grid[0], grid[2], grid[-1]):  # grid[2] ~ 0.98343
            eta = min(0.25 / gamma**2, 1.0)
            cases.append((sc, gamma, eta, 1.0 - eta))
    return cases


CASES = _cases()


def test_cases_cover_the_checked_ground():
    assert len(CASES) == 46
    assert all(m >= 1.0 - eta for _, _, eta, m in CASES)
    assert any(abs(gamma - 0.98343) < 1e-5 for sc, gamma, _, _ in CASES if sc.channel.v == 0.75)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_closed_form_matches_the_60_digit_circuit(case):
    sc, gamma, eta, m = CASES[case]
    alice, resource = tmsv(sc.zeta)._blocks, _resource_matrix(gamma)
    closed = _eve_info_objective(sc, alice, resource, eta, m)
    assert abs(closed - oracle_eve_info(sc, gamma, eta, m)) <= 1e-11


def test_oracle_has_converged_in_the_gain():
    sc, gamma, eta, m = CASES[4]
    assert gamma == 0.9999
    at_1e20 = oracle_eve_info(sc, gamma, eta, m)
    assert abs(oracle_eve_info(sc, gamma, eta, m, 1e30) - at_1e20) <= 1e-14


@pytest.mark.parametrize("tau", [0.25, 0.7, 0.95, 0.99])
@pytest.mark.parametrize("reconciliation", ["reverse", "direct"])
def test_finite_gains_approach_the_closed_form_from_below(tau, reconciliation):
    sc = _scenario(tau, 1.01, reconciliation)
    ch = sc.channel
    gamma = 1.0 - 0.1 * (1.0 - gamma_min(ch))
    lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v)
    eta = 0.5 * (lo + hi)
    m = float(_match_noise(gamma, eta, ch.tau, ch.v, math.inf))
    alice, resource = tmsv(sc.zeta)._blocks, _resource_matrix(gamma)
    values = [
        _eve_info_objective(dataclasses.replace(sc, gain=g), alice, resource, eta, m)
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
                noises = 1.0 - etas
            else:
                lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v)
                etas = np.linspace(lo, hi, 23)[1:-1]
                noises = _match_noise(gamma, etas, ch.tau, ch.v, math.inf)
            assert not np.isnan(noises).any()
            alice = tmsv(sc.zeta)._blocks
            stacked = _eve_info_objective(sc, alice, resource, etas, noises)
            assert stacked.shape == etas.shape
            for eta, m, value in zip(etas.tolist(), noises.tolist(), stacked.tolist()):
                assert value == _eve_info_objective(sc, alice, resource, eta, m)


# runs one CLI command in a fresh interpreter, then reports its exit code
# and whether anything imported mpmath or numpy.random along the way
_NO_MPMATH_SCRIPT = """
import sys
from cvqkd_attacks.cli import main
code = main(sys.argv[1:])
print(code, "mpmath" in sys.modules, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--gamma-count", "6"],
        ["sweep", "--gamma-count", "6", "--reconciliation", "direct"],
        ["sweep", "--gamma-count", "6", "--epsilon", "1.0"],
        ["sweep", "--g-policy", "finite:1e4"],
        ["sweep", "--g-policy", "finite:1e6"],
        ["sweep", "--g-policy", "finite:1e6", "--reconciliation", "direct"],
        ["sweep", "--g-policy", "finite:1e30", "--gamma-count", "6"],
        ["verify"],
    ],
    ids=[
        "default",
        "direct",
        "pure-loss",
        "finite-1e4",
        "finite-1e6",
        "finite-1e6-direct",
        "finite-1e30",
        "verify",
    ],
)
def test_sweep_makes_no_mpmath_call(tmp_path, argv):
    # the Bell-record closed form at g = inf, and the attack's states in
    # Eve's local basis at finite gains, run in double precision throughout:
    # objective, validation and conditioning, so mpmath is never imported;
    # verify reads its sampled inputs from frozen tables, so no command
    # imports numpy.random either
    if argv[0] == "sweep":
        argv = [*argv, "--output", str(tmp_path / "t.csv")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvqkd_attacks.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_MPMATH_SCRIPT, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.stderr == ""
    assert done.stdout.splitlines()[-1] == "0 False False"
