"""The finite-gain attack against the 60-digit circuit of test_bell_record.

At a finite amplifier gain g the attack runs the amplified circuit in double
precision, with Eve's amplified pair in the local basis (P, Q) of
teleportation._eve_local_map and her tap's modes in the local basis of
teleportation._tapped_auxiliary. The oracle runs the same circuit from the
same float inputs in mpmath, in the raw (R1, R2) basis, with the exact
auxiliary tmsv of the tap's noise m, which a symplectic on Eve's modes does
not change the entropies or the spectra of. Each point names its auxiliary
by the noise m that the objective, the public ao_attack_state and the
oracle all take, so that every route sees the same input. Each point's
oracle state is built once and serves both reconciliations.
"""

import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from test_bell_record import (
    ORACLE_DPS,
    _mp_entropy,
    _scenario,
    mp_spectrum,
    oracle_heterodyne,
    oracle_state,
)

from cvqkd_attacks.attacks import (
    _eve_info_objective,
    _feasible_eta_window,
    _match_noise,
    _resource_matrix,
    ao_attack_state,
    eve_info,
    gamma_min,
)
from cvqkd_attacks.gaussian import condition_heterodyne, symplectic_eigenvalues, tmsv

GAINS = (1.01, 1e2, 1e4, 1e6, 1e8)


def _mid_window(tau, gamma):
    sc = _scenario(tau, 1.01, "reverse")
    lo, hi = _feasible_eta_window(gamma, sc.channel.tau, sc.channel.v)
    eta = 0.5 * (lo + hi)
    return (tau, 1.01, gamma, eta, float(_match_noise(gamma, eta, tau, sc.channel.v, math.inf)))


# (tau, epsilon, gamma, eta, m): on the default thermal-loss channel the
# gamma_min row (eta = 1) and the middle of the window at gamma = 0.9999; a
# high-transmissivity channel mid-window; on pure loss the closed-form eta of
# a middle row that used to fail validation at g = 1e6 and of gamma = 0.9999
POINTS = (
    (0.25, 1.01, gamma_min(_scenario(0.25, 1.01, "reverse").channel), 1.0, 0.0),
    _mid_window(0.25, 0.9999),
    _mid_window(0.95, 1.0 - 0.3 * (1.0 - gamma_min(_scenario(0.95, 1.01, "reverse").channel))),
    (0.25, 1.0, 0.98343, 0.25 / 0.98343**2, 1.0 - 0.25 / 0.98343**2),
    (0.25, 1.0, 0.9999, 0.25 / 0.9999**2, 1.0 - 0.25 / 0.9999**2),
)
RECONCILIATIONS = {"reverse": "B", "direct": "A"}


@functools.lru_cache(maxsize=None)
def _oracle_states(point, g):
    """The 60-digit attack state at a point and gain, and the states
    conditioned on a heterodyne of B and of A."""
    tau, epsilon, gamma, eta, m = POINTS[point]
    with mpmath.workdps(ORACLE_DPS):
        sigma = oracle_state(_scenario(tau, epsilon, "reverse"), gamma, eta, m, g)
        return sigma, {label: oracle_heterodyne(sigma, "AB".index(label)) for label in "AB"}


@functools.lru_cache(maxsize=None)
def _oracle_info(point, g):
    """Eve's information for each reconciliation."""
    sigma, cond = _oracle_states(point, g)
    with mpmath.workdps(ORACLE_DPS):
        s_eve = _mp_entropy(sigma[4:, 4:])
        return {
            reconciliation: float(s_eve - _mp_entropy(cond[label][2:, 2:]))
            for reconciliation, label in RECONCILIATIONS.items()
        }


def _errors(point, g):
    """|objective - oracle| for the optimizer's objective and for the
    validated eve_info, over both reconciliations."""
    tau, epsilon, gamma, eta, m = POINTS[point]
    info = _oracle_info(point, g)
    worst = {"objective": 0.0, "validated": 0.0}
    for reconciliation in RECONCILIATIONS:
        sc = dataclasses.replace(_scenario(tau, epsilon, reconciliation), gain=g)
        alice, resource = tmsv(sc.zeta)._blocks, _resource_matrix(gamma)
        truth = info[reconciliation]
        value = _eve_info_objective(sc, alice, resource, eta, m)
        worst["objective"] = max(worst["objective"], abs(value - truth))
        validated = eve_info(ao_attack_state(sc, gamma, eta, m), sc)
        worst["validated"] = max(worst["validated"], abs(validated - truth))
    return worst


def test_points_cover_the_checked_ground():
    assert POINTS[0][3] == 1.0 and POINTS[0][2] < 0.45
    assert all(m >= 1.0 - eta and 0.0 < eta <= 1.0 for *_, eta, m in POINTS)
    assert sum(point[1] == 1.0 for point in POINTS) == 2


@pytest.mark.parametrize("g", GAINS[1:])
@pytest.mark.parametrize("point", range(len(POINTS)))
def test_finite_gain_information_matches_the_60_digit_circuit(point, g):
    worst = _errors(point, g)
    assert max(worst.values()) <= 1e-10, worst


# the worst error of the objective and of the validated eve_info at
# g = 1.01 on POINTS, both reconciliations, of the circuit this one replaced:
# the raw (R1, R2) output formed in double precision (8.82e-9 bits)
RAW_BASIS_WORST_AT_1_01 = 8.83e-9


def test_lowest_gain_is_no_worse_than_the_raw_basis():
    worst = [_errors(point, GAINS[0]) for point in range(len(POINTS))]
    for kind in ("objective", "validated"):
        assert max(w[kind] for w in worst) <= RAW_BASIS_WORST_AT_1_01, kind


# Cholesky reads the near-unity nu of a stored matrix to a relative few
# eps * cond of the equilibrated matrix, about 9e5 at gamma = 0.9999 here:
# up to 5e-12 off, below _HP_SCALE as above it
NU_MIN_TOL = 1e-11


@pytest.mark.parametrize("g", [1e4, 1e8])
@pytest.mark.parametrize("point", range(len(POINTS)))
def test_attack_and_conditioned_states_read_the_oracle_nu_min(point, g):
    tau, epsilon, gamma, eta, m = POINTS[point]
    sigma, cond = _oracle_states(point, g)
    sc = dataclasses.replace(_scenario(tau, epsilon, "reverse"), gain=g)
    state = ao_attack_state(sc, gamma, eta, m)
    with mpmath.workdps(ORACLE_DPS):
        assert abs(symplectic_eigenvalues(state).min() - min(mp_spectrum(sigma))) <= NU_MIN_TOL
        for label in "AB":
            nu_min = symplectic_eigenvalues(condition_heterodyne(state, label)).min()
            assert abs(nu_min - min(mp_spectrum(cond[label]))) <= NU_MIN_TOL, label


def test_stacked_finite_gain_objective_equals_per_point_calls():
    sc = dataclasses.replace(_scenario(0.25, 1.01, "reverse"), gain=1e6)
    ch = sc.channel
    gamma = 0.9999
    lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v)
    etas = np.linspace(lo, hi, 9)[1:-1]
    noises = _match_noise(gamma, etas, ch.tau, ch.v, sc.gain)
    alice, resource = tmsv(sc.zeta)._blocks, _resource_matrix(gamma)
    stacked = _eve_info_objective(sc, alice, resource, etas, noises)
    for eta, m, value in zip(etas.tolist(), noises.tolist(), stacked.tolist()):
        assert value == _eve_info_objective(sc, alice, resource, eta, m)
