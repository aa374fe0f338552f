"""Attack evaluation: resource thresholds, cloner, teleportation optimizer."""

import dataclasses
import math

import numpy as np
import pytest

from cvqkd_attacks.attacks import (
    AttackResult,
    AttackScenario,
    _channel_residual,
    _eve_info_objective,
    _feasible_eta_window,
    _match_kappa,
    _resource_matrix,
    ao_attack_state,
    cloner_attack,
    entanglement_lower_bound,
    entropy_of_entanglement,
    eve_info,
    gamma_min,
    holevo_bound,
    optimize_attack,
    simulation_residual,
)
from cvqkd_attacks.channels import GaussChannel
from cvqkd_attacks.gaussian import (
    CovMat,
    _channel_on_mode,
    partial_trace,
    tmsv,
    von_neumann_entropy,
)
from cvqkd_attacks.teleportation import (
    ResourceState,
    TeleportConfig,
    _bell_record_raw,
    ao_effective_channel,
)

THERMAL = GaussChannel(0.25, 0.7575)
PURE = GaussChannel(0.25, 0.75)


def scenario(ch=THERMAL, **kw):
    return AttackScenario(ch, zeta=0.7, **kw)


def test_scenario_validation():
    with pytest.raises(ValueError, match="source squeezing"):
        AttackScenario(THERMAL, zeta=1.0)
    with pytest.raises(ValueError, match="reconciliation"):
        AttackScenario(THERMAL, zeta=0.7, reconciliation="sideways")
    with pytest.raises(ValueError, match="gain"):
        AttackScenario(THERMAL, zeta=0.7, gain=0.5)
    with pytest.raises(ValueError, match="gain"):
        AttackScenario(THERMAL, zeta=0.7, gain=-math.inf)
    with pytest.raises(ValueError, match="entanglement-breaking"):
        AttackScenario(GaussChannel(0.25, 1.3), zeta=0.7)


def test_scenario_resolution():
    sc = scenario()
    assert math.isinf(sc.gain)
    # the default runs at g = infinity: the Bell-record objective at the
    # optimum reproduces the row, and a finite gain sees less
    res = optimize_attack(sc, 0.9)
    alice, resource = tmsv(sc.zeta).matrix, _resource_matrix(0.9)
    at_inf = _eve_info_objective(sc, alice, resource, res.eta_star, res.kappa_star)
    assert abs(at_inf - res.eve_info_bits) <= 1e-13
    at_1e4 = _eve_info_objective(
        dataclasses.replace(sc, gain=1e4), alice, resource, res.eta_star, res.kappa_star
    )
    assert res.eve_info_bits - 1e-3 < at_1e4 < res.eve_info_bits
    assert sc.conditioned_label == "B"
    assert scenario(reconciliation="direct").conditioned_label == "A"


def test_attack_result_guards_information_range():
    with pytest.raises(ValueError, match="outside"):
        AttackResult(0.5, 1.0, 0.5, 0.0, 2.0, 1.0, 0.0, True)


def _bk_noise(gamma: float, tau: float) -> float:
    a = (1.0 + gamma * gamma) / (1.0 - gamma * gamma)
    c = 2.0 * gamma / (1.0 - gamma * gamma)
    return a * tau - 2.0 * c * math.sqrt(tau) + a


@pytest.mark.parametrize("tau,v", [(0.25, 0.7575), (0.5, 0.55), (0.8, 0.25)])
def test_gamma_min_against_bisection_oracle(tau, v):
    # independent oracle: the teleported noise a*tau - 2c*sqrt(tau) + a falls
    # from 1+tau at gamma=0 to its minimum 1-tau at gamma=sqrt(tau); bisect
    # the crossing with v on that branch
    lo, hi = 0.0, math.sqrt(tau)
    assert _bk_noise(lo, tau) > v > _bk_noise(hi, tau) - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _bk_noise(mid, tau) > v:
            lo = mid
        else:
            hi = mid
    assert abs(gamma_min(GaussChannel(tau, v)) - 0.5 * (lo + hi)) <= 1e-10


@pytest.mark.parametrize("tau", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_gamma_min_pure_loss_closed_form(tau):
    assert abs(gamma_min(GaussChannel(tau, 1.0 - tau)) - math.sqrt(tau)) <= 1e-12


def test_gamma_min_degenerate_channels():
    assert gamma_min(GaussChannel(0.25, 1.25)) == 0.0
    assert gamma_min(GaussChannel(0.25, 2.0)) == 0.0
    assert gamma_min(GaussChannel(1.0, 0.0)) == 1.0


def test_entanglement_entropy_anchor():
    assert abs(entropy_of_entanglement(0.5) - 1.081704) <= 1e-5


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_entanglement_entropy_matches_reduced_state(gamma):
    # the closed form must agree with tracing one arm and taking the entropy
    reduced = partial_trace(tmsv(gamma, ("A", "B")), ("A",))
    assert abs(entropy_of_entanglement(gamma) - von_neumann_entropy(reduced)) <= 1e-10


def test_entanglement_entropy_edges():
    assert entropy_of_entanglement(0.0) == 0.0
    assert entropy_of_entanglement(1.0) == math.inf
    assert entropy_of_entanglement(1.5) == math.inf
    with pytest.raises(ValueError, match=">= 0"):
        entropy_of_entanglement(-0.1)


def test_entanglement_lower_bound_composes():
    ch = GaussChannel(0.5, 0.55)
    assert entanglement_lower_bound(ch) == entropy_of_entanglement(gamma_min(ch))


def test_eve_info_needs_alice_and_bob():
    sc = scenario()
    with pytest.raises(ValueError, match="labels A, B"):
        eve_info(tmsv(0.5, ("A", "B")), sc)
    with pytest.raises(ValueError, match="labels A, B"):
        eve_info(tmsv(0.5, ("E1", "E2")), sc)


def test_cloner_on_identity_channel_learns_nothing():
    res = cloner_attack(scenario(GaussChannel(1.0, 0.0)))
    assert res.gamma == 0.0
    assert abs(res.eve_info_bits) <= 1e-9
    assert abs(res.holevo_bits) <= 1e-9


def test_cloner_thermal_loss():
    res = cloner_attack(scenario())
    # Eve's pair variance reproduces the excess noise: gamma solves
    # (1+g^2)/(1-g^2) = eps, i.e. gamma = sqrt((eps-1)/(eps+1))
    assert math.isclose(res.gamma, math.sqrt(0.01 / 2.01), rel_tol=1e-9)
    assert abs(res.eve_info_bits - res.holevo_bits) <= 1e-9
    assert res.residual <= 1e-12
    assert math.isnan(res.eta_star) and math.isnan(res.kappa_star)
    assert res.feasible


def test_cloner_rejects_amplifiers():
    with pytest.raises(ValueError, match="loss channels"):
        cloner_attack(scenario(GaussChannel(1.5, 0.6)))


def test_attack_state_mode_inventory():
    sc = scenario(gain=1.0e3)
    st = ao_attack_state(sc, 0.6, 0.5, 0.05)
    assert st.labels == ("A", "B", "P", "Q", "F1", "F2")
    st_pl = ao_attack_state(scenario(PURE, gain=1.0e3), 0.6, 0.5, 0.0)
    assert st_pl.labels == ("A", "B", "P", "Q", "F1")


def test_attack_state_domain():
    sc = scenario(gain=1e3)
    with pytest.raises(ValueError, match="resource squeezing"):
        ao_attack_state(sc, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="mixing transmissivity"):
        ao_attack_state(sc, 0.6, 1.2, 0.0)
    with pytest.raises(ValueError, match="auxiliary squeezing"):
        ao_attack_state(sc, 0.6, 0.5, -0.1)
    with pytest.raises(ValueError, match="finite"):
        ao_attack_state(scenario(), 0.6, 0.5, 0.0)
    with pytest.raises(ValueError, match="pins the auxiliary"):
        ao_attack_state(scenario(PURE, gain=1e3), 0.6, 0.5, 0.3)


def test_feasible_window_brackets_the_matchable_etas():
    tau, v = THERMAL.tau, THERMAL.v
    window = _feasible_eta_window(0.6, tau, v, 0.0)
    assert window is not None
    lo, hi = window
    assert 0.0 <= lo < hi <= 1.0
    g = 1.0e3
    mid = 0.5 * (lo + hi)
    kappa = _match_kappa(0.6, mid, tau, v, g)
    assert 0.0 <= kappa < 1.0
    # the attack's state itself presents the target channel
    assert simulation_residual(scenario(gain=g), 0.6, mid, kappa) <= 1e-10
    # outside the window the vacuum auxiliary already overshoots the noise
    if lo > 0.01:
        assert math.isnan(_match_kappa(0.6, lo - 0.01, tau, v, g))
    if hi < 0.99:
        assert math.isnan(_match_kappa(0.6, hi + 0.01, tau, v, g))


def _bisected_kappa(gamma, eta, tau, v, g):
    """Reference root-find: bisect the attack's added noise at lam = tau,
    written out term by term, against v. Returns (kappa, excess at
    kappa = 0); kappa is None when no kappa in [0, 1) matches, and a vacuum
    auxiliary within 1e-12 a of v counts as matched."""
    g2 = gamma * gamma
    a = (1.0 + g2) / (1.0 - g2)
    c = 2.0 * gamma / (1.0 - g2)

    def excess(kappa):
        k2 = kappa * kappa
        b_eff = eta * a + (1.0 - eta) * (1.0 + k2) / (1.0 - k2)
        c_eff = math.sqrt(eta) * c
        v_eff = (
            a * tau
            - 2.0 * c_eff * math.sqrt(tau) * (g - 1.0) / g
            - (a * tau + b_eff - v) / g
            + b_eff
        )
        return v_eff - v

    f0 = excess(0.0)
    if abs(f0) <= 1e-12 * a:
        return 0.0, f0
    if f0 > 0.0:
        return None, f0
    lo, hi = 0.0, 0.5
    while excess(hi) < 0.0:
        lo, hi = hi, 0.5 * (hi + 1.0)
        if 1.0 - hi < 1e-13:
            return None, f0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = excess(mid)
        if abs(fm) <= 1e-12:
            return mid, f0
        lo, hi = (mid, hi) if fm < 0.0 else (lo, mid)
    return 0.5 * (lo + hi), f0


def _match_cases(count, seed):
    """Seeded (gamma, etas, channel, g): thermal-loss channels, resources
    from gamma_min to 0.9999, gains 1.3 to 1e6, and etas at both ends of
    the feasible window and scattered in and around it."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        tau = float(rng.uniform(0.1, 0.9))
        ch = GaussChannel(tau, (1.0 - tau) * float(rng.uniform(1.001, 1.2)))
        g_min = gamma_min(ch)
        gamma = g_min + (0.9999 - g_min) * float(rng.uniform())
        g = 10.0 ** float(rng.uniform(math.log10(1.3), 6.0))
        lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v, 0.0)
        spread = 0.2 * (hi - lo)
        etas = np.clip(np.r_[lo, hi, rng.uniform(lo - spread, hi + spread, 6)], 0.0, 1.0)
        cases.append((gamma, etas, ch, g))
    return cases


def test_closed_form_kappa_matches_the_bisection_oracle():
    matched = unmatched = knife_edge = 0
    for gamma, etas, ch, g in _match_cases(200, seed=20261018):
        g2 = gamma * gamma
        a = (1.0 + g2) / (1.0 - g2)
        c = 2.0 * gamma / (1.0 - g2)
        for eta in etas.tolist():
            kappa = _match_kappa(gamma, eta, ch.tau, ch.v, g)
            reference, f0 = _bisected_kappa(gamma, eta, ch.tau, ch.v, g)
            if abs(abs(f0) - 1e-12 * a) <= 1e-15 * a:
                # the vacuum's excess sits within rounding (terms of size a)
                # of the 1e-12 a tolerance, so either verdict is right
                knife_edge += 1
                continue
            assert math.isnan(kappa) == (reference is None), (gamma, eta, ch, g)
            if reference is None:
                unmatched += 1
                continue
            matched += 1
            # the oracle stops once |excess| <= 1e-12, and the excess moves
            # by (1 - 1/g)(1 - eta) da_phi/dkappa per unit of kappa
            a_phi = (1.0 + kappa * kappa) / (1.0 - kappa * kappa)
            slope = (1.0 - 1.0 / g) * (1.0 - eta) * 4.0 * kappa / (1.0 - kappa * kappa) ** 2
            resolution = 1e-12 / slope if slope > 0.0 else 0.0
            assert abs(kappa - reference) <= 1e-9 + resolution, (gamma, eta, ch, g)
            # the teleporter's closed form on the tapped resource
            # (a, eta a + (1 - eta) a_phi, sqrt(eta) c) returns the channel's
            # noise; a vacuum auxiliary is accepted 1e-12 a off it, plus the
            # rounding of terms of size a
            tapped = ResourceState(a, eta * a + (1.0 - eta) * a_phi, math.sqrt(eta) * c)
            out = ao_effective_channel(tapped, TeleportConfig(ch.tau, g, ch))
            bound = 1e-12 * a + 1e-15 * a if kappa == 0.0 else 1e-12
            assert abs(out.v - ch.v) <= bound, (gamma, eta, ch, g)
    assert matched > 800 and unmatched > 200
    assert knife_edge <= 0.02 * (matched + unmatched)


def test_vacuum_verdict_does_not_hang_on_rounding():
    # a window-edge point whose vacuum excess is ~1e-12, where an absolute
    # 1e-12 tolerance split the verdicts: the term-by-term excess read
    # 1.0089e-12 (unmatched), the closed form 9.9986e-13 (matched)
    gamma, eta, g = 0.9910659025403082, 0.875571777053631, 2933.918980394141
    ch = GaussChannel(0.87568427775955, 0.13228667401529046)
    reference, f0 = _bisected_kappa(gamma, eta, ch.tau, ch.v, g)
    assert 1e-12 < f0 < 1.01e-12
    assert reference == 0.0
    assert _match_kappa(gamma, eta, ch.tau, ch.v, g) == 0.0
    # the tolerance is 1e-12 a (a ~ 111 here): an excess of 1.1e-11 is still
    # a vacuum match, one of 1e-9 is not
    for step, matched in ((-1e-11, True), (-1e-9, False)):
        reference, f0 = _bisected_kappa(gamma, eta + step, ch.tau, ch.v, g)
        kappa = _match_kappa(gamma, eta + step, ch.tau, ch.v, g)
        assert (reference == 0.0) == bool(kappa == 0.0) == matched, (step, f0)
        assert math.isnan(kappa) != matched


def test_kappa_array_call_equals_per_element_calls():
    for gamma, etas, ch, g in _match_cases(50, seed=7):
        stacked = _match_kappa(gamma, etas, ch.tau, ch.v, g)
        assert stacked.shape == etas.shape
        single = [_match_kappa(gamma, eta, ch.tau, ch.v, g) for eta in etas.tolist()]
        assert all(isinstance(k, float) for k in single)
        assert np.array_equal(stacked, np.array(single), equal_nan=True)


@pytest.mark.parametrize("g", [1.3, 100.0, 1.0e6])
@pytest.mark.parametrize("ch", [THERMAL, GaussChannel(0.5, 0.55), GaussChannel(0.8, 0.25)])
def test_kappa_at_gamma_min_and_full_tap_is_vacuum(ch, g):
    # the minimal resource simulates the channel untapped with a vacuum
    # auxiliary; a larger one cannot at eta = 1, whatever kappa
    assert _match_kappa(gamma_min(ch), 1.0, ch.tau, ch.v, g) == 0.0
    assert math.isnan(_match_kappa(0.5 * (gamma_min(ch) + 1.0), 1.0, ch.tau, ch.v, g))


def test_feasible_window_empty_below_threshold():
    assert _feasible_eta_window(0.3, THERMAL.tau, THERMAL.v, 0.0) is None


def test_optimize_below_threshold_is_infeasible():
    res = optimize_attack(scenario(), 0.3)
    assert not res.feasible
    assert math.isnan(res.eta_star)
    assert math.isnan(res.kappa_star)
    assert math.isnan(res.eve_info_bits)
    assert math.isnan(res.residual)
    assert math.isfinite(res.holevo_bits)
    assert math.isfinite(res.ent_resource)


def test_optimize_rejects_bad_gamma():
    with pytest.raises(ValueError, match="resource squeezing"):
        optimize_attack(scenario(), 1.0)


def test_optimize_pure_loss_closed_form():
    sc = scenario(PURE)
    res = optimize_attack(sc, 0.6)
    assert math.isclose(res.eta_star, 0.25 / 0.36, rel_tol=1e-12)
    assert res.kappa_star == 0.0
    assert res.residual <= 1e-12
    assert res.feasible
    assert 0.0 < res.eve_info_bits < res.holevo_bits
    # at the threshold the whole resource is spent: eta = 1
    at_min = optimize_attack(sc, gamma_min(PURE))
    assert at_min.eta_star == 1.0


def test_optimize_thermal_smoke():
    sc = scenario()
    res = optimize_attack(sc, 0.6)
    assert res.feasible
    assert 0.0 < res.eve_info_bits < res.holevo_bits
    assert 0.0 <= res.kappa_star < 1.0
    assert res.residual <= 1e-8
    window = _feasible_eta_window(0.6, THERMAL.tau, THERMAL.v, 0.0)
    assert window[0] <= res.eta_star <= window[1]
    # at every gain the residual is read off the (A, B) block of the state
    # the row's information came from, as the cloner's is; here that is the
    # g = infinity one. The finite circuit at the same point presents the
    # target channel too, since the matched kappa does not depend on g
    alice = tmsv(sc.zeta, ("A", "B"))
    resource = _resource_matrix(0.6)
    ab, _, _ = _bell_record_raw(alice.matrix, THERMAL, resource, res.eta_star, res.kappa_star)
    assert _channel_residual(CovMat(ab, ("A", "B")).matrix, alice.matrix, THERMAL) == res.residual
    for g in (100.0, 1e4):
        assert simulation_residual(scenario(gain=g), 0.6, res.eta_star, res.kappa_star) <= 1e-8


def test_channel_residual_on_a_stack_equals_each_matrix_alone():
    # as for channels._probe_channel: the stack must round as one matrix does
    alice = tmsv(0.7, ("A", "B")).matrix
    taus = np.random.default_rng(12).uniform(0.05, 0.95, 4000)
    outs = np.array([_channel_on_mode(alice, 1, t, 1.05 * (1.0 - t)) for t in taus])
    stacked = _channel_residual(outs, alice, THERMAL)
    for out, value in zip(outs, stacked.tolist()):
        assert float(_channel_residual(out, alice, THERMAL)) == value


def test_channel_residual_rejects_an_output_no_channel_on_b_gives():
    # every gain reads its residual here, so every gain gets the check that
    # the output keeps the phase-insensitive form with the reference untouched
    alice = tmsv(0.7, ("A", "B")).matrix
    out = _channel_on_mode(alice, 1, THERMAL.tau, THERMAL.v)
    assert _channel_residual(out, alice, THERMAL) <= 1e-12
    squeezed_p = out.copy()
    squeezed_p[3, 3] += 1e-3
    disturbed_ref = out.copy()
    disturbed_ref[0, 0] += 1e-3
    disturbed_ref[1, 1] += 1e-3
    x_p = out.copy()
    x_p[0, 3] = x_p[3, 0] = 1e-3
    for bad in (squeezed_p, disturbed_ref, x_p):
        with pytest.raises(ValueError, match="not phase-insensitive"):
            _channel_residual(np.array([out, bad]), alice, THERMAL)


@pytest.mark.parametrize("g", [0.0, -1.0, 0.5, 1.0, math.inf, math.nan])
def test_bad_gain_gets_the_gain_message(g):
    if not math.isinf(g):
        with pytest.raises(ValueError, match="gain must be > 1"):
            scenario(gain=g)
        return
    # the asymptotic scenario has no finite circuit to build
    sc = scenario(gain=g)
    message = "amplifier gain must be a finite value > 1"
    with pytest.raises(ValueError, match=message):
        ao_attack_state(sc, 0.6, 0.5, 0.05)
    with pytest.raises(ValueError, match=message):
        simulation_residual(sc, 0.6, 0.5, 0.05)


def _matched_points(gamma, ch, g, count, seed):
    lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v, 0.0)
    etas, kappas = [], []
    for eta in np.random.default_rng(seed).uniform(lo, hi, 3 * count):
        kappa = _match_kappa(gamma, float(eta), ch.tau, ch.v, g)
        if not math.isnan(kappa) and len(etas) < count:
            etas.append(float(eta))
            kappas.append(kappa)
    assert len(etas) == count
    return np.array(etas), np.array(kappas)


@pytest.mark.parametrize("g", [100.0, 1.0e6])
@pytest.mark.parametrize("reconciliation", ["reverse", "direct"])
@pytest.mark.parametrize("tau", [0.25, 0.7])
def test_stacked_objective_equals_per_point_calls(tau, reconciliation, g):
    ch = GaussChannel(tau, 1.01 * (1.0 - tau))
    sc = scenario(ch, reconciliation=reconciliation, gain=g)
    gamma = 0.97
    alice = tmsv(sc.zeta, ("A", "B")).matrix
    resource = _resource_matrix(gamma)
    etas, kappas = _matched_points(gamma, ch, g, 25, seed=int(100 * tau) + int(g))
    stacked = _eve_info_objective(sc, alice, resource, etas, kappas)
    assert stacked.shape == (25,)
    for eta, kappa, value in zip(etas.tolist(), kappas.tolist(), stacked.tolist()):
        assert value == _eve_info_objective(sc, alice, resource, eta, kappa)
