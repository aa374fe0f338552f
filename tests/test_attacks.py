"""Attack evaluation: resource thresholds, cloner, teleportation optimizer."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from cvqkd_attacks.attacks import (
    AttackResult,
    AttackScenario,
    _auxiliary_squeezing,
    _channel_residual,
    _eve_info_objective,
    _feasible_eta_window,
    _match_noise,
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
from cvqkd_attacks.channels import ChannelKind, GaussChannel, classify
from cvqkd_attacks.gaussian import (
    CovMat,
    _block_diag,
    _channel_on_mode,
    _interleaved,
    _quadrature_blocks,
    _tmsv_entries,
    beam_splitter,
    partial_trace,
    tmsv,
    two_mode_squeezer,
    von_neumann_entropy,
)
from cvqkd_attacks.teleportation import (
    ResourceState,
    TeleportConfig,
    _bell_record_raw,
    _eve_local_map,
    _pipeline_raw,
    _tapped_auxiliary,
    ao_effective_channel,
)
from conftest import embedded_whole, symplectic_form

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
    alice, resource = tmsv(sc.zeta)._blocks, _resource_matrix(0.9)
    m = float(_match_noise(0.9, res.eta_star, THERMAL.tau, THERMAL.v, sc.gain))
    at_inf = _eve_info_objective(sc, alice, resource, res.eta_star, m)
    assert abs(at_inf - res.eve_info_bits) <= 1e-13
    at_1e4 = _eve_info_objective(
        dataclasses.replace(sc, gain=1e4), alice, resource, res.eta_star, m
    )
    assert res.eve_info_bits - 1e-3 < at_1e4 < res.eve_info_bits
    assert sc.conditioned_label == "B"
    assert scenario(reconciliation="direct").conditioned_label == "A"


def test_attack_result_guards_information_range():
    with pytest.raises(ValueError, match="outside"):
        AttackResult(0.5, 1.0, 0.5, 0.0, 0.5, 2.0, 1.0, 0.0, True)


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
    # NaN passes both gamma < 0 and gamma >= 1
    for gamma in (-0.1, math.nan):
        with pytest.raises(ValueError, match=">= 0"):
            entropy_of_entanglement(gamma)


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
    assert math.isnan(res.noise_star)
    assert res.feasible


def test_cloner_ancilla_is_the_dilation_environment():
    # classified as pure loss, yet 1e-13 above the floor: the tap's
    # auxiliary carries that excess noise, as the dilation's environment
    # does, which a vacuum ancilla misses
    ch = GaussChannel(0.9, 0.1 + 1e-13)
    assert classify(ch) is ChannelKind.PURE_LOSS
    res = cloner_attack(scenario(ch))
    assert res.residual <= 1e-14
    assert abs(res.eve_info_bits - res.holevo_bits) <= 1e-14
    assert res.feasible


@pytest.mark.parametrize("tau,v", [(1.0 - 2e-12, 1e-12), (1.0 - 1e-11, 0.0)])
def test_cloner_inside_the_channel_slack(tau, v):
    # v sits up to 1e-11 below the floor 1 - tau, inside GaussChannel's slack
    res = cloner_attack(scenario(GaussChannel(tau, v)))
    assert res.gamma == 0.0
    assert res.residual <= 1e-10
    assert res.feasible


NEAR_LOSSLESS = [
    (tau, v)
    for tau in (0.99, 0.9999, 0.999999, 1.0 - 1e-8, 1.0 - 1e-10)
    for v in (1.0000001 * (1.0 - tau), 0.5, 1.0, 1.9)
]


@pytest.mark.parametrize("zeta", [0.0, 0.7, 0.95])
@pytest.mark.parametrize("tau,v", NEAR_LOSSLESS)
def test_cloner_near_a_lossless_channel_passes_its_purification_check(tau, v, zeta):
    # the channel's dilation would carry an environment of arm variance
    # v/(1 - tau), up to 1.9e10 here, in a raw basis; the tap's entries stay
    # O(1) however hot its auxiliary
    res = cloner_attack(AttackScenario(GaussChannel(tau, v), zeta))
    assert abs(res.eve_info_bits - res.holevo_bits) <= 1e-9
    assert res.residual <= 1e-14
    assert res.feasible


def test_cloner_rejects_amplifiers():
    with pytest.raises(ValueError, match="loss channels"):
        cloner_attack(scenario(GaussChannel(1.5, 0.6)))


def _circuit_formed_whole(alice, ch, resource, eta, m, g):
    # _pipeline_raw's circuit from 12 x 12 maps on the interleaved 12 x 12
    # state, as it ran before it moved to x and p blocks, with the tap's
    # 3-mode map on (R2, F1, F2) interleaved whole
    t = 1.0 / g
    joint = _block_diag(alice, resource, np.eye(4))
    squeeze = embedded_whole(two_mode_squeezer(g).matrix, (1, 2), 12)
    squeeze[..., 2:4, :] *= math.sqrt(ch.tau)
    tap = _interleaved(_tapped_auxiliary(eta, m)[1])
    after = embedded_whole(beam_splitter(t).matrix, (1, 3), 12)
    after = after @ embedded_whole(tap, (3, 4, 5), 12)
    local = embedded_whole(_interleaved(_eve_local_map(ch.tau, t)), (2, 3), 12)
    linear = local @ (after @ squeeze)
    noise = local @ after[..., :, 2:4]
    joint = linear @ joint @ np.swapaxes(linear, -1, -2)
    joint += ch.v * (noise @ np.swapaxes(noise, -1, -2))
    return 0.5 * (joint + np.swapaxes(joint, -1, -2))


@pytest.mark.parametrize("g", [1.5, 100.0, 1e6])
def test_pipeline_blocks_are_the_whole_circuits_x_and_p_blocks(g):
    # the 6 x 6 maps on X over P give the 12 x 12 state's blocks bit for
    # bit, whose x-p entries are all exactly 0.0, for a stack and a point
    sc = scenario(gain=g)
    alice = tmsv(sc.zeta, ("A", "B"))
    etas = np.linspace(0.3, 0.9, 7)
    # taps below and above the cap on the auxiliary's kept squeezing
    noises = (1.0 - etas) * np.array([1.0, 1.2, 2.0, 3.0, 4.0, 8.0, 20.0])
    resources = _resource_matrix(np.linspace(0.5, 0.95, 7))
    blocks = _pipeline_raw(alice._blocks, THERMAL, resources, etas, noises, g)
    assert blocks.shape == (2, 7, 6, 6)
    whole = _circuit_formed_whole(alice.matrix, THERMAL, _interleaved(resources), etas, noises, g)
    quads = _quadrature_blocks(whole)
    assert (quads[0, 1] == 0.0).all() and (quads[1, 0] == 0.0).all()
    assert np.array_equal(quads[[0, 1], [0, 1]], blocks)
    assert np.array_equal(_interleaved(blocks), whole)
    state = ao_attack_state(sc, 0.6, 0.5, 0.6)
    one = _pipeline_raw(alice._blocks, THERMAL, _resource_matrix(0.6), 0.5, 0.6, g)
    assert one.shape == (2, 6, 6)
    assert np.array_equal(_interleaved(one), state.matrix)


def test_eve_info_rejects_a_state_that_couples_x_and_p():
    # eve_info reads x blocks over p blocks: no CovMat it is handed can
    # couple x and p, as CovMat refuses such a mode where it is formed
    with pytest.raises(ValueError, match="couples its x and p quadratures") as info:
        CovMat(np.array([[2.0, 0.5], [0.5, 2.0]]), ("E",))
    assert "\n" not in str(info.value)


def test_attack_state_mode_inventory():
    sc = scenario(gain=1.0e3)
    st = ao_attack_state(sc, 0.6, 0.5, 0.6)
    assert st.labels == ("A", "B", "P", "Q", "F1", "F2")
    # pure loss keeps the layout, with F2 an exact, decoupled vacuum, at
    # finite gain and in the Bell record's conditional state
    st_pl = ao_attack_state(scenario(PURE, gain=1.0e3), 0.6, 0.5, 0.5)
    assert st_pl.labels == st.labels
    _assert_last_mode_decoupled_vacuum(st_pl.matrix)
    _, given_u = _bell_record_raw(tmsv(0.7)._blocks, PURE, _resource_matrix(0.6), 0.5, 0.5)
    assert given_u.shape == (2, 4, 4)
    _assert_last_mode_decoupled_vacuum(_interleaved(given_u))


def _assert_last_mode_decoupled_vacuum(mat):
    assert np.array_equal(mat[-2:, -2:], np.eye(2))
    assert not mat[-2:, :-2].any() and not mat[:-2, -2:].any()


def test_attack_state_domain():
    sc = scenario(gain=1e3)
    with pytest.raises(ValueError, match="resource squeezing"):
        ao_attack_state(sc, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="mixing transmissivity"):
        ao_attack_state(sc, 0.6, 1.2, 0.5)
    with pytest.raises(ValueError, match="auxiliary noise 0.4 below 1 - eta = 0.5"):
        ao_attack_state(sc, 0.6, 0.5, 0.4)
    # a splitter at eta = 1 passes R2 whole: its tap would not be symplectic
    with pytest.raises(ValueError, match="auxiliary noise 1e-12 at eta = 1 needs kappa = 1"):
        ao_attack_state(sc, 0.6, 1.0, 1e-12)
    with pytest.raises(ValueError, match="auxiliary noise 1e-12 at eta = 1 needs kappa = 1"):
        simulation_residual(scenario(), 0.6, 1.0, 1e-12)
    # an unbounded noise is refused as such, not as an overflow of the gain
    for m in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"auxiliary noise {m} is not finite"):
            ao_attack_state(sc, 0.6, 0.5, m)
        with pytest.raises(ValueError, match=f"auxiliary noise {m} is not finite"):
            simulation_residual(sc, 0.6, 0.5, m)
    with pytest.raises(ValueError, match="finite"):
        ao_attack_state(scenario(), 0.6, 0.5, 0.5)


@pytest.mark.parametrize("gain", [1e3, math.inf])
def test_pure_loss_takes_any_auxiliary_noise(gain):
    # the optimizer picks a vacuum auxiliary on pure loss (eta = tau /
    # gamma^2, m = 1 - eta), but the public calls take any tap: 0.3 more
    # noise presents PURE with 0.3 (1 - 1/g) more added noise
    sc = scenario(PURE, gain=gain)
    eta = PURE.tau / 0.36
    assert simulation_residual(sc, 0.6, eta, 1.0 - eta) <= 1e-12
    residual = simulation_residual(sc, 0.6, eta, 1.3 - eta)
    assert abs(residual - 0.3 * (1.0 - 1.0 / gain)) <= 1e-12
    if math.isfinite(gain):
        state = ao_attack_state(sc, 0.6, eta, 1.3 - eta)
        assert state.labels == ("A", "B", "P", "Q", "F1", "F2")


def test_feasible_window_brackets_the_matchable_etas():
    tau, v = THERMAL.tau, THERMAL.v
    window = _feasible_eta_window(0.6, tau, v)
    assert window is not None
    lo, hi = window
    assert 0.0 <= lo < hi <= 1.0
    g = 1.0e3
    mid = 0.5 * (lo + hi)
    m = _match_noise(0.6, mid, tau, v, g)
    assert m >= 1.0 - mid
    # the attack's state itself presents the target channel
    assert simulation_residual(scenario(gain=g), 0.6, mid, m) <= 1e-10
    # outside the window the vacuum auxiliary already overshoots the noise
    if lo > 0.01:
        assert math.isnan(_match_noise(0.6, lo - 0.01, tau, v, g))
    if hi < 0.99:
        assert math.isnan(_match_noise(0.6, hi + 0.01, tau, v, g))


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
        lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v)
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
            m = _match_noise(gamma, eta, ch.tau, ch.v, g)
            kappa = m if math.isnan(m) else _auxiliary_squeezing(eta, m)
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
    assert _match_noise(gamma, eta, ch.tau, ch.v, g) == 1.0 - eta
    # the tolerance is 1e-12 a (a ~ 111 here): an excess of 1.1e-11 is still
    # a vacuum match, one of 1e-9 is not
    for step, matched in ((-1e-11, True), (-1e-9, False)):
        reference, f0 = _bisected_kappa(gamma, eta + step, ch.tau, ch.v, g)
        m = _match_noise(gamma, eta + step, ch.tau, ch.v, g)
        assert (reference == 0.0) == bool(m == 1.0 - (eta + step)) == matched, (step, f0)
        assert math.isnan(m) != matched


def test_kappa_array_call_equals_per_element_calls():
    for gamma, etas, ch, g in _match_cases(50, seed=7):
        stacked = _match_noise(gamma, etas, ch.tau, ch.v, g)
        assert stacked.shape == etas.shape
        single = [_match_noise(gamma, eta, ch.tau, ch.v, g) for eta in etas.tolist()]
        assert all(isinstance(k, float) for k in single)
        assert np.array_equal(stacked, np.array(single), equal_nan=True)


@pytest.mark.parametrize("g", [1.3, 100.0, 1.0e6])
@pytest.mark.parametrize("ch", [THERMAL, GaussChannel(0.5, 0.55), GaussChannel(0.8, 0.25)])
def test_kappa_at_gamma_min_and_full_tap_is_vacuum(ch, g):
    # the minimal resource simulates the channel untapped with a vacuum
    # auxiliary; a larger one cannot at eta = 1, whatever kappa
    assert _match_noise(gamma_min(ch), 1.0, ch.tau, ch.v, g) == 0.0
    assert math.isnan(_match_noise(0.5 * (gamma_min(ch) + 1.0), 1.0, ch.tau, ch.v, g))


def test_feasible_window_empty_below_threshold():
    # the window collapses to {1}, where no auxiliary matches the noise
    assert gamma_min(THERMAL) > 0.3
    assert _feasible_eta_window(0.3, THERMAL.tau, THERMAL.v) == (1.0, 1.0)
    assert math.isnan(_match_noise(0.3, 1.0, THERMAL.tau, THERMAL.v, 1e3))


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
    assert res.noise_star == 1.0 - res.eta_star
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
    window = _feasible_eta_window(0.6, THERMAL.tau, THERMAL.v)
    assert window[0] <= res.eta_star <= window[1]
    # at every gain the residual is read off the (A, B) block of the state
    # the row's information came from, as the cloner's is; here that is the
    # g = infinity one. The finite circuit at the same point presents the
    # target channel too, since the matched kappa does not depend on g
    alice = tmsv(sc.zeta, ("A", "B"))
    resource = _resource_matrix(0.6)
    m = float(_match_noise(0.6, res.eta_star, THERMAL.tau, THERMAL.v, sc.gain))
    assert m == res.noise_star
    ab, _ = _bell_record_raw(alice._blocks, THERMAL, resource, res.eta_star, m)
    ab = CovMat(_interleaved(ab), ("A", "B"))._blocks
    assert _channel_residual(ab, alice._blocks, THERMAL) == res.residual
    for g in (100.0, 1e4):
        assert simulation_residual(scenario(gain=g), 0.6, res.eta_star, m) <= 1e-8


def test_channel_residual_on_a_stack_equals_each_matrix_alone():
    # as for channels._probe_channel: the stack must round as one matrix does
    alice = tmsv(0.7, ("A", "B"))._blocks
    taus = np.random.default_rng(12).uniform(0.05, 0.95, 4000)
    outs = np.stack([_channel_on_mode(alice, 1, t, 1.05 * (1.0 - t)) for t in taus], axis=1)
    stacked = _channel_residual(outs, alice, THERMAL)
    for k, value in enumerate(stacked.tolist()):
        assert float(_channel_residual(outs[:, k], alice, THERMAL)) == value


def test_channel_residual_rejects_an_output_no_channel_on_b_gives():
    # every gain reads its residual here, so every gain gets the check that
    # the output keeps the phase-insensitive form with the reference untouched
    # (a state that couples x and p is refused by CovMat before it gets here)
    alice = tmsv(0.7, ("A", "B"))._blocks
    out = _channel_on_mode(alice, 1, THERMAL.tau, THERMAL.v)
    assert _channel_residual(out, alice, THERMAL) <= 1e-12
    squeezed_p = out.copy()
    squeezed_p[1, 1, 1] += 1e-3
    disturbed_ref = out.copy()
    disturbed_ref[:, 0, 0] += 1e-3
    for bad in (squeezed_p, disturbed_ref):
        with pytest.raises(ValueError, match="not phase-insensitive"):
            _channel_residual(np.stack([out, bad], axis=1), alice, THERMAL)


@pytest.mark.parametrize("g", [0.0, -1.0, 0.5, 1.0, math.inf, math.nan])
def test_bad_gain_gets_the_gain_message(g):
    if not math.isinf(g):
        with pytest.raises(ValueError, match="gain must be > 1"):
            scenario(gain=g)
        return
    # the asymptotic scenario has no finite circuit to build, but its
    # residual is read at g = inf, as its rows read theirs
    sc = scenario(gain=g)
    with pytest.raises(ValueError, match="amplifier gain must be a finite value > 1"):
        ao_attack_state(sc, 0.6, 0.5, 0.6)
    row = optimize_attack(sc, 0.6)
    assert simulation_residual(sc, 0.6, row.eta_star, row.noise_star) == row.residual


def _matched_points(gamma, ch, g, count, seed):
    lo, hi = _feasible_eta_window(gamma, ch.tau, ch.v)
    etas, noises = [], []
    for eta in np.random.default_rng(seed).uniform(lo, hi, 3 * count):
        m = _match_noise(gamma, float(eta), ch.tau, ch.v, g)
        if not math.isnan(m) and len(etas) < count:
            etas.append(float(eta))
            noises.append(m)
    assert len(etas) == count
    return np.array(etas), np.array(noises)


@pytest.mark.parametrize("g", [100.0, 1.0e6])
@pytest.mark.parametrize("reconciliation", ["reverse", "direct"])
@pytest.mark.parametrize("tau", [0.25, 0.7])
def test_stacked_objective_equals_per_point_calls(tau, reconciliation, g):
    ch = GaussChannel(tau, 1.01 * (1.0 - tau))
    sc = scenario(ch, reconciliation=reconciliation, gain=g)
    gamma = 0.97
    alice = tmsv(sc.zeta, ("A", "B"))._blocks
    resource = _resource_matrix(gamma)
    etas, noises = _matched_points(gamma, ch, g, 25, seed=int(100 * tau) + int(g))
    stacked = _eve_info_objective(sc, alice, resource, etas, noises)
    assert stacked.shape == (25,)
    for eta, m, value in zip(etas.tolist(), noises.tolist(), stacked.tolist()):
        assert value == _eve_info_objective(sc, alice, resource, eta, m)


def _holevo_80_digits(sc: AttackScenario) -> float:
    """Reference chi: Alice's stored tmsv entries and the channel's doubles,
    taken exactly into 80 digits; the output state formed, its heterodyne
    Schur complement taken and both spectra read from Cholesky factors
    there, none of it in closed form."""
    a, c = _tmsv_entries(sc.zeta)
    with mpmath.mp.workdps(80):
        a, c, tau, v = (mpmath.mpf(x) for x in (a, c, sc.channel.tau, sc.channel.v))
        ct, b = mpmath.sqrt(tau) * c, tau * a + v
        sigma = mpmath.matrix([[a, 0, ct, 0], [0, a, 0, -ct], [ct, 0, b, 0], [0, -ct, 0, b]])

        def entropy(m):
            chol = mpmath.cholesky(m)
            herm = chol.T * mpmath.matrix(symplectic_form(m.rows // 2).tolist()) * chol * 1j
            nus = sorted((abs(z) for z in mpmath.eighe(herm, eigvals_only=True)), reverse=True)
            return sum(
                (nu + 1) / 2 * mpmath.log((nu + 1) / 2, 2)
                - ((nu - 1) / 2 * mpmath.log((nu - 1) / 2, 2) if nu > 1 else 0)
                for nu in nus[::2]
            )

        kept, measured = (slice(0, 2), slice(2, 4))
        if sc.reconciliation == "direct":
            kept, measured = measured, kept
        given = sigma[kept, kept] - sigma[kept, measured] * (
            sigma[measured, measured] + mpmath.eye(2)
        ) ** -1 * sigma[measured, kept]
        return float(entropy(sigma) - entropy(given))


@pytest.mark.parametrize("reconciliation", ["reverse", "direct"])
@pytest.mark.parametrize("excess", [1.0, 1.01], ids=["pure-loss", "thermal-loss"])
@pytest.mark.parametrize("tau", [0.25, 0.9, 0.999])
def test_holevo_bound_matches_80_digit_reference(tau, excess, reconciliation):
    # the closed form, with (a - c)(a + c) for a^2 - c^2 and no cancelling
    # difference, holds chi to 1e-10 bits as zeta nears 1; the numerical
    # route it replaced was off by 1e-8 bits at zeta = 0.999999, tau = 0.999
    for zeta in (0.0, 0.7, 0.9999, 0.999999, 0.9999995, 0.99999999):
        sc = AttackScenario(GaussChannel(tau, (1.0 - tau) * excess), zeta, reconciliation)
        assert abs(holevo_bound(sc) - _holevo_80_digits(sc)) <= 1e-10, zeta
