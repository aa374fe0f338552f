"""Teleportation-based channel simulation, both protocols."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqkd_attacks.gaussian as gaussian
import cvqkd_attacks.teleportation as teleportation
from cvqkd_attacks.channels import GaussChannel, effective_channel
from cvqkd_attacks.gaussian import (
    CovMat,
    _quadrature_blocks,
    beam_splitter,
    thermal,
    tmsv,
    two_mode_squeezer,
)
from cvqkd_attacks.teleportation import (
    ResourceState,
    TeleportConfig,
    _pipeline_raw,
    _tapped_auxiliary,
    ao_effective_channel,
    ao_simulate,
    bk_effective_channel,
)
from cvqkd_attacks.verify import _AO_PIPELINE_DRAWS
from conftest import embedded_whole, outcome


def test_resource_state_validation():
    with pytest.raises(ValueError, match="diagonals"):
        ResourceState(0.9, 1.5, 0.0)
    with pytest.raises(ValueError, match="correlation"):
        ResourceState(1.5, 1.5, -0.1)
    with pytest.raises(ValueError, match="unphysical"):
        ResourceState(1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="squeezing"):
        ResourceState.from_tmsv(1.0)


@pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 0.0), (3.0, 3.0, 2.8), (1.5, 7.0, 1.9), (9.0, 1.2, 1.0)])
def test_resource_state_certifies_by_its_closed_form(monkeypatch, a, b, c):
    # nu_pm = (sqrt((a + b - 2c)(a + b + 2c)) +/- |b - a|) / 2, with no
    # numerical spectrum; it agrees with the one CovMat computes
    numerical = CovMat(np.array(ResourceState(a, b, c).to_covmat().matrix), ("r1", "r2"))

    def forbidden(mats):
        raise AssertionError("ResourceState took a numerical spectrum")

    monkeypatch.setattr(gaussian, "_check_physical", forbidden)
    gaussian.reset_physicality_audit()
    state = ResourceState(a, b, c).to_covmat()
    nu_min, count = gaussian.physicality_audit()
    assert count == 2  # __post_init__'s check, then to_covmat's state
    np.testing.assert_allclose(state._nus, numerical._nus, rtol=1e-14)
    assert nu_min == state._nus[-1]


def test_resource_state_rejects_what_its_closed_form_puts_below_physical():
    # just below the boundary ab - c^2 = a + b - 1 of a standard form, past
    # the margin, and past the radicand's zero at c = (a + b) / 2
    for a, b, c in [(2.0, 2.0, math.sqrt(3.0) + 1e-6), (1.0, 1.0, 1.5)]:
        with pytest.raises(ValueError, match="^unphysical covariance matrix: smallest symplectic"):
            ResourceState(a, b, c)
    assert ResourceState(2.0, 2.0, math.sqrt(3.0)).to_covmat()._nus[-1] >= 1.0 - 1e-15
    with pytest.raises(ValueError, match="infs or NaNs"):
        ResourceState(math.inf, 1.5, 0.5)
    with pytest.raises(ValueError, match="infs or NaNs"):
        ResourceState(1.5, 1.5, math.inf)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=st.one_of(st.floats(0.5, 20.0), st.sampled_from([1.0, math.inf, math.nan])),
    b=st.one_of(st.floats(0.5, 20.0), st.sampled_from([1.0, math.inf, math.nan])),
    c=st.one_of(st.floats(-1.0, 20.0), st.sampled_from([0.0, math.inf, math.nan])),
)
def test_resource_state_refuses_and_counts_as_its_covmat_does(a, b, c):
    # construction certifies by the closed-form spectrum with no CovMat
    # built: each refusal and the one audit count are those of building
    # the CovMat itself at the same spectrum
    def built():
        ResourceState(a, b, c)

    def as_covmat():
        if not (a >= 1.0 and b >= 1.0):
            raise ValueError(f"resource diagonals must be >= 1, got a={a}, b={b}")
        if not c >= 0.0:
            raise ValueError(f"resource correlation must be >= 0, got c={c}")
        blocks = gaussian._two_mode_std(a, b, c)
        gaussian._checked(blocks, ("r1", "r2"), gaussian._two_mode_nus(a, b, c))

    assert outcome(built) == outcome(as_covmat)


def test_teleport_config_validation():
    env = GaussChannel(0.5, 0.5)
    with pytest.raises(ValueError, match=">= 0"):
        TeleportConfig(-0.1, 2.0, env)
    with pytest.raises(ValueError, match="amplifier gain"):
        TeleportConfig(0.5, 1.0, env)
    with pytest.raises(ValueError, match="amplifier gain"):
        TeleportConfig(0.5, -math.inf, env)
    with pytest.raises(ValueError, match="splitter transmissivity"):
        TeleportConfig(1.0, 1.5, env)
    with pytest.raises(ValueError, match="splitter transmissivity"):
        TeleportConfig(math.inf, math.inf, env)


@pytest.mark.parametrize(
    "build,needle",
    [
        (lambda: TeleportConfig(math.nan, 2.0, GaussChannel(0.5, 0.5)), ">= 0"),
        (lambda: bk_effective_channel(ResourceState.from_tmsv(0.5), math.nan), ">= 0"),
        (lambda: ResourceState(math.nan, 1.5, 0.5), "diagonals"),
        (lambda: ResourceState(1.5, math.nan, 0.5), "diagonals"),
        (lambda: ResourceState(1.5, 1.5, math.nan), "correlation"),
    ],
    ids=["config-lam", "bk-lam", "resource-a", "resource-b", "resource-c"],
)
def test_nan_parameters_are_rejected(build, needle):
    with pytest.raises(ValueError, match=needle):
        build()


def test_asymptotic_gain_resolution():
    # g = inf is the limit itself: no splitter, standard teleportation
    res = ResourceState.from_tmsv(0.9)
    cfg = TeleportConfig(0.5, math.inf, GaussChannel(0.7, 0.3 * 1.05))
    assert cfg.splitter_transmissivity() == 0.0
    assert ao_effective_channel(res, cfg) == bk_effective_channel(res, 0.5)


def test_asymptotic_pipeline_presents_the_bk_channel():
    res = ResourceState.from_tmsv(0.9)
    cfg = TeleportConfig(0.5, math.inf, GaussChannel(0.7, 0.3 * 1.05))
    target = bk_effective_channel(res, 0.5)
    piped = effective_channel(lambda probe: ao_simulate(probe, res, cfg))
    assert abs(piped.tau - target.tau) <= 1e-12
    assert abs(piped.v - target.v) <= 1e-12


def test_bk_channel_hand_value():
    # gamma = 1/2, lam = 1: a = 5/3, c = 4/3, so v = 2a - 2c = 2/3
    res = ResourceState.from_tmsv(0.5)
    ch = bk_effective_channel(res, 1.0)
    assert ch.tau == 1.0
    assert abs(ch.v - 2.0 / 3.0) < 1e-12


def test_bk_channel_domain():
    res = ResourceState.from_tmsv(0.5)
    with pytest.raises(ValueError, match=">= 0"):
        bk_effective_channel(res, -0.5)
    # lam = 0 maps everything to the resource's second arm; that is not a
    # transmissive channel and the wrapper says whose fault it is
    with pytest.raises(ValueError, match="cannot realize"):
        bk_effective_channel(res, 0.0)


def test_minimal_resource_reproduces_channel():
    from cvqkd_attacks.attacks import gamma_min

    ch = GaussChannel(0.25, 0.7575)
    res = ResourceState.from_tmsv(gamma_min(ch))
    out = bk_effective_channel(res, ch.tau)
    assert abs(out.tau - ch.tau) + abs(out.v - ch.v) <= 1e-9


def test_identity_environment_matches_bk_at_large_gain():
    res = ResourceState.from_tmsv(0.5)
    cfg = TeleportConfig(1.0, 1.0e6, GaussChannel(1.0, 0.0))
    ao = ao_effective_channel(res, cfg)
    assert ao.tau == 1.0
    assert abs(ao.v - 2.0 / 3.0) <= 1e-4


def test_ao_converges_to_bk_monotonically():
    res = ResourceState.from_tmsv(0.45)
    env = GaussChannel(0.7, 0.3 * 1.05)
    lam = 0.3
    target = bk_effective_channel(res, lam).v
    gaps = []
    for g in (1e2, 1e3, 1e4, 1e5, 1e6):
        gaps.append(abs(ao_effective_channel(res, TeleportConfig(lam, g, env)).v - target))
    assert all(hi >= lo for hi, lo in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-4


@pytest.mark.parametrize("env", [GaussChannel(1.0, 0.0), GaussChannel(0.7, 0.3 * 1.05)])
def test_ao_channel_reaches_bk_at_a_gain_whose_square_overflows(env):
    res = ResourceState.from_tmsv(0.5)
    lam = min(env.tau, 1.0)
    ao = ao_effective_channel(res, TeleportConfig(lam, 1.0e200, env))
    bk = bk_effective_channel(res, lam)
    assert ao.tau == bk.tau
    assert abs(ao.v - bk.v) <= 1e-12


def test_ao_pipeline_agrees_with_closed_form():
    # route one: identify the channel realized by the explicit mode-by-mode
    # pipeline; route two: the closed-form expression
    res = ResourceState.from_tmsv(0.4)
    cfg = TeleportConfig(0.3, 3.0, GaussChannel(0.7, 0.3 * 1.05))
    formula = ao_effective_channel(res, cfg)
    piped = effective_channel(lambda probe: ao_simulate(probe, res, cfg))
    assert abs(piped.tau - formula.tau) + abs(piped.v - formula.v) <= 1e-9


def _tapped_and_plain(zeta, gamma, g, tau, eps, lam):
    """ao_simulate's outcome, and the same circuit's through the exact
    identity tap (eta = 1, m = 0): the raw blocks of both pipelines and
    each validated (A, B) state with its audit."""
    res = ResourceState.from_tmsv(gamma)
    cfg = TeleportConfig(lam, g, GaussChannel(tau, (1.0 - tau) * eps))
    state = tmsv(zeta, ("A", "B"))
    resource = gaussian._two_mode_std(res.a, res.b, res.c)
    t = cfg.splitter_transmissivity()
    tapped = _pipeline_raw(state._blocks, cfg.env, resource, 1.0, 0.0, g, t)
    plain = _pipeline_raw(state._blocks, cfg.env, resource, None, None, g, t)

    def public():
        out = ao_simulate(state, res, cfg)
        return out._blocks.tobytes(), out._nus.tobytes()

    def through_the_tap():
        out = gaussian._checked(tapped[:, :2, :2], state.labels)
        return out._blocks.tobytes(), out._nus.tobytes()

    assert plain.tobytes() == tapped.tobytes()
    return outcome(public), outcome(through_the_tap)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    zeta=st.floats(0.0, 0.95),
    gamma=st.floats(0.0, 0.99),
    g=st.one_of(st.floats(1.01, 1e4), st.sampled_from([2.0, 100.0, 1e6])),
    tau=st.floats(0.05, 1.0),
    eps=st.floats(1.0, 1.5),
    share=st.floats(0.0, 1.0),
)
def test_ao_simulate_is_the_identity_tapped_pipeline_bit_for_bit(zeta, gamma, g, tau, eps, share):
    # the plain teleporter skips the tap; the exact identity tap adds only
    # products with 1 and 0, so every entry, the (A, B) state's spectrum,
    # the audit and any refusal are unchanged
    public, tapped = _tapped_and_plain(zeta, gamma, g, tau, eps, share * min(1.0, g * tau))
    assert public == tapped


@pytest.mark.parametrize("draw", _AO_PIPELINE_DRAWS)
def test_ao_simulate_on_verifys_draws_is_the_identity_tapped_pipeline(draw):
    gamma, g, tau, eps, lam = draw
    for zeta in (0.0, 0.5):
        public, tapped = _tapped_and_plain(zeta, gamma, g, tau, eps, lam)
        assert public == tapped


def test_ao_simulate_runs_no_tap(monkeypatch):
    def forbidden(*args):
        raise AssertionError("ao_simulate built a tap")

    monkeypatch.setattr(teleportation, "_tapped_auxiliary", forbidden)
    res = ResourceState.from_tmsv(0.4)
    cfg = TeleportConfig(0.3, 3.0, GaussChannel(0.7, 0.3 * 1.05))
    piped = effective_channel(lambda probe: ao_simulate(probe, res, cfg))
    assert abs(piped.v - ao_effective_channel(res, cfg).v) <= 1e-9


def test_ao_simulate_needs_two_modes():
    res = ResourceState.from_tmsv(0.4)
    cfg = TeleportConfig(0.3, 3.0, GaussChannel(0.7, 0.3 * 1.05))
    with pytest.raises(ValueError, match="two-mode"):
        ao_simulate(thermal(2.0), res, cfg)


def test_ao_simulate_at_zero_gain_over_a_lossless_channel():
    # lam = 0 over tau = 1 sets tau (1 - t) = 1, where Eve's local map on
    # the amplified pair would be singular; the teleported mode is then the
    # resource's second arm, uncorrelated with the reference
    res = ResourceState.from_tmsv(0.6)
    cfg = TeleportConfig(0.0, 2.0, GaussChannel(1.0, 0.0))
    out = ao_simulate(tmsv(0.5, ("a", "b")), res, cfg)
    expected = np.diag([tmsv(0.5).matrix[0, 0]] * 2 + [res.b] * 2)
    np.testing.assert_allclose(out.matrix, expected, atol=1e-12)


def test_ao_simulate_rejects_an_input_that_couples_x_and_p():
    # the circuit runs on the x and p blocks of a phase-insensitive state:
    # no input it is handed can couple x and p, as CovMat refuses such a
    # state where it is formed
    with pytest.raises(ValueError, match="couples its x and p quadratures") as info:
        CovMat(np.array([[2.0, 0.5], [0.5, 2.0]]), ("b",))
    assert "\n" not in str(info.value)


def _tap_composed(eta, m):
    """The tap from its parts on the interleaved (R2, F1, F2): tmsv(kappa) =
    S(r) vacuum on (F1, F2), cosh 2r = m / d, the splitter at eta on
    (R2, F1), then Eve's S(rho)^-1 on (F1, F2), rho = max(r - r0, 0) with
    cosh 2r0 = 3; as x part over p part."""
    d = 1.0 - eta
    r = 0.5 * math.acosh(m / d)
    rho = max(r - 0.5 * math.acosh(3.0), 0.0)
    squeeze = embedded_whole(two_mode_squeezer(math.cosh(r) ** 2).matrix, (1, 2), 6)
    undo = np.linalg.inv(embedded_whole(two_mode_squeezer(math.cosh(rho) ** 2).matrix, (1, 2), 6))
    whole = undo @ embedded_whole(beam_splitter(eta).matrix, (0, 1), 6) @ squeeze
    return _quadrature_blocks(whole)[[0, 1], [0, 1]]


@pytest.mark.parametrize("ratio", [1.0, 1.2, 2.0, 3.0, 5.0, 40.0])
@pytest.mark.parametrize("eta", [0.1, 0.5, 0.93])
def test_tap_is_the_splitter_on_a_squeezed_auxiliary_then_eves_local_map(eta, ratio):
    # below the cap (m / d <= 3) the textbook tap itself; above it Eve
    # undoes the rest of the squeezing, with every entry O(1)
    m = ratio * (1.0 - eta)
    _, tap = _tapped_auxiliary(eta, m)
    composed = _tap_composed(eta, m)
    assert np.abs(tap - composed).max() <= 1e-13 * ratio
    # R2' is the channel's view: its added noise is m
    assert abs(tap[0, 0, 1] ** 2 + tap[0, 0, 2] ** 2 - m) <= 1e-15
    if ratio <= 3.0:
        assert tap[0, 1, 0] == tap[1, 1, 0] == math.sqrt(1.0 - eta)
        assert not tap[:, 2, 0].any()


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0 - 1e-9, 1.0])
def test_tap_stays_symplectic_and_order_one_as_kappa_nears_1(eta):
    # x part X and p part P of a phase-insensitive symplectic: X P^T = I.
    # An O(1) noise m at eta -> 1 is an auxiliary with kappa -> 1, whose
    # tmsv entries m / d pass 1e9 here
    d = 1.0 - eta
    for m in (d, 1.5 * d, 3.0 * d, d + 0.3, 2.0):
        if eta == 1.0 and m != d:
            # no finite auxiliary adds noise through a splitter that passes
            # R2 whole
            with pytest.raises(ValueError, match=f"auxiliary noise {m} at eta = 1 needs kappa = 1"):
                _tapped_auxiliary(eta, m)
            continue
        _, tap = _tapped_auxiliary(eta, m)
        assert np.abs(tap[0] @ tap[1].T - np.eye(3)).max() <= 1e-14, m
        assert np.abs(tap).max() <= 3.0, m
    # a vacuum auxiliary leaves F2 an exact, decoupled vacuum; eta = 1 is
    # the identity
    _, tap = _tapped_auxiliary(eta, d)
    assert (tap[:, 2] == [0.0, 0.0, 1.0]).all() and (tap[:, :, 2] == [0.0, 0.0, 1.0]).all()
    if eta == 1.0:
        assert (tap == np.eye(3)).all()


def test_stacked_tap_equals_lone_calls():
    rng = np.random.default_rng(21)
    etas = np.r_[rng.uniform(0.0, 1.0, 40), 1.0, 0.5]
    ratios = np.r_[1.0 + 10.0 ** rng.uniform(-6.0, 12.0, 40), 1.0, 3.0]
    noises = np.where(etas < 1.0, ratios * (1.0 - etas), 0.0)
    stacked_eta, stacked = _tapped_auxiliary(etas, noises)
    assert stacked.shape == (2, len(etas), 3, 3)
    assert np.array_equal(stacked_eta, etas)
    for k, (eta, m) in enumerate(zip(etas.tolist(), noises.tolist())):
        _, one = _tapped_auxiliary(eta, m)
        assert one.shape == (2, 3, 3)
        assert np.array_equal(stacked[:, k], one), k


def test_tap_domain():
    with pytest.raises(ValueError, match="mixing transmissivity"):
        _tapped_auxiliary(np.array([0.5, 1.5]), 0.5)
    with pytest.raises(ValueError, match="auxiliary noise 0.4 below 1 - eta = 0.5"):
        _tapped_auxiliary(0.5, np.array([0.5, 0.4]))
    # a non-finite noise is refused as such: an infinite one passes m >= d
    # and used to surface as an overflow of the amplifier gain
    with pytest.raises(ValueError, match="auxiliary noise nan is not finite"):
        _tapped_auxiliary(0.5, math.nan)
    with pytest.raises(ValueError, match="auxiliary noise inf is not finite"):
        _tapped_auxiliary(0.5, np.array([0.5, math.inf]))
    with pytest.raises(ValueError, match="auxiliary noise 1e-300 at eta = 1 needs kappa = 1"):
        _tapped_auxiliary(np.array([0.5, 1.0]), np.array([0.5, 1e-300]))
