"""Phase-insensitive channel layer: taxonomy, dilation, identification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outcome, random_two_mode_state
from cvqkd_attacks.channels import (
    ChannelKind,
    GaussChannel,
    _check_phase_insensitive,
    _dilation_parameters,
    _environment,
    _probe_channel,
    apply_channel,
    classify,
    dilation,
    effective_channel,
    is_entanglement_breaking,
    loss_channel_state,
)
from cvqkd_attacks.gaussian import (
    CovMat,
    Symplectic,
    _channel_on_mode,
    apply_symplectic,
    beam_splitter,
    direct_sum,
    partial_trace,
    tmsv,
)
from cvqkd_attacks.verify import _CLONER_DRAWS, _DILATION_DRAWS


def test_channel_validation():
    with pytest.raises(ValueError, match="transmissivity"):
        GaussChannel(0.0, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        GaussChannel(0.5, -0.1)
    with pytest.raises(ValueError, match="unphysical channel"):
        GaussChannel(0.5, 0.4)
    # v may undershoot the floor by up to the slack without being rejected
    GaussChannel(0.5, 0.5 - 5e-10)


@pytest.mark.parametrize(
    "tau,v,needle",
    [
        (math.nan, 0.5, "transmissivity"),
        (0.5, math.nan, "nonnegative"),
        (0.5, math.inf, "finite"),
    ],
    ids=["tau", "v", "v-inf"],
)
def test_channel_rejects_nan(tau, v, needle):
    with pytest.raises(ValueError, match=needle):
        GaussChannel(tau, v)


@pytest.mark.parametrize(
    "tau,v,kind",
    [
        (1.0, 0.0, ChannelKind.IDENTITY),
        (0.5, 0.5, ChannelKind.PURE_LOSS),
        (0.5, 0.6, ChannelKind.THERMAL_LOSS),
        (1.5, 0.5, ChannelKind.PURE_AMPLIFIER),
        (1.5, 0.7, ChannelKind.THERMAL_AMPLIFIER),
        (1.0, 0.2, ChannelKind.ADDITIVE_NOISE),
        # below the floor, inside GaussChannel's 1e-9 slack: on the floor
        (0.5, 0.5 - 5e-10, ChannelKind.PURE_LOSS),
        (1.5, 0.5 - 5e-10, ChannelKind.PURE_AMPLIFIER),
        (0.5, 0.5 + 2e-12, ChannelKind.THERMAL_LOSS),
    ],
)
def test_classify(tau, v, kind):
    assert classify(GaussChannel(tau, v)) is kind


def test_excess_noise():
    assert math.isclose(GaussChannel(0.25, 0.7575).excess_noise, 1.01, rel_tol=1e-12)
    assert GaussChannel(1.0, 0.2).excess_noise == 0.2


def test_entanglement_breaking_boundary():
    assert is_entanglement_breaking(GaussChannel(0.25, 1.25))
    assert not is_entanglement_breaking(GaussChannel(0.25, 1.2))


@pytest.mark.parametrize("tau,v", [(0.7, 0.3), (0.6, 0.4 * 1.3), (0.25, 0.7575)])
def test_apply_channel_agrees_with_explicit_dilation(rng, tau, v):
    # two independent routes to the same reduced state: the direct moment map
    # and discarding the environment of the beam-splitter model
    ch = GaussChannel(tau, v)
    st = random_two_mode_state(rng, ("keep", "sig"))
    direct = apply_channel(st, ch, "sig")
    dilated = loss_channel_state(st, ch, "sig", ("e1", "e2"))
    reduced = partial_trace(dilated, ("keep", "sig"))
    assert np.abs(direct.matrix - reduced.matrix).max() <= 1e-10


def test_dilation_pure_loss_uses_vacuum():
    env, t, coupled = dilation(GaussChannel(0.5, 0.5))
    assert t == 0.5
    assert coupled == "env1"
    assert np.array_equal(env.matrix, np.eye(4))


@pytest.mark.parametrize("tau,v", [(1.0 - 2e-12, 1e-12), (1.0 - 1e-11, 0.0)])
def test_dilation_inside_the_channel_slack_uses_vacuum(tau, v):
    # v / (1 - tau) reads 0.5 and 0 here, yet v is within GaussChannel's
    # 1e-9 slack of the floor 1 - tau
    env, t, _ = dilation(GaussChannel(tau, v))
    assert t == tau
    assert np.array_equal(env.matrix, np.eye(4))


def test_dilation_thermal_environment_variance():
    ch = GaussChannel(0.25, 0.75 * 1.2)
    env, t, coupled = dilation(ch, ("a", "b"))
    assert t == 0.25
    assert coupled == "a"
    # the coupled arm of the environment pair carries the channel's
    # input-referred noise as its variance
    assert env.matrix[0, 0] == 0.75 * 1.2 / 0.75


@pytest.mark.parametrize(
    "tau,v", [(0.9999, 0.5), (0.9999, 1.9), (0.999999, 1.0), (0.99999999, 1.0), (0.3, 0.9)]
)
def test_dilation_round_trip_reads_the_channel_back(tau, v):
    # the environment is built from its arm variance eps = v/(1 - tau)
    # itself, its correlation the largest double c with (eps - c)(eps + c)
    # >= 1 exactly; rebuilt from the squeezing that solves for eps, v read
    # back 6.65e-9 off at tau = 0.99999999
    ch = GaussChannel(tau, v)
    env, _, _ = dilation(ch)
    eps, c = env.matrix[0, 0], env.matrix[0, 2]
    assert eps == v / (1.0 - tau)
    assert (Fraction(eps) - Fraction(c)) * (Fraction(eps) + Fraction(c)) >= 1
    above = Fraction(math.nextafter(c, math.inf))
    assert (Fraction(eps) - above) * (Fraction(eps) + above) < 1
    found = effective_channel(
        lambda probe: loss_channel_state(probe, ch, "probe_sig", ("N1", "N2"))
    )
    two_ulps = 2 * np.finfo(float).eps
    assert abs(found.tau - tau) <= two_ulps and abs(found.v - v) <= two_ulps


def test_dilation_identity():
    env, t, coupled = dilation(GaussChannel(1.0, 0.0))
    assert t == 1.0
    assert np.array_equal(env.matrix, np.eye(4))


def test_dilation_domain():
    with pytest.raises(ValueError, match="tau <= 1"):
        dilation(GaussChannel(1.5, 0.5))
    with pytest.raises(ValueError, match="no beam-splitter dilation"):
        dilation(GaussChannel(1.0, 0.3))


@pytest.mark.parametrize("tau,v", [(0.7, 0.3), (0.25, 0.7575), (0.9, 0.1 * 1.15)])
def test_effective_channel_identifies_loss(tau, v):
    ch = GaussChannel(tau, v)
    found = effective_channel(lambda probe: apply_channel(probe, ch, "probe_sig"))
    assert abs(found.tau - tau) <= 1e-9
    assert abs(found.v - v) <= 1e-9


def test_effective_channel_identity():
    found = effective_channel(lambda probe: probe)
    assert classify(found) is ChannelKind.IDENTITY


def test_effective_channel_rejects_bad_transform():
    with pytest.raises(TypeError, match="CovMat"):
        effective_channel(lambda probe: probe.matrix)

    def squeeze_signal(probe: CovMat) -> CovMat:
        s = Symplectic(np.diag([2.0, 0.5]), 1)
        return apply_symplectic(probe, s, ("probe_sig",))

    with pytest.raises(ValueError, match="phase-insensitive"):
        effective_channel(squeeze_signal)

    # a squeeze after the channel breaks the phase-insensitive form too
    def squeezed_after_loss(probe: CovMat) -> CovMat:
        lossy = apply_channel(probe, GaussChannel(0.5, 1.0), "probe_sig")
        return apply_symplectic(lossy, Symplectic(np.diag([1.05, 1 / 1.05]), 1), ("probe_sig",))

    with pytest.raises(ValueError, match=r"phase-insensitive on its input \(deviation 0\.358\)"):
        effective_channel(squeezed_after_loss)


def test_probe_channel_on_floats_reads_what_the_array_arithmetic_reads():
    # the float read takes ** on two floats, C pow, as np.float_power does
    # on an array; ** on an array squares, which rounds apart in about 1e-3
    # of cases: each state must read what the array arithmetic reads on the
    # whole stack
    probe = tmsv(0.5, ("probe_ref", "probe_sig"))._blocks
    taus = np.random.default_rng(11).uniform(0.05, 0.95, 4000)
    outs = np.stack([_channel_on_mode(probe, 1, t, 1.05 * (1.0 - t)) for t in taus], axis=1)
    a_in, c_in = probe[0, 0, 0], probe[0, 0, 1]
    tau = np.float_power(outs[0, :, 0, 1] / c_in, 2)
    v = np.maximum(outs[0, :, 1, 1] - tau * a_in, 0.0)
    assert ((outs[0, :, 0, 1] / c_in) ** 2 != tau).any()
    for k, pair in enumerate(zip(tau.tolist(), v.tolist())):
        channel = _probe_channel(outs[:, k], probe)
        assert (channel.tau, channel.v) == pair


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    tau=st.floats(0.05, 1.5),
    noise=st.floats(0.0, 2.0),
    kick=st.tuples(st.integers(0, 7), st.sampled_from([0.0, 1e-9, 3e-9, -2e-8, 0.4])),
    shift=st.sampled_from([0.0, 2e-9, -0.3]),
    atol=st.sampled_from([0.0, 1e-9, 1e-8, 0.5]),
)
def test_phase_check_on_floats_equals_the_array_arithmetic(tau, noise, kick, shift, atol):
    # one state is checked on Python floats, a stack of one on arrays: the
    # verdict and the refusal's text, deviation included, must agree. A
    # kick moves one entry; a shift moves the reference variance in both
    # quadratures, which only the comparison with a_in sees
    probe = tmsv(0.5, ("probe_ref", "probe_sig"))._blocks
    out = _channel_on_mode(probe, 1, tau, noise)
    where, size = kick
    out.reshape(-1)[where] += size
    out[:, 0, 0] += shift
    a_in = probe[0, 0, 0]
    lone = outcome(lambda: _check_phase_insensitive(out, a_in, atol))
    assert lone == outcome(lambda: _check_phase_insensitive(out[:, None], a_in, atol))


def _dilated_outcomes(state, channel, target, env):
    """loss_channel_state's state and, from the public pieces, apply_symplectic
    on direct_sum(state, the dilation's environment) with beam_splitter at
    the dilation's transmissivity: each state's blocks and spectrum as
    bytes, or its refusal's text, with the audit each left."""

    def lone():
        out = loss_channel_state(state, channel, target, env)
        return out.labels, out._blocks.tobytes(), out._nus.tobytes()

    def public():
        eps, t = _dilation_parameters(channel)
        joint = direct_sum(state, _environment(eps, env))
        out = apply_symplectic(joint, beam_splitter(t), (target, env[0]))
        return out.labels, out._blocks.tobytes(), out._nus.tobytes()

    return outcome(lone), outcome(public)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    zeta=st.floats(0.0, 0.99),
    eps=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
    tau=st.floats(0.0, 1.0, exclude_min=True),
)
def test_dilated_state_is_apply_symplectic_with_the_beam_splitter_bit_for_bit(zeta, eps, tau):
    # loss_channel_state mixes on the splitter's parts through
    # apply_symplectic's own congruence, with no Symplectic built
    channel = GaussChannel(tau, (1.0 - tau) * eps)
    lone, public = _dilated_outcomes(tmsv(zeta, ("A", "B")), channel, "B", ("E1", "E2"))
    assert lone == public


def test_dilated_state_on_verifys_draws_is_apply_symplectic_bit_for_bit():
    probe = tmsv(0.5, ("probe_ref", "probe_sig"))
    for tau, eps in _DILATION_DRAWS:
        channel = GaussChannel(tau, (1.0 - tau) * eps)
        lone, public = _dilated_outcomes(probe, channel, "probe_sig", ("N1", "N2"))
        assert lone == public
    for tau, eps, zeta in _CLONER_DRAWS:
        channel = GaussChannel(tau, (1.0 - tau) * eps)
        lone, public = _dilated_outcomes(tmsv(zeta, ("A", "B")), channel, "B", ("E1", "E2"))
        assert lone == public
