"""Phase-insensitive channel layer: taxonomy, dilation, identification."""

import math

import numpy as np
import pytest

from conftest import random_two_mode_state
from cvqkd_attacks.channels import (
    ChannelKind,
    GaussChannel,
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
    partial_trace,
    tmsv,
)


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
    assert math.isclose(env.matrix[0, 0], 1.2, rel_tol=1e-12)


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


def test_effective_channel_refuses_a_nan_tolerance():
    # a squeeze after the channel breaks the phase-insensitive form; a NaN
    # atol would pass every deviation and return a channel
    def squeezed_after_loss(probe: CovMat) -> CovMat:
        lossy = apply_channel(probe, GaussChannel(0.5, 1.0), "probe_sig")
        return apply_symplectic(lossy, Symplectic(np.diag([1.05, 1 / 1.05]), 1), ("probe_sig",))

    with pytest.raises(ValueError, match=r"phase-insensitive on its input \(deviation 0\.358\)"):
        effective_channel(squeezed_after_loss)
    for atol in (math.nan, -1e-8):
        with pytest.raises(ValueError, match=r"^phase tolerance must be >= 0, got"):
            effective_channel(squeezed_after_loss, atol=atol)


@pytest.mark.parametrize("gamma_probe", [0.0, 1.0, -0.2])
def test_effective_channel_probe_domain(gamma_probe):
    with pytest.raises(ValueError, match="probe squeezing"):
        effective_channel(lambda probe: probe, gamma_probe=gamma_probe)


def test_probe_channel_on_a_stack_equals_each_matrix_alone():
    # on an array ** 2 squares, on a lone scalar it calls pow, and the two
    # round apart in about 1e-3 of cases: a stack must read what each
    # matrix reads alone
    probe = tmsv(0.5, ("probe_ref", "probe_sig"))._blocks
    taus = np.random.default_rng(11).uniform(0.05, 0.95, 4000)
    outs = np.stack([_channel_on_mode(probe, 1, t, 1.05 * (1.0 - t)) for t in taus], axis=1)
    tau, v = _probe_channel(outs, probe)
    for k, pair in enumerate(zip(tau.tolist(), v.tolist())):
        assert tuple(map(float, _probe_channel(outs[:, k], probe))) == pair
