"""Teleportation-based channel simulation, both protocols."""

import math

import numpy as np
import pytest

from cvqkd_attacks.channels import GaussChannel, effective_channel
from cvqkd_attacks.gaussian import thermal, tmsv
from cvqkd_attacks.teleportation import (
    ResourceState,
    TeleportConfig,
    ao_effective_channel,
    ao_simulate,
    bk_effective_channel,
)


def test_resource_state_validation():
    with pytest.raises(ValueError, match="diagonals"):
        ResourceState(0.9, 1.5, 0.0)
    with pytest.raises(ValueError, match="correlation"):
        ResourceState(1.5, 1.5, -0.1)
    with pytest.raises(ValueError, match="unphysical"):
        ResourceState(1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="squeezing"):
        ResourceState.from_tmsv(1.0)


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
