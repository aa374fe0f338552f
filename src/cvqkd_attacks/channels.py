"""Single-mode phase-insensitive Gaussian channels.

A channel is the pair (tau, v): the diagonal block of an affected mode maps
to tau * block + v * I2 and its correlations with every other mode scale by
sqrt(tau).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    CovMat,
    _channel_on_mode,
    apply_symplectic,
    beam_splitter,
    direct_sum,
    partial_trace,
    tmsv,
)

KIND_TOL = 1e-12
_PHYS_SLACK = 1e-9


class ChannelKind(enum.Enum):
    IDENTITY = "identity"
    PURE_LOSS = "pure_loss"
    THERMAL_LOSS = "thermal_loss"
    PURE_AMPLIFIER = "pure_amplifier"
    THERMAL_AMPLIFIER = "thermal_amplifier"
    ADDITIVE_NOISE = "additive_noise"


@dataclass(frozen=True)
class GaussChannel:
    """Phase-insensitive channel with transmissivity tau > 0 and finite added
    noise v >= 0.

    Physicality requires v >= |1 - tau|; construction rejects anything below
    that floor by more than a small slack.
    """

    tau: float
    v: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"transmissivity must be positive, got {self.tau}")
        if not self.v >= 0.0:
            raise ValueError(f"added noise must be nonnegative, got {self.v}")
        if math.isinf(self.v):
            raise ValueError(f"added noise must be finite, got {self.v}")
        floor = abs(1.0 - self.tau)
        if self.v < floor - _PHYS_SLACK:
            raise ValueError(
                f"unphysical channel: v = {self.v} below the floor |1 - tau| = {floor}"
            )

    @property
    def excess_noise(self) -> float:
        """Noise referred to the channel input, v / (1 - tau) style; see classify."""
        if abs(self.tau - 1.0) <= KIND_TOL:
            return self.v
        return self.v / abs(1.0 - self.tau)


def classify(channel: GaussChannel) -> ChannelKind:
    """Place the channel in the phase-insensitive taxonomy.

    tau = 1: identity when v = 0, additive noise otherwise. tau < 1: pure loss
    when v sits on the floor 1 - tau, thermal loss above it. tau > 1: pure
    amplifier on the floor tau - 1, thermal amplifier above it. Comparisons
    use an absolute tolerance of 1e-12.
    """
    tau, v = channel.tau, channel.v
    if abs(tau - 1.0) <= KIND_TOL:
        return ChannelKind.IDENTITY if abs(v) <= KIND_TOL else ChannelKind.ADDITIVE_NOISE
    floor = abs(1.0 - tau)
    on_floor = abs(v - floor) <= KIND_TOL
    if tau < 1.0:
        return ChannelKind.PURE_LOSS if on_floor else ChannelKind.THERMAL_LOSS
    return ChannelKind.PURE_AMPLIFIER if on_floor else ChannelKind.THERMAL_AMPLIFIER


def is_entanglement_breaking(channel: GaussChannel) -> bool:
    """True when v >= 1 + tau, the point where the channel output stays
    separable from anything the input was entangled with."""
    return channel.v >= 1.0 + channel.tau - KIND_TOL


def apply_channel(state: CovMat, channel: GaussChannel, target_label: str) -> CovMat:
    """Act with the channel on one mode of a multimode state."""
    out = _channel_on_mode(state.matrix, state.index(target_label), channel.tau, channel.v)
    return CovMat(out, state.labels)


def dilation(channel: GaussChannel, env_labels: tuple[str, str] = ("env1", "env2")):
    """Stinespring-style model of a lossy channel: a beam splitter of
    transmissivity tau coupling the signal to one arm of an environment TMSV.

    Returns (environment CovMat, beam splitter transmissivity, label of the
    coupled environment mode). The environment squeezing solves
    (1 + gamma^2)/(1 - gamma^2) = v/(1 - tau); pure loss uses vacuum. Only
    loss channels (tau < 1) and the identity admit this model here.
    """
    tau, v = channel.tau, channel.v
    if tau > 1.0 + KIND_TOL:
        raise ValueError("beam-splitter dilation covers tau <= 1 only")
    if abs(tau - 1.0) <= KIND_TOL:
        if abs(v) > KIND_TOL:
            raise ValueError("additive-noise channel has no beam-splitter dilation")
        env = tmsv(0.0, env_labels)
        return env, 1.0, env_labels[0]
    eps = v / (1.0 - tau)
    if eps < 1.0 - _PHYS_SLACK:
        raise ValueError(f"environment variance {eps} below vacuum")
    eps = max(eps, 1.0)
    gamma_env = math.sqrt((eps - 1.0) / (eps + 1.0))
    return tmsv(gamma_env, env_labels), tau, env_labels[0]


def effective_channel(
    transform, gamma_probe: float = 0.5, atol: float = 1e-8
) -> GaussChannel:
    """Identify the (tau, v) pair a black-box state transformation implements.

    transform receives a TMSV probe CovMat labeled ("probe_ref", "probe_sig"),
    acts on the signal arm however it likes, and returns a state still
    containing both probe labels. The output must retain the standard
    phase-insensitive form (x and p entries matching up to sign within atol).
    """
    if not 0.0 < gamma_probe < 1.0:
        raise ValueError(f"probe squeezing must lie in (0, 1), got {gamma_probe}")
    probe = tmsv(gamma_probe, ("probe_ref", "probe_sig"))
    out = transform(probe)
    if not isinstance(out, CovMat):
        raise TypeError("transform must return a CovMat")
    reduced = partial_trace(out, ("probe_ref", "probe_sig"))
    tau, v = _probe_channel(reduced.matrix, probe.matrix, atol)
    return GaussChannel(float(tau), float(v))


def _probe_channel(out: np.ndarray, probe: np.ndarray, atol: float = 1e-8):
    """(tau, v >= 0) of the channel that took the TMSV probe matrix on
    (probe_ref, probe_sig) to out, or to each matrix of a (..., 4, 4) stack;
    each output must keep the phase-insensitive form within atol
    (_check_phase_insensitive) and each pair be a physical GaussChannel."""
    a_in, c_in = probe[0, 0], probe[0, 2]
    _check_phase_insensitive(out, a_in, atol)
    # float_power is C pow on every element, as ** is on one scalar; ** on
    # an array squares, which rounds differently in about 1e-3 of cases
    tau = np.float_power(out[..., 0, 2] / c_in, 2)
    v = np.maximum(out[..., 2, 2] - tau * a_in, 0.0)
    for pair in zip(np.ravel(tau).tolist(), np.ravel(v).tolist()):
        GaussChannel(*pair)
    return tau, v


def _check_phase_insensitive(out: np.ndarray, a_in: float, atol: float) -> None:
    """Raise unless out, or each matrix of a (..., 4, 4) stack, is a tmsv
    with reference variance a_in after a phase-insensitive channel on its
    second mode, within atol: x and p blocks equal up to the cross sign, no
    x-p terms, the reference untouched."""
    xx_pp = out[..., ::2, ::2] - out[..., 1::2, 1::2] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    dev = np.abs(np.concatenate([xx_pp, out[..., ::2, 1::2]], axis=-1)).max(axis=(-2, -1))
    dev = np.maximum(dev, np.abs(out[..., 0, 0] - a_in))
    bad = dev > atol
    if bad.any():
        raise ValueError(
            f"transform is not phase-insensitive on its input (deviation {dev[bad][0]:.3g})"
        )


def loss_channel_state(
    state: CovMat, channel: GaussChannel, target_label: str, env_labels: tuple[str, str]
) -> CovMat:
    """Apply a loss channel by explicit dilation, keeping the environment modes."""
    env, t, coupled = dilation(channel, env_labels)
    joint = direct_sum(state, env)
    return apply_symplectic(joint, beam_splitter(t), (target_label, coupled))
