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
    _checked,
    _congruence,
    _splitter_part,
    _tmsv_correlation,
    _tmsv_state,
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
    use an absolute tolerance of 1e-12 above the floor; a v below it, which
    GaussChannel admits down to its 1e-9 slack, is on the floor, as the
    dilation reads it (_dilation_parameters).
    """
    tau, v = channel.tau, channel.v
    if abs(tau - 1.0) <= KIND_TOL:
        return ChannelKind.IDENTITY if abs(v) <= KIND_TOL else ChannelKind.ADDITIVE_NOISE
    floor = abs(1.0 - tau)
    on_floor = v - floor <= KIND_TOL
    if tau < 1.0:
        return ChannelKind.PURE_LOSS if on_floor else ChannelKind.THERMAL_LOSS
    return ChannelKind.PURE_AMPLIFIER if on_floor else ChannelKind.THERMAL_AMPLIFIER


def is_entanglement_breaking(channel: GaussChannel) -> bool:
    """True when v >= 1 + tau, the point where the channel output stays
    separable from anything the input was entangled with."""
    return channel.v >= 1.0 + channel.tau - KIND_TOL


def apply_channel(state: CovMat, channel: GaussChannel, target_label: str) -> CovMat:
    """Act with the channel on one mode of a multimode state."""
    out = _channel_on_mode(state._blocks, state.index(target_label), channel.tau, channel.v)
    return _checked(out, state.labels)


def dilation(channel: GaussChannel, env_labels: tuple[str, str] = ("env1", "env2")):
    """Stinespring-style model of a lossy channel: a beam splitter of
    transmissivity tau coupling the signal to one arm of an environment TMSV.

    Returns (environment CovMat, beam splitter transmissivity, label of the
    coupled environment mode), from _dilation_parameters.
    """
    eps, t = _dilation_parameters(channel)
    return _environment(eps, env_labels), t, env_labels[0]


def _dilation_parameters(channel: GaussChannel) -> tuple[float, float]:
    """(eps, t) of the channel's dilation: the variance of each arm of the
    environment tmsv and the beam splitter's transmissivity. eps is the
    input-referred noise v/(1 - tau), 1 (vacuum) on exact pure loss and
    below it, where GaussChannel's slack admits v down to 1 - tau - 1e-9;
    the identity gets vacuum and t = 1. Only loss channels (tau < 1) and
    the identity admit this model here. The environment is built from eps
    itself (_environment): rebuilt from the squeezing gamma that solves
    (1 + gamma^2)/(1 - gamma^2) = eps, its variance would be off by a
    relative ~2^-52 eps (8.9e-5 at eps = 2e12).
    """
    tau, v = channel.tau, channel.v
    if tau > 1.0 + KIND_TOL:
        raise ValueError("beam-splitter dilation covers tau <= 1 only")
    if abs(tau - 1.0) <= KIND_TOL:
        if abs(v) > KIND_TOL:
            raise ValueError("additive-noise channel has no beam-splitter dilation")
        return 1.0, 1.0
    return max(v / (1.0 - tau), 1.0), tau


def _environment(eps: float, labels: tuple[str, str]) -> CovMat:
    """The dilation's environment: the tmsv whose arms have variance eps,
    its correlation rounded to the physical side as tmsv's is
    (gaussian._tmsv_correlation)."""
    return _tmsv_state(eps, _tmsv_correlation(eps), labels)


def effective_channel(transform) -> GaussChannel:
    """Identify the (tau, v) pair a black-box state transformation implements.

    transform receives a tmsv(0.5) probe CovMat labeled ("probe_ref",
    "probe_sig"), acts on the signal arm however it likes, and returns a
    state still containing both probe labels. The output must retain the
    standard phase-insensitive form (x and p entries matching up to sign
    within 1e-8). The one reduced state is read on Python floats
    (_probe_channel).
    """
    probe = tmsv(0.5, ("probe_ref", "probe_sig"))
    out = transform(probe)
    if not isinstance(out, CovMat):
        raise TypeError("transform must return a CovMat")
    reduced = partial_trace(out, ("probe_ref", "probe_sig"))
    return _probe_channel(reduced._blocks, probe._blocks)


def _probe_channel(out: np.ndarray, probe: np.ndarray) -> GaussChannel:
    """The channel (tau, v >= 0) that took the TMSV probe on (probe_ref,
    probe_sig) to out, both given as x blocks over p blocks (2, 2, 2),
    read on Python floats; out must keep the phase-insensitive form within
    1e-8 (_check_phase_insensitive) and the pair be a physical
    GaussChannel. ** on two floats is C pow, as np.float_power is on an
    array (** on an array squares, which rounds differently in about 1e-3
    of cases)."""
    a_in, c_in = float(probe[0, 0, 0]), float(probe[0, 0, 1])
    _check_phase_insensitive(out, a_in, 1e-8)
    cross, variance = float(out[0, 0, 1]), float(out[0, 1, 1])
    tau = (cross / c_in) ** 2
    return GaussChannel(tau, max(variance - tau * a_in, 0.0))


def _check_phase_insensitive(out: np.ndarray, a_in: float, atol: float) -> None:
    """Raise unless out, x blocks over p blocks (2, ..., 2, 2), is a tmsv
    with reference variance a_in after a phase-insensitive channel on its
    second mode, within atol: x and p blocks equal up to the cross sign,
    the reference untouched. One state (2, 2, 2), whose entries its
    callers have validated finite, is read on Python floats by the same
    arithmetic."""
    if out.ndim == 3:
        x00, x01, x10, x11, p00, p01, p10, p11 = out.ravel().tolist()
        dev = max(map(abs, (x00 - p00, x01 + p01, x10 + p10, x11 - p11, x00 - a_in)))
        bad = [dev] if dev > atol else []
    else:
        dev = np.abs(out[0] - out[1] * np.array([[1.0, -1.0], [-1.0, 1.0]])).max(axis=(-2, -1))
        dev = np.maximum(dev, np.abs(out[0, ..., 0, 0] - a_in))
        bad = dev[dev > atol]
    if len(bad):
        raise ValueError(
            f"transform is not phase-insensitive on its input (deviation {bad[0]:.3g})"
        )


def loss_channel_state(
    state: CovMat, channel: GaussChannel, target_label: str, env_labels: tuple[str, str]
) -> CovMat:
    """Apply a loss channel by explicit dilation, keeping the environment
    modes: the dilation's environment (_dilation_parameters, _environment)
    on env_labels, its first arm mixed with target_label on the splitter's
    parts by apply_symplectic's congruence (gaussian._congruence), with no
    Symplectic built. Its arm variance v/(1 - tau) grows without bound as
    tau -> 1, so attacks.cloner_attack takes Eve's view of the channel from
    the teleportation attack's tap instead, whose entries stay O(1)."""
    eps, t = _dilation_parameters(channel)
    joint = direct_sum(state, _environment(eps, env_labels))
    part = _splitter_part(t)
    return _congruence(joint, np.array([part, part]), (target_label, env_labels[0]))
