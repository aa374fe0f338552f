"""Effective channels realized by CV teleportation over a two-mode resource.

Two protocols are covered: the standard measurement-based one (here only via
its closed-form effective channel) and the all-optical variant built from a
two-mode squeezer, the physical channel between the stations, and a beam
splitter. Both turn the teleporter into a phase-insensitive GaussChannel
acting on the teleported mode. The all-optical circuit, with a tap on its
second resource arm, is also the one the teleportation attack runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelKind, GaussChannel, apply_channel, classify
from .gaussian import (
    CovMat,
    TwoModeStd,
    _act_on_modes,
    _block_diag,
    _embedded,
    _splitter_matrix,
    _squeezer_matrix,
    _tmsv_entries,
    _tmsv_matrices,
    _two_mode_std,
    thermal,
)


@dataclass(frozen=True)
class ResourceState:
    """Two-mode resource in symmetric-sign standard form.

    Blocks diag(a, a), diag(b, b) and cross block diag(c, -c) with a, b >= 1
    and c >= 0. Anything outside this form is rejected, not generalized.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a >= 1.0 and self.b >= 1.0):
            raise ValueError(f"resource diagonals must be >= 1, got a={self.a}, b={self.b}")
        if not self.c >= 0.0:
            raise ValueError(f"resource correlation must be >= 0, got c={self.c}")
        self.to_covmat()  # physicality check

    @classmethod
    def from_tmsv(cls, gamma: float) -> "ResourceState":
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"tmsv squeezing must lie in [0, 1), got {gamma}")
        a, c = _tmsv_entries(gamma)
        return cls(a, a, c)

    def to_covmat(self, labels: tuple[str, str] = ("res1", "res2")) -> CovMat:
        return TwoModeStd(self.a, self.b, self.c, -self.c).to_covmat(labels)


@dataclass(frozen=True)
class TeleportConfig:
    """Gain settings for the all-optical teleporter.

    lam: teleportation gain (the effective transmissivity of the teleported
        channel).
    g: amplifier gain, > 1, or math.inf for the asymptotic protocol, the
        exact g -> inf limit: standard Braunstein-Kimble teleportation.
    env: the physical channel linking the two stations.

    The splitter transmissivity t = lam / (g tau) must land in [0, 1]; it is
    0 at g = inf.
    """

    lam: float
    g: float
    env: GaussChannel

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ValueError(f"teleportation gain must be >= 0, got {self.lam}")
        if not self.g > 1.0:
            raise ValueError(f"amplifier gain must be > 1 or inf, got {self.g}")
        if not self.splitter_transmissivity() <= 1.0:
            raise ValueError(
                f"lam = {self.lam} exceeds g*tau = {self.g * self.env.tau}; "
                "splitter transmissivity would leave [0, 1]"
            )

    def splitter_transmissivity(self) -> float:
        return self.lam / (self.g * self.env.tau)


def bk_effective_channel(res: ResourceState, lam: float) -> GaussChannel:
    """Channel realized by standard CV teleportation at gain lam:
    tau_tel = lam, v_tel = a lam - 2 c sqrt(lam) + b."""
    if not lam >= 0.0:
        raise ValueError(f"teleportation gain must be >= 0, got {lam}")
    if math.isinf(lam):
        raise ValueError(f"teleportation gain must be finite, got {lam}")
    v_tel = res.a * lam - 2.0 * res.c * math.sqrt(lam) + res.b
    try:
        return GaussChannel(lam, v_tel)
    except ValueError as exc:
        raise ValueError(f"resource cannot realize this gain: {exc}") from None


def ao_effective_channel(res: ResourceState, cfg: TeleportConfig) -> GaussChannel:
    """Channel realized by the all-optical teleporter at amplifier gain g.

    v_tel = a lam - 2 c sqrt(lam (1 - 1/g)(tau - lam/g) / tau)
            - lam (a tau + b - v) / (tau g) + b

    where (tau, v) is the physical channel between the stations. Converges to
    the standard-teleportation channel as g grows, and is that channel at
    g = inf. The radicand is written in 1/g, as g^2 overflows from g ~ 1e154.
    """
    if math.isinf(cfg.g):
        return bk_effective_channel(res, cfg.lam)
    g = cfg.g
    tau, v = cfg.env.tau, cfg.env.v
    lam = cfg.lam
    radicand = lam * (1.0 - 1.0 / g) * (tau - lam / g) / tau
    if radicand < 0.0:
        raise ValueError(f"g*tau = {g * tau} below lam = {lam}: radical is imaginary")
    v_tel = (
        res.a * lam
        - 2.0 * res.c * math.sqrt(radicand)
        - lam * (res.a * tau + res.b - v) / (tau * g)
        + res.b
    )
    try:
        return GaussChannel(lam, v_tel)
    except ValueError as exc:
        raise ValueError(f"resource cannot realize this gain: {exc}") from None


def _is_pure_loss_like(channel: GaussChannel) -> bool:
    return classify(channel) in (ChannelKind.PURE_LOSS, ChannelKind.IDENTITY)


def _check_gain(g: float) -> None:
    if not (g > 1.0 and math.isfinite(g)):
        raise ValueError(f"amplifier gain must be a finite value > 1, got {g}")


def _tapped_auxiliary(channel: GaussChannel, eta, kappa):
    """Eve's tap transmissivities and auxiliary state, checked: eta in
    [0, 1], kappa in [0, 1), as arrays; tmsv(kappa) on (F1, F2), one per
    kappa, or a single vacuum F1 for pure-loss channels. Returns eta, the
    auxiliary matrix (or stack) and its labels."""
    eta = np.asarray(eta, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    outside = ~((0.0 <= eta) & (eta <= 1.0))
    if outside.any():
        raise ValueError(f"mixing transmissivity must lie in [0, 1], got {eta[outside][0]}")
    outside = ~((0.0 <= kappa) & (kappa < 1.0))
    if outside.any():
        raise ValueError(f"auxiliary squeezing must lie in [0, 1), got {kappa[outside][0]}")

    if _is_pure_loss_like(channel):
        if (kappa != 0.0).any():
            raise ValueError("pure-loss channel pins the auxiliary state to vacuum (kappa = 0)")
        return eta, thermal(1.0, "F1").matrix, ("F1",)
    return eta, _tmsv_matrices(kappa), ("F1", "F2")


def _eve_local_map(tau: float, t: float) -> np.ndarray:
    """Eve's local map on her amplified pair (R1, R2) after the recombiner
    of transmissivity t: the inverse two-mode squeezer with
    tanh r = sqrt(tau (1 - t)).

    Both modes carry the Bell record u = (x_B + x_R1, p_B - p_R1) of
    _bell_record_raw, amplified: R1 as sqrt(g) u in x and its negative in
    p, R2 as sqrt(tau (1 - t) g) u in both, up to O(1) terms. The map
    gathers it into the first output, P, as +/- sqrt(g) u / cosh r, and
    leaves the second, Q, with O(1) entries, so only P grows with g. At
    tau (1 - t) = 1 (lossless channel, t = 0) the map would be singular;
    the identity is used there.
    """
    tanh2 = tau * (1.0 - t)
    if tanh2 >= 1.0:
        return np.eye(4)
    cosh = 1.0 / math.sqrt(1.0 - tanh2)
    sinh = math.sqrt(tanh2) * cosh
    return np.array(
        [
            [cosh, 0.0, -sinh, 0.0],
            [0.0, cosh, 0.0, sinh],
            [-sinh, 0.0, cosh, 0.0],
            [0.0, sinh, 0.0, cosh],
        ]
    )


def _pipeline_raw(
    input_matrix: np.ndarray,
    channel: GaussChannel,
    resource: np.ndarray,
    eta,
    kappa,
    g: float,
    t: float | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The all-optical teleporter with a tap on its second resource arm,
    teleporting the second mode of a two-mode input (A, B), with the
    channel's environment traced out.

    Resource matrix on (R1, R2); auxiliary tmsv(kappa) on (F1, F2), or a
    single vacuum F1 for pure-loss channels. Order: squeeze (signal, R1) at
    gain g, send the signal through the channel, mix (R2, F1) at eta,
    recombine (signal, R2) at t, which defaults to 1/g, the attack's choice.
    eta = 1 is an exact identity on (R2, F1), which leaves the plain
    teleporter. Tracing the channel's environment commutes with the later
    optics, so the channel map is applied in place of its dilation. Eve's
    amplified pair then leaves through _eve_local_map as (P, Q); every
    quantity reported is invariant under a symplectic on Eve's modes alone.

    The circuit's linear map M and the channel noise N, the noise pushed
    through the optics after the channel, are composed first and
    left-multiplied by the local map, and the output M sigma_in M^T + N is
    formed once. Only P's entries grow with g, to ~g a, while every other
    entry stays O(1), so the matrix is graded and its small symplectic
    eigenvalues stay resolvable in double precision (see _fast_spectrum).
    Forming the raw (R1, R2) output first and mapping it afterwards would
    not do: its rounding, ~eps g a in every amplified entry, survives the
    map. Returns the raw kept matrix on (A, B, P, Q, F1) or, off pure loss,
    (A, B, P, Q, F1, F2), with those labels.

    eta and kappa may be 1-D arrays of one length: the result is then the
    stack of kept matrices, one per (eta, kappa) pair, with the auxiliary
    states and splitters validated as stacks. Scalars give one 2-D matrix.
    The resource may be one matrix shared by every pair or a matching
    (..., 4, 4) stack, one per pair.
    """
    _check_gain(g)
    t = 1.0 / g if t is None else t
    eta, aux, aux_labels = _tapped_auxiliary(channel, eta, kappa)
    joint = _block_diag(input_matrix, resource, aux)
    dim = joint.shape[-1]
    # modes: the signal B is mode 1, then R1, R2 and F1
    squeeze = _embedded(_squeezer_matrix(g), (1, 2), dim)
    squeeze[..., 2:4, :] *= math.sqrt(channel.tau)
    after = _embedded(_splitter_matrix(t), (1, 3), dim) @ _embedded(
        _splitter_matrix(eta), (3, 4), dim
    )
    local = _embedded(_eve_local_map(channel.tau, t), (2, 3), dim)
    linear = local @ (after @ squeeze)
    noise = local @ after[..., :, 2:4]
    joint = linear @ joint @ np.swapaxes(linear, -1, -2)
    joint += channel.v * (noise @ np.swapaxes(noise, -1, -2))
    return 0.5 * (joint + np.swapaxes(joint, -1, -2)), ("A", "B", "P", "Q") + aux_labels


def _bell_record_raw(
    alice: np.ndarray, channel: GaussChannel, resource: np.ndarray, eta, kappa
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """_pipeline_raw's circuit on Alice's tmsv (A, B) in the limit g -> inf.

    There the amplified modes R1 and R2 carry sqrt(g) times the commuting
    pair u = (x_B + x_R1, p_B - p_R1), the outcome of a Braunstein-Kimble
    Bell measurement on (B, R1), and Bob's mode leaves the recombining
    splitter as sqrt(tau) u - R2', with R2' = sqrt(eta) R2 - sqrt(1-eta) F1
    the tapped arm and F1' = sqrt(1-eta) R2 + sqrt(eta) F1 its partner. The
    channel's own noise reaches that output suppressed by 1/sqrt(g) and is
    independent of the rest, so it drops out. Eve keeps the classical record
    u, F1' and, off pure loss, F2.

    Returns (ab, given_u, labels): the state of (A, B), and the matrix of
    (A, B, F1', F2), or (A, B, F1'), conditioned on u, with those labels.
    The conditioning is done on the inputs, in closed form. With (a_in,
    c_in) and (a, c) the tmsv entries of Alice's state and of the resource,
    and s = a + a_in the variance of each of u's quadratures, (A, R2) given
    u is a two-mode Gaussian state with diagonal entries
    (a a_in + a_in^2 - c_in^2) / s and (a a_in + a^2 - c^2) / s and cross
    entries -/+ c c_in / s. Each a^2 - c^2 is taken as (a - c)(a + c), whose
    difference is exact once c >= a / 2 (squeezing >= 0.27; below it nothing
    large cancels), so no O(a) terms cancel. A Schur complement on u of the
    formed matrix would leave ~eps a in every entry, up to 5e-11 bits at
    gamma = 0.9999. The tap then acts on the conditional state, Bob's mode
    given u is -R2', and ab adds back u's share, cross cross^T / s. Scalars
    or 1-D arrays of eta and kappa, and one resource or a stack of them, as
    for _pipeline_raw.
    """
    eta, aux, aux_labels = _tapped_auxiliary(channel, eta, kappa)
    a_in, c_in = alice[0, 0], alice[0, 2]
    a, c = resource[..., 0, 0], resource[..., 0, 2]
    s = a + a_in
    pair = _two_mode_std(
        (a * a_in + (a_in - c_in) * (a_in + c_in)) / s,
        (a * a_in + (a - c) * (a + c)) / s,
        -c * c_in / s,
        c * c_in / s,
    )
    given_u = _act_on_modes(_block_diag(pair, aux), _splitter_matrix(eta), (1, 2))
    given_u = 0.5 * (given_u + np.swapaxes(given_u, -1, -2))
    given_u[..., 2:4, :] *= -1.0
    given_u[..., :, 2:4] *= -1.0
    # covariances of (A, B) with u: c_in Z from Alice's pair, and
    # sqrt(tau) s - sqrt(eta) c for Bob's mode in both quadratures
    cross = np.zeros(eta.shape + (4, 2))
    cross[..., 0, 0], cross[..., 1, 1] = c_in, -c_in
    cross[..., 2, 0] = cross[..., 3, 1] = math.sqrt(channel.tau) * s - np.sqrt(eta) * c
    ab = given_u[..., :4, :4] + cross @ np.swapaxes(cross, -1, -2) / s[..., None, None]
    return ab, given_u, ("A", "B") + aux_labels


def ao_simulate(state: CovMat, res: ResourceState, cfg: TeleportConfig) -> CovMat:
    """Run the all-optical pipeline on a two-mode state, teleporting its
    second mode, and return the surviving two-mode state.

    Steps: adjoin the resource, amplify (signal, resource arm 1) with the
    two-mode squeezer of gain g, send the amplified signal through the
    physical channel, recombine (signal, resource arm 2) on the beam splitter
    of transmissivity t = lam/(g tau), then trace out both resource arms.
    This is _pipeline_raw with its tap at eta = 1 and a vacuum auxiliary. At
    g = inf the teleporter is the standard one: its channel,
    ao_effective_channel, acts on the second mode.
    """
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode input state, got {state.n_modes} modes")
    if math.isinf(cfg.g):
        return apply_channel(state, ao_effective_channel(res, cfg), state.labels[1])
    # the resource was validated when it was built, and it is frozen
    resource = _two_mode_std(res.a, res.b, res.c, -res.c)
    t = cfg.splitter_transmissivity()
    mat, _ = _pipeline_raw(state.matrix, cfg.env, resource, 1.0, 0.0, cfg.g, t)
    return CovMat(mat[:4, :4], state.labels)
