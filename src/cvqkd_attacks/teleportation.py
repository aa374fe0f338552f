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

from .channels import GaussChannel, apply_channel
from .gaussian import (
    CovMat,
    _block_diag,
    _certified,
    _checked,
    _embedded,
    _splitter_part,
    _squeezer_parts,
    _tmsv_entries,
    _two_mode_nus,
    _two_mode_std,
)

# The teleportation attack's modes: Alice's pair (A, B), Eve's amplified
# resource arms (P, Q) in her local basis (_eve_local_map), and the two
# modes (F1, F2) her tap leaves her, in her local basis too
# (_tapped_auxiliary), on every channel. _pipeline_raw returns its state in
# this order. At g = inf (_bell_record_raw) P and Q become the classical
# Bell record u, and the state given u keeps _BELL_RECORD_MODES.
_ATTACK_MODES = ("A", "B", "P", "Q", "F1", "F2")
_BELL_RECORD_MODES = _ATTACK_MODES[:2] + _ATTACK_MODES[4:]


@dataclass(frozen=True)
class ResourceState:
    """Two-mode resource in symmetric-sign standard form.

    Blocks diag(a, a), diag(b, b) and cross block diag(c, -c) with a, b >= 1
    and c >= 0. Anything outside this form is rejected, not generalized.
    Construction certifies the state by its closed-form spectrum
    (_two_mode_nus), which also tells that it is positive definite, and
    counts it once in the physicality audit, with no CovMat built.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a >= 1.0 and self.b >= 1.0):
            raise ValueError(f"resource diagonals must be >= 1, got a={self.a}, b={self.b}")
        if not self.c >= 0.0:
            raise ValueError(f"resource correlation must be >= 0, got c={self.c}")
        a, b, c = self.a, self.b, self.c
        _certified(_two_mode_std(a, b, c), _two_mode_nus(a, b, c))

    @classmethod
    def from_tmsv(cls, gamma: float) -> "ResourceState":
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"tmsv squeezing must lie in [0, 1), got {gamma}")
        a, c = _tmsv_entries(gamma)
        return cls(a, a, c)

    def to_covmat(self, labels: tuple[str, str] = ("res1", "res2")) -> CovMat:
        """The resource as a CovMat, certified as at construction."""
        a, b, c = self.a, self.b, self.c
        return _checked(_two_mode_std(a, b, c), labels, _two_mode_nus(a, b, c))


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


def _tapped_auxiliary(eta, m):
    """Eve's tap on the resource arm R2, checked: eta in [0, 1] and her
    auxiliary noise m finite and >= d = 1 - eta, as arrays, and 0 at eta = 1,
    where any other m needs an infinitely squeezed auxiliary. Returns eta and
    the x over p parts (2, ..., 3, 3) of one map per (eta, m) from
    (R2, v1, v2), v1 and v2 vacuum, to (R2', F1, F2): the entangling
    cloner of the channel (eta, m), on which attacks.cloner_attack runs.

    R2 is mixed at eta with F1 of tmsv(kappa) = S(r) vacuum, cosh 2r = m / d,
    which adds the noise m; Eve then undoes the squeezing past cosh 2r0 = 3
    with S(rho)^-1 on her (F1, F2), rho = max(r - r0, 0), which no reported
    quantity sees (as for _eve_local_map). With s = +1 for x and -1 for p,
    q = 1 + sqrt(eta), w_pm = sqrt((m +/- d) / 2) = sqrt(d) (cosh, sinh) r,
    W_pm = sqrt(d) (cosh, sinh) rho and (c, s') = (cosh, sinh)(r - rho):
        R2' = sqrt(eta) R2 - w_+ v1 - s w_- v2
        F1  = W_+ R2 + (c - W_+ w_+ / q) v1 + s (s' - W_+ w_- / q) v2
        F2  = -s W_- R2 + s (s' + W_- w_+ / q) v1 + (c + W_- w_- / q) v2.
    Every entry is O(1) however close kappa comes to 1, where no pair of
    doubles holds a pure tmsv(kappa). Below the cap W_+ = sqrt(d) and
    W_- = 0 exactly, so R2 reaches Eve through F1 alone, by the splitter's
    (sqrt(eta), sqrt(d)): undoing all of the squeezing (rho = r) would leave
    F2 a share of R2, whose rounding costs 1e-10 bits at gamma = 0.9999
    (a ~ 1e4) and g = 100. At m = d, F2 is an exact, decoupled vacuum.
    """
    eta, m = np.broadcast_arrays(np.asarray(eta, dtype=float), np.asarray(m, dtype=float))
    outside = ~((0.0 <= eta) & (eta <= 1.0))
    if outside.any():
        raise ValueError(f"mixing transmissivity must lie in [0, 1], got {eta[outside][0]}")
    if not np.isfinite(m).all():
        raise ValueError(f"auxiliary noise {m[~np.isfinite(m)][0]} is not finite")
    d = 1.0 - eta
    short = ~(m >= d)
    if short.any():
        raise ValueError(f"auxiliary noise {m[short][0]} below 1 - eta = {d[short][0]}")
    if (hot := (d == 0.0) & (m > 0.0)).any():
        raise ValueError(f"auxiliary noise {m[hot][0]} at eta = 1 needs kappa = 1")
    q = 1.0 + np.sqrt(eta)
    w_plus, w_minus = np.sqrt(0.5 * (m + d)), np.sqrt(0.5 * (m - d))
    # ratio = cosh 2r; kept = cosh 2(r - rho), the variance Eve's modes keep
    ratio = np.divide(m, d, out=np.ones_like(m), where=d > 0.0)
    capped, kept = ratio > 3.0, np.minimum(ratio, 3.0)
    ch, sh = np.sqrt(0.5 * (kept + 1.0)), np.sqrt(0.5 * (kept - 1.0))
    big_plus = np.where(capped, w_plus * ch - w_minus * sh, np.sqrt(d))
    big_minus = np.where(capped, w_minus * ch - w_plus * sh, 0.0)
    tap = np.empty((2,) + eta.shape + (3, 3))
    tap[..., 0, 0], tap[..., 0, 1], tap[..., 1, 0] = np.sqrt(eta), -w_plus, big_plus
    tap[..., 1, 1] = ch - big_plus * w_plus / q
    tap[..., 2, 2] = ch + big_minus * w_minus / q
    for k, sign in enumerate((1.0, -1.0)):
        tap[k, ..., 0, 2], tap[k, ..., 2, 0] = -sign * w_minus, -sign * big_minus
        tap[k, ..., 1, 2] = sign * (sh - big_plus * w_minus / q)
        tap[k, ..., 2, 1] = sign * (sh + big_minus * w_plus / q)
    return eta, tap


def _eve_local_map(tau: float, t: float) -> np.ndarray:
    """Eve's local map on her amplified pair (R1, R2) after the recombiner
    of transmissivity t: the inverse two-mode squeezer with
    tanh r = sqrt(tau (1 - t)), as its x part over its p part (2, 2, 2).

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
        return np.array([np.eye(2), np.eye(2)])
    cosh = 1.0 / math.sqrt(1.0 - tanh2)
    sinh = math.sqrt(tanh2) * cosh
    return np.array([[[cosh, -sinh], [-sinh, cosh]], [[cosh, sinh], [sinh, cosh]]])


def _pipeline_raw(
    inputs: np.ndarray,
    channel: GaussChannel,
    resource: np.ndarray,
    eta,
    m,
    g: float,
    t: float | None = None,
) -> np.ndarray:
    """The all-optical teleporter with a tap on its second resource arm,
    teleporting the second mode of a two-mode input (A, B), with the
    channel's environment traced out.

    inputs is the (A, B) state and resource the one on (R1, R2), each as
    x blocks over p blocks (2, 2, 2), as every state below the public API
    is carried; vacuum on (F1, F2). Order: squeeze (signal, R1) at gain g,
    send the signal through the channel, tap (R2, F1, F2) with
    _tapped_auxiliary's map at transmissivity eta and auxiliary noise m,
    recombine (signal, R2) at t, which defaults to 1/g, the attack's
    choice.
    eta = m = None leaves the tap out: the plain teleporter, which
    ao_simulate runs, bit for bit the exact identity tap at eta = 1 and
    m = 0 with none of its arithmetic. Tracing the channel's environment commutes with the later
    optics, so the channel map is applied in place of its dilation. Eve's
    amplified pair then leaves through _eve_local_map as (P, Q); every
    quantity reported is invariant under a symplectic on Eve's modes alone.

    Every state and map of the circuit is phase-insensitive, sigma = X (+)
    P, so it runs on x and p parts: 6 x 6 maps on one (2, ..., 6, 6) stack
    of X over P. The splitter acts alike on both quadratures, the squeezer,
    the tap and the local map with opposite signs on their cross terms. The
    circuit's linear map M and the channel noise N, the noise pushed
    through the optics after the channel, are composed first and
    left-multiplied by the local map, and the output M sigma_in M^T + N is
    formed once. Only P's entries grow with g, to ~g a, while every other
    entry stays O(1), so the matrix is graded and its small symplectic
    eigenvalues stay resolvable in double precision (see _split_spectrum).
    Forming the raw (R1, R2) output first and mapping it afterwards would
    not do: its rounding, ~eps g a in every amplified entry, survives the
    map. Returns the kept state's x blocks over its p blocks on
    _ATTACK_MODES; each block equals that of the 12 x 12 state formed from
    the 12 x 12 maps, bit for bit, as the x-p terms the full product adds
    are exact zeros.

    eta and m may be 1-D arrays of one length: the result is then the
    stack of kept states, one per (eta, m) pair. Scalars give one (2, 6, 6).
    The resource may be one state shared by every pair or a matching
    (2, k, 2, 2) stack, one per pair.
    """
    if not (g > 1.0 and math.isfinite(g)):
        raise ValueError(f"amplifier gain must be a finite value > 1, got {g}")
    t = 1.0 / g if t is None else t
    joint = np.array([_block_diag(inputs[q], resource[q], np.eye(2)) for q in (0, 1)])
    # modes: the signal B is mode 1, then R1, R2, F1 and F2
    after = _embedded(_splitter_part(t), (1, 3), 6)
    if eta is None:
        after = np.array([after, after])
    else:
        after = after @ _embedded(_tapped_auxiliary(eta, m)[1], (3, 4, 5), 6)
    squeeze = _embedded(_squeezer_parts(g), (1, 2), 6)
    squeeze[:, 1, :] *= math.sqrt(channel.tau)
    local = _embedded(_eve_local_map(channel.tau, t), (2, 3), 6)
    # axes of length 1 after the quadrature's, so that the stacks pair
    ndim = max(part.ndim for part in (joint, after, squeeze, local))
    joint, after, squeeze, local = (
        part.reshape((2,) + (1,) * (ndim - part.ndim) + part.shape[1:])
        for part in (joint, after, squeeze, local)
    )
    linear = local @ (after @ squeeze)
    noise = local @ after[..., :, 1:2]
    # P's entries grow like g a: near the largest doubles they overflow
    with np.errstate(over="ignore", invalid="ignore"):
        joint = linear @ joint @ np.swapaxes(linear, -1, -2)
        joint += channel.v * (noise @ np.swapaxes(noise, -1, -2))
        joint = 0.5 * (joint + np.swapaxes(joint, -1, -2))
    if not np.isfinite(joint).all():
        raise ValueError(f"amplifier gain {g:g} overflows the attack state's double precision")
    return joint


def _bell_record_raw(
    alice: np.ndarray, channel: GaussChannel, resource: np.ndarray, eta, m
) -> tuple[np.ndarray, np.ndarray]:
    """_pipeline_raw's circuit on Alice's tmsv (A, B) in the limit g -> inf.

    There the amplified modes R1 and R2 carry sqrt(g) times the commuting
    pair u = (x_B + x_R1, p_B - p_R1), the outcome of a Braunstein-Kimble
    Bell measurement on (B, R1), and Bob's mode leaves the recombining
    splitter as sqrt(tau) u - R2', with R2' the tapped arm of
    _tapped_auxiliary's map at (eta, m) and (F1, F2) the two modes it
    leaves Eve. The channel's own noise reaches that output suppressed by
    1/sqrt(g) and is independent of the rest, so it drops out. Eve keeps
    the classical record u, F1 and F2.

    Returns (ab, given_u), each as x blocks over p blocks as _pipeline_raw
    returns its state: the state of (A, B), and that of (A, B, F1, F2)
    (_BELL_RECORD_MODES) conditioned on u.
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
    given u is -R2', and ab adds back u's share, cross cross^T / s, with
    cross the covariances of (A, B) with u. Scalars or 1-D arrays of eta
    and m, and one resource or a stack of them, as for _pipeline_raw.
    """
    eta, tap = _tapped_auxiliary(eta, m)
    a_in, c_in = alice[0, ..., 0, 0], alice[0, ..., 0, 1]
    a, c = resource[0, ..., 0, 0], resource[0, ..., 0, 1]
    s = a + a_in
    # the tap acts on (A, R2, v1, v2) given u column by column: A's
    # variance stays, A's covariance with R2 (-c c_in / s in x, its negative
    # in p) reaches (R2', F1, F2) by the tap's first column, and the
    # inputs' diag(R2's variance, 1, 1) by the tap on both sides
    given_u = np.empty(tap.shape[:-2] + (4, 4))
    given_u[..., 0, 0] = (a * a_in + (a_in - c_in) * (a_in + c_in)) / s
    row = (c * c_in / s)[..., None] * tap[..., :, 0]
    row[0] *= -1.0
    given_u[..., 0, 1:], given_u[..., 1:, 0] = row, row
    inputs = np.ones(np.shape(s) + (3,))
    inputs[..., 0] = (a * a_in + (a - c) * (a + c)) / s
    inner = (tap * inputs[..., None, :]) @ np.swapaxes(tap, -1, -2)
    given_u[..., 1:, 1:] = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    # Bob's mode given u is -R2'
    given_u[..., 1, :] *= -1.0
    given_u[..., :, 1] *= -1.0
    # per quadrature, the covariances of (A, B) with u: +/- c_in from
    # Alice's pair, and sqrt(tau) s - sqrt(eta) c for Bob's mode
    cross = np.empty((2,) + eta.shape + (2,))
    cross[0, ..., 0], cross[1, ..., 0] = c_in, -c_in
    cross[..., 1] = math.sqrt(channel.tau) * s - np.sqrt(eta) * c
    ab = given_u[..., :2, :2] + cross[..., :, None] * cross[..., None, :] / s[..., None, None]
    return ab, given_u


def ao_simulate(state: CovMat, res: ResourceState, cfg: TeleportConfig) -> CovMat:
    """Run the all-optical pipeline on a two-mode state, teleporting its
    second mode, and return the surviving two-mode state.

    Steps: adjoin the resource, amplify (signal, resource arm 1) with the
    two-mode squeezer of gain g, send the amplified signal through the
    physical channel, recombine (signal, resource arm 2) on the beam splitter
    of transmissivity t = lam/(g tau), then trace out both resource arms.
    This is _pipeline_raw with no tap (eta = m = None), on the x and p
    blocks of the phase-insensitive state: bit for bit its exact identity
    tap at eta = 1 and m = 0.
    At g = inf the teleporter is the standard one: its channel,
    ao_effective_channel, acts on the second mode.
    """
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode input state, got {state.n_modes} modes")
    if math.isinf(cfg.g):
        return apply_channel(state, ao_effective_channel(res, cfg), state.labels[1])
    # the resource was validated when it was built, and it is frozen
    resource = _two_mode_std(res.a, res.b, res.c)
    t = cfg.splitter_transmissivity()
    blocks = _pipeline_raw(state._blocks, cfg.env, resource, None, None, cfg.g, t)
    return _checked(blocks[:, :2, :2], state.labels)
