"""Collective eavesdropping attacks on a Gaussian-modulated CV-QKD link.

Two attacks share the scenario: the entangling cloner, which replaces the
thermal-loss channel by a beam splitter coupled to one arm of Eve's
entangled state, and the all-optical teleportation attack, which re-creates
the channel from a finite entangled resource plus an amplifier and two beam
splitters. Eve's extractable information, the Holevo bound, and the
entanglement cost bounds live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelKind,
    GaussChannel,
    _check_phase_insensitive,
    classify,
    is_entanglement_breaking,
)
from .gaussian import (
    CovMat,
    _block_diag,
    _channel_on_mode,
    _check_physical,
    _checked,
    _embedded,
    _heterodyne_blocks,
    _spectrum_entropy,
    _split_spectrum,
    _tmsv_entries,
    _tmsv_matrices,
    _tmsv_textbook,
    tmsv,
)
from .teleportation import (
    _ATTACK_MODES,
    _BELL_RECORD_MODES,
    _bell_record_raw,
    _pipeline_raw,
    _tapped_auxiliary,
)

_ROOT_TOL = 1e-12
_FEASIBLE_RESIDUAL = 1e-8


@dataclass(frozen=True)
class AttackScenario:
    """Protocol settings shared by both attacks.

    channel: the physical Alice-to-Bob channel (loss channels in scope).
    zeta: squeezing of Alice's source tmsv.
    reconciliation: "reverse" conditions on Bob, "direct" on Alice.
    gain: amplifier gain for the teleportation attack; math.inf selects the
        asymptotic protocol, evaluated exactly at g = infinity, where Eve
        holds a classical Bell record (see _bell_record_raw).
    """

    channel: GaussChannel
    zeta: float
    reconciliation: str = "reverse"
    gain: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.zeta < 1.0:
            raise ValueError(f"source squeezing must lie in [0, 1), got {self.zeta}")
        if self.reconciliation not in ("direct", "reverse"):
            raise ValueError(f"reconciliation must be 'direct' or 'reverse', got {self.reconciliation!r}")
        if not self.gain > 1.0:
            raise ValueError(f"gain must be > 1 or inf, got {self.gain}")
        if is_entanglement_breaking(self.channel):
            raise ValueError("entanglement-breaking channel: no collective attack to analyze")

    @property
    def conditioned_label(self) -> str:
        return "B" if self.reconciliation == "reverse" else "A"


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one attack evaluation: Eve's tap transmissivity and
    auxiliary noise (eta_star, noise_star), the point ao_attack_state and
    simulation_residual take, and kappa_star, the auxiliary squeezing of
    that noise, for the table only. Infeasible results carry NaN in those
    three, eve_info_bits and residual; ent_resource and holevo_bits stay
    meaningful."""

    gamma: float
    ent_resource: float
    eta_star: float
    kappa_star: float
    noise_star: float
    eve_info_bits: float
    holevo_bits: float
    residual: float
    feasible: bool

    def __post_init__(self):
        if self.feasible:
            if not -1e-9 <= self.eve_info_bits <= self.holevo_bits + 1e-6:
                raise ValueError(
                    f"Eve's information {self.eve_info_bits} outside [0, Holevo bound "
                    f"{self.holevo_bits}]"
                )


def gamma_min(ch: GaussChannel) -> float:
    """Smallest resource squeezing that can still simulate the channel.

    gamma_min = (2 sqrt(tau) - sqrt((v+1-tau)(v-1+tau))) / (tau + v + 1).
    Entanglement-breaking channels give 0 (no entanglement is of any use);
    the identity gives 1 (maximal entanglement, unattainable).
    """
    tau, v = ch.tau, ch.v
    # v - (1 - tau), not v - 1 + tau: the grouped form vanishes exactly for
    # pure loss, where the ungrouped one leaves an O(eps) remainder that the
    # square root inflates to ~1e-8
    radicand = max((v + 1.0 - tau) * (v - (1.0 - tau)), 0.0)
    value = (2.0 * math.sqrt(tau) - math.sqrt(radicand)) / (tau + v + 1.0)
    return max(value, 0.0)


def entropy_of_entanglement(gamma: float) -> float:
    """Entanglement of a tmsv(gamma) in ebits.

    [2 gamma^2 ln gamma + (1 - gamma^2) ln(1 - gamma^2)] / ((gamma^2 - 1) ln 2),
    identical to the von Neumann entropy of the reduced single-mode state.
    Returns math.inf for gamma >= 1.
    """
    if not gamma >= 0.0:
        raise ValueError(f"squeezing must be >= 0, got {gamma}")
    if gamma >= 1.0:
        return math.inf
    if gamma == 0.0:
        return 0.0
    g2 = gamma * gamma
    return (2.0 * g2 * math.log(gamma) + (1.0 - g2) * math.log1p(-g2)) / (
        (g2 - 1.0) * math.log(2.0)
    )


def entanglement_lower_bound(ch: GaussChannel) -> float:
    """Fewest ebits any resource simulating the channel can carry."""
    return entropy_of_entanglement(gamma_min(ch))


def holevo_bound(sc: AttackScenario) -> float:
    """chi = S(sigma_out) - S(sigma_out | heterodyne on the reconciliation
    side), the ceiling on any collective attack, in closed form: sigma_out is
    Alice's stored tmsv(zeta) (a, c) with the channel on B, b = tau a + v,
    nu_+/- = (y +/- |b - a|) / 2, y^2 = (a + b)^2 - 4 tau c^2 (Weedbrook et
    al., RMP 84, 621 (2012)), and a heterodyne on B (A) leaves
    nu = a - tau c^2 / (b + 1) (b - tau c^2 / (a + 1)). a^2 - c^2 is taken
    as (a - c)(a + c), and no difference of large terms is formed as zeta or
    tau nears 1: a + b - 2 sqrt(tau) c = a (1 - sqrt(tau))^2 +
    2 sqrt(tau) (a - c) + v, and nu_- = sqrt(det sigma_out) / nu_+."""
    a, c = _tmsv_entries(sc.zeta)
    tau, v = sc.channel.tau, sc.channel.v
    root = math.sqrt(tau)
    # tau (a^2 - c^2), a term of every determinant below
    shared = tau * (a - c) * (a + c)
    b = tau * a + v
    gap = a * ((1.0 - tau) / (1.0 + root)) ** 2 + 2.0 * root * (a - c) + v
    nu_plus = 0.5 * (math.sqrt(gap * (a + b + 2.0 * root * c)) + abs(b - a))
    nu_minus = (shared + a * v) / nu_plus
    if sc.reconciliation == "reverse":
        nu_given = (shared + a * (v + 1.0)) / (b + 1.0)
    else:
        nu_given = (shared + tau * a + v * (a + 1.0)) / (a + 1.0)
    # one entropy call on both spectra; the pure mode nu = 1 adds exactly 0
    s_out, s_given = _spectrum_entropy(np.array([[nu_plus, nu_minus], [nu_given, 1.0]]))
    return float(s_out - s_given)


def eve_info(full_state: CovMat, sc: AttackScenario) -> float:
    """S(x:E) = S(Eve) - S(Eve | heterodyne of the reconciliation mode).

    Eve's modes are every label other than A and B. The state is read on
    the x and p blocks every CovMat keeps. The
    conditioning runs in double precision (_eve_info_blocks), so it expects
    a state whose measured mode is not amplified against Eve's modes, as
    ao_attack_state's.
    """
    return float(_eve_info_blocks(sc, full_state._blocks, full_state.labels, True))


def _entropy_pair(first: np.ndarray, second: np.ndarray, validate: bool, pure_tol: float):
    """Entropies of two equally shaped stacks of phase-insensitive states
    given as x blocks over p blocks, from one spectrum call on both:
    _split_spectrum's, or with validate _check_physical's, which checks
    every state and certifies its spectrum. pure_tol as for
    _spectrum_entropy."""
    lead, n = first.shape[1:-2], first.shape[-1]
    both = np.concatenate([first.reshape(2, -1, n, n), second.reshape(2, -1, n, n)], axis=1)
    nus = _check_physical(both)[1] if validate else _split_spectrum(both)[0]
    entropies = _spectrum_entropy(nus.reshape((2,) + lead + (n,)), pure_tol)
    return entropies[0], entropies[1]


def _eve_info_blocks(sc: AttackScenario, blocks: np.ndarray, labels: tuple[str, ...], validate: bool):
    """eve_info on a phase-insensitive state or stack given as x blocks over
    p blocks (2, ..., n, n): the heterodyne update of every mode but the
    measured one (_heterodyne_blocks), then Eve's block and her conditioned
    block in one spectrum call (_entropy_pair). validate=True also checks
    the whole conditioned state (_check_physical)."""
    eve = [i for i, lbl in enumerate(labels) if lbl not in ("A", "B")]
    if not eve or len(eve) + 2 != len(labels):
        raise ValueError(f"state must carry labels A, B and Eve's modes, got {labels}")
    m = labels.index(sc.conditioned_label)
    rest = [j for j in range(len(labels)) if j != m]
    cond = _heterodyne_blocks(blocks, m, rest)
    if validate:
        _check_physical(cond)
    # Eve's modes in the conditioned state, which lacks mode m
    kept = np.array([k for k, j in enumerate(rest) if j in eve])
    block = blocks[..., np.array(eve)[:, None], eve]
    s_eve, s_cond = _entropy_pair(block, cond[..., kept[:, None], kept], validate, 1e-12)
    return s_eve - s_cond


def _channel_residual(ab: np.ndarray, alice: np.ndarray, ch: GaussChannel):
    """|tau_eff - tau| + |v_eff - v| of the channel that took Alice's
    tmsv(zeta) on (A, B) to ab, both given as x blocks over p blocks, or
    to each state of a stack of them, read off the x blocks once each
    state is checked to keep the phase-insensitive form within 1e-8 of
    Alice's variance (channels._check_phase_insensitive). At zeta = 0
    Alice's input carries no correlation to read tau_eff from: the residual
    then compares only the output variance with tau + v."""
    a_in, c_in = alice[0, ..., 0, 0], alice[0, ..., 0, 1]
    _check_phase_insensitive(ab, a_in, 1e-8 * a_in)
    # float_power: C pow per element, as _probe_channel explains
    tau_eff = np.float_power(ab[0, ..., 0, 1] / c_in, 2) if c_in else ch.tau
    v_eff = ab[0, ..., 1, 1] - tau_eff * a_in
    return abs(tau_eff - ch.tau) + abs(v_eff - ch.v)


def cloner_attack(sc: AttackScenario) -> AttackResult:
    """Entangling-cloner attack on a loss channel.

    Eve runs the teleportation attack's tap (teleportation._tapped_auxiliary)
    on Alice's signal B at eta = tau with auxiliary noise m = v, or the
    vacuum's 1 - tau on a channel inside the floor, and keeps its (F1, F2)
    as (E1, E2). The tap's entries stay O(1) however hot its auxiliary, so
    the state is formed well as tau -> 1: the (A, B) block is the channel's
    map on Alice's tmsv, the rest the tap's. The global state is pure, so
    Eve's information equals the Holevo bound; both are computed
    independently and cross-checked to 1e-9. The row's gamma is the
    auxiliary's squeezing (_auxiliary_squeezing). The result is feasible
    when the state presents the channel within 1e-8 (_row_result).
    """
    kind = classify(sc.channel)
    if kind not in (ChannelKind.THERMAL_LOSS, ChannelKind.PURE_LOSS, ChannelKind.IDENTITY):
        raise ValueError(f"entangling cloner covers loss channels, not {kind.value}")
    # the identity's tau may sit up to KIND_TOL above 1; at eta = 1 the tap
    # adds no noise
    eta = min(sc.channel.tau, 1.0)
    m = max(sc.channel.v, 1.0 - eta) if eta < 1.0 else 0.0
    alice = tmsv(sc.zeta, ("A", "B"))._blocks
    tap = _embedded(_tapped_auxiliary(eta, m)[1], (1, 2, 3), 4)
    joint = tap @ _block_diag(alice, np.eye(2)) @ np.swapaxes(tap, -1, -2)
    joint = 0.5 * (joint + np.swapaxes(joint, -1, -2))
    joint[:, :2, :2] = _channel_on_mode(alice, 1, eta, m)
    full = _checked(joint, ("A", "B", "E1", "E2"))

    info = eve_info(full, sc)
    chi = holevo_bound(sc)
    if abs(info - chi) > 1e-9:
        raise RuntimeError(
            f"purification check failed: S(x:E) = {info!r} but Holevo bound = {chi!r}"
        )

    residual = float(_channel_residual(full._blocks[:, :2, :2], alice, sc.channel))
    return _row_result(_auxiliary_squeezing(eta, m), chi, info=info, residual=residual)


def _resource_matrix(gamma) -> np.ndarray:
    """Eve's resource tmsv(gamma) on (R1, R2) as x blocks over p blocks
    (2, 2, 2), or the (2, k, 2, 2) stack of them for an array of k gammas,
    from _tmsv_matrices (exactly rounded, and counted in the physicality
    audit). optimize_attacks builds every row's in one call."""
    gamma = np.asarray(gamma, dtype=float)
    outside = ~((0.0 <= gamma) & (gamma < 1.0))
    if outside.any():
        raise ValueError(f"resource squeezing must lie in [0, 1), got {gamma[outside][0]}")
    return _tmsv_matrices(gamma)


def _auxiliary_squeezing(eta: float, m: float) -> float:
    """kappa = sqrt((m - d)/(m + d)), d = 1 - eta, of a tap's noise m;
    exactly 0 at m = d, also at eta = 1, where the ratio is 0/0, and NaN
    where eta and m are."""
    d = 1.0 - eta
    return 0.0 if m == d else math.sqrt((m - d) / (m + d))


def ao_attack_state(sc: AttackScenario, gamma: float, eta: float, m: float) -> CovMat:
    """Global state of the teleportation attack at the scenario's finite
    gain, with Eve's tap at eta adding the auxiliary noise m, as a row's
    (eta_star, noise_star): Alice's modes (A, B) plus Eve's kept modes
    (P, Q, F1, F2). P and Q are her amplified resource arms in her local
    basis (teleportation._eve_local_map): P carries the amplified Bell
    record, Q has O(1) entries."""
    resource = _resource_matrix(gamma)
    alice = tmsv(sc.zeta, ("A", "B"))._blocks
    return _checked(_pipeline_raw(alice, sc.channel, resource, eta, m, sc.gain), _ATTACK_MODES)


def simulation_residual(sc: AttackScenario, gamma: float, eta: float, m: float) -> float:
    """|tau_eff - tau| + |v_eff - v| for the channel the attack presents
    between A and B at the scenario's gain, finite or not, with Eve's tap
    at eta adding the auxiliary noise m, read as a row's (_checked_point)."""
    alice = tmsv(sc.zeta, ("A", "B"))._blocks
    return float(_checked_point(sc, alice, _resource_matrix(gamma), eta, m)[1])


def _bell_record_info(sc: AttackScenario, ab, given_u, validate: bool):
    """Eve's information at g = inf from _bell_record_raw's blocks, or from
    stacks of them:

        chi = 1/2 log2(det(V_m + I) / det(V_m|u + I)) + S(F | u) - S(F | u, m)

    Eve holds the classical record u and the modes F. S(x:E) = S(E) -
    S(E | m), with m the heterodyne outcome on the reconciliation mode, and
    S(E) = h(u) + S(F | u), where h(u) carries the record's g-dependent
    constant that cancels. What is left of the record is the information
    I(u:m) = h(u) - h(u | m) = h(m) - h(m | u), written with m's covariance
    V_m + I and V_m|u + I given u, all O(1). So are the F blocks, whose
    double-precision spectra are good to ~1e-15: only an exactly pure mode
    counts as pure, since the rounded tmsv inputs leave conditional modes
    up to ~1e-12 above nu = 1, worth up to 2e-11 bits. Each determinant is
    the product (x + 1)(p + 1) of m's x and p variances: np.linalg.det,
    which computes it as sign * exp(logdet), lands up to 4 ulp off it.
    validate=True checks the F blocks (_check_physical) and takes their
    certified spectra.
    """
    i = _BELL_RECORD_MODES.index(sc.conditioned_label)
    det_m, det_m_given_u = (
        (v[0, ..., i, i] + 1.0) * (v[1, ..., i, i] + 1.0) for v in (ab, given_u)
    )
    record = 0.5 * np.log2(det_m / det_m_given_u)
    # F1 and F2 are the last two modes
    f = given_u[..., 2:, 2:]
    s_f, s_f_given_m = _entropy_pair(f, _heterodyne_blocks(given_u, i, [2, 3]), validate, 0.0)
    return record + s_f - s_f_given_m


def _attack_point(sc: AttackScenario, alice, resource, eta, m, validate: bool = False):
    """Eve's information and the (A, B) block, x over p, of the attack state
    it was read from, at the scenario's gain: the one evaluation behind the scan,
    the refit and the validation of the picks.

    alice is the tmsv(zeta) on (A, B) and resource the one from
    _resource_matrix, both as x blocks over p blocks. eta and m, Eve's tap
    transmissivity and noise (teleportation._tapped_auxiliary), are
    scalars, or 1-D arrays of matched pairs evaluated as one stack, one
    value each; the resource is then one state shared by every pair, or a
    (2, k, 2, 2) stack of them, one per pair, so that points of several
    rows share one call.

    A gain of math.inf takes the Bell-record closed form (_bell_record_info):
    O(1) entries in double precision, within 1e-13 bits of the 60-digit
    circuit at g = 1e20 on the points tests/test_bell_record.py checks.
    A finite g is _eve_info_blocks on the circuit's x and p blocks
    (_pipeline_raw), where only Eve's mode P grows with g, so the
    double-precision heterodyne update stays accurate, and every spectrum
    comes from the Cholesky factors of the x and p blocks, its small nu's
    from their inverse side past _INVERSE_SIDE_SCALE (_split_spectrum):
    within 1e-10 bits of the 60-digit circuit at g = 1e2 to 1e8 on the
    points tests/test_finite_gain.py checks, with no mpmath call.

    validate=True runs the same arithmetic, checks the attack state at
    finite g and every state whose entropy is taken (_check_physical), and
    reads their certified spectra; the (A, B) block is the caller's to check.
    """
    if math.isinf(sc.gain):
        ab, given_u = _bell_record_raw(alice, sc.channel, resource, eta, m)
        return _bell_record_info(sc, ab, given_u, validate), ab
    blocks = _pipeline_raw(alice, sc.channel, resource, eta, m, sc.gain)
    if validate:
        _check_physical(blocks)
    return _eve_info_blocks(sc, blocks, _ATTACK_MODES, validate), blocks[..., :2, :2]


def _checked_point(sc: AttackScenario, alice, resource, eta, m):
    """Eve's information and the residual at (eta, m), checked: the
    objective's arithmetic with validate=True (_attack_point), and the
    residual of the (A, B) block it formed, checked to be physical and in
    the phase-insensitive form (_channel_residual), at every gain."""
    info, ab = _attack_point(sc, alice, resource, eta, m, validate=True)
    return info, _channel_residual(_check_physical(ab)[0], alice, sc.channel)


def _eve_info_objective(sc: AttackScenario, alice: np.ndarray, resource: np.ndarray, eta, m):
    """The optimizer's objective, _attack_point's information unchecked:
    the one seam through which the scan and the refit evaluate."""
    return _attack_point(sc, alice, resource, eta, m)[0]


def _feasible_eta_window(gamma: float, tau: float, v: float):
    """Exact eta interval on which a vacuum auxiliary undershoots the target
    noise (so that some auxiliary noise m >= 1 - eta can match it), in [0, 1].

    Setting v_eff = v at m = 1 - eta reduces, after the g-dependent factors
    divide out, to (a-1) s^2 - 2 c sqrt(tau) s + (a tau + 1 - v) = 0 in
    s = sqrt(eta). Between the roots the matching constraint is reachable;
    outside it is not, at any m. Both roots are positive, as a tau + 1 - v >
    tau (a - 1) >= 0 on every channel AttackScenario accepts. Returns None
    when there are no real roots. It is {1} at gamma_min and below, where
    the lower root passes 1 (as gamma_min's own rounding puts it at tiny
    tau), leaving eta = 1 to _match_noise. It narrows like 1/a around
    eta ~ tau as gamma -> 1, which is why no fixed grid of etas can be
    trusted to hit it.
    """
    a, c = _tmsv_textbook(gamma)
    am1 = a - 1.0
    if am1 <= 0.0:
        return None
    disc = c * c * tau - am1 * (a * tau + 1.0 - v)
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    s_lo = (c * math.sqrt(tau) - root) / am1
    s_hi = (c * math.sqrt(tau) + root) / am1
    # widen by a rounding slack so a window grazing a clamp boundary (the
    # lower root sits exactly at 1 when gamma = gamma_min) keeps its endpoint
    eta_lo = min(max(s_lo * s_lo - 1e-12, 0.0), 1.0)
    return eta_lo, min(s_hi * s_hi + 1e-12, 1.0)


def _match_noise(gamma: float, eta, tau: float, v: float, g: float):
    """The auxiliary noise m that makes the attack's noise equal the
    channel's, for a scalar eta or an array of them; NaN where no auxiliary
    squeezing kappa in [0, 1) gives it.

    The attack's added noise at lam = tau is the Braunstein-Kimble noise
    a tau - 2 c sqrt(tau) + b on the tapped resource (a, eta a + d a_phi,
    sqrt(eta) c), d = 1 - eta, amplified by the teleporter: with
    m = v - a tau + 2 c sqrt(eta tau) - eta a it leaves
    v_eff - v = (1 - 1/g)(d a_phi - m), a_phi = (1 + kappa^2)/(1 - kappa^2).
    The root d a_phi = m, kappa^2 = (m - d)/(m + d), does not depend on g,
    and the tap is built from m itself. When m < d the vacuum auxiliary
    already overshoots and the ratio is negative or above 1, so no kappa
    below 1 - 1e-13 (where matching gives up) exists; a vacuum within
    _ROOT_TOL * a of the target still counts as matched, m = d (it
    decides the gamma_min row at eta = 1). The tolerance scales with a
    because d - m is a difference of terms of size a, whose rounding alone
    would otherwise decide the verdict at a window edge as gamma -> 1.
    """
    a, c = _tmsv_textbook(gamma)
    eta = np.asarray(eta, dtype=float)
    d = 1.0 - eta
    m = v - a * tau + 2.0 * c * np.sqrt(eta * tau) - eta * a
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.sqrt((m - d) / (m + d))
    matched = np.where(kappa < 1.0 - 1e-13, m, np.nan)
    return np.where(np.abs((1.0 - 1.0 / g) * (d - m)) <= _ROOT_TOL * a, d, matched)[()]


def _row_result(gamma, chi, eta=math.nan, m=math.nan, info=math.nan, residual=math.nan):
    """A row's AttackResult, kappa_star read off (eta, m); infeasible, with
    NaNs, unless given its point."""
    ent, kappa = entropy_of_entanglement(gamma), _auxiliary_squeezing(eta, m)
    feasible = residual <= _FEASIBLE_RESIDUAL
    return AttackResult(gamma, ent, eta, kappa, m, info, chi, residual, feasible)


# the scan: _SCAN_PASSES stacked passes of _SCAN_POINTS etas each, every
# pass 8x finer than the last, ending at a spacing of window / 1024
_SCAN_POINTS = 17
_SCAN_PASSES = 3


class RowError(ValueError):
    """A row of optimize_attacks failed: the message that row raises alone
    through optimize_attack, and the row's resource squeezing gamma."""

    def __init__(self, gamma: float, cause: Exception):
        super().__init__(str(cause))
        self.gamma = gamma


def _validated_rows(sc: AttackScenario, alice, resources, gammas, picks, chi):
    """AttackResults of a stack of rows at their picked (eta, m), checked
    (_checked_point) in one call for all rows."""
    if not gammas:
        return []
    etas, noises = np.array(picks).T
    info, residual = _checked_point(sc, alice, resources, etas, noises)
    rows = zip(gammas, picks, info.tolist(), residual.tolist())
    return [_row_result(gamma, chi, eta, m, value, off) for gamma, (eta, m), value, off in rows]


def _scan_windows(sc: AttackScenario, alice, resources, gammas, windows):
    """Eve's best (eta, m) for each of a stack of rows (the rows' stacked
    _resource_matrix, a row on axis 1), each searched on its own feasible
    window, all rows sharing each objective call: the picked etas and the
    noises matched to them, both NaN for a row whose scan matched no eta.
    """
    tau, v, gain = sc.channel.tau, sc.channel.v, sc.gain
    gammas = np.asarray(gammas, dtype=float)
    best_etas, best_noises = np.full(len(gammas), np.nan), np.full(len(gammas), np.nan)
    live = np.arange(len(gammas))
    # coarse-to-fine scan of the objective, one stacked evaluation per
    # pass; noise matching fails on the widened rim itself, so the first
    # pass spans each window from just inside both ends, and each later
    # pass spans the two intervals around the row's previous first maximum
    w_lo, w_hi = np.array(windows, dtype=float).T
    edge = 1e-9 * (w_hi - w_lo)
    span = (w_lo + edge, w_hi - edge)
    for _ in range(_SCAN_PASSES):
        step = (span[1] - span[0])[:, None] * np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1)
        etas = span[0][:, None] + step
        noises = _match_noise(gammas[live, None], etas, tau, v, gain)
        hits = ~np.isnan(noises)
        # a row left without a matchable eta is infeasible; only the first
        # pass can miss, as later ones contain a hit
        keep = hits.any(axis=1)
        live, etas, noises, hits = live[keep], etas[keep], noises[keep], hits[keep]
        if not live.size:
            return best_etas, best_noises
        values = np.full(etas.shape, -np.inf)
        rows = live[hits.nonzero()[0]]
        values[hits] = _eve_info_objective(sc, alice, resources[:, rows], etas[hits], noises[hits])
        best = np.argmax(values, axis=1)
        at = np.arange(live.size)
        span = (
            etas[at, np.maximum(best - 1, 0)],
            etas[at, np.minimum(best + 1, _SCAN_POINTS - 1)],
        )

    # refit the peak: the parabola through the scan best and its last-pass
    # neighbours (the next point inward at a window edge), whose values the
    # last pass holds; its vertex, if it falls strictly inside the scan
    # best's bracket (the span above), replaces the scan best only if it
    # scores strictly higher
    best_etas[live], best_noises[live] = etas[at, best], noises[at, best]
    near = np.minimum(np.maximum(best, 1), _SCAN_POINTS - 2)[:, None] + np.arange(-1, 2)
    (e_lo, e_mid, _), (f_lo, f_mid, f_hi) = (
        np.take_along_axis(x, near, axis=1).T for x in (etas, values)
    )
    denom = f_lo - 2.0 * f_mid + f_hi
    # unmatched neighbours score -inf and leave a non-finite denom
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = e_mid + 0.5 * (e_mid - e_lo) * (f_lo - f_hi) / denom
    fit = np.isfinite(denom) & (denom < 0.0) & (span[0] < vertex) & (vertex < span[1])
    fit &= vertex != e_mid
    rows, vertex, top = live[fit], vertex[fit], values[at, best][fit]
    if rows.size:
        # strictly between two matched points, so matched itself
        noises = _match_noise(gammas[rows], vertex, tau, v, gain)
        wins = _eve_info_objective(sc, alice, resources[:, rows], vertex, noises) > top
        best_etas[rows[wins]], best_noises[rows[wins]] = vertex[wins], noises[wins]
    return best_etas, best_noises


def _is_pure_loss_like(channel: GaussChannel) -> bool:
    return classify(channel) in (ChannelKind.PURE_LOSS, ChannelKind.IDENTITY)


def _stacked_rows(sc: AttackScenario, gammas: tuple[float, ...]) -> list[AttackResult]:
    """optimize_attacks' rows, computed as one stack: the feasible windows,
    the scan and refit (_scan_windows), then the validation of the picks
    (_validated_rows). Raises the first ValueError any stage meets."""
    chi = holevo_bound(sc)
    ch = sc.channel
    tau, v = ch.tau, ch.v
    floor = gamma_min(ch) - 1e-9
    # each feasible row's (eta, m); the rows to scan wait with their
    # feasible windows
    picks, windows = {}, {}
    for row, gamma in enumerate(gammas):
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"resource squeezing must lie in [0, 1), got {gamma}")
        if gamma < floor:
            continue
        if _is_pure_loss_like(ch):
            eta = min(tau / (gamma * gamma), 1.0)
            picks[row] = (eta, 1.0 - eta)
        elif (window := _feasible_eta_window(gamma, tau, v)) is not None:
            windows[row] = window

    # row constants, built once a sweep: Alice's state and each row's
    # resource, at the row's place in built on axis 1
    alice = tmsv(sc.zeta, ("A", "B"))._blocks
    built = {row: i for i, row in enumerate((*picks, *windows))}
    resources = _resource_matrix([gammas[row] for row in built])

    def stack(rows):
        return alice, resources[:, [built[row] for row in rows]], [gammas[row] for row in rows]

    if windows:
        best = _scan_windows(sc, *stack(windows), list(windows.values()))
        for row, eta, m in zip(windows, *(x.tolist() for x in best)):
            if not math.isnan(eta):
                picks[row] = (eta, m)
    rows = sorted(picks)
    validated = dict(zip(rows, _validated_rows(sc, *stack(rows), [picks[r] for r in rows], chi)))
    return [validated.get(row) or _row_result(gamma, chi) for row, gamma in enumerate(gammas)]


def optimize_attacks(sc: AttackScenario, gammas) -> list[AttackResult]:
    """Best (eta, m) for the teleportation attack at each resource of a
    grid: one AttackResult per gamma, in grid order.

    The noise-matching constraint leaves one free direction: eta is scanned
    over the feasible window, the auxiliary noise m (and kappa) follows from
    each eta in closed form, and Eve's information is evaluated on the
    matched pairs. The scan is three passes of 17 points, each over the
    previous best point's two neighbouring intervals, ending at a spacing of
    window / 1024 (51 points).
    The scan's best point stands unless the vertex of the parabola through
    it and its two last-pass neighbours falls inside their bracket and
    scores strictly higher (only the vertex is a new evaluation); a peak at
    or near a window edge stays reachable, as the scan starts just inside
    both ends. Pure-loss channels skip all of it (eta = tau / gamma^2,
    m = 1 - eta, kappa = 0). A resource below gamma_min, or a first pass
    with no matchable eta, yields an infeasible result rather than an error.

    The rows share every objective call: each scan pass is one call on the
    stacked (row, eta) points of every row still searching, and the refit
    one call on all rows' vertices. Every per-element operation is the one
    a lone row makes and every decision is taken per row, so each row is
    bit for bit what optimize_attack gives for its gamma alone, whichever
    rows share its stack; so is the validation of the picked rows
    (_validated_rows). When the stack raises ValueError anywhere, the rows
    run again one at a time, in grid order, so the first row that fails
    alone raises RowError with its own message.

    The gain is the scenario's. Its math.inf, the asymptotic protocol, runs
    at g = infinity itself: the objective is the Bell-record closed form,
    and the rows are validated on its states.
    """
    gammas = tuple(gammas)
    if not gammas:
        return []
    try:
        return _stacked_rows(sc, gammas)
    except ValueError as exc:
        if len(gammas) == 1:
            raise RowError(gammas[0], exc) from exc
    # a row fails: run them alone, so the first to fail raises its own error
    return [optimize_attack(sc, gamma) for gamma in gammas]


def optimize_attack(sc: AttackScenario, gamma: float) -> AttackResult:
    """Best (eta, m) for the teleportation attack at one resource: the
    one-row case of optimize_attacks, which describes the search. The row
    depends on its gamma alone: no state carries over between rows.
    """
    return optimize_attacks(sc, (gamma,))[0]
