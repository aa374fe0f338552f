"""Self-contained verification suite: cross-module consistency checks with
named tolerances, runnable from the CLI.

Every check returns a measured error; it passes when measured <= tolerance.
Checks that assert an ordering (x must not exceed y) return x - y, so any
nonpositive measurement passes against a zero tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .attacks import (
    AttackResult,
    AttackScenario,
    ao_attack_state,
    cloner_attack,
    entropy_of_entanglement,
    eve_info,
    gamma_min,
    optimize_attacks,
)
from .channels import GaussChannel, effective_channel, loss_channel_state
from .gaussian import (
    partial_trace,
    physicality_audit,
    reset_physicality_audit,
    tmsv,
    von_neumann_entropy,
)
from .teleportation import (
    ResourceState,
    TeleportConfig,
    ao_effective_channel,
    ao_simulate,
    bk_effective_channel,
)

# Independently derived anchors for the published operating point
# (tau = 0.25, thermal noise factor 1.01, source squeezing 0.7).
_GAMMA_MIN_ANCHOR = 0.4451652046870813
_KAPPA_CHOI = 0.07053456158585986  # sqrt(0.01 / 2.01)
_CHOI_GAMMA = 0.9999
_DOMINANCE_GAMMAS = (0.5, 0.7, 0.9)


def _scenario() -> AttackScenario:
    return AttackScenario(GaussChannel(0.25, 0.75 * 1.01), zeta=0.7)


@lru_cache(maxsize=None)
def _anchor_rows() -> dict[float, AttackResult]:
    """The optimizer rows the anchor checks read, made as one stack
    (optimize_attacks) by the first check that asks; each row is bit for
    bit what optimize_attack gives it alone."""
    sc = _scenario()
    gammas = (gamma_min(sc.channel), _CHOI_GAMMA, *_DOMINANCE_GAMMAS)
    return dict(zip(gammas, optimize_attacks(sc, gammas)))


def _optimized(gamma: float) -> AttackResult:
    return _anchor_rows()[gamma]


def _check_gamma_min_anchor() -> float:
    return abs(gamma_min(GaussChannel(0.25, 0.75 * 1.01)) - _GAMMA_MIN_ANCHOR)


def _check_gamma_min_pure_loss() -> float:
    worst = 0.0
    for k in range(1, 10):
        tau = k / 10.0
        worst = max(worst, abs(gamma_min(GaussChannel(tau, 1.0 - tau)) - math.sqrt(tau)))
    return worst


def _check_entanglement_entropy_oracle() -> float:
    worst = 0.0
    for k in range(1, 10):
        gamma = k / 10.0
        reduced = partial_trace(tmsv(gamma, ("m1", "m2")), ("m1",))
        worst = max(worst, abs(entropy_of_entanglement(gamma) - von_neumann_entropy(reduced)))
    return worst


def _check_minimal_resource_identity() -> float:
    worst = 0.0
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        for eps in (1.0, 1.05, 1.1, 1.15, 1.2):
            ch = GaussChannel(tau, (1.0 - tau) * eps)
            tel = bk_effective_channel(ResourceState.from_tmsv(gamma_min(ch)), ch.tau)
            worst = max(worst, abs(tel.tau - ch.tau) + abs(tel.v - ch.v))
    return worst


def _check_bk_ao_convergence() -> float:
    rng = np.random.default_rng(20250816)
    worst = 0.0
    for _ in range(10):
        res = ResourceState.from_tmsv(rng.uniform(0.2, 0.95))
        tau = rng.uniform(0.3, 0.95)
        env = GaussChannel(tau, (1.0 - tau) * rng.uniform(1.0, 1.2))
        lam = rng.uniform(0.1, 1.0)
        v_bk = bk_effective_channel(res, lam).v
        gaps = [
            abs(ao_effective_channel(res, TeleportConfig(lam, g, env)).v - v_bk)
            for g in (1e2, 1e3, 1e4, 1e5, 1e6)
        ]
        worst = max(worst, gaps[-1])
        for earlier, later in zip(gaps, gaps[1:]):
            worst = max(worst, later - earlier)
    return worst


def _check_ao_pipeline_vs_formula() -> float:
    rng = np.random.default_rng(815001)
    worst = 0.0
    for _ in range(20):
        res = ResourceState.from_tmsv(rng.uniform(0.1, 0.9))
        g = rng.uniform(2.0, 50.0)
        tau = rng.uniform(0.3, 0.95)
        env = GaussChannel(tau, (1.0 - tau) * rng.uniform(1.0, 1.2))
        cfg = TeleportConfig(rng.uniform(0.1, min(1.0, g * tau)), g, env)
        tel = ao_effective_channel(res, cfg)
        eff = effective_channel(lambda probe: ao_simulate(probe, res, cfg))
        worst = max(worst, abs(eff.tau - tel.tau) + abs(eff.v - tel.v))
    return worst


def _check_cloner_purification() -> float:
    rng = np.random.default_rng(815002)
    worst = 0.0
    for _ in range(10):
        tau = rng.uniform(0.1, 0.9)
        ch = GaussChannel(tau, (1.0 - tau) * rng.uniform(1.0, 1.2))
        result = cloner_attack(AttackScenario(ch, zeta=rng.uniform(0.2, 0.9)))
        worst = max(worst, abs(result.eve_info_bits - result.holevo_bits))
    return worst


def _check_dilation_roundtrip() -> float:
    rng = np.random.default_rng(815003)
    worst = 0.0
    for _ in range(20):
        tau = rng.uniform(0.05, 0.95)
        ch = GaussChannel(tau, (1.0 - tau) * rng.uniform(1.0, 3.0))
        eff = effective_channel(
            lambda probe: loss_channel_state(probe, ch, "probe_sig", ("N1", "N2"))
        )
        worst = max(worst, abs(eff.tau - ch.tau) + abs(eff.v - ch.v))
    return worst


def _check_anchor_min_eta() -> float:
    return 1.0 - _optimized(gamma_min(_scenario().channel)).eta_star


def _check_anchor_min_residual() -> float:
    return _optimized(gamma_min(_scenario().channel)).residual


def _check_anchor_min_info_below_holevo() -> float:
    result = _optimized(gamma_min(_scenario().channel))
    return result.eve_info_bits - result.holevo_bits


def _check_anchor_choi_eta() -> float:
    return abs(_optimized(_CHOI_GAMMA).eta_star - 0.25)


def _check_anchor_choi_kappa() -> float:
    return abs(_optimized(_CHOI_GAMMA).kappa_star - _KAPPA_CHOI)


def _check_anchor_choi_info() -> float:
    result = _optimized(_CHOI_GAMMA)
    return 0.98 * result.holevo_bits - result.eve_info_bits


def _check_holevo_dominance() -> float:
    worst = -math.inf
    for gamma in _DOMINANCE_GAMMAS:
        result = _optimized(gamma)
        worst = max(worst, result.eve_info_bits - result.holevo_bits)
    return worst


def _check_physicality_battery() -> float:
    reset_physicality_audit()
    sc = _scenario()
    cloner_attack(sc)
    amplified = replace(sc, gain=1e6)
    eve_info(ao_attack_state(amplified, 0.7, 0.6, 0.03), amplified)
    pure = AttackScenario(GaussChannel(0.25, 0.75), zeta=0.7, gain=1e6)
    eve_info(ao_attack_state(pure, 0.6, 0.25 / 0.36, 0.0), pure)
    min_nu, count = physicality_audit()
    # an audit that counted no state has checked nothing
    return max(0.0, 1.0 - min_nu) if count else math.inf


@dataclass(frozen=True)
class Check:
    name: str
    tolerance: float
    fn: Callable[[], float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    measured: float
    passed: bool
    seconds: float  # wall time of the check, including any cache it fills


CHECKS: tuple[Check, ...] = (
    Check("gamma-min-thermal-anchor", 1e-6, _check_gamma_min_anchor),
    Check("gamma-min-pure-loss-identity", 1e-12, _check_gamma_min_pure_loss),
    Check("entanglement-entropy-oracle", 1e-10, _check_entanglement_entropy_oracle),
    Check("minimal-resource-identity", 1e-9, _check_minimal_resource_identity),
    Check("bk-ao-convergence", 1e-4, _check_bk_ao_convergence),
    Check("ao-pipeline-vs-formula", 1e-8, _check_ao_pipeline_vs_formula),
    Check("cloner-purification", 1e-9, _check_cloner_purification),
    Check("dilation-roundtrip", 1e-10, _check_dilation_roundtrip),
    Check("anchor-min-entanglement-eta", 1e-3, _check_anchor_min_eta),
    Check("anchor-min-entanglement-residual", 1e-4, _check_anchor_min_residual),
    Check("anchor-min-info-below-holevo", 0.0, _check_anchor_min_info_below_holevo),
    Check("anchor-choi-eta", 1e-2, _check_anchor_choi_eta),
    Check("anchor-choi-kappa", 1e-2, _check_anchor_choi_kappa),
    Check("anchor-choi-info-near-holevo", 0.0, _check_anchor_choi_info),
    Check("holevo-dominance", 1e-6, _check_holevo_dominance),
    Check("physicality-battery", 1e-9, _check_physicality_battery),
)


def run_all(checks: tuple[Check, ...] | None = None) -> list[CheckResult]:
    # numpy imports numpy.random on first use; touching it here keeps that
    # import out of the time of the first check that draws from it
    np.random.default_rng
    results = []
    for check in CHECKS if checks is None else checks:
        start = time.perf_counter()
        measured = check.fn()
        seconds = time.perf_counter() - start
        results.append(
            CheckResult(check.name, check.tolerance, measured, measured <= check.tolerance, seconds)
        )
    return results
