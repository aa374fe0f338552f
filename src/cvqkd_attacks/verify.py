"""Self-contained verification suite: cross-module consistency checks with
named tolerances, runnable from the CLI.

Every check returns a measured error; it passes when measured <= tolerance.
Checks that assert an ordering (x must not exceed y) return x - y, so any
nonpositive measurement passes against a zero tolerance.

The four sampled checks read their inputs from module-level tables: the
uniform draws numpy.random.default_rng made for them, frozen bit for bit,
so a pass never imports numpy.random and every run checks the same points.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

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

# The sampled checks' inputs: uniform draws of numpy.random.default_rng(seed)
# frozen by repr, one tuple per trial, in draw order. Above each table are
# its seed and the (low, high) of each draw; tests/test_verify.py redraws
# every table and asserts equality.

# seed 20250816: gamma (0.2, 0.95), tau (0.3, 0.95), eps (1.0, 1.2), lam (0.1, 1.0)
_BK_AO_DRAWS = (
    (0.3385730548006769, 0.9365328598936611, 1.0090565934259856, 0.38493627867084435),
    (0.7195116548316198, 0.5985861793671515, 1.0707280114387931, 0.21855109536655704),
    (0.9126094103791804, 0.7388227701319814, 1.1338018106496264, 0.5830833995921342),
    (0.3201784698851584, 0.4281889407708187, 1.1586607446428432, 0.3789445434452904),
    (0.6181853696939477, 0.46047207783457356, 1.1335117153672818, 0.46732411151710207),
    (0.7568154000732303, 0.6072444348542863, 1.0507873971670953, 0.6768550894726763),
    (0.381327060618732, 0.7038548091193093, 1.181198707917908, 0.8497176779029073),
    (0.23531353757821963, 0.4038248852297992, 1.1708985861006103, 0.3844118120790483),
    (0.9344412935779369, 0.8333304711597744, 1.003398103706288, 0.330607741792878),
    (0.3373712840599752, 0.7876007232475675, 1.1763494974647697, 0.8225301589146526),
)

# seed 815001: gamma (0.1, 0.9), g (2.0, 50.0), tau (0.3, 0.95), eps (1.0, 1.2),
# lam (0.1, min(1.0, g * tau)) on the trial's own g and tau
_AO_PIPELINE_DRAWS = (
    (0.6445670314799787, 40.12764172130235, 0.3902284983433274, 1.0071482949383908, 0.3128361586364879),
    (0.21315017624136942, 36.98752520763082, 0.9437381947678949, 1.1246880157527253, 0.44093002764373657),
    (0.3910471247068179, 26.097893698186233, 0.4025836278005185, 1.009400068806989, 0.47678239186170057),
    (0.24866536993355767, 38.923281075377226, 0.3869778248654792, 1.0131137285561835, 0.9686072583733669),
    (0.8398031778974551, 21.006036566960162, 0.3353652530149817, 1.0011264002280915, 0.18622716250129087),
    (0.3708125330316343, 25.280167391291663, 0.7323138393828882, 1.1515780187668736, 0.9432031940547805),
    (0.7648406260905352, 2.757284877636849, 0.4213582718689222, 1.1487418765828672, 0.8830332385007251),
    (0.4956967655453738, 48.262363012067915, 0.8860852368900722, 1.0011954234966718, 0.4424192794063688),
    (0.3924672780107884, 6.931222040666924, 0.9216520002379758, 1.0893122018570351, 0.8449230386956106),
    (0.7999460669018635, 3.79330444211951, 0.9245184246444438, 1.1535385979822748, 0.8428946002558751),
    (0.3080374884548166, 39.11873309080099, 0.6963630925578038, 1.1929388457903805, 0.828567701859989),
    (0.7452152094012383, 32.65212215245954, 0.7393708612398094, 1.0836910328723812, 0.7718909935864228),
    (0.22874800599384537, 19.416897818690835, 0.5100267679500717, 1.047581748568345, 0.5901035011214802),
    (0.10184454602154346, 44.066212181167, 0.9051726078010447, 1.1943050053399027, 0.6276184942731993),
    (0.38474994605046253, 45.06399412612166, 0.7056996314331478, 1.1414134858420375, 0.8201962973629079),
    (0.8279725385970762, 13.79117540928748, 0.8974965048396335, 1.0207852250924703, 0.41269674168098425),
    (0.47659096592779815, 34.39174099290284, 0.38792031263513416, 1.0407677774015165, 0.6663518036731163),
    (0.4608279252128026, 5.193639865480842, 0.8044217248158698, 1.1595528333574217, 0.6099627241352367),
    (0.45456077593521527, 25.584897094505788, 0.9481794527289509, 1.1275464230721854, 0.15727818986608222),
    (0.44901289407952805, 32.36565717179024, 0.6300883275918312, 1.0169449790287284, 0.47717032998637265),
)

# seed 815002: tau (0.1, 0.9), eps (1.0, 1.2), zeta (0.2, 0.9)
_CLONER_DRAWS = (
    (0.8687075566850223, 1.1039497949464552, 0.665451491348177),
    (0.4995279750061913, 1.121711041975932, 0.424245355047152),
    (0.890682236512596, 1.1353543577360092, 0.8292519987152744),
    (0.37718287285319396, 1.0463905830782427, 0.5688702716267167),
    (0.5905297053665219, 1.123198020253695, 0.3277534504827422),
    (0.24223512613932688, 1.043925788523713, 0.8748040078840336),
    (0.6705321839316758, 1.0770431529573217, 0.609484263161597),
    (0.7248085749146039, 1.0635742682035294, 0.7094464344105151),
    (0.8570787689001566, 1.0950761581642139, 0.23382645301229105),
    (0.7214652814606355, 1.1704614142751286, 0.8665479289050844),
)

# seed 815003: tau (0.05, 0.95), eps (1.0, 3.0)
_DILATION_DRAWS = (
    (0.8780781174218288, 1.0479866958228463),
    (0.30932554394237155, 1.7722517666707405),
    (0.5934034772322822, 2.5405758227102284),
    (0.05456438148108725, 2.743216617672354),
    (0.25396130198002814, 2.3115690064491794),
    (0.34691859976649825, 2.1617713991459926),
    (0.5865946674407614, 2.1012305318657245),
    (0.1906612047344387, 1.1218221633948233),
    (0.5289638776514931, 1.494366933613867),
    (0.6741142111621653, 1.3943538210299853),
    (0.42517133068609037, 1.4291564564593826),
    (0.7700875374245135, 1.1803595120115817),
    (0.7019180281422164, 2.579870218978365),
    (0.5136279426336857, 1.348129596457624),
    (0.3226254349958001, 1.1712760446685981),
    (0.9399510370444898, 2.7012306143699347),
    (0.14132882007890019, 1.301494696778767),
    (0.44395568569149285, 2.9732033317639095),
    (0.8058606764110248, 2.1978257765261002),
    (0.44049917927952625, 1.1263496453101731),
)


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
    worst = 0.0
    for gamma, tau, eps, lam in _BK_AO_DRAWS:
        res = ResourceState.from_tmsv(gamma)
        env = GaussChannel(tau, (1.0 - tau) * eps)
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
    worst = 0.0
    for gamma, g, tau, eps, lam in _AO_PIPELINE_DRAWS:
        res = ResourceState.from_tmsv(gamma)
        env = GaussChannel(tau, (1.0 - tau) * eps)
        cfg = TeleportConfig(lam, g, env)
        tel = ao_effective_channel(res, cfg)
        eff = effective_channel(lambda probe: ao_simulate(probe, res, cfg))
        worst = max(worst, abs(eff.tau - tel.tau) + abs(eff.v - tel.v))
    return worst


def _check_cloner_purification() -> float:
    worst = 0.0
    for tau, eps, zeta in _CLONER_DRAWS:
        ch = GaussChannel(tau, (1.0 - tau) * eps)
        result = cloner_attack(AttackScenario(ch, zeta=zeta))
        worst = max(worst, abs(result.eve_info_bits - result.holevo_bits))
    return worst


def _check_dilation_roundtrip() -> float:
    worst = 0.0
    for tau, eps in _DILATION_DRAWS:
        ch = GaussChannel(tau, (1.0 - tau) * eps)
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
    # Eve's tap at eta = 0.6 on an auxiliary tmsv(0.03): the noise
    # m = (1 - eta)(1 + 0.03^2)/(1 - 0.03^2); on pure loss the optimizer's
    # pick, m = 1 - eta
    eve_info(ao_attack_state(amplified, 0.7, 0.6, 0.4 * 1.0009 / 0.9991), amplified)
    pure = AttackScenario(GaussChannel(0.25, 0.75), zeta=0.7, gain=1e6)
    eve_info(ao_attack_state(pure, 0.6, 0.25 / 0.36, 1 - 0.25 / 0.36), pure)
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
    results = []
    for check in CHECKS if checks is None else checks:
        start = time.perf_counter()
        measured = check.fn()
        seconds = time.perf_counter() - start
        results.append(
            CheckResult(check.name, check.tolerance, measured, measured <= check.tolerance, seconds)
        )
    return results
