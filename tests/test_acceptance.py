"""Acceptance gate: one test per numbered criterion, at the stated tolerance.

Run with -v for one line per criterion; each test also prints its measured
margins. The physicality audit is reset once for the module, so criterion 9
covers every state object the other criteria created.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cvqkd_attacks.attacks import (
    AttackScenario,
    cloner_attack,
    entropy_of_entanglement,
    gamma_min,
    optimize_attack,
)
from cvqkd_attacks.channels import GaussChannel, effective_channel
from cvqkd_attacks.cli import RunConfig, format_sweep_csv, scenario_from, write_sweep_csv
from cvqkd_attacks.gaussian import physicality_audit, reset_physicality_audit
from cvqkd_attacks.keyrate import default_gamma_grid, mutual_information, sweep
from cvqkd_attacks.teleportation import (
    ResourceState,
    TeleportConfig,
    ao_effective_channel,
    ao_simulate,
    bk_effective_channel,
)
from cvqkd_attacks.verify import (
    _check_entanglement_entropy_oracle,
    _check_gamma_min_pure_loss,
    _check_minimal_resource_identity,
)

SC = scenario_from(RunConfig())

# Frozen output of the independent bisection oracle below at the reference
# channel (tau = 0.25, v = 0.7575); the closed form must land on it.
GAMMA_MIN_ANCHOR = 0.4451652046870818


@pytest.fixture(scope="module", autouse=True)
def _fresh_audit():
    reset_physicality_audit()
    yield


@pytest.fixture(scope="module")
def double_sweep(_fresh_audit):
    """The default 41-point sweep, run twice, with wall-clock timings."""
    grid = default_gamma_grid(SC, 41, None, 0.9999)
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        table = sweep(SC, 0.95, grid)
        runs.append((table, time.perf_counter() - start))
    return runs


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _bisect_gamma_min(tau: float, v: float) -> float:
    # teleported noise a*tau - 2c*sqrt(tau) + a falls from 1+tau at gamma = 0
    # to 1-tau at gamma = sqrt(tau); bisect its crossing with v
    lo, hi = 0.0, math.sqrt(tau)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        a = (1.0 + mid * mid) / (1.0 - mid * mid)
        c = 2.0 * mid / (1.0 - mid * mid)
        if a * tau - 2.0 * c * math.sqrt(tau) + a > v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_gamma_min():
    got = gamma_min(GaussChannel(0.25, 0.7575))
    dev_anchor = abs(got - GAMMA_MIN_ANCHOR)
    dev_oracle = abs(got - _bisect_gamma_min(0.25, 0.7575))
    worst_pure = _check_gamma_min_pure_loss()
    ok = dev_anchor <= 1e-6 and dev_oracle <= 1e-12 and worst_pure <= 1e-12
    _report(
        1,
        ok,
        f"anchor dev {dev_anchor:.2e} <= 1e-6, oracle dev {dev_oracle:.2e} <= 1e-12, "
        f"pure-loss worst {worst_pure:.2e} <= 1e-12",
    )


def test_criterion_02_entanglement_entropy():
    worst = _check_entanglement_entropy_oracle()
    dev_anchor = abs(entropy_of_entanglement(0.5) - 1.081704)
    ok = worst <= 1e-10 and dev_anchor <= 1e-5
    _report(2, ok, f"oracle worst {worst:.2e} <= 1e-10, E(0.5) dev {dev_anchor:.2e} <= 1e-5")


def test_criterion_03_minimal_resource_identity():
    worst = _check_minimal_resource_identity()
    ok = worst <= 1e-9
    _report(3, ok, f"5x5 grid worst |dtau|+|dv| {worst:.2e} <= 1e-9")


def test_criterion_04_bk_ao_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    worst_gap = 0.0
    worst_growth = -math.inf
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
        worst_gap = max(worst_gap, gaps[-1])
        worst_growth = max(worst_growth, max(hi - lo for lo, hi in zip(gaps, gaps[1:])))
    worst_pipe = 0.0
    for _ in range(5):
        res = ResourceState.from_tmsv(rng.uniform(0.1, 0.9))
        g = rng.uniform(2.0, 50.0)
        tau = rng.uniform(0.3, 0.95)
        env = GaussChannel(tau, (1.0 - tau) * rng.uniform(1.0, 1.2))
        cfg = TeleportConfig(rng.uniform(0.1, min(1.0, g * tau)), g, env)
        tel = ao_effective_channel(res, cfg)
        eff = effective_channel(lambda probe: ao_simulate(probe, res, cfg))
        worst_pipe = max(worst_pipe, abs(eff.tau - tel.tau) + abs(eff.v - tel.v))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-4 and worst_growth <= 0.0 and worst_pipe <= 1e-8 and elapsed < 1.0
    _report(
        4,
        ok,
        f"gap at g=1e6 {worst_gap:.2e} <= 1e-4, worst gap growth {worst_growth:.2e} <= 0, "
        f"pipeline vs formula {worst_pipe:.2e} <= 1e-8, {elapsed:.2f}s < 1s",
    )


def test_criterion_05_cloner_purification():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(10):
        tau = rng.uniform(0.1, 0.9)
        ch = GaussChannel(tau, (1.0 - tau) * rng.uniform(1.0, 1.2))
        result = cloner_attack(AttackScenario(ch, zeta=rng.uniform(0.2, 0.9)))
        worst = max(worst, abs(result.eve_info_bits - result.holevo_bits))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(5, ok, f"worst |S(x:E) - chi| {worst:.2e} <= 1e-9, {elapsed:.2f}s < 1s")


def test_criterion_06_minimal_entanglement_anchor():
    res = optimize_attack(SC, gamma_min(SC.channel))
    gap = res.holevo_bits - res.eve_info_bits
    ok = res.eta_star >= 1.0 - 1e-3 and res.residual <= 1e-4 and gap > 0.0
    _report(
        6,
        ok,
        f"eta* {res.eta_star:.6f} >= 1-1e-3, residual {res.residual:.2e} <= 1e-4, "
        f"chi - info {gap:.2e} > 0",
    )


def test_criterion_07_choi_anchor():
    res = optimize_attack(replace(SC, gain=1.0e6), 0.9999)
    dev_eta = abs(res.eta_star - 0.25)
    dev_kappa = abs(res.kappa_star - 0.070534)
    ratio = res.eve_info_bits / res.holevo_bits
    ok = dev_eta <= 1e-2 and dev_kappa <= 1e-2 and res.eve_info_bits >= 0.98 * res.holevo_bits
    _report(
        7,
        ok,
        f"eta* dev {dev_eta:.2e} <= 1e-2, kappa* dev {dev_kappa:.2e} <= 1e-2, "
        f"info/chi {ratio:.6f} >= 0.98",
    )


def test_criterion_08_sweep_monotonicity(double_sweep):
    table = double_sweep[0][0]
    rows = table.rows
    assert len(rows) == 41
    info = [r.eve_info_bits for r in rows]
    key = [r.key_rate_bits for r in rows]
    min_info_step = min(hi - lo for lo, hi in zip(info, info[1:]))
    max_key_step = max(hi - lo for lo, hi in zip(key, key[1:]))
    identity_exact = all(
        r.key_rate_bits == 0.95 * mutual_information(SC) - r.eve_info_bits for r in rows
    )
    dev_mi = abs(mutual_information(SC) - 0.309524)
    ok = (
        min_info_step >= -1e-9
        and max_key_step <= 1e-9
        and identity_exact
        and dev_mi <= 1e-6
    )
    _report(
        8,
        ok,
        f"min info step {min_info_step:.2e} >= -1e-9, max key step {max_key_step:.2e} <= 1e-9, "
        f"row identity bit-exact: {identity_exact}, I(a:b) dev {dev_mi:.2e} <= 1e-6",
    )


def test_criterion_09_physicality(double_sweep):
    min_nu, count = physicality_audit()
    slack = min_nu - (1.0 - 1e-9)
    ok = slack >= 0.0 and count >= 100
    _report(
        9,
        ok,
        f"min symplectic eigenvalue {min_nu!r} >= 1-1e-9 over {count} states",
    )


def test_criterion_10_determinism_and_runtime(double_sweep, tmp_path):
    (table_a, time_a), (table_b, time_b) = double_sweep
    text_a = format_sweep_csv(table_a, 9)
    text_b = format_sweep_csv(table_b, 9)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_sweep_csv(table_a, str(path_a), 9)
    write_sweep_csv(table_b, str(path_b), 9)
    identical = text_a == text_b and path_a.read_bytes() == path_b.read_bytes()
    ok = time_a < 60.0 and time_b < 60.0 and identical
    _report(
        10,
        ok,
        f"sweep times {time_a:.1f}s / {time_b:.1f}s < 60s, byte-identical: {identical}",
    )
