"""Mutual information, secret key rate, and the resource-sweep table."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attacks import AttackScenario, RowError, gamma_min, optimize_attacks
from .gaussian import _tmsv_textbook


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    ent_ebits: float
    eta_star: float
    kappa_star: float
    eve_info_bits: float
    holevo_bits: float
    key_rate_bits: float
    residual: float
    feasible: bool


@dataclass(frozen=True)
class SweepTable:
    """Sweep output: one row per resource squeezing, ascending."""

    scenario: AttackScenario
    beta: float
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        gammas = [row.gamma for row in self.rows]
        if any(hi <= lo for lo, hi in zip(gammas, gammas[1:])):
            raise ValueError("sweep rows must be strictly increasing in gamma")


def mutual_information(sc: AttackScenario) -> float:
    """Alice-Bob mutual information under double heterodyne:
    I(a:b) = log2 (a tau + v + 1) / (tau + v + 1), a = (1+zeta^2)/(1-zeta^2) as chi rounds it."""
    a = _tmsv_textbook(sc.zeta)[0]
    tau, v = sc.channel.tau, sc.channel.v
    return math.log2((a * tau + v + 1.0) / (tau + v + 1.0))


def key_rate(sc: AttackScenario, beta: float, eve_info: float) -> float:
    """K = beta I(a:b) - S(x:E). Negative rates are returned as-is; the
    protocol is simply insecure there."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"reconciliation efficiency must lie in [0, 1], got {beta}")
    return beta * mutual_information(sc) - eve_info


def default_gamma_grid(
    sc: AttackScenario,
    count: int = 41,
    gamma_lo: float | None = None,
    gamma_hi: float = 0.9999,
) -> tuple[float, ...]:
    """Resource grid from gamma_min to gamma_hi, log-spaced in 1 - gamma
    (the interesting physics crowds toward gamma -> 1). Endpoints exact.
    A grid whose points do not strictly increase in double precision is
    refused before any row runs."""
    if gamma_lo is None:
        gamma_lo = gamma_min(sc.channel)
        if gamma_lo >= 1.0:
            raise ValueError(
                "gamma_min = 1 for the identity channel: no finite resource can "
                "simulate it"
            )
        if gamma_lo >= gamma_hi:
            raise ValueError(
                f"the channel's gamma_min = {gamma_lo!r} is not below gamma_max = {gamma_hi!r}"
            )
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if not 0.0 <= gamma_lo < gamma_hi < 1.0:
        raise ValueError(
            f"grid bounds must satisfy 0 <= lo < hi < 1, got lo={gamma_lo}, hi={gamma_hi}"
        )
    u_lo = math.log(1.0 - gamma_lo)
    u_hi = math.log(1.0 - gamma_hi)
    grid = [1.0 - math.exp(u_lo + (u_hi - u_lo) * i / (count - 1)) for i in range(count)]
    grid[0] = gamma_lo
    grid[-1] = gamma_hi
    if any(hi <= lo for lo, hi in zip(grid, grid[1:])):
        raise ValueError(
            f"{count} grid points from {gamma_lo!r} to {gamma_hi!r} do not strictly increase"
            " in double precision"
        )
    return tuple(grid)


def sweep(sc: AttackScenario, beta: float, gamma_grid: tuple[float, ...]) -> SweepTable:
    """Optimize the attack at every grid point and assemble the table.

    Infeasible resources produce NaN-valued rows flagged feasible=false; the
    Holevo bound is a scenario constant repeated for plotting convenience.
    The rows are optimized together (optimize_attacks), each on its own; the
    first row that fails, in grid order, raises ValueError naming its gamma.
    """
    try:
        results = optimize_attacks(sc, gamma_grid)
    except RowError as exc:
        raise ValueError(f"row gamma = {exc.gamma!r}: {exc}") from exc
    rows = tuple(
        SweepRow(
            gamma=res.gamma,
            ent_ebits=res.ent_resource,
            eta_star=res.eta_star,
            kappa_star=res.kappa_star,
            eve_info_bits=res.eve_info_bits,
            holevo_bits=res.holevo_bits,
            key_rate_bits=key_rate(sc, beta, res.eve_info_bits),
            residual=res.residual,
            feasible=res.feasible,
        )
        for res in results
    )
    return SweepTable(scenario=sc, beta=beta, rows=rows)
