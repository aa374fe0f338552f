"""Key-rate arithmetic and the resource sweep."""

import math

import pytest

from cvqkd_attacks.attacks import AttackScenario, gamma_min, optimize_attack
from cvqkd_attacks.channels import GaussChannel
from cvqkd_attacks.gaussian import _tmsv_entries
from cvqkd_attacks.keyrate import (
    SweepRow,
    SweepTable,
    default_gamma_grid,
    key_rate,
    mutual_information,
    sweep,
)

SC = AttackScenario(GaussChannel(0.25, 0.7575), zeta=0.7)


def test_mutual_information_anchor():
    assert abs(mutual_information(SC) - 0.309524) <= 1e-6


def test_mutual_information_rational_case():
    # zeta = 1/2 gives a = 5/3; with tau = 1/2, v = 3/4 the ratio is
    # (5/6 + 7/4) / (9/4) = 31/27, checkable by hand
    sc = AttackScenario(GaussChannel(0.5, 0.75), zeta=0.5)
    assert math.isclose(mutual_information(sc), math.log2(31.0 / 27.0), rel_tol=1e-14)


def test_mutual_information_reads_alices_variance_as_the_holevo_bound_does():
    # zeta**2 and zeta * zeta round apart here, and a differs in its last
    # bits between them: I(a:b) and chi must share one rounding of it
    zeta = 0.8400304309147884
    assert zeta**2 != zeta * zeta
    a = _tmsv_entries(zeta)[0]
    assert a != (1.0 + zeta**2) / (1.0 - zeta**2)
    ch = SC.channel
    expected = math.log2((a * ch.tau + ch.v + 1.0) / (ch.tau + ch.v + 1.0))
    assert mutual_information(AttackScenario(ch, zeta)) == expected


def test_key_rate_identity_and_domain():
    info = 0.2
    assert key_rate(SC, 0.95, info) == 0.95 * mutual_information(SC) - info
    with pytest.raises(ValueError, match="reconciliation efficiency"):
        key_rate(SC, 1.2, info)
    with pytest.raises(ValueError, match="reconciliation efficiency"):
        key_rate(SC, -0.1, info)


def test_default_grid_shape():
    grid = default_gamma_grid(SC)
    assert len(grid) == 41
    assert grid[0] == gamma_min(SC.channel)
    assert grid[-1] == 0.9999
    assert all(hi > lo for lo, hi in zip(grid, grid[1:]))
    # log spacing in 1 - gamma: steps shrink toward the top end
    steps = [hi - lo for lo, hi in zip(grid, grid[1:])]
    assert steps[-1] < steps[0]


def test_default_grid_explicit_bounds():
    grid = default_gamma_grid(SC, count=5, gamma_lo=0.5, gamma_hi=0.7)
    assert grid[0] == 0.5
    assert grid[-1] == 0.7
    assert len(grid) == 5


def test_default_grid_domain():
    with pytest.raises(ValueError, match="at least 2"):
        default_gamma_grid(SC, count=1)
    with pytest.raises(ValueError, match="lo < hi"):
        default_gamma_grid(SC, gamma_lo=0.8, gamma_hi=0.7)
    with pytest.raises(ValueError, match="lo < hi"):
        default_gamma_grid(SC, gamma_hi=1.0)
    # gamma_min = 0.4452 here: an auto start above gamma_hi is named as such
    with pytest.raises(ValueError, match=r"gamma_min = 0\.4451\d+ is not below gamma_max = 0\.2$"):
        default_gamma_grid(SC, gamma_hi=0.2)


def test_default_grid_refuses_points_that_do_not_increase():
    # valid bounds one ulp apart leave no room for a third point; two fit
    hi = math.nextafter(0.5, 1.0)
    assert default_gamma_grid(SC, count=2, gamma_lo=0.5, gamma_hi=hi) == (0.5, hi)
    with pytest.raises(ValueError, match="^3 grid points from 0.5 to 0.5000000000000001 do not"):
        default_gamma_grid(SC, count=3, gamma_lo=0.5, gamma_hi=hi)


def test_sweep_rows_mirror_the_optimizer():
    table = sweep(SC, 0.95, (0.5, 0.6))
    assert table.beta == 0.95
    assert len(table.rows) == 2
    for gamma, row in zip((0.5, 0.6), table.rows):
        res = optimize_attack(SC, gamma)
        assert row.gamma == res.gamma
        assert row.ent_ebits == res.ent_resource
        assert row.eta_star == res.eta_star
        assert row.kappa_star == res.kappa_star
        assert row.eve_info_bits == res.eve_info_bits
        assert row.holevo_bits == res.holevo_bits
        assert row.residual == res.residual
        assert row.feasible == res.feasible
        assert row.key_rate_bits == 0.95 * mutual_information(SC) - res.eve_info_bits


def test_sweep_table_rejects_unsorted_rows():
    row = SweepRow(0.5, 1.0, 0.5, 0.0, 0.1, 0.2, 0.1, 0.0, True)
    other = SweepRow(0.4, 1.0, 0.5, 0.0, 0.1, 0.2, 0.1, 0.0, True)
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepTable(SC, 0.95, (row, other))
