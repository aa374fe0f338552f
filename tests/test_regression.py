"""Golden regression: a fresh sweep against the committed reference tables.

`data/sweep_gamma_count_6.csv` is `cvqkd-attacks sweep --gamma-count 6` at
the defaults (rows 0, 8, ..., 40 of the default 41-row table), as computed
before any optimization of the attack kernels.
`data/sweep_lowgain_count_11.csv` is `sweep --g-policy finite:100
--gamma-max 0.99 --gamma-count 11`, computed before the scan grid was
batched: at g = 100 every matrix stays below the high-precision scale, so
it pins the double-precision path alone. `data/sweep_finite_1e6_count_6.csv`
is `sweep --g-policy finite:1e6 --gamma-count 6`: there Eve's blocks pass
the high-precision scale, so it pins the path that reads their spectra in
her local basis from both sides of the Cholesky congruence. Run-to-run
determinism alone cannot catch a refactor that drifts every run the same
way; this can.
"""

import csv
import math
from pathlib import Path

import pytest

from cvqkd_attacks.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDENS = {
    "asymptotic": (DATA / "sweep_gamma_count_6.csv", ["--gamma-count", "6"]),
    "lowgain": (
        DATA / "sweep_lowgain_count_11.csv",
        ["--g-policy", "finite:100", "--gamma-max", "0.99", "--gamma-count", "11"],
    ),
    "finite-1e6": (
        DATA / "sweep_finite_1e6_count_6.csv",
        ["--g-policy", "finite:1e6", "--gamma-count", "6"],
    ),
}

# Absolute tolerance per column. 2e-6 bits admits the ~6e-8-bit correction an
# exact g -> infinity protocol would bring and still catches an optimum one
# scan step off the peak (~3e-6 bits); eta and kappa may move along the flat
# top of the objective; the closed forms only carry the CSV's rounding.
TOLERANCES = {
    "gamma": 2e-9,
    "ent_ebits": 2e-9,
    "holevo_bits": 2e-9,
    "eve_info_bits": 2e-6,
    "key_rate_bits": 2e-6,
    "eta_star": 1e-3,
    "kappa_star": 1e-3,
}
MAX_RESIDUAL = 1e-8


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_sweep_matches_golden_table(case, tmp_path, capsys):
    golden_path, args = GOLDENS[case]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *args, "--output", str(out)]) == 0
    capsys.readouterr()
    fresh, golden = _rows(out), _rows(golden_path)
    assert len(fresh) == len(golden) == int(args[-1])
    for got, want in zip(fresh, golden):
        assert got["feasible"] == want["feasible"], want["gamma"]
        for column, tol in TOLERANCES.items():
            g, w = float(got[column]), float(want[column])
            same_nan = math.isnan(g) and math.isnan(w)
            assert same_nan or abs(g - w) <= tol, (want["gamma"], column, g, w)
        if got["feasible"] == "true":
            assert float(got["residual"]) <= MAX_RESIDUAL, want["gamma"]
