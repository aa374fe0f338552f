"""Output checks for the benchmark workloads.

Table rows are compared numerically with the seed's reference CSVs in
reference/, column by column at the tolerances below, and must satisfy the
row invariants. Byte identity with the reference CSV is reported on its own:
the last printed digit may differ between machines, the numbers may not.
"""

from __future__ import annotations

import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Absolute tolerance per CSV column. 2e-6 bits admits the ~6e-8-bit
# correction an exact g -> infinity protocol makes to the asymptotic table,
# and catches an optimum one scan step (1/200 of the feasible eta window)
# off the peak, which loses about 3e-6 bits on the default grid. ent_ebits
# and holevo_bits are closed forms: only CSV rounding (5e-10) is allowed.
TOLERANCES = {
    "ent_ebits": 2e-9,
    "eta_star": 1e-3,
    "kappa_star": 1e-3,
    "eve_info_bits": 2e-6,
    "holevo_bits": 2e-9,
    "key_rate_bits": 2e-6,
}
MAX_RESIDUAL = 1e-8
MIN_NU = 1.0 - 1e-9


def gamma_key(gamma: float) -> str:
    return f"{gamma:.9f}"


def load_reference(name: str) -> dict[str, dict]:
    """Rows of reference/<name>.csv keyed by gamma as printed, each with its
    parsed values and its CSV line."""
    with open(os.path.join(REFERENCE_DIR, name + ".csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        values = {k: float(v) for k, v in fields.items() if k != "feasible"}
        values["feasible"] = fields["feasible"] == "true"
        rows[fields["gamma"]] = {"values": values, "line": line}
    return {"header": ",".join(header), "rows": rows}


def row_problems(row: dict, reference: dict, min_nu: float) -> list[str]:
    """Everything wrong with one computed row; empty when it passes."""
    key = gamma_key(row["gamma"])
    problems = []
    ref = reference["rows"].get(key)
    if ref is not None:
        want = ref["values"]
        if bool(row["feasible"]) != want["feasible"]:
            problems.append(f"gamma {key}: feasible {row['feasible']}, reference {want['feasible']}")
        for column, tol in TOLERANCES.items():
            got, exp = row[column], want[column]
            if math.isnan(exp) and math.isnan(got):
                continue
            if not abs(got - exp) <= tol:
                problems.append(f"gamma {key}: {column} {got!r} vs reference {exp!r} (tol {tol:g})")
    if row["feasible"]:
        if not row["residual"] <= MAX_RESIDUAL:
            problems.append(f"gamma {key}: residual {row['residual']!r} > {MAX_RESIDUAL:g}")
        if not row["eve_info_bits"] <= row["holevo_bits"]:
            problems.append(f"gamma {key}: eve_info_bits above holevo_bits")
    if not min_nu >= MIN_NU:
        problems.append(f"gamma {key}: audited nu_min {min_nu!r} < {MIN_NU!r}")
    return problems


def check_table(out: dict, reference: dict, gammas: list[str]) -> tuple[int, list[str], bool]:
    """Check one sweep pass expected to produce the rows keyed by gammas.
    Returns (failed rows, problems, CSV byte-identical to the reference)."""
    problems = []
    if out["error"] or out["exit"] != 0:
        problems.append(f"sweep exit {out['exit']}, error {out['error']}")
        return len(gammas), problems, False
    got = [gamma_key(r["gamma"]) for r in out["rows"]]
    if got != gammas:
        problems.append(f"rows {got} differ from the expected grid {gammas}")
        return len(gammas), problems, False
    failed = 0
    for row in out["rows"]:
        bad = row_problems(row, reference, out["audit_min_nu"])
        failed += bool(bad)
        problems += bad
    want_csv = "\n".join([reference["header"]] + [reference["rows"][g]["line"] for g in gammas])
    return failed, problems, out["csv"] == want_csv + "\n"


def check_rows(out: dict, reference: dict, count: int) -> tuple[int, list[str]]:
    """Check a pass of independent rows. A row fails when it raised, or when
    its output fails a comparison or an invariant; rows the reference lacks
    (they raised at seed) are held to the invariants alone."""
    problems = []
    failed = count - len(out["rows"])
    for row in out["rows"]:
        if row["error"]:
            bad = [f"gamma {gamma_key(row['gamma'])}: {row['error']}"]
        else:
            bad = row_problems(row, reference, row["audit_min_nu"])
        failed += bool(bad)
        problems += bad
    return failed, problems


def check_verify(out: dict, expected: int) -> tuple[int, int, list[str]]:
    """Returns (attempted checks, failed checks, problems)."""
    if out["error"] or not out["checks"]:
        return expected, expected, [f"verify exit {out['exit']}, error {out['error']}"]
    failed = [c for c in out["checks"] if not c["passed"]]
    problems = [f"check {c['name']}: {c['measured']!r} > {c['tolerance']!r}" for c in failed]
    if out["exit"] != (3 if failed else 0):
        problems.append(f"verify exit {out['exit']} with {len(failed)} failed checks")
        return len(out["checks"]), len(out["checks"]), problems
    return len(out["checks"]), len(failed), problems
