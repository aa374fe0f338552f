"""One benchmark pass in a fresh interpreter.

Started by run.py with a JSON spec as its only argument. The child imports
the package from the checkout's src/, builds its inputs, installs the tracer
if asked, and prints a READY line. It then waits on stdin: GO runs one pass
of the workload, anything else exits. After the pass it prints DONE at once,
so that the parent's clock stops there, then one RESULT line with the raw
outputs, the CPU time of the pass and, when traced, the span summary. The
parent checks the outputs; the child only records them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    # the child's own time plus that of any process it has waited for, so
    # that a process pool inside the package is charged for its workers
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image alone; ru_maxrss would also keep
    # the high-water mark of the parent it was forked from, across exec
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _capture(module, name: str, sink: list):
    """Rebind module.name so that each return value is also appended to sink."""
    original = getattr(module, name)

    def capturing(*args, **kwargs):
        value = original(*args, **kwargs)
        sink.append(value)
        return value

    setattr(module, name, capturing)


def _table_pass(spec, cli, gaussian, tables):
    argv = list(spec["argv"]) + ["--gamma-count", str(spec["count"]), "--output", spec["csv"]]
    out = {"exit": None, "error": None, "rows": [], "csv": None}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            out["exit"] = cli.main(argv)
    except Exception as exc:  # a crash fails every row of the pass; report it
        out["error"] = f"{type(exc).__name__}: {exc}"
    if tables:
        out["rows"] = [dataclasses.asdict(r) for r in tables[-1].rows]
    if os.path.exists(spec["csv"]):
        with open(spec["csv"], encoding="utf-8") as fh:
            out["csv"] = fh.read()
        os.remove(spec["csv"])
    out["audit_min_nu"], out["audit_count"] = gaussian.physicality_audit()
    return out


def _verify_pass(cli, results):
    out = {"exit": None, "error": None, "checks": []}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            out["exit"] = cli.main(["verify"])
    except Exception as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    if results:
        out["checks"] = [
            {"name": r.name, "measured": r.measured, "tolerance": r.tolerance, "passed": r.passed}
            for r in results[-1]
        ]
    return out


def _rows_pass(inputs, attacks, gaussian, keyrate):
    sc, beta, grid = inputs
    rows = []
    for gamma in grid:
        gaussian.reset_physicality_audit()
        row = {"gamma": gamma, "error": None}
        t0 = time.perf_counter()
        try:
            res = attacks.optimize_attack(sc, gamma)
        except ValueError as exc:
            row["error"] = f"ValueError: {exc}"
        row["seconds"] = time.perf_counter() - t0
        if row["error"] is None:
            row.update(dataclasses.asdict(res))
            row["ent_ebits"] = row.pop("ent_resource")
            row["key_rate_bits"] = keyrate.key_rate(sc, beta, res.eve_info_bits)
        row["audit_min_nu"], row["audit_count"] = gaussian.physicality_audit()
        rows.append(row)
    return {"rows": rows}


def main() -> int:
    spec = json.loads(sys.argv[1])
    proto = sys.stdout

    import mpmath
    import numpy

    import cvqkd_attacks
    from cvqkd_attacks import attacks, channels, cli, gaussian, keyrate

    expected = os.path.join(spec["src"], "cvqkd_attacks")
    if os.path.dirname(os.path.abspath(cvqkd_attacks.__file__)) != expected:
        print(f"error: imported {cvqkd_attacks.__file__}, not {expected}", file=sys.stderr)
        return 3

    validations = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        validations = tracing.install(tracer)

    # capture after tracing, so that the captured call is the traced one
    kind = spec["kind"]
    captured: list = []
    if kind == "rows":
        sc = attacks.AttackScenario(channels.GaussChannel(0.25, 0.75), zeta=0.7)
        inputs = (sc, 0.95, keyrate.default_gamma_grid(sc, spec["count"]))
    elif kind == "table":
        _capture(cli, "sweep", captured)
    else:
        _capture(cli, "run_all", captured)

    print("READY " + json.dumps({"numpy": numpy.__version__, "mpmath": mpmath.__version__}),
          file=proto, flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    v0 = validations() if validations else 0
    cpu0 = _cpu_seconds()
    if kind == "rows":
        out = _rows_pass(inputs, attacks, gaussian, keyrate)
    elif kind == "table":
        out = _table_pass(spec, cli, gaussian, captured)
    else:
        out = _verify_pass(cli, captured)
    cpu_s = _cpu_seconds() - cpu0
    print("DONE", file=proto, flush=True)

    out["cpu_s"] = cpu_s
    out["rss_mb"] = _peak_rss_mb()
    if spec["trace"]:
        out["spans"] = tracer.summary()
        out["validations"] = validations() - v0
    # numpy scalars (a row's feasible flag can be numpy.bool_) as Python values
    print("RESULT " + json.dumps(out, default=lambda o: o.item()), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
