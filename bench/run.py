"""Benchmark command for cvqkd-attacks.

    python3 bench/run.py --workload table-asymptotic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout. Every pass of a workload runs in a fresh
interpreter (child.py) that imports the package from src/, with the BLAS and
OpenMP thread counts pinned to 1. Passes repeat, one after another, for
--seconds (at least MIN_PASSES of them). Each pass's outputs are checked
against reference/ (checks.py). The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, which are the end-to-end
ones with --trace 0 and the per-layer ones with --trace 1 (tracer.py).
--smoke runs one plain and one traced pass of every workload at a small grid,
to check the harness itself. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import calibrate
import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_run")
CHILD = os.path.join(BENCH_DIR, "child.py")

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# count: rows per pass, a divisor-compatible subset of the 41-row reference
# grid (count - 1 divides 40, so every row is a reference row, bit for bit).
WORKLOADS = {
    "table-asymptotic": {
        "kind": "table",
        "argv": ["sweep"],
        "reference": "table-asymptotic",
        "count": 6,
        "smoke": 3,
    },
    "table-lowgain": {
        "kind": "table",
        "argv": ["sweep", "--g-policy", "finite:100", "--gamma-max", "0.99"],
        "reference": "table-lowgain",
        "count": 11,
        "smoke": 3,
    },
    "pure-loss-rows": {
        "kind": "rows",
        "reference": "pure-loss-rows",
        "count": 41,
        "smoke": 3,
    },
    "verify": {"kind": "verify"},
}

# the seed's built-in checks, one per-layer metric pair each
VERIFY_CHECKS = (
    "gamma-min-thermal-anchor",
    "gamma-min-pure-loss-identity",
    "entanglement-entropy-oracle",
    "minimal-resource-identity",
    "bk-ao-convergence",
    "ao-pipeline-vs-formula",
    "cloner-purification",
    "dilation-roundtrip",
    "anchor-min-entanglement-eta",
    "anchor-min-entanglement-residual",
    "anchor-min-info-below-holevo",
    "anchor-choi-eta",
    "anchor-choi-kappa",
    "anchor-choi-info-near-holevo",
    "holevo-dominance",
    "physicality-battery",
)

# spans reported as <name>.calls and <name>.total_s
SPAN_LAYERS = (
    "keyrate.sweep",
    "attacks.optimize_attack",
    "attacks.holevo_bound",
    "attacks.eve_info",
    "attacks.ao_attack_state",
    "attacks.simulation_residual",
    "gaussian.tmsv",
    "gaussian.covmat",
    "gaussian.condition_heterodyne",
    "gaussian.von_neumann_entropy",
    "gaussian.beam_splitter",
    "gaussian.two_mode_squeezer",
    "channels.effective_channel",
    "channels.apply_channel",
    "teleportation.ao_simulate",
    "teleportation.ao_effective_channel",
    "teleportation.bk_effective_channel",
    "kernel.mpmath_eig",
    "kernel.mpmath_workdps",
    "kernel.numpy_eigvals",
    "kernel.numpy_inv",
)

MIN_PASSES = 3  # plain passes per --trace 0 run; --trace 1 runs MIN_PAIRS
MIN_PAIRS = 2  # plain + traced pass pairs per --trace 1 run
MIN_SETUPS = 5  # setup_s samples per --trace 0 run
RUN_LIMIT_S = 170.0  # hard stop for one run, child processes included


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Lines:
    """Line reader over a child's stdout pipe with a deadline."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = b""

    def expect(self, tag: str, deadline: float) -> str:
        while b"\n" not in self.buf:
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([self.fd], [], [], wait)[0]:
                raise HarnessError(f"child timed out before {tag}")
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise HarnessError(f"child exited before {tag}")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        got, _, rest = line.decode().partition(" ")
        if got != tag:
            raise HarnessError(f"child sent {got!r}, expected {tag}")
        return rest


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, deadline: float, go: bool = True) -> dict:
    """Start a fresh interpreter, time its set-up, and, with go, one pass.

    setup_s runs from the spawn to the READY line: interpreter start, package
    import and inputs built. wall_s runs from GO to DONE.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    lines = Lines(proc.stdout.fileno())
    out = {}
    try:
        out["versions"] = json.loads(lines.expect("READY", deadline))
        out["setup_s"] = time.perf_counter() - t0
        proc.stdin.write(b"GO\n" if go else b"EXIT\n")
        proc.stdin.flush()
        t_go = time.perf_counter()
        if go:
            lines.expect("DONE", deadline)
            out["wall_s"] = time.perf_counter() - t_go
            out["result"] = json.loads(lines.expect("RESULT", deadline))
        proc.stdin.close()
        code = proc.wait(max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise HarnessError("child did not exit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise HarnessError(f"child exited with code {code}")
    return out


def expected_gammas(reference: dict, count: int) -> list[str]:
    keys = list(reference["rows"])
    step, rem = divmod(len(keys) - 1, count - 1)
    if rem:
        raise HarnessError(f"{count} rows are not a sub-grid of the {len(keys)}-row reference")
    return keys[::step]


def check_pass(w: dict, count: int, result: dict) -> tuple[int, int, list[str], bool | None]:
    """Returns (attempted, failed, problems, CSV byte-identical or None)."""
    if w["kind"] == "verify":
        return (*checks.check_verify(result, len(VERIFY_CHECKS)), None)
    reference = checks.load_reference(w["reference"])
    if w["kind"] == "rows":
        failed, problems = checks.check_rows(result, reference, count)
        return count, failed, problems, None
    gammas = expected_gammas(reference, count)
    failed, problems, identical = checks.check_table(result, reference, gammas)
    return len(gammas), failed, problems, identical


def quartile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[q - 1]


def layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes: counts from the first pass
    (they must repeat exactly in every pass), times as medians over passes."""
    spans = [t["result"]["spans"] for t in traced]
    notes = []
    metrics = {}

    def count(key: str, unit: str, get) -> None:
        values = [get(s) for s in spans]
        if len(set(values)) != 1:
            notes.append(f"{key} differs between traced passes: {values}")
        metrics[key] = {"value": values[0], "unit": unit}

    def seconds(key: str, get) -> None:
        metrics[key] = {"value": statistics.median(get(s) for s in spans), "unit": "s"}

    def field(name: str, f: str):
        return lambda s: s.get(name, {}).get(f, 0)

    for name in SPAN_LAYERS:
        count(f"{name}.calls", "count", field(name, "calls"))
        seconds(f"{name}.total_s", field(name, "total_s"))
    seconds("cli.self_s", field("cli.main", "self_s"))
    seconds("attacks.optimize_attack.self_s", field("attacks.optimize_attack", "self_s"))
    rows = [d for s in spans for d in s.get("attacks.optimize_attack", {}).get("durations") or []]
    for key, q in (("p50_ms", 2), ("p75_ms", 3)):
        value = 1e3 * quartile(rows, q) if rows else 0.0
        metrics[f"attacks.optimize_attack.{key}"] = {"value": value, "unit": "ms"}
    count("attacks.optimize_attack.errors", "count", field("attacks.optimize_attack", "errors"))
    validations = [t["result"]["validations"] for t in traced]
    if len(set(validations)) != 1:
        notes.append(f"gaussian.covmat.validations differs between traced passes: {validations}")
    metrics["gaussian.covmat.validations"] = {"value": validations[0], "unit": "count"}
    for check in VERIFY_CHECKS:
        span = f"verify.check.{check}"
        seconds(f"{span}.s", field(span, "total_s"))
        count(f"{span}.validations", "count", field(span, "counted"))
    overhead = statistics.median(t["wall_s"] for t in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, notes


def measure(name: str, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload: passes until --seconds is used up, then metrics."""
    w = WORKLOADS[name]
    count = w.get("smoke" if smoke else "count")
    os.makedirs(SCRATCH, exist_ok=True)
    spec = {
        "kind": w["kind"],
        "src": SRC,
        "argv": w.get("argv", []),
        "count": count,
        "csv": os.path.join(SCRATCH, f"{name}-{os.getpid()}.csv"),
        "trace": 0,
    }
    deadline = time.perf_counter() + RUN_LIMIT_S
    warm = run_child(spec, deadline, go=False)  # file cache and bytecode, not timed
    min_passes = 1 if smoke else (MIN_PAIRS if trace else MIN_PASSES)
    plain, traced, probes = [], [], []
    start = time.perf_counter()
    while True:
        probes.append(calibrate.probe())
        plain.append(run_child(spec, deadline))
        if trace:
            traced.append(run_child({**spec, "trace": 1}, deadline))
        elapsed = time.perf_counter() - start
        if len(plain) >= min_passes and elapsed * (1 + 1 / len(plain)) > seconds:
            break
    setups = [p["setup_s"] for p in plain]
    while not trace and not smoke and len(setups) < MIN_SETUPS:
        setups.append(run_child(spec, deadline, go=False)["setup_s"])

    attempted = failed = 0
    problems, identical = [], []
    for p in plain + traced:
        a, f, probs, same = check_pass(w, count, p["result"])
        attempted, failed = attempted + a, failed + f
        problems += probs
        identical.append(same)

    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["result"]["cpu_s"] for p in plain),
    }
    # each pass is scaled by the probe just before it, which also takes out
    # the part of the host's slowdowns that lasts only a pass or two
    scale = [calibrate.REFERENCE_S / probe for probe in probes]
    scaled = {
        "setup_s": raw["setup_s"] * statistics.median(scale),
        "wall_s": statistics.median(p["wall_s"] * k for p, k in zip(plain, scale)),
        "cpu_s": statistics.median(p["result"]["cpu_s"] * k for p, k in zip(plain, scale)),
    }
    end_to_end = {key: {"value": value, "unit": "s"} for key, value in scaled.items()}
    end_to_end.update({
        "peak_rss_mb": {
            "value": statistics.median(p["result"]["rss_mb"] for p in plain),
            "unit": "MB",
        },
        "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    })
    per_layer, notes = layer_metrics(traced, plain) if trace else ({}, [])
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if trace else end_to_end,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "problems": problems,
        "notes": notes,
        "csv_byte_identical": None if identical[0] is None else all(identical),
        "walls": [p["wall_s"] for p in plain],
        "traced_walls": [t["wall_s"] for t in traced],
        "setups": setups,
        "raw": raw,
        "probes": probes,
        "versions": warm["versions"],
    }


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def host_facts(versions: dict, loadavg: tuple) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "mpmath": versions["mpmath"],
        "thread_pins": THREAD_PINS,
        "loadavg_start": loadavg,
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def report(name: str, seed: int, trace: bool, run: dict, host: dict) -> None:
    print(f"workload = {name}  seed = {seed}  trace = {int(trace)}")
    print("host = " + json.dumps(host))
    print(f"passes = {len(run['walls'])}  wall_s per pass = {run['walls']}")
    print(f"setup_s samples = {run['setups']}")
    print(f"host probe_s = {run['probes']}  reference = {calibrate.REFERENCE_S} s")
    print("unscaled medians: " + "  ".join(f"{k} = {v!r} s" for k, v in run["raw"].items()))
    if run["traced_walls"]:
        print(f"traced passes = {len(run['traced_walls'])}  wall_s = {run['traced_walls']}")
    if run["csv_byte_identical"] is not None:
        print(f"csv_byte_identical = {str(run['csv_byte_identical']).lower()}")
    print(f"attempted = {run['attempted']}  failed = {run['failed']}")
    for line in list(dict.fromkeys(run["problems"]))[:20]:
        print("problem: " + line)
    for line in run["notes"]:
        print("note: " + line)
    for key, m in run["metrics"].items():
        print(f"{key} = {m['value']!r} {m['unit']}")


def smoke() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    summary = {}
    ok = True
    for name in WORKLOADS:
        run = measure(name, 0.0, trace=True, smoke=True)
        print(f"smoke {name}: attempted = {run['attempted']}  failed = {run['failed']}  "
              f"correct = {run['correct']}  walls = {run['walls']} {run['traced_walls']}")
        for line in run["problems"][:5] + run["notes"]:
            print("  " + line)
        for kind in ("end_to_end", "per_layer"):
            got = run[kind]
            want = [m["name"] for m in spec[kind]]
            if list(got) != want:
                ok = False
                diff = sorted(set(got) ^ set(want))
                print(f"  {kind} metric names differ from BENCHMARK.json: {diff}")
        summary[name] = {k: run[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({"harness_ok": ok, "workloads": summary}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick harness self-check")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cvqkd_attacks", "__init__.py")):
        print(f"error: no package at {SRC}/cvqkd_attacks; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke()
        loadavg = os.getloadavg()
        run = measure(args.workload, args.seconds, bool(args.trace))
        host = host_facts(run["versions"], loadavg)
        report(args.workload, args.seed, bool(args.trace), run, host)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: run[k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
