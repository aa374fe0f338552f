"""Command-line surface: flat key = value configs, four subcommands
(channel, sweep, telesim, verify), deterministic CSV output.

Flags are `--config PATH`, each config key with `-` for `_`, and on telesim
`--gamma` and `--lam`; `--tau=0.5` and a unique prefix (`--gamma-c 6`) work,
the last of a repeated flag wins, and a flag's value goes through its key's
config parser. `-h`/`--help` lists the flags.

Exit codes: 0 success, 1 configuration or flag error, 2 runtime or
infeasibility error, 3 verification-suite failure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .attacks import AttackScenario, entanglement_lower_bound, gamma_min
from .channels import GaussChannel, classify, is_entanglement_breaking
from .keyrate import SweepTable, default_gamma_grid, mutual_information, sweep
from .teleportation import (
    ResourceState,
    TeleportConfig,
    ao_effective_channel,
    bk_effective_channel,
)
from .verify import run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

CSV_HEADER = "gamma,ent_ebits,eta_star,kappa_star,eve_info_bits,holevo_bits,key_rate_bits,residual,feasible"


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field or line."""


@dataclass(frozen=True)
class RunConfig:
    """One run's knobs. Defaults encode the published operating point, so a
    bare `sweep` reproduces the reference table.

    Exactly one of epsilon (excess-noise factor, v = (1-tau) epsilon) and v
    (added noise directly) is set. gamma_lo None means "start at gamma_min
    of the configured channel".
    """

    tau: float = 0.25
    epsilon: float | None = 1.01
    v: float | None = None
    zeta: float = 0.7
    beta: float = 0.95
    reconciliation: str = "reverse"
    g_policy: str = "asymptotic"
    gamma_lo: float | None = None
    gamma_hi: float = 0.9999
    gamma_count: int = 41
    output: str = "sweep.csv"
    precision: int = 9


def _parse_float(field: str, raw) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"field {field!r}: expected a number, got {raw!r}") from None


def _parse_int(field: str, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"field {field!r}: expected an integer, got {raw!r}") from None


def _parse_str(field: str, raw: str) -> str:
    return raw


def _parse_gamma_min(field: str, raw: str) -> float | None:
    return None if raw == "auto" else _parse_float(field, raw)


# Config key -> (RunConfig field, parser, flag help), in the order
# serialize_config writes them. The key's flag is --<key> with "-" for "_".
_FIELDS = {
    "tau": ("tau", _parse_float, "channel transmissivity"),
    "epsilon": ("epsilon", _parse_float, "excess-noise factor, v = (1 - tau) epsilon"),
    "v": ("v", _parse_float, "added noise directly (excludes --epsilon)"),
    "zeta": ("zeta", _parse_float, "source tmsv squeezing"),
    "beta": ("beta", _parse_float, "reconciliation efficiency"),
    "reconciliation": ("reconciliation", _parse_str, "direct or reverse"),
    "g_policy": ("g_policy", _parse_str, "asymptotic or finite:<gain>"),
    "gamma_min": ("gamma_lo", _parse_gamma_min, "sweep start; 'auto' = gamma_min"),
    "gamma_max": ("gamma_hi", _parse_float, "sweep end, < 1"),
    "gamma_count": ("gamma_count", _parse_int, "sweep points"),
    "output": ("output", _parse_str, "CSV output path"),
    "precision": ("precision", _parse_int, "decimal places in reports and CSV"),
}


def _override(cfg: RunConfig, values: dict[str, str]) -> RunConfig:
    """cfg with every config key in values parsed into its field. epsilon and
    v are two spellings of the channel noise, so setting one clears the
    other, and values may not set both."""
    if "epsilon" in values and "v" in values:
        raise ConfigError("keys 'epsilon' and 'v' are mutually exclusive")
    fields = {
        field: parse(key, values[key])
        for key, (field, parse, _) in _FIELDS.items()
        if key in values
    }
    if "v" in fields:
        fields["epsilon"] = None
    elif "epsilon" in fields:
        fields["v"] = None
    return replace(cfg, **fields)


def resolve_g_policy(policy: str) -> float:
    """Map 'asymptotic' to math.inf and 'finite:<x>' to its value."""
    if policy == "asymptotic":
        return math.inf
    if policy.startswith("finite:"):
        value = _parse_float("g_policy", policy[len("finite:") :])
        if not value > 1.0 or math.isinf(value):
            raise ConfigError(f"field 'g_policy': finite gain must be > 1, got {value}")
        return value
    raise ConfigError(
        f"field 'g_policy': expected 'asymptotic' or 'finite:<gain>', got {policy!r}"
    )


def validate_config(cfg: RunConfig) -> None:
    if not 0.0 < cfg.tau <= 1.0:
        raise ConfigError(f"field 'tau': must lie in (0, 1], got {cfg.tau}")
    if (cfg.epsilon is None) == (cfg.v is None):
        raise ConfigError("fields 'epsilon'/'v': exactly one must be set")
    if cfg.epsilon is not None:
        if not cfg.epsilon >= 1.0:
            raise ConfigError(f"field 'epsilon': must be >= 1, got {cfg.epsilon}")
        if math.isinf(cfg.epsilon):
            raise ConfigError(f"field 'epsilon': must be finite, got {cfg.epsilon}")
    if cfg.v is not None:
        if not cfg.v >= 0.0:
            raise ConfigError(f"field 'v': must be >= 0, got {cfg.v}")
        if math.isinf(cfg.v):
            raise ConfigError(f"field 'v': must be finite, got {cfg.v}")
        if cfg.v < 1.0 - cfg.tau - 1e-9:
            raise ConfigError(
                f"field 'v': {cfg.v} below the physical floor 1 - tau = {1.0 - cfg.tau}"
            )
    if not 0.0 <= cfg.zeta < 1.0:
        raise ConfigError(f"field 'zeta': must lie in [0, 1), got {cfg.zeta}")
    if not 0.0 <= cfg.beta <= 1.0:
        raise ConfigError(f"field 'beta': must lie in [0, 1], got {cfg.beta}")
    if cfg.reconciliation not in ("direct", "reverse"):
        raise ConfigError(
            f"field 'reconciliation': must be 'direct' or 'reverse', got {cfg.reconciliation!r}"
        )
    resolve_g_policy(cfg.g_policy)
    if cfg.gamma_lo is not None and not 0.0 <= cfg.gamma_lo < 1.0:
        raise ConfigError(f"field 'gamma_min': must lie in [0, 1) or 'auto', got {cfg.gamma_lo}")
    if not 0.0 < cfg.gamma_hi < 1.0:
        raise ConfigError(f"field 'gamma_max': must lie in (0, 1), got {cfg.gamma_hi}")
    if cfg.gamma_lo is not None and cfg.gamma_lo >= cfg.gamma_hi:
        raise ConfigError(
            f"field 'gamma_min': {cfg.gamma_lo} must be below gamma_max = {cfg.gamma_hi}"
        )
    if cfg.gamma_count < 2:
        raise ConfigError(f"field 'gamma_count': must be >= 2, got {cfg.gamma_count}")
    if not 1 <= cfg.precision <= 17:
        raise ConfigError(f"field 'precision': must lie in [1, 17], got {cfg.precision}")
    if not cfg.output:
        raise ConfigError("field 'output': must be a nonempty path")


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse a flat `key = value` config; `#` starts a comment anywhere."""
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        seen[key] = value

    cfg = _override(RunConfig(), seen)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical config text; parse(serialize(cfg)) == cfg."""
    lines = []
    for key, (field, _, _) in _FIELDS.items():
        value = getattr(cfg, field)
        if value is None:
            if key != "gamma_min":
                continue  # the unset one of epsilon and v
            value = "auto"
        lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"


def channel_from(cfg: RunConfig) -> GaussChannel:
    v = cfg.v if cfg.v is not None else (1.0 - cfg.tau) * cfg.epsilon
    try:
        return GaussChannel(cfg.tau, v)
    except ValueError as exc:
        raise ConfigError(f"fields 'tau'/'v': {exc}") from None


def scenario_from(cfg: RunConfig) -> AttackScenario:
    return AttackScenario(
        channel=channel_from(cfg),
        zeta=cfg.zeta,
        reconciliation=cfg.reconciliation,
        gain=resolve_g_policy(cfg.g_policy),
    )


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}f}"


def format_sweep_csv(table: SweepTable, precision: int) -> str:
    # the columns are SweepRow's fields, in order; feasible, the last, is no number
    *numbers, _ = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for r in table.rows:
        fields = [_fmt(getattr(r, name), precision) for name in numbers]
        fields.append("true" if r.feasible else "false")
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def write_sweep_csv(table: SweepTable, path: str, precision: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_sweep_csv(table, precision))


def cmd_channel(cfg: RunConfig) -> int:
    ch = channel_from(cfg)
    p = cfg.precision
    print(f"tau = {_fmt(ch.tau, p)}")
    print(f"v = {_fmt(ch.v, p)}")
    print(f"kind = {classify(ch).value}")
    print(f"entanglement_breaking = {'true' if is_entanglement_breaking(ch) else 'false'}")
    print(f"gamma_min = {_fmt(gamma_min(ch), p)}")
    print(f"ent_lower_bound_ebits = {_fmt(entanglement_lower_bound(ch), p)}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    ch = channel_from(cfg)
    if is_entanglement_breaking(ch):
        print("error: channel is entanglement breaking; no attack to sweep", file=sys.stderr)
        return EXIT_RUNTIME
    sc = scenario_from(cfg)
    try:
        grid = default_gamma_grid(sc, cfg.gamma_count, cfg.gamma_lo, cfg.gamma_hi)
        table = sweep(sc, cfg.beta, grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        write_sweep_csv(table, cfg.output, cfg.precision)
    except OSError as exc:
        print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    p = cfg.precision
    feasible = [r for r in table.rows if r.feasible]
    print(f"rows = {len(table.rows)} ({len(feasible)} feasible)")
    print(f"holevo_bits = {_fmt(table.rows[0].holevo_bits, p)}")
    print(f"mutual_info_bits = {_fmt(mutual_information(sc), p)}")
    if feasible:
        print(f"key_rate_first_feasible = {_fmt(feasible[0].key_rate_bits, p)}")
        print(f"key_rate_last = {_fmt(feasible[-1].key_rate_bits, p)}")
    print(f"wrote {cfg.output}")
    return EXIT_OK


def cmd_telesim(cfg: RunConfig, gamma: float, lam: float) -> int:
    g = resolve_g_policy(cfg.g_policy)
    try:
        env = channel_from(cfg)
        res = ResourceState.from_tmsv(gamma)
        bk = bk_effective_channel(res, lam)
        ao = ao_effective_channel(res, TeleportConfig(lam, g, env))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    p = cfg.precision
    print(f"resource tmsv: gamma = {_fmt(gamma, p)} (a = {_fmt(res.a, p)}, c = {_fmt(res.c, p)})")
    print(f"standard teleportation: tau_tel = {_fmt(bk.tau, p)}  v_tel = {_fmt(bk.v, p)}")
    print(f"all-optical (g = {g:g}): tau_tel = {_fmt(ao.tau, p)}  v_tel = {_fmt(ao.v, p)}")
    print(f"|v_ao - v_bk| = {_fmt(abs(ao.v - bk.v), p)}")
    return EXIT_OK


def cmd_verify() -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status}  {r.name:<{width}}  measured = {r.measured:.3e}  "
            f"tolerance = {r.tolerance:.1e}  time = {1e3 * r.seconds:.1f} ms"
        )
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_VERIFY


def _help() -> str:
    fields = "\n".join(
        f"  --{key.replace('_', '-'):<16}{text}" for key, (_, _, text) in _FIELDS.items()
    )
    return f"""usage: cvqkd-attacks {{channel,sweep,telesim,verify}} [--flag VALUE ...]

Covariance-matrix simulation of teleportation-based attacks on CV-QKD.

commands:
  channel   channel taxonomy and entanglement bounds
  sweep     resource sweep to CSV
  telesim   one-shot teleporter comparison
  verify    run the built-in verification suite

flags (--flag=VALUE and a unique prefix also work; flags override --config):
  --config          key = value config file
{fields}
  --gamma           telesim only, required: resource tmsv squeezing
  --lam             telesim only: teleportation gain (default 1)"""


def _parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The command and each given flag's raw value by key: 'config', a
    _FIELDS key, or on telesim 'gamma' and 'lam'."""
    if not argv or argv[0] not in ("channel", "sweep", "telesim", "verify"):
        got = repr(argv[0]) if argv else "none"
        raise ConfigError(f"expected a command (channel, sweep, telesim, verify), got {got}")
    command, tokens = argv[0], iter(argv[1:])
    keys = ["config", *_FIELDS] + (["gamma", "lam"] if command == "telesim" else [])
    flags = {"--" + key.replace("_", "-"): key for key in keys}
    values = {}
    for token in tokens:
        name, eq, value = token.partition("=")
        if not name.startswith("--") or name == "--":
            raise ConfigError(f"unexpected argument {token!r}")
        matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
        if not matches:
            raise ConfigError(f"unknown flag {name} for {command}")
        if len(matches) > 1:
            raise ConfigError(f"ambiguous flag {name}: could be {', '.join(matches)}")
        if not eq:
            value = next(tokens, None)
            # as argparse reads it: "-0.5" and "-" are values, "-x" and "--tau" are not
            if value is None or (value.startswith("-") and value[1:2] not in "0123456789."):
                raise ConfigError(f"flag {matches[0]}: expected a value")
        values[flags[matches[0]]] = value
    if command == "telesim" and "gamma" not in values:
        raise ConfigError("telesim needs --gamma")
    return command, values


def _load_config(values: dict[str, str]) -> RunConfig:
    path, text = values.get("config", ""), ""
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = _override(parse_config(text, source=path), values)
    validate_config(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_help())
        return EXIT_OK
    try:
        command, values = _parse_argv(argv)
        cfg = _load_config(values)
        if command == "telesim":
            gamma = _parse_float("gamma", values["gamma"])
            lam = _parse_float("lam", values.get("lam", "1"))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if command == "channel":
        return cmd_channel(cfg)
    if command == "sweep":
        return cmd_sweep(cfg)
    if command == "verify":
        return cmd_verify()
    return cmd_telesim(cfg, gamma, lam)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
