"""Command-line surface: flat key = value configs, four subcommands
(channel, sweep, telesim, verify), deterministic CSV output.

Exit codes: 0 success, 1 configuration or flag error, 2 runtime or
infeasibility error, 3 verification-suite failure.
"""

from __future__ import annotations

import argparse
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


# Config key (also the flag's dest) -> (RunConfig field, parser), in the
# order serialize_config writes them.
_FIELDS = {
    "tau": ("tau", _parse_float),
    "epsilon": ("epsilon", _parse_float),
    "v": ("v", _parse_float),
    "zeta": ("zeta", _parse_float),
    "beta": ("beta", _parse_float),
    "reconciliation": ("reconciliation", _parse_str),
    "g_policy": ("g_policy", _parse_str),
    "gamma_min": ("gamma_lo", _parse_gamma_min),
    "gamma_max": ("gamma_hi", _parse_float),
    "gamma_count": ("gamma_count", _parse_int),
    "output": ("output", _parse_str),
    "precision": ("precision", _parse_int),
}
_CONFIG_KEYS = tuple(_FIELDS)


def _override(cfg: RunConfig, values: dict) -> RunConfig:
    """cfg with every config key present (not None) in values parsed into its
    field. epsilon and v are two spellings of the channel noise, so setting
    one clears the other; callers reject values that set both."""
    fields = {
        field: parse(key, values[key])
        for key, (field, parse) in _FIELDS.items()
        if values.get(key) is not None
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        seen[key] = value

    if "epsilon" in seen and "v" in seen:
        raise ConfigError(f"{source}: keys 'epsilon' and 'v' are mutually exclusive")

    cfg = _override(RunConfig(), seen)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical config text; parse(serialize(cfg)) == cfg."""
    lines = []
    for key, (field, _) in _FIELDS.items():
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
    lines = [CSV_HEADER]
    for r in table.rows:
        numbers = (
            r.gamma,
            r.ent_ebits,
            r.eta_star,
            r.kappa_star,
            r.eve_info_bits,
            r.holevo_bits,
            r.key_rate_bits,
            r.residual,
        )
        fields = [_fmt(x, precision) for x in numbers]
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


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 1 on bad flags instead of argparse's default 2
    def error(self, message):
        raise _ArgumentError(message)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--tau", type=float, help="channel transmissivity")
    common.add_argument("--epsilon", type=float, help="excess-noise factor, v = (1 - tau) epsilon")
    common.add_argument("--v", type=float, help="added noise directly (excludes --epsilon)")
    common.add_argument("--zeta", type=float, help="source tmsv squeezing")
    common.add_argument("--beta", type=float, help="reconciliation efficiency")
    common.add_argument("--reconciliation", choices=("direct", "reverse"))
    common.add_argument("--g-policy", dest="g_policy", help="asymptotic or finite:<gain>")
    common.add_argument("--gamma-min", dest="gamma_min", help="sweep start; 'auto' = gamma_min")
    common.add_argument("--gamma-max", dest="gamma_max", type=float, help="sweep end, < 1")
    common.add_argument("--gamma-count", dest="gamma_count", type=int, help="sweep points")
    common.add_argument("--output", help="CSV output path")
    common.add_argument("--precision", type=int, help="decimal places in reports and CSV")

    parser = _Parser(
        prog="cvqkd-attacks",
        description="Covariance-matrix simulation of teleportation-based attacks on CV-QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("channel", parents=[common], help="channel taxonomy and entanglement bounds")
    sub.add_parser("sweep", parents=[common], help="resource sweep to CSV")
    p_tele = sub.add_parser("telesim", parents=[common], help="one-shot teleporter comparison")
    p_tele.add_argument("--gamma", type=float, required=True, help="resource tmsv squeezing")
    p_tele.add_argument("--lam", type=float, default=1.0, help="teleportation gain (default 1)")
    sub.add_parser("verify", parents=[common], help="run the built-in verification suite")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        cfg = parse_config(text, source=args.config)
    else:
        cfg = RunConfig()

    if args.epsilon is not None and args.v is not None:
        raise ConfigError("flags --epsilon and --v are mutually exclusive")
    cfg = _override(cfg, vars(args))
    validate_config(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "channel":
        return cmd_channel(cfg)
    if args.command == "sweep":
        return cmd_sweep(cfg)
    if args.command == "verify":
        return cmd_verify()
    if args.command == "telesim":
        return cmd_telesim(cfg, args.gamma, args.lam)
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
