"""Command-line front door: thresholds, risks, simulations, convergence tables.

Output discipline: CSV with one header row, every float printed with 17
significant digits (round-trippable), and a JSON sidecar next to each CSV
carrying the effective configuration, seed, and the toolkit, numpy and
scipy versions (Generator streams are promised only within a numpy
version).  With no --out the CSV goes to stdout, so runs can be piped or
diffed directly.
Identical invocations produce byte-identical CSV regardless of worker
count — parallelism never touches streams or reduction order.

Exit codes: 0 success; 1 domain errors (module messages surfaced verbatim)
and unwritable outputs; 2 flag or config-schema errors (with field path).

Config files are single JSON documents mirroring the flags; flags override
config fields.  See the README for the schema and the documented CSV
column orders.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bfdr import BfdrLevel, bfdr_threshold, gw_threshold
from .errors import ParameterError
from .experiments import (
    CONVERGENCE_COLUMNS,
    ConstantDelta,
    DecayingDelta,
    ExtremeSparsity,
    McOptions,
    PowerSparsity,
    PRESET_NAMES,
    Regime,
    point_setting,
    preset,
    regime_verge,
    run_convergence,
)
from .model import Losses, MixtureModel, TestingSetting, ThresholdSq, oracle_threshold_sq_raw
from .montecarlo import mc_run
from .procedures import replicate_threshold, universal_threshold, bonferroni_threshold
from .risk import fixed_threshold_risk
from .rules import _BY_KIND, BhRule, fill_rule, rule_from_config, rule_to_config

__all__ = ["main", "build_parser", "ConfigError"]

_RULE_KINDS = tuple(_BY_KIND)
_SIMULATE_COLUMNS = ("stat", "mean", "std_error", "reps")
_RISK_COLUMNS = ("m", "p", "u", "delta0", "deltaA", "c_sq", "r1", "r2", "total")


class ConfigError(Exception):
    """Config-schema violation; message carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Formatting and emission.


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _show(value) -> str:
    """Shortest round-trip form for stdout echo lines (CSV keeps .17g)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    return buf.getvalue()


def _emit(out, command: str, columns, rows, echo: dict, seed=None) -> None:
    text = _csv_text(columns, rows)
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    sidecar = {
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "command": command,
        "columns": list(columns),
        "config": echo,
    }
    if seed is not None:
        sidecar["seed"] = seed
    side = path.with_suffix(".json")
    if side == path:
        side = path.with_name(path.name + ".meta.json")
    side.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} and {side}")


# ---------------------------------------------------------------------------
# Config ingestion.


def _load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path!r}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    return data


def _reject_unknown(cfg: dict, allowed, prefix: str = "") -> None:
    extra = sorted(set(cfg) - set(allowed))
    if extra:
        raise ConfigError(f"{prefix}{extra[0]}", "unknown field")


# What a field of each type must be (bool is never a number), and its name.
_FIELD_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    dict: (dict, "an object"),
}


def _field(cfg: dict, key: str, kind: type, prefix: str = "", default=None):
    """cfg[key] checked to be of the given kind; absent or null gives default."""
    accepted, noun = _FIELD_TYPES[kind]
    value = cfg.get(key, None)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{prefix}{key}", f"must be {noun}")
    return kind(value)


def _flag_or_field(args, cfg: dict, key: str, kind: type, default=None):
    """The --key flag if given, else the config's top-level field."""
    value = getattr(args, key)
    return value if value is not None else _field(cfg, key, kind, default=default)


_SETTING_KEYS = ("p", "u", "tau_sq", "sigma_sq", "delta", "delta0", "deltaA", "m")


def _overlay_flags(cfg: dict, args, keys) -> dict:
    merged = dict(cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _build_setting(src: dict, prefix: str = "setting.") -> TestingSetting:
    _reject_unknown(src, _SETTING_KEYS, prefix)
    p = _field(src, "p", float, prefix)
    if p is None:
        raise ConfigError(prefix + "p", "required")
    sigma_sq = _field(src, "sigma_sq", float, prefix, default=1.0)
    tau_sq = _field(src, "tau_sq", float, prefix)
    u = _field(src, "u", float, prefix)
    if tau_sq is None:
        if u is None:
            raise ConfigError(prefix + "u", "required (or tau_sq)")
        tau_sq = u * sigma_sq
    elif u is not None:
        raise ConfigError(prefix + "u", "give either u or tau_sq, not both")
    delta = _field(src, "delta", float, prefix)
    delta0 = _field(src, "delta0", float, prefix)
    delta_a = _field(src, "deltaA", float, prefix)
    if delta is not None and (delta0 is not None or delta_a is not None):
        raise ConfigError(prefix + "delta", "give either delta or delta0/deltaA, not both")
    if delta is None:
        delta0 = 1.0 if delta0 is None else delta0
        delta_a = 1.0 if delta_a is None else delta_a
    else:
        delta0, delta_a = delta, 1.0
    m = _field(src, "m", float, prefix, default=1.0)
    return TestingSetting(
        model=MixtureModel(p=p, sigma_sq=sigma_sq, tau_sq=tau_sq),
        losses=Losses(delta0=delta0, deltaA=delta_a),
        m=m,
    )


def _setting_echo(setting: TestingSetting) -> dict:
    return {
        "p": setting.model.p,
        "sigma_sq": setting.model.sigma_sq,
        "tau_sq": setting.model.tau_sq,
        "delta0": setting.losses.delta0,
        "deltaA": setting.losses.deltaA,
        "m": setting.m,
    }


_RULE_FLAG_KEYS = ("alpha", "c_sq", "d", "n")


def _build_rule(src: dict, args, base=None, prefix: str = "rule."):
    """Rule from a config object and/or flags; flags override fields.

    With no kind from either, the config's fields and then the flags go on
    top of base (a preset's rule); without a base there is no rule and the
    result is None.
    """
    merged = dict(src)
    if args.rule is not None:
        merged["kind"] = args.rule
    if "kind" not in merged:
        if base is None:
            return None
        merged = {**rule_to_config(base), **merged}
    if not isinstance(merged.get("kind"), str):
        raise ConfigError(prefix + "kind", "must be a string")
    return rule_from_config(_overlay_flags(merged, args, _RULE_FLAG_KEYS))


def _grid_field(cfg: dict, prefix: str = ""):
    """cfg["grid"] checked to be a nonempty array of numbers; absent or null
    gives None."""
    grid = cfg.get("grid")
    if grid is None:
        return None
    if not isinstance(grid, list) or not grid or any(
        isinstance(value, bool) or not isinstance(value, (int, float)) for value in grid
    ):
        raise ConfigError(prefix + "grid", "must be a nonempty array of numbers")
    return grid


def _build_regime_from_config(src: dict, prefix: str = "regime.") -> Regime:
    _reject_unknown(src, ("beta", "sparsity", "delta", "alpha", "n", "grid", "name"), prefix)
    beta = _field(src, "beta", float, prefix)
    if beta is None:
        raise ConfigError(prefix + "beta", "required")
    sp = _field(src, "sparsity", dict, prefix, default={})
    family = _field(sp, "family", str, prefix + "sparsity.")
    if family == "power":
        _reject_unknown(sp, ("family", "kappa", "a"), prefix + "sparsity.")
        kappa = _field(sp, "kappa", float, prefix + "sparsity.")
        if kappa is None:
            raise ConfigError(prefix + "sparsity.kappa", "required")
        sparsity = PowerSparsity(kappa=kappa, a=_field(sp, "a", float, prefix + "sparsity.", 1.0))
    elif family == "extreme":
        _reject_unknown(sp, ("family", "s", "log_exponent"), prefix + "sparsity.")
        sparsity = ExtremeSparsity(
            s=_field(sp, "s", float, prefix + "sparsity.", 1.0),
            log_exponent=_field(sp, "log_exponent", float, prefix + "sparsity.", 0.0),
        )
    else:
        raise ConfigError(prefix + "sparsity.family", "must be 'power' or 'extreme'")
    dl = _field(src, "delta", dict, prefix, default={})
    dfamily = _field(dl, "family", str, prefix + "delta.", "constant")
    if dfamily == "constant":
        _reject_unknown(dl, ("family", "value"), prefix + "delta.")
        delta_rule = ConstantDelta(value=_field(dl, "value", float, prefix + "delta.", 1.0))
    elif dfamily == "decaying":
        _reject_unknown(dl, ("family", "g"), prefix + "delta.")
        delta_rule = DecayingDelta(g=_field(dl, "g", float, prefix + "delta.", 1.0))
    else:
        raise ConfigError(prefix + "delta.family", "must be 'constant' or 'decaying'")
    return regime_verge(
        beta,
        sparsity,
        delta_rule,
        alpha_rule=_field(src, "alpha", float, prefix),
        n_rule=_field(src, "n", float, prefix),
        t_grid=_grid_field(src, prefix),
        name=_field(src, "name", str, prefix, "config_regime"),
    )


def _preset_and_rule(cfg: dict, args, echo: dict):
    """The named preset's regime, and its rule under the config's and the
    flags' rule; (None, None) when no preset is named."""
    name = _flag_or_field(args, cfg, "preset", str)
    overrides = _field(cfg, "overrides", dict, default={})
    if name is None:
        return None, None
    regime, rule = preset(name, **overrides)
    echo["preset"] = name
    if overrides:
        echo["overrides"] = overrides
    return regime, _build_rule(_field(cfg, "rule", dict, default={}), args, base=rule)


def _run_options(cfg: dict, args, default_reps: int, echo: dict) -> tuple[McOptions, str | None]:
    """Replicates, seed and workers, and the output path; all echoed."""
    reps = _flag_or_field(args, cfg, "reps", int, default=default_reps)
    seed = _flag_or_field(args, cfg, "seed", int, default=0)
    workers = _flag_or_field(args, cfg, "workers", int)
    out = _flag_or_field(args, cfg, "out", str)
    echo.update(reps=reps, seed=seed)
    if workers is not None:
        echo["workers"] = workers
    if out is not None:
        echo["out"] = out
    return McOptions(reps=reps, seed=seed, workers=workers), out


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_threshold(args) -> int:
    par = args.parser
    selected = [name for name in ("oracle", "bfdr", "gw", "bonferroni", "universal", "replicate")
                if getattr(args, name)]
    if not selected:
        par.error("select at least one rule "
                  "(--oracle/--bfdr/--gw/--bonferroni/--universal/--replicate)")
    echo = []
    for attr in (*_SETTING_KEYS, "alpha", "n", "d"):
        value = getattr(args, attr)
        if value is not None:
            echo.append(f"{attr}={_show(value)}")
    print(" ".join(echo) if echo else "(defaults)")
    # Only the mixture-based rules need a setting; the others need only m.
    if {"oracle", "bfdr", "gw"}.intersection(selected):
        setting = _build_setting(_overlay_flags({}, args, _SETTING_KEYS))
    m = 1.0 if args.m is None else args.m
    d = 0.0 if args.d is None else args.d

    def need_alpha() -> BfdrLevel:
        if args.alpha is None:
            par.error("--alpha is required for this rule")
        return BfdrLevel(args.alpha)

    results = []
    for name in selected:
        if name == "oracle":
            c_sq = oracle_threshold_sq_raw(setting.model, setting.losses)
        elif name == "bfdr":
            c_sq = bfdr_threshold(setting.model, need_alpha())
        elif name == "gw":
            c_sq = gw_threshold(setting.model, need_alpha())
        elif name == "bonferroni":
            c_sq = bonferroni_threshold(m, need_alpha().alpha)
        elif name == "universal":
            c_sq = universal_threshold(m, d)
        else:
            if args.n is None:
                par.error("--n is required for the replicate rule")
            c_sq = replicate_threshold(m, args.n, d)
        results.append((name, c_sq))
    for name, c_sq in results:
        print(f"{name:<11} c_sq={_show(float(c_sq))}  z={_show(c_sq.z)}")
    return 0


def cmd_risk(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _reject_unknown(cfg, ("setting", "c_sq", "out"))
    setting_cfg = _overlay_flags(_field(cfg, "setting", dict, default={}), args, _SETTING_KEYS)
    setting = _build_setting(setting_cfg)
    c_sq_value = _flag_or_field(args, cfg, "c_sq", float)
    if c_sq_value is None:
        c_sq = oracle_threshold_sq_raw(setting.model, setting.losses)
    else:
        c_sq = ThresholdSq(float(c_sq_value))
    breakdown = fixed_threshold_risk(setting, c_sq)
    print(f"c_sq={_show(float(c_sq))} z={_show(c_sq.z)}")
    print(f"r1={_show(breakdown.r1)} r2={_show(breakdown.r2)} total={_show(breakdown.total)}")
    out = _flag_or_field(args, cfg, "out", str)
    if out is not None:
        row = (
            setting.m,
            setting.model.p,
            setting.model.u,
            setting.losses.delta0,
            setting.losses.deltaA,
            float(c_sq),
            breakdown.r1,
            breakdown.r2,
            breakdown.total,
        )
        echo = {"setting": _setting_echo(setting), "c_sq": float(c_sq), "out": out}
        _emit(out, "risk", _RISK_COLUMNS, [row], echo)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _reject_unknown(cfg, ("preset", "overrides", "setting", "rule", "m",
                          "reps", "seed", "workers", "out"))
    echo: dict = {}
    regime, rule = _preset_and_rule(cfg, args, echo)
    m = _flag_or_field(args, cfg, "m", float)
    if regime is not None:
        if m is None:
            raise ConfigError("m", "required with a preset")
        point = regime.generator(m)
        setting = point_setting(point)
        rule = fill_rule(rule, alpha=point.alpha, n=point.n)
    else:
        setting_cfg = _overlay_flags(_field(cfg, "setting", dict, default={}), args, _SETTING_KEYS)
        if m is not None:
            setting_cfg["m"] = m
        setting = _build_setting(setting_cfg)
        rule = _build_rule(_field(cfg, "rule", dict, default={}), args)
        if rule is None:
            raise ConfigError("rule.kind", "required without a preset")
    mc, out = _run_options(cfg, args, 1000, echo)
    echo.update(setting=_setting_echo(setting), rule=rule_to_config(rule))
    report = mc_run(setting, rule, mc.reps, mc.seed, workers=mc.workers)
    rows = []
    for stat in fields(report):
        estimate = getattr(report, stat.name)
        if estimate is not None:
            rows.append((stat.name, estimate.mean, estimate.std_error, estimate.reps))
    _emit(out, "simulate", _SIMULATE_COLUMNS, rows, echo, seed=mc.seed)
    return 0


def cmd_convergence(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _reject_unknown(cfg, ("preset", "overrides", "regime", "rule", "mode",
                          "grid", "reps", "seed", "workers", "out"))
    echo: dict = {}
    regime, rule = _preset_and_rule(cfg, args, echo)
    if regime is None:
        if "regime" not in cfg:
            raise ConfigError("preset", "required (or a 'regime' object in the config)")
        regime = _build_regime_from_config(_field(cfg, "regime", dict, default={}))
        rule = _build_rule(_field(cfg, "rule", dict, default={}), args)
        if rule is None:
            raise ConfigError("rule.kind", "required with a config regime")
        echo["regime"] = cfg["regime"]
    grid = args.grid if args.grid is not None else _grid_field(cfg)
    if grid is not None:
        regime = replace(regime, t_grid=tuple(float(g) for g in grid))
        echo["grid"] = [float(g) for g in grid]
    mode = _flag_or_field(args, cfg, "mode", str)
    if mode is None:
        mode = "mc" if isinstance(rule, BhRule) else "exact"
    mc, out = _run_options(cfg, args, 400, echo)
    echo.update(rule=rule_to_config(rule), mode=mode)
    rows = run_convergence(regime, rule, mode, mc)
    table = [[getattr(row, col) for col in CONVERGENCE_COLUMNS] for row in rows]
    _emit(
        out,
        "convergence",
        CONVERGENCE_COLUMNS,
        table,
        echo,
        seed=mc.seed if mode == "mc" else None,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_setting_flags(par) -> None:
    par.add_argument("--p", type=float, help="alternative-component weight")
    par.add_argument("--u", type=float, help="tau^2/sigma^2")
    par.add_argument("--tau-sq", dest="tau_sq", type=float, help="alternative variance excess")
    par.add_argument("--sigma-sq", dest="sigma_sq", type=float, help="null variance (default 1)")
    par.add_argument("--delta", type=float, help="loss ratio delta0/deltaA (deltaA=1)")
    par.add_argument("--delta0", type=float, help="false-rejection loss")
    par.add_argument("--deltaA", dest="deltaA", type=float, help="missed-signal loss")


def _add_mc_flags(par, default_reps: int) -> None:
    par.add_argument("--reps", type=int, help=f"replicates (default {default_reps})")
    par.add_argument("--seed", type=int, help="master seed (default 0)")
    par.add_argument("--workers", type=int,
                     help="worker threads, at most one per usable CPU and per replicate "
                          "(default $SPARSEMIX_WORKERS, else the usable CPUs)")


def _grid_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}; expected comma-separated numbers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemix",
        description="Decision-theoretic multiple testing under the sparse "
                    "normal scale mixture: thresholds, risks, simulations, "
                    "convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    par = sub.add_parser("threshold", help="print c^2 and |Z|-scale thresholds")
    for flag, help_text in (
        ("--oracle", "Bayes-oracle threshold"),
        ("--bfdr", "threshold with Bayesian FDR equal to --alpha"),
        ("--gw", "fixed-point threshold tracking the step-up rule"),
        ("--bonferroni", "Bonferroni threshold at --alpha"),
        ("--universal", "2 log m + d"),
        ("--replicate", "log n + 2 log m + d"),
    ):
        par.add_argument(flag, action="store_true", help=help_text)
    _add_setting_flags(par)
    par.add_argument("--m", type=float, help="number of tests (default 1)")
    par.add_argument("--alpha", type=float, help="level for --bfdr/--gw/--bonferroni")
    par.add_argument("--n", type=float, help="replicates per test for --replicate")
    par.add_argument("--d", type=float, help="additive offset for --universal/--replicate")
    par.set_defaults(func=cmd_threshold, parser=par)

    par = sub.add_parser("risk", help="exact risk of a fixed threshold (default: oracle)")
    _add_setting_flags(par)
    par.add_argument("--m", type=float, help="number of tests (default 1)")
    par.add_argument("--c-sq", dest="c_sq", type=float, help="squared threshold (default oracle)")
    par.add_argument("--config", help="JSON config file")
    par.add_argument("--out", help="write a one-row CSV (plus JSON sidecar) here")
    par.set_defaults(func=cmd_risk, parser=par)

    par = sub.add_parser("simulate", help="Monte-Carlo report for one setting and rule")
    par.add_argument("--preset", choices=PRESET_NAMES, help="named (regime, rule) pair")
    _add_setting_flags(par)
    par.add_argument("--m", type=float, help="number of tests (integer)")
    par.add_argument("--rule", choices=_RULE_KINDS, help="rule kind (when not using a preset)")
    par.add_argument("--alpha", type=float, help="level for level-based rules")
    par.add_argument("--c-sq", dest="c_sq", type=float, help="threshold for --rule fixed")
    par.add_argument("--d", type=float, help="offset for universal/replicate rules")
    par.add_argument("--n", type=float, help="replicates per test for the replicate rule")
    _add_mc_flags(par, 1000)
    par.add_argument("--config", help="JSON config file")
    par.add_argument("--out", help="CSV output path (default: stdout)")
    par.set_defaults(func=cmd_simulate, parser=par)

    par = sub.add_parser("convergence", help="risk-ratio table along a regime")
    par.add_argument("--preset", choices=PRESET_NAMES, help="named (regime, rule) pair")
    par.add_argument("--rule", choices=_RULE_KINDS, help="override the preset's rule")
    par.add_argument("--alpha", type=float, help="level override for level-based rules")
    par.add_argument("--c-sq", dest="c_sq", type=float, help="threshold for --rule fixed")
    par.add_argument("--d", type=float, help="offset for universal/replicate rules")
    par.add_argument("--n", type=float, help="replicates per test for the replicate rule")
    par.add_argument("--mode", choices=("exact", "mc"), help="risk engine (default by rule)")
    par.add_argument("--grid", type=_grid_arg, help="comma-separated m grid, e.g. 1e2,1e4,1e6")
    _add_mc_flags(par, 400)
    par.add_argument("--config", help="JSON config file")
    par.add_argument("--out", help="CSV output path (default: stdout)")
    par.set_defaults(func=cmd_convergence, parser=par)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
