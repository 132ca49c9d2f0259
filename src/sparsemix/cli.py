"""Command-line front door: thresholds, risks, simulations, convergence tables.

Output discipline: CSV with one header row, every float printed with 17
significant digits (round-trippable), and a JSON sidecar next to each CSV
carrying the effective configuration, seed, and the toolkit, numpy and
scipy versions (Generator streams are promised only within a numpy
version); a sampled run also records the version of its replicate draw
("stream").  With no --out the CSV goes to stdout, so runs can be piped or
diffed directly.  An existing output file is overwritten in place and cut
to the new length, never truncated first: on ext4 (auto_da_alloc) closing
a file that was truncated from non-empty starts write-back, which costs
more than the rest of a short simulate call.  The price is paid on a crash:
nothing is fsynced, and without that forced write-back an overwritten
output (CSV or sidecar) may afterwards hold the old bytes cut to the new
length, or a mix of the old and the new run, and the sidecar may describe
another run than the CSV.  A write that fails (disk full, I/O error) cuts
the file to nothing.
Identical invocations produce byte-identical CSV: every replicate has its
own seeded stream, and the replicates run in index order on one thread.

Exit codes: 0 success; 1 domain errors such as a value out of its range
(module messages surfaced verbatim) and unwritable outputs; 2 flag or
config-schema errors, each naming its field path: a field that is unknown,
missing, of the wrong type or without effect (overrides without a preset;
a setting, setting flag or regime beside one; a threshold flag that no
selected rule reads; reps or seed in exact mode), a negative
seed, and requests beyond MAX_M tests sampled, MAX_REPS replicates or
MAX_GRID_POINTS convergence grid points, which are refused before
anything is allocated.

Config files are single JSON documents mirroring the flags; flags override
config fields.  A setting, rule, sparsity or delta family and a preset's
overrides are each read by errors.call_with_fields as the parameters of
what they build.  See the README for the schema and the documented CSV
column orders.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bfdr import BfdrLevel, bfdr_threshold, gw_threshold
from .errors import (ConfigError, ParameterError, _field, _parameters, _reject_unknown,
                     call_by_tag, call_with_fields)
from .experiments import (
    _DELTA_RULES,
    _SPARSITIES,
    CONVERGENCE_COLUMNS,
    McOptions,
    PRESET_NAMES,
    Regime,
    preset,
    regime_verge,
    run_convergence,
)
from .model import Losses, MixtureModel, TestingSetting, ThresholdSq, oracle_threshold_sq_raw
from .montecarlo import STREAM, mc_run
from .procedures import replicate_threshold, universal_threshold, bonferroni_threshold
from .risk import fixed_threshold_risk
from .rules import _BY_KIND, fill_rule, is_fixed_threshold, rule_from_config, rule_to_config

__all__ = ["main", "build_parser", "ConfigError"]

# Bounds on what one invocation may ask for.  A Monte-Carlo replicate in
# flight draws nothing per test for a fixed threshold.  For the step-up
# rule it draws fewer than 128 p-values per step of its walk, and never
# more than its first tail: up to about 18 bytes per test at a level near
# 1.  A run keeps six floats per replicate in one table, so at the bounds a
# run needs up to 1.8 GB for its draws and 48 MB for its statistics.
# Exact-mode grid points need no sampling, so only the grid length bounds
# them.
MAX_M = 10**8
MAX_REPS = 10**6
MAX_GRID_POINTS = 1000

_SIMULATE_COLUMNS = ("stat", "mean", "std_error", "reps")
_RISK_COLUMNS = ("m", "p", "u", "delta0", "deltaA", "c_sq", "r1", "r2", "total")


# ---------------------------------------------------------------------------
# Formatting and emission.


# A number's CSV cell: 17 significant digits, so it reads back as the same double.
_NUMBER = "%.17g"


def _cell(value) -> str:
    """A CSV cell: an identifier as it is, a bool or an integer as written,
    any other number as a float."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _NUMBER % float(value)


@cache
def _numbers(n: int) -> str:
    """The format of a row of n Python floats, all cells at once."""
    return ",".join([_NUMBER] * n)


def _show(value) -> str:
    """Shortest round-trip form for stdout echo lines (CSV keeps .17g)."""
    return repr(float(value))


def _csv_text(columns, rows) -> str:
    """One header row, then the rows.  Every cell is a fixed identifier or a
    number, so none needs quoting.  A row of Python floats, as a table row
    is, takes one format; any other row goes cell by cell through _cell."""
    lines = [",".join(columns)]
    for row in rows:
        if all(type(cell) is float for cell in row):
            lines.append(_numbers(len(row)) % tuple(row))
        else:
            lines.append(",".join(map(_cell, row)))
    lines.append("")
    return "\n".join(lines)


def _write_text(path: Path, text: str) -> None:
    """Path.write_text without O_TRUNC: write over the old bytes, then cut a
    regular file to the new length (a device such as /dev/null cannot be
    cut).  If the write fails, a regular file is cut to nothing, so old
    bytes never follow new ones.  The text is encoded as UTF-8 once and
    written with os.write, which may take fewer bytes than it is given."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            left = memoryview(data)
            while left:
                left = left[os.write(fd, left) :]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(out, command: str, columns, rows, echo: dict, seed=None) -> None:
    text = _csv_text(columns, rows)
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    _write_text(path, text)
    sidecar = {
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "command": command,
        "columns": list(columns),
        "config": echo,
    }
    if seed is not None:  # a sampled run
        sidecar["seed"] = seed
        sidecar["stream"] = STREAM
    side = path.with_suffix(".json")
    if side == path:
        side = path.with_name(path.name + ".meta.json")
    _write_text(side, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} and {side}")


# ---------------------------------------------------------------------------
# Config ingestion.


def _config(args, allowed) -> dict:
    """The --config file's object, holding only the allowed top-level
    fields; {} without --config."""
    if not args.config:
        return {}
    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {args.config!r}: {exc}") from None
    try:
        data = json.loads(raw)
    except ValueError as exc:  # also an integer literal beyond int's digit limit
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    _reject_unknown(data, allowed)
    return data


def _at_most(path: str, value, bound: int, noun: str) -> None:
    if value > bound:
        raise ConfigError(path, f"at most {bound:g} {noun} allowed, got {value:g}")


def _flag_or_field(args, cfg: dict, key: str, kind: type, default=None):
    """The --key flag if given, else the config's top-level field."""
    value = getattr(args, key)
    return value if value is not None else _field(cfg, key, kind, default=default)


def _overlay_flags(cfg: dict, args, keys) -> dict:
    merged = dict(cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _setting(p, u=None, tau_sq=None, sigma_sq=1.0, delta=None, delta0=None, deltaA=None, m=1.0):
    """The setting a "setting" object or the setting flags describe."""
    if tau_sq is None:
        if u is None:
            raise ConfigError("setting.u", "required (or tau_sq)")
        tau_sq = u * sigma_sq
    elif u is not None:
        raise ConfigError("setting.u", "give either u or tau_sq, not both")
    if delta is not None:
        if delta0 is not None or deltaA is not None:
            raise ConfigError("setting.delta", "give either delta or delta0/deltaA, not both")
        delta0, deltaA = delta, 1.0
    return TestingSetting(
        model=MixtureModel(p=p, sigma_sq=sigma_sq, tau_sq=tau_sq),
        losses=Losses(delta0=1.0 if delta0 is None else delta0,
                      deltaA=1.0 if deltaA is None else deltaA),
        m=m,
    )


_SETTING_KEYS = _parameters(_setting)[0]


def _setting_echo(setting: TestingSetting) -> dict:
    """The fields of the setting's model and losses, and its m.  Neither
    value object stores anything but its fields, and vars() costs a
    twentieth of dataclasses.asdict."""
    return {**vars(setting.model), **vars(setting.losses), "m": setting.m}


_RULE_FLAG_KEYS = ("alpha", "c_sq", "d", "n")


def _build_rule(cfg: dict, args, base=None):
    """The config's rule object under the rule flags; flags override fields.

    With no kind from either, the config's fields and then the flags go on
    top of base (a preset's rule), which a run without a preset lacks.
    """
    merged = _field(cfg, "rule", dict, default={})
    if args.rule is not None:
        merged["kind"] = args.rule
    if "kind" not in merged:
        if base is None:
            raise ConfigError("rule.kind", "required without a preset")
        merged = {**rule_to_config(base), **merged}
    return rule_from_config(_overlay_flags(merged, args, _RULE_FLAG_KEYS))


def _grid_field(cfg: dict, prefix: str = ""):
    """cfg["grid"] checked to be a nonempty array of numbers, as floats;
    absent or null gives None."""
    grid = cfg.get("grid")
    if grid is None:
        return None
    if not isinstance(grid, list) or not grid or any(
        isinstance(value, bool) or not isinstance(value, (int, float)) for value in grid
    ):
        raise ConfigError(prefix + "grid", "must be a nonempty array of numbers")
    try:
        return [float(value) for value in grid]
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(prefix + "grid", "must hold numbers within the float range") from None


def _build_regime_from_config(src: dict, prefix: str = "regime.") -> Regime:
    _reject_unknown(src, ("beta", "sparsity", "delta", "alpha", "n", "grid", "name"), prefix)
    beta = _field(src, "beta", float, prefix)
    if beta is None:
        raise ConfigError(prefix + "beta", "required")
    sparsity = _field(src, "sparsity", dict, prefix, default={})
    delta = _field(src, "delta", dict, prefix, default={})
    return regime_verge(
        beta,
        call_by_tag(_SPARSITIES, sparsity, "family", prefix + "sparsity."),
        call_by_tag(_DELTA_RULES, delta, "family", prefix + "delta.", "constant"),
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
        if cfg.get("overrides") is not None:  # refused, not ignored
            raise ConfigError("overrides", "used only with a preset")
        return None, None
    regime, rule = preset(name, **overrides)
    echo["preset"] = name
    if overrides:
        echo["overrides"] = overrides
    return regime, _build_rule(cfg, args, base=rule)


def _run_options(cfg: dict, args, default_reps: int, echo: dict) -> tuple[McOptions, str | None]:
    """Replicates and seed, and the output path; all echoed."""
    reps = _flag_or_field(args, cfg, "reps", int, default=default_reps)
    _at_most("reps", reps, MAX_REPS, "replicates")
    seed = _flag_or_field(args, cfg, "seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")
    echo.update(reps=reps, seed=seed)
    return McOptions(reps=reps, seed=seed), _output(cfg, args, echo)


def _output(cfg: dict, args, echo: dict) -> str | None:
    """The output path, echoed; None for stdout."""
    out = _flag_or_field(args, cfg, "out", str)
    if out is not None:
        echo["out"] = out
    return out


# ---------------------------------------------------------------------------
# Subcommands.


def _required(args, key: str):
    """The --key flag's value, which a selected rule cannot do without."""
    value = getattr(args, key)
    if value is None:
        args.parser.error(f"--{key} is required for this rule")
    return value


_MIXTURE_KEYS = ("p", "u", "tau_sq", "sigma_sq")
# Each threshold rule, in the order the rules print: the help of its flag,
# the flags it reads, and its c^2 from the setting s, m, d and the flags.
_THRESHOLDS = {
    "oracle": ("Bayes-oracle threshold", (*_MIXTURE_KEYS, "delta", "delta0", "deltaA"),
               lambda s, m, d, args: oracle_threshold_sq_raw(s.model, s.losses)),
    "bfdr": ("threshold with Bayesian FDR equal to --alpha", (*_MIXTURE_KEYS, "alpha"),
             lambda s, m, d, args: bfdr_threshold(s.model, BfdrLevel(_required(args, "alpha")))),
    "gw": ("fixed-point threshold tracking the step-up rule", (*_MIXTURE_KEYS, "alpha"),
           lambda s, m, d, args: gw_threshold(s.model, BfdrLevel(_required(args, "alpha")))),
    "bonferroni": ("Bonferroni threshold at --alpha", ("m", "alpha"),
                   lambda s, m, d, args: bonferroni_threshold(
                       m, BfdrLevel(_required(args, "alpha")).alpha)),
    "universal": ("2 log m + d", ("m", "d"), lambda s, m, d, args: universal_threshold(m, d)),
    "replicate": ("log n + 2 log m + d", ("m", "n", "d"),
                  lambda s, m, d, args: replicate_threshold(m, _required(args, "n"), d)),
}


def cmd_threshold(args) -> int:
    selected = [name for name in _THRESHOLDS if getattr(args, name)]
    if not selected:
        args.parser.error(f"select at least one rule ({'/'.join('--' + name for name in _THRESHOLDS)})")
    read = {key for name in selected for key in _THRESHOLDS[name][1]}
    echo = []
    for attr in (*_SETTING_KEYS, "alpha", "n", "d"):
        value = getattr(args, attr)
        if value is None:
            continue
        if attr not in read:  # refused, not echoed and ignored
            path = attr if attr in ("m", "alpha", "n", "d") else "setting." + attr
            raise ConfigError(path, "not used by " + " ".join("--" + name for name in selected))
        echo.append(f"{attr}={_show(value)}")
    print(" ".join(echo) if echo else "(defaults)")
    # Only the mixture-based rules need a setting; the others need only m.
    setting = (call_with_fields(_setting, _overlay_flags({}, args, _SETTING_KEYS), "setting.")
               if "p" in read else None)
    m = 1.0 if args.m is None else args.m
    d = 0.0 if args.d is None else args.d
    results = [(name, _THRESHOLDS[name][2](setting, m, d, args)) for name in selected]
    for name, c_sq in results:
        print(f"{name:<11} c_sq={_show(float(c_sq))}  z={_show(c_sq.z)}")
    return 0


def cmd_risk(args) -> int:
    cfg = _config(args, ("setting", "c_sq", "out"))
    setting_cfg = _overlay_flags(_field(cfg, "setting", dict, default={}), args, _SETTING_KEYS)
    setting = call_with_fields(_setting, setting_cfg, "setting.")
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
    cfg = _config(args, ("preset", "overrides", "setting", "rule", "m", "reps", "seed", "out"))
    echo: dict = {}
    regime, rule = _preset_and_rule(cfg, args, echo)
    m = _flag_or_field(args, cfg, "m", float)
    if regime is not None:
        if m is None:
            raise ConfigError("m", "required with a preset")
        if cfg.get("setting") is not None:
            raise ConfigError("setting", "not used with a preset")
        for key in _SETTING_KEYS:
            if key != "m" and getattr(args, key) is not None:
                raise ConfigError("setting." + key, "not used with a preset")
        point = regime.generator(m)
        setting = point.setting
        rule = fill_rule(rule, alpha=point.alpha, n=point.n)
    else:
        setting_cfg = _overlay_flags(_field(cfg, "setting", dict, default={}), args, _SETTING_KEYS)
        if m is not None:
            setting_cfg["m"] = m
        setting = call_with_fields(_setting, setting_cfg, "setting.")
        rule = _build_rule(cfg, args)
    _at_most("m", setting.m, MAX_M, "tests")
    mc, out = _run_options(cfg, args, 1000, echo)
    echo.update(setting=_setting_echo(setting), rule=rule_to_config(rule))
    report = mc_run(setting, rule, mc.reps, mc.seed)
    rows = []
    for stat in fields(report):
        estimate = getattr(report, stat.name)
        if estimate is not None:
            rows.append((stat.name, estimate.mean, estimate.std_error, estimate.reps))
    _emit(out, "simulate", _SIMULATE_COLUMNS, rows, echo, seed=mc.seed)
    return 0


def cmd_convergence(args) -> int:
    cfg = _config(args, ("preset", "overrides", "regime", "rule", "mode", "grid", "reps", "seed", "out"))
    echo: dict = {}
    regime, rule = _preset_and_rule(cfg, args, echo)
    if regime is None:
        if "regime" not in cfg:
            raise ConfigError("preset", "required (or a 'regime' object in the config)")
        regime = _build_regime_from_config(_field(cfg, "regime", dict, default={}))
        rule = _build_rule(cfg, args)
        echo["regime"] = cfg["regime"]
    elif cfg.get("regime") is not None:
        raise ConfigError("regime", "not used with a preset")
    grid = args.grid if args.grid is not None else _grid_field(cfg)
    if grid is not None:
        regime = replace(regime, t_grid=grid)
        echo["grid"] = list(regime.t_grid)
    _at_most("grid", len(regime.t_grid), MAX_GRID_POINTS, "points")
    mode = _flag_or_field(args, cfg, "mode", str)
    if mode is None:
        mode = "exact" if is_fixed_threshold(rule) else "mc"
    if mode == "mc":
        # Every regime here is regime_verge's, whose points have m = t on a
        # strictly increasing grid, so the last point is the largest.
        _at_most("grid", regime.t_grid[-1], MAX_M, "tests per point")
        mc, out = _run_options(cfg, args, 400, echo)
    else:
        for key in ("reps", "seed"):  # refused, not echoed and ignored
            if _flag_or_field(args, cfg, key, int) is not None:
                raise ConfigError(key, "not used in exact mode")
        mc, out = None, _output(cfg, args, echo)
    echo.update(rule=rule_to_config(rule), mode=mode)
    _emit(
        out,
        "convergence",
        CONVERGENCE_COLUMNS,
        run_convergence(regime, rule, mode, mc),
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


def _add_rule_flags(par) -> None:
    par.add_argument("--rule", choices=tuple(_BY_KIND), help="rule kind (overrides a preset's rule)")
    par.add_argument("--alpha", type=float, help="level for level-based rules")
    par.add_argument("--c-sq", dest="c_sq", type=float, help="threshold for --rule fixed")
    par.add_argument("--d", type=float, help="offset for universal/replicate rules")
    par.add_argument("--n", type=float, help="replicates per test for the replicate rule")


def _add_mc_flags(par, default_reps: int) -> None:
    par.add_argument("--reps", type=int, help=f"replicates (default {default_reps})")
    par.add_argument("--seed", type=int, help="master seed (default 0)")


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
    for name, (help_text, _, _) in _THRESHOLDS.items():
        par.add_argument("--" + name, action="store_true", help=help_text)
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
    _add_rule_flags(par)
    _add_mc_flags(par, 1000)
    par.add_argument("--config", help="JSON config file")
    par.add_argument("--out", help="CSV output path (default: stdout)")
    par.set_defaults(func=cmd_simulate, parser=par)

    par = sub.add_parser("convergence", help="risk-ratio table along a regime")
    par.add_argument("--preset", choices=PRESET_NAMES, help="named (regime, rule) pair")
    _add_rule_flags(par)
    par.add_argument("--mode", choices=("exact", "mc"), help="risk engine (default by rule)")
    par.add_argument("--grid", type=_grid_arg, help="comma-separated m grid, e.g. 1e2,1e4,1e6")
    _add_mc_flags(par, 400)
    par.add_argument("--config", help="JSON config file")
    par.add_argument("--out", help="CSV output path (default: stdout)")
    par.set_defaults(func=cmd_convergence, parser=par)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # One parser per process: building it costs about as much as a whole
    # threshold call, and parsing leaves it as it was.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
