"""Command-line interface: output contracts, exit codes, reproducibility.

Most tests drive main() in process (fast, capsys-friendly).  Two tests run
a real process: `python -m sparsemix.cli` on every machine, and the
installed `sparsemix` console script, which is skipped where the package
is not installed into the running interpreter.
"""

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemix
import sparsemix.cli as cli
from sparsemix import (
    CONVERGENCE_COLUMNS,
    DEFAULT_EXACT_GRID,
    DEFAULT_MC_GRID,
    BfdrRule,
    BonferroniRule,
    GwRule,
    Losses,
    MixtureModel,
    ReplicateRule,
    TestingSetting,
    UniversalRule,
    bonferroni_threshold,
    oracle_threshold_sq_raw,
    threshold_sq,
)
from sparsemix.cli import main
from sparsemix.errors import _parameters
from sparsemix.experiments import _DELTA_RULES, _PRESETS, _SPARSITIES
from sparsemix.rules import _BY_KIND


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def with_config(tmp_path, argv, config):
    """argv reading config from a JSON file, or argv itself for no config."""
    if config is None:
        return list(argv)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return [*argv, "--config", str(path)]


def grab(line_text, key):
    """Value of `key=...` in a space-separated echo line."""
    for token in line_text.split():
        if token.startswith(key + "="):
            return float(token[len(key) + 1 :])
    raise AssertionError(f"{key}= not found in {line_text!r}")


# -----------------------------------------------------------------------
# threshold


def test_threshold_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--oracle", "--p", "0.5", "--u", "4", "--delta", "1"
    )
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("oracle"))
    assert grab(line, "c_sq") == pytest.approx(1.25 * math.log(5.0), rel=1e-15)
    assert grab(line, "z") == pytest.approx(math.sqrt(1.25 * math.log(5.0)), rel=1e-15)


def test_threshold_bonferroni_and_universal(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--bonferroni", "--universal", "--m", "1", "--alpha", "0.05"
    )
    assert code == 0
    lines = out.splitlines()
    bon = next(l for l in lines if l.startswith("bonferroni"))
    uni = next(l for l in lines if l.startswith("universal"))
    assert grab(bon, "c_sq") == pytest.approx(3.841459, abs=1e-5)
    assert grab(uni, "c_sq") == 0.0  # 2 log 1, floored


def test_threshold_several_rules_one_call(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--oracle", "--bfdr", "--gw",
        "--p", "0.1", "--u", "3", "--alpha", "0.05",
    )
    assert code == 0
    names = [l.split()[0] for l in out.splitlines()[1:]]
    assert names == ["oracle", "bfdr", "gw"]
    # same level, so the fixed-point threshold is the more conservative one
    bfdr_c = grab(out.splitlines()[2], "c_sq")
    gw_c = grab(out.splitlines()[3], "c_sq")
    assert gw_c > bfdr_c


def test_threshold_requires_a_rule():
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--p", "0.1", "--u", "3"])
    assert exc.value.code == 2


def test_threshold_bfdr_needs_alpha():
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--bfdr", "--p", "0.1", "--u", "3"])
    assert exc.value.code == 2


THRESHOLD_CASES = [
    (
        ["--p", "0.01", "--u", "16", "--delta", "2", "--m", "10000",
         "--alpha", "0.05", "--n", "8", "--d", "0.5"],
        TestingSetting(MixtureModel(0.01, 1.0, 16.0), Losses(2.0, 1.0), 10000.0), 0.05, 8.0, 0.5,
    ),
    (
        ["--p", "0.2", "--u", "3", "--sigma-sq", "2", "--delta0", "3", "--deltaA", "0.5",
         "--m", "37.5", "--alpha", "0.3", "--n", "2"],
        TestingSetting(MixtureModel(0.2, 2.0, 6.0), Losses(3.0, 0.5), 37.5), 0.3, 2.0, 0.0,
    ),
    (
        ["--p", "1e-6", "--tau-sq", "40", "--delta", "0.25", "--m", "1e9",
         "--alpha", "1e-4", "--n", "3", "--d", "-2"],
        TestingSetting(MixtureModel(1e-6, 1.0, 40.0), Losses(0.25, 1.0), 1e9), 1e-4, 3.0, -2.0,
    ),
]


@pytest.mark.parametrize("flags, setting, alpha, n, d", THRESHOLD_CASES)
def test_threshold_lines_equal_library_values(capsys, flags, setting, alpha, n, d):
    """The printed c_sq round-trips to exactly the library's threshold."""
    code, out, _ = run_cli(
        capsys, "threshold", "--oracle", "--bfdr", "--gw", "--bonferroni",
        "--universal", "--replicate", *flags,
    )
    assert code == 0
    printed = {line.split()[0]: grab(line, "c_sq") for line in out.splitlines()[1:]}
    assert printed["oracle"] == oracle_threshold_sq_raw(setting.model, setting.losses)
    rules = {
        "bfdr": BfdrRule(alpha),
        "gw": GwRule(alpha),
        "bonferroni": BonferroniRule(alpha),
        "universal": UniversalRule(d),
        "replicate": ReplicateRule(n, d),
    }
    for name, rule in rules.items():
        assert printed[name] == threshold_sq(rule, setting), name
    assert list(printed) == ["oracle", *rules]


@pytest.mark.parametrize("flags, field", [
    (["--p", "0.1", "--u", "3", "--tau-sq", "5"], "setting.u"),
    (["--p", "0.1", "--u", "3", "--delta", "4", "--delta0", "2"], "setting.delta"),
    (["--u", "3"], "setting.p"),
    (["--p", "0.1"], "setting.u"),
])
def test_threshold_rejects_conflicting_or_missing_setting_flags(capsys, flags, field):
    """threshold builds its setting like risk does, so it rejects the same flags."""
    code, out, err = run_cli(capsys, "threshold", "--oracle", *flags)
    assert code == 2
    assert field in err
    assert "c_sq" not in out
    assert run_cli(capsys, "risk", *flags)[0] == 2


@pytest.mark.parametrize("flags, path", [
    (["--universal", "--m", "100", "--p", "0.3", "--alpha", "0.5"], "setting.p: not used by --universal"),
    (["--bfdr", "--gw", "--p", "0.1", "--u", "3", "--alpha", "0.1", "--delta", "2"],
     "setting.delta: not used by --bfdr --gw"),
    (["--bfdr", "--p", "0.1", "--u", "3", "--alpha", "0.1", "--m", "100"], "m: not used by --bfdr"),
    (["--oracle", "--p", "0.1", "--u", "3", "--alpha", "0.1"], "alpha: not used by --oracle"),
    (["--bonferroni", "--m", "100", "--alpha", "0.1", "--d", "1"], "d: not used by --bonferroni"),
    (["--universal", "--m", "100", "--n", "3"], "n: not used by --universal"),
])
def test_threshold_refuses_flags_no_selected_rule_reads(capsys, flags, path):
    """A flag that changes no printed threshold is refused, not echoed."""
    code, out, err = run_cli(capsys, "threshold", *flags)
    assert (code, out) == (2, "")
    assert err == f"config error: {path}\n"


def test_convergence_exact_mode_refuses_sampling_options(capsys):
    code, out, err = run_cli(capsys, "convergence", "--preset", "lemma_universal", "--reps", "7")
    assert (code, out, err) == (2, "", "config error: reps: not used in exact mode\n")


def test_threshold_level_above_supremum_is_domain_error(capsys):
    # sup of the curve at p=0.1, u=3 is 1 - p = 0.9
    code, _, err = run_cli(
        capsys, "threshold", "--bfdr", "--p", "0.1", "--u", "3", "--alpha", "0.95"
    )
    assert code == 1
    assert "error:" in err


# -----------------------------------------------------------------------
# risk


def test_risk_fixed_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "risk", "--p", "0.1", "--u", "3", "--delta", "1", "--m", "1",
        "--c-sq", "2",
    )
    assert code == 0
    total_line = out.splitlines()[1]
    assert grab(total_line, "total") == pytest.approx(0.193619, abs=1e-5)
    assert grab(total_line, "r1") + grab(total_line, "r2") == pytest.approx(
        grab(total_line, "total"), rel=1e-12
    )


def test_risk_defaults_to_oracle_threshold(capsys):
    code, out, _ = run_cli(capsys, "risk", "--p", "0.1", "--u", "3", "--delta", "1")
    assert code == 0
    want = float(oracle_threshold_sq_raw(MixtureModel(0.1, 1.0, 3.0), Losses(1.0, 1.0)))
    assert grab(out.splitlines()[0], "c_sq") == pytest.approx(want, rel=1e-15)


def test_risk_out_writes_csv_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "risk.csv"
    code, out, _ = run_cli(
        capsys, "risk", "--p", "0.1", "--u", "3", "--m", "100",
        "--c-sq", "4", "--out", str(out_path),
    )
    assert code == 0
    assert f"wrote {out_path}" in out
    header, rows = parse_csv(out_path.read_text())
    assert header == ["m", "p", "u", "delta0", "deltaA", "c_sq", "r1", "r2", "total"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 100.0
    assert float(rows[0][5]) == 4.0
    sidecar = json.loads((tmp_path / "risk.json").read_text())
    assert sidecar["command"] == "risk"
    assert sidecar["columns"] == list(header)
    assert sidecar["config"]["setting"]["p"] == 0.1
    assert "seed" not in sidecar
    assert "version" in sidecar


def test_risk_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "risk.json"
    cfg.write_text(json.dumps({"setting": {"p": 0.1, "u": 3.0}, "c_sq": 2.0}))
    code, out, _ = run_cli(capsys, "risk", "--config", str(cfg))
    assert code == 0
    assert grab(out.splitlines()[0], "c_sq") == 2.0
    # flag wins over the config field
    code, out, _ = run_cli(capsys, "risk", "--config", str(cfg), "--c-sq", "3")
    assert code == 0
    assert grab(out.splitlines()[0], "c_sq") == 3.0


def test_risk_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"setting": {"p": 0.1, "u": 3.0}, "cc_sq": 2.0}))
    code, _, err = run_cli(capsys, "risk", "--config", str(cfg))
    assert code == 2
    assert "cc_sq" in err


# -----------------------------------------------------------------------
# simulate


def test_simulate_stdout_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "0.05", "--u", "16", "--m", "200",
        "--rule", "universal", "--reps", "50", "--seed", "3",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["stat", "mean", "std_error", "reps"]
    assert [r[0] for r in rows] == ["risk", "fdr", "fwer", "ev", "power"]
    assert all(r[3] == "50" for r in rows)


def test_simulate_step_up_reports_threshold_gap(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "0.05", "--u", "16", "--m", "200",
        "--rule", "bh", "--alpha", "0.1", "--reps", "30", "--seed", "0",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["risk", "fdr", "fwer", "ev", "power", "threshold_gap"]


def test_simulate_worker_count_invisible_in_output(capsys):
    base = [
        "simulate", "--p", "0.05", "--u", "16", "--m", "300",
        "--rule", "bh", "--alpha", "0.2", "--reps", "40", "--seed", "11",
    ]
    outputs = [run_cli(capsys, *base)[1] for _ in range(3)]
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_preset_needs_m(capsys):
    code, _, err = run_cli(capsys, "simulate", "--preset", "lemma_universal")
    assert code == 2
    assert "m" in err


def test_simulate_preset_run(tmp_path, capsys):
    out_path = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--preset", "lemma_universal", "--m", "500",
        "--reps", "30", "--seed", "2", "--out", str(out_path),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "sim.json").read_text())
    assert sidecar["command"] == "simulate"
    assert sidecar["seed"] == 2
    assert sidecar["config"]["preset"] == "lemma_universal"
    assert sidecar["config"]["rule"]["kind"] == "universal"
    header, rows = parse_csv(out_path.read_text())
    assert header == ["stat", "mean", "std_error", "reps"]
    assert len(rows) == 5


def test_sidecar_records_library_versions(tmp_path, capsys):
    """numpy promises a Generator stream only within one of its versions."""
    out_path = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--preset", "lemma_universal", "--m", "200",
        "--reps", "2", "--seed", "2", "--out", str(out_path),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "sim.json").read_text())
    assert sidecar["numpy"] == numpy.__version__
    assert sidecar["scipy"] == scipy.__version__
    assert sidecar["version"] == sparsemix.__version__


def test_sampled_runs_record_the_stream(tmp_path, capsys):
    """The same seed gives other numbers under another Monte-Carlo stream,
    so sampled runs record its version; exact runs draw nothing."""
    runs = {
        "sim": ("simulate", "--preset", "bh_fixed_alpha", "--m", "300", "--reps", "3"),
        "mc": ("convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3", "--reps", "3"),
        "exact": ("convergence", "--preset", "lemma_universal", "--grid", "1e3"),
        "risk": ("risk", "--p", "0.01", "--u", "16", "--delta", "1", "--m", "1e4"),
    }
    for name, argv in runs.items():
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / f"{name}.csv"))
        assert code == 0
    stream = {name: json.loads((tmp_path / f"{name}.json").read_text()).get("stream") for name in runs}
    assert stream == {"sim": 3, "mc": 3, "exact": None, "risk": None}


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "setting": {"p": 0.05, "u": 16.0, "m": 200},
        "rule": {"kind": "fixed", "c_sq": 9.0},
        "reps": 40,
        "seed": 1,
    }))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert all(r[3] == "40" for r in rows)
    # flag overrides the config's replicate count
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--reps", "20")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(r[3] == "20" for r in rows)


def test_simulate_requires_rule_without_preset(capsys):
    code, _, err = run_cli(capsys, "simulate", "--p", "0.05", "--u", "16", "--m", "100")
    assert code == 2
    assert "rule.kind" in err


# -----------------------------------------------------------------------
# convergence


def test_convergence_stdout_table(capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "--preset", "lemma_universal", "--grid", "1e2,1e4"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == list(CONVERGENCE_COLUMNS)
    assert len(rows) == 2
    assert float(rows[0][0]) == 100.0 and float(rows[1][0]) == 1e4
    ratio = float(rows[0][header.index("ratio")])
    assert ratio > 1.0


def test_convergence_rule_override(capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "--preset", "lemma_universal", "--grid", "1e4",
        "--rule", "oracle",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert float(rows[0][header.index("ratio")]) == pytest.approx(1.0, abs=1e-12)


def test_convergence_mc_preset(tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    code, _, _ = run_cli(
        capsys, "convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3",
        "--reps", "30", "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "conv.json").read_text())
    assert sidecar["command"] == "convergence"
    assert sidecar["seed"] == 1  # mc mode records the seed
    assert sidecar["config"]["mode"] == "mc"
    header, rows = parse_csv(out_path.read_text())
    risk_se = float(rows[0][header.index("risk_se")])
    assert math.isfinite(risk_se) and risk_se > 0.0


def test_mc_convergence_builds_each_grid_point_once(capsys, monkeypatch):
    """The MAX_M check reads the grid, so only the table builds the points."""
    built = []
    post_init = sparsemix.RegimePoint.__post_init__

    def counted(point):
        built.append(point.m)
        post_init(point)

    monkeypatch.setattr(sparsemix.RegimePoint, "__post_init__", counted)
    code, _, _ = run_cli(
        capsys, "convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3,1e4", "--reps", "2",
    )
    assert code == 0
    assert built == [1e3, 1e4]


def test_convergence_config_regime(tmp_path, capsys):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({
        "regime": {"beta": 2.0, "sparsity": {"family": "power", "kappa": 0.5}},
        "rule": {"kind": "oracle"},
        "grid": [100.0, 10000.0],
    }))
    code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row[header.index("ratio")]) == pytest.approx(1.0, abs=1e-12)


def test_convergence_config_missing_kappa(tmp_path, capsys):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({
        "regime": {"beta": 2.0, "sparsity": {"family": "power"}},
        "rule": {"kind": "oracle"},
    }))
    code, _, err = run_cli(capsys, "convergence", "--config", str(cfg))
    assert code == 2
    assert "sparsity.kappa" in err


def test_convergence_needs_preset_or_regime(capsys):
    code, _, err = run_cli(capsys, "convergence", "--rule", "oracle")
    assert code == 2
    assert "preset" in err


@pytest.mark.parametrize("grid", [["x"], [1e3, "1e3"], [True], [], "1e3", {"m": 1e3}])
def test_convergence_config_grid_entries_checked(tmp_path, capsys, grid):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({"preset": "lemma_universal", "grid": grid}))
    code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.strip() == "config error: grid: must be a nonempty array of numbers"


def test_convergence_config_rule_without_kind_overlays_the_preset_rule(tmp_path, capsys):
    """A config rule without a kind changes the preset's rule as the flags do."""
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({"preset": "bfdr_fixed_alpha", "rule": {"alpha": 0.3}}))
    runs = {
        "config": ["--config", str(cfg)],
        "flag": ["--preset", "bfdr_fixed_alpha", "--alpha", "0.3"],
        "preset": ["--preset", "bfdr_fixed_alpha"],
        "config_and_flag": ["--config", str(cfg), "--alpha", "0.2"],
        "flag_02": ["--preset", "bfdr_fixed_alpha", "--alpha", "0.2"],
    }
    outs = {}
    for name, argv in runs.items():
        code, outs[name], _ = run_cli(capsys, "convergence", *argv, "--grid", "1e3")
        assert code == 0
    assert outs["config"] == outs["flag"]
    assert outs["config"] != outs["preset"]
    assert outs["config_and_flag"] == outs["flag_02"]


def test_convergence_unknown_preset_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--preset", "no_such_preset"])
    assert exc.value.code == 2


# -----------------------------------------------------------------------
# config fields: one reader for rules, families, overrides and settings

_SETTING = {"p": 0.1, "u": 3.0, "m": 1000}
_REGIME = {"beta": 2.0, "sparsity": {"family": "power", "kappa": 0.5}, "grid": [1e3, 1e4]}
_SIM_PRESET = ["simulate", "--preset", "bh_fixed_alpha", "--m", "1000", "--reps", "2"]


def _sim(rule):
    return ["simulate"], {"setting": _SETTING, "rule": rule, "reps": 2}


def _regime(**families):
    return ["convergence"], {"regime": {**_REGIME, **families}, "rule": {"kind": "oracle"}}


@pytest.mark.parametrize("argv, config, path", [
    pytest.param(*_sim({"kind": "universal", "d": "x"}), "rule.d", id="rule_string"),
    pytest.param(*_sim({"kind": "fixed", "c_sq": "abc"}), "rule.c_sq", id="rule_c_sq_string"),
    pytest.param(*_sim({"kind": "replicate", "n": "3"}), "rule.n", id="rule_numeric_string"),
    pytest.param(*_sim({"kind": "universal", "d": True}), "rule.d", id="rule_bool"),
    pytest.param(*_sim({"kind": "universal", "bogus": 1}), "rule.bogus", id="rule_unknown_field"),
    pytest.param(*_sim({"kind": "fixed"}), "rule.c_sq", id="rule_missing_field"),
    pytest.param(*_sim({"kind": "martingale"}), "rule.kind", id="rule_unknown_kind"),
    pytest.param(*_sim({"kind": 3}), "rule.kind", id="rule_kind_number"),
    pytest.param(["simulate", "--preset", "bh_fixed_alpha", "--d", "1"], {"m": 1000},
                 "rule.d", id="rule_flag_the_kind_lacks"),
    pytest.param(["simulate"], {"preset": "bh_fixed_alpha", "m": 1000, "overrides": {"alpha": "x"}},
                 "overrides.alpha", id="override_string"),
    pytest.param(["convergence"], {"preset": "lemma_universal", "overrides": {"s": True}},
                 "overrides.s", id="override_bool"),
    pytest.param(["convergence"], {"preset": "lemma_universal", "overrides": {"kappa": 0.5}},
                 "overrides.kappa", id="override_unknown"),
    pytest.param(["convergence"], {"preset": "lemma_universal", "overrides": {"beta": 10**400}},
                 "overrides.beta", id="override_beyond_floats"),
    pytest.param(["convergence"], {"preset": "no_such_preset"}, "preset", id="preset_unknown"),
    pytest.param(*_regime(sparsity={"family": "power", "kappa": "x"}),
                 "regime.sparsity.kappa", id="family_string"),
    pytest.param(*_regime(sparsity={"family": "extreme", "kappa": 0.5}),
                 "regime.sparsity.kappa", id="family_unknown_field"),
    pytest.param(*_regime(sparsity={"family": "cubic"}), "regime.sparsity.family", id="family_unknown"),
    pytest.param(*_regime(delta={"family": "decaying", "g": False}), "regime.delta.g", id="family_bool"),
    pytest.param(["simulate"], {"setting": {**_SETTING, "p": "0.1"}, "rule": {"kind": "oracle"}},
                 "setting.p", id="setting_string"),
    pytest.param(["simulate"], {"setting": {**_SETTING, "d": 1}, "rule": {"kind": "oracle"}},
                 "setting.d", id="setting_unknown"),
    pytest.param(["simulate"], {"setting": _SETTING, "rule": {"kind": "oracle"}, "overrides": {"alpha": 0.2}},
                 "overrides", id="overrides_without_preset"),
    pytest.param(["convergence"], {"preset": "lemma_universal", "regime": _REGIME},
                 "regime", id="regime_beside_preset"),
    pytest.param([*_SIM_PRESET, "--p", "0.3"], None, "setting.p", id="setting_flag_beside_preset"),
    pytest.param([*_SIM_PRESET, "--delta0", "2"], None, "setting.delta0", id="delta0_flag_beside_preset"),
    pytest.param(["simulate"], {"preset": "bh_fixed_alpha", "m": 1000, "setting": _SETTING},
                 "setting", id="setting_beside_preset"),
    pytest.param([*_SIM_PRESET, "--seed", "-1"], None, "seed", id="simulate_negative_seed_flag"),
    pytest.param(["simulate"], {"preset": "bh_fixed_alpha", "m": 1000, "reps": 2, "seed": -4},
                 "seed", id="simulate_negative_seed_field"),
    pytest.param(["convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3", "--reps", "2",
                  "--seed", "-1"], None, "seed", id="convergence_mc_negative_seed_flag"),
    pytest.param(["convergence"], {"preset": "lemma_universal", "mode": "mc", "grid": [1e3],
                                   "reps": 2, "seed": -4}, "seed", id="convergence_mc_negative_seed_field"),
    *(pytest.param(["convergence", "--preset", "lemma_universal", "--grid", "1e3", f"--{key}", "3"], None,
                   key, id=f"exact_{key}_flag") for key in ("reps", "seed")),
    *(pytest.param(["convergence"], {"preset": "lemma_universal", "grid": [1e3], key: 3},
                   key, id=f"exact_{key}_field") for key in ("reps", "seed", "workers")),
    pytest.param(["convergence", "--preset", "bfdr_fixed_alpha", "--mode", "exact", "--seed", "0"], None,
                 "seed", id="exact_mode_flag_seed"),
])
def test_malformed_config_is_exit_two_with_the_field_path(tmp_path, capsys, argv, config, path):
    """Every unknown, missing, mistyped or ignored field, from a config file
    or a flag, is a config error naming its path, and nothing is written."""
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, *with_config(tmp_path, argv, config), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1, err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(_SIM_PRESET, id="simulate"),
    pytest.param(["convergence", "--preset", "lemma_universal", "--grid", "1e3"], id="convergence_exact"),
    pytest.param(["convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3", "--reps", "2"],
                 id="convergence_mc"),
])
def test_the_cli_has_no_worker_knob(tmp_path, capsys, argv):
    """A run has no worker count: --workers is not a flag and workers is not
    a config field, and nothing is written."""
    out_path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2", "--out", str(out_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    code, out, err = run_cli(capsys, *with_config(tmp_path, argv, {"workers": 2}), "--out", str(out_path))
    assert (code, out, err) == (2, "", "config error: workers: unknown field\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("text", ['{"seed": 1', '{"seed": ' + "1" * 5000 + "}"])
def test_unparsable_config_is_exit_two(tmp_path, capsys, text):
    """Invalid JSON, and an integer literal longer than Python converts."""
    (tmp_path / "cfg.json").write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "cfg.json"))
    assert (code, out) == (2, "")
    assert err.startswith("config error: <config>: invalid JSON: ")


def test_a_value_out_of_range_stays_a_domain_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "bfdr_fixed_alpha", "overrides": {"alpha": 1.5}}))
    code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("family", [
    {"sparsity": {"family": "extreme", "log_exponent": 368}},
    {"delta": {"family": "decaying", "g": 2000}, "grid": [2.0]},
])
def test_a_family_that_overflows_is_a_domain_error(tmp_path, capsys, family):
    """(log m)^log_exponent or (log m)^-g beyond the floats: exit 1, no traceback."""
    cfg = tmp_path / "cfg.json"
    regime = {"beta": 2.0, "sparsity": {"family": "extreme"}, "grid": [1e3, 1e4], **family}
    cfg.write_text(json.dumps({"regime": regime, "rule": {"kind": "oracle"}}))
    code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: the regime's sparsity or delta overflows at m = ")


@pytest.mark.parametrize("config, path", [
    ({"preset": "lemma_universal", "grid": [100, 10**400]}, "grid"),
    ({"regime": {"beta": 2.0, "sparsity": {"family": "extreme"}, "grid": [100, 10**400]},
      "rule": {"kind": "oracle"}}, "regime.grid"),
])
def test_a_grid_beyond_the_float_range_is_a_config_error(tmp_path, capsys, config, path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "convergence", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.strip() == f"config error: {path}: must hold numbers within the float range"


@pytest.mark.parametrize("argv, config", [
    pytest.param(["--preset", "bfdr_fixed_alpha", "--grid", "1e4,1e3"], None, id="descending"),
    pytest.param(["--preset", "bfdr_fixed_alpha", "--grid", "1e3,1e3"], None, id="duplicated"),
    pytest.param([], {"preset": "bh_fixed_alpha", "grid": [1e4, 1e3]}, id="config_beside_preset"),
])
def test_a_grid_not_strictly_increasing_is_a_domain_error(tmp_path, capsys, argv, config):
    """A grid given to a preset is checked like any other: exit 1, nothing written."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run_cli(capsys, "convergence", *argv, "--out", str(tmp_path / "table.csv"))
    assert (code, out, err) == (1, "", "error: t_grid must be strictly increasing\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == (["cfg.json"] if config else [])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


_RULE_VALUES = {"c_sq": 9.0, "n": 3.0, "alpha": 0.1}


def _field_sites():
    """(argv, config, path) for every rule, family, override and setting field."""

    def names(fn):
        return _parameters(fn)[0]

    sites = [(*_sim({"kind": "universal"}), ("rule", "kind"))]
    for kind, cls in _BY_KIND.items():
        valid = {"kind": kind, **{k: v for k, v in _RULE_VALUES.items() if k in names(cls)}}
        sites += [(*_sim(valid), ("rule", name)) for name in names(cls)]
    sites += [(*_sim({"kind": "oracle"}), ("setting", name)) for name in cli._SETTING_KEYS]
    for name, factory in _PRESETS.items():
        base = {"preset": name, "reps": 2, "grid": [1e3], "overrides": {}}
        sites += [(["convergence"], base, ("overrides", key)) for key in names(factory)]
    for key, families in (("sparsity", _SPARSITIES), ("delta", _DELTA_RULES)):
        for family, cls in families.items():
            valid = {"family": family, "kappa": 0.5} if family == "power" else {"family": family}
            argv, config = _regime(**{key: valid})
            sites += [(argv, config, ("regime", key, name)) for name in ["family", *names(cls)]]
    return sites


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(_field_sites()), value=_JSON_VALUES)
def test_any_json_value_in_any_field_ends_in_an_exit_code(tmp_path_factory, site, value):
    """Whatever JSON value a field holds, main returns 0, 1 or 2 and raises
    nothing."""
    argv, config, path = site
    config = json.loads(json.dumps(config))
    obj = config
    for key in path[:-1]:
        obj = obj.setdefault(key, {})
    obj[path[-1]] = value
    argv = with_config(tmp_path_factory.getbasetemp(), argv, config)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


def test_unwritable_out_is_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "convergence", "--preset", "lemma_universal", "--grid", "1e2",
        "--out", "/nonexistent-dir-xyz/table.csv",
    )
    assert code == 1
    assert "error:" in err


def test_a_directory_as_out_is_exit_one(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.mkdir()
    code, _, err = run_cli(capsys, *SIMULATE_ARGS, "--out", str(target))
    assert code == 1
    assert "error:" in err


def test_threshold_where_the_bfdr_is_steep(capsys):
    """A point where a 1e-13-wide bracket alone missed the level by more than
    1e-11, so both solvers used to exit 1."""
    code, out, err = run_cli(
        capsys, "threshold", "--bfdr", "--gw", "--p", "3.6655368972165453e-293",
        "--u", "1.6791230847465808", "--alpha", "0.26004757262853156",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["bfdr", "gw"]
    assert grab(lines[1], "c_sq") == pytest.approx(2150.5198507522805, rel=1e-12)


# -----------------------------------------------------------------------
# one parser per process


def test_main_builds_one_parser(monkeypatch, capsys):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    assert run_cli(capsys, "threshold", "--universal", "--m", "100")[0] == 0
    assert run_cli(capsys, "risk", "--p", "0.1", "--u", "3")[0] == 0
    assert len(built) == 1


GOOD_ARGV = ["threshold", "--oracle", "--bfdr", "--p", "0.1", "--u", "3", "--alpha", "0.05"]


@pytest.mark.parametrize("bad", [
    ["risk", "--nope"],
    ["convergence", "--preset", "no_such_preset"],
    ["threshold", "--p", "0.1", "--u", "3"],
    ["threshold", "--bfdr", "--p", "0.1", "--u", "3"],
    ["simulate", "--reps", "many"],
])
def test_parser_after_an_error_parses_like_a_fresh_one(monkeypatch, capsys, bad):
    monkeypatch.setattr(cli, "_parser", None)
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    error = capsys.readouterr()
    after_error = run_cli(capsys, *GOOD_ARGV)
    with pytest.raises(SystemExit):
        main(bad)
    assert capsys.readouterr() == error
    monkeypatch.setattr(cli, "_parser", None)
    assert run_cli(capsys, *GOOD_ARGV) == after_error


def test_flags_do_not_carry_over_between_calls(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    assert run_cli(capsys, *GOOD_ARGV)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--bfdr", "--p", "0.1", "--u", "3"])  # no --alpha this time
    assert exc.value.code == 2
    assert "--alpha is required" in capsys.readouterr().err


# -----------------------------------------------------------------------
# real processes


def child_env():
    """Environment for a child process that imports the sparsemix under test.

    PYTHONPATH gets the absolute parent directory of the imported package in
    front, so the child neither resolves a relative entry against its own
    working directory nor picks up another installed copy.
    """
    env = dict(os.environ)
    src = str(Path(sparsemix.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


SIMULATE_ARGS = [
    "simulate", "--p", "0.05", "--u", "16", "--m", "100",
    "--rule", "universal", "--reps", "20", "--seed", "5",
]


def check_simulate_out(tmp_path, capsys, out_path):
    """The CSV a real process wrote equals the in-process one, and its
    sidecar records the run."""
    assert out_path.exists() and out_path.with_suffix(".json").exists()
    ref_path = tmp_path / "ref.csv"
    code, _, _ = run_cli(capsys, *SIMULATE_ARGS, "--out", str(ref_path))
    assert code == 0
    assert out_path.read_bytes() == ref_path.read_bytes()
    header, rows = parse_csv(out_path.read_text())
    assert header == ["stat", "mean", "std_error", "reps"]
    assert [r[0] for r in rows] == ["risk", "fdr", "fwer", "ev", "power"]
    sidecar = json.loads(out_path.with_suffix(".json").read_text())
    assert sidecar["command"] == "simulate"
    assert sidecar["seed"] == 5
    assert sidecar["columns"] == header
    assert sidecar["config"]["out"] == str(out_path)


def test_module_entry_point_end_to_end(tmp_path, capsys):
    out_path = tmp_path / "cmd.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "sparsemix.cli", *SIMULATE_ARGS, "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    check_simulate_out(tmp_path, capsys, out_path)

    proc2 = subprocess.run(
        [sys.executable, "-m", "sparsemix.cli", "threshold", "--universal", "--m", "100"],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert proc2.returncode == 0, proc2.stderr
    assert "universal" in proc2.stdout
    assert f"{2.0 * math.log(100.0)!r}" in proc2.stdout


# The console script of an install into this interpreter: its own scripts
# directory, then the user scheme's.  Looked up by path, not on PATH, so
# another environment's script is never run in its place.
SCRIPT_CANDIDATES = [
    Path(sysconfig.get_path("scripts")) / "sparsemix",
    Path(sysconfig.get_path("scripts", sysconfig.get_preferred_scheme("user"))) / "sparsemix",
]
SCRIPT = next((path for path in SCRIPT_CANDIDATES if path.is_file()), None)


@pytest.mark.skipif(
    SCRIPT is None,
    reason="sparsemix is not installed: no console script at "
    + " or ".join(str(path) for path in SCRIPT_CANDIDATES),
)
def test_console_script_end_to_end(tmp_path, capsys):
    out_path = tmp_path / "cmd.csv"
    proc = subprocess.run(
        [str(SCRIPT), *SIMULATE_ARGS, "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    check_simulate_out(tmp_path, capsys, out_path)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate", "--preset", "bh_fixed_alpha", "--m", "1e15", "--reps", "2"], None,
         "m: at most 1e+08 tests allowed, got 1e+15"),
        (["simulate", "--preset", "bh_fixed_alpha", "--m", "100", "--reps", "100000000000000"], None,
         "reps: at most 1e+06 replicates allowed, got 1e+14"),
        (["simulate"], {"preset": "bh_fixed_alpha", "m": 1e15, "reps": 2},
         "m: at most 1e+08 tests allowed, got 1e+15"),
        (["simulate"], {"setting": {"p": 0.1, "u": 3, "m": 1e9}, "rule": {"kind": "bh", "alpha": 0.1}},
         "m: at most 1e+08 tests allowed, got 1e+09"),
        (["simulate"], {"preset": "bh_fixed_alpha", "m": 100, "reps": 10**14},
         "reps: at most 1e+06 replicates allowed, got 1e+14"),
        (["convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3,1e15", "--reps", "2"], None,
         "grid: at most 1e+08 tests per point allowed, got 1e+15"),
        (["convergence"], {"preset": "lemma_universal", "mode": "mc", "grid": [1e3, 1e12]},
         "grid: at most 1e+08 tests per point allowed, got 1e+12"),
        (["convergence", "--preset", "bh_fixed_alpha", "--reps", "10000000"], None,
         "reps: at most 1e+06 replicates allowed, got 1e+07"),
        (["convergence"], {"preset": "lemma_universal", "grid": [10.0 ** (2 + k / 100) for k in range(1001)]},
         "grid: at most 1000 points allowed, got 1001"),
        # The size check reads the grid before any point is built.
        (["convergence", "--preset", "bh_fixed_alpha", "--grid", "0.5,1e15", "--reps", "2"], None,
         "grid: at most 1e+08 tests per point allowed, got 1e+15"),
    ],
)
def test_oversized_requests_are_config_errors(tmp_path, capsys, argv, config, message):
    """m, reps and the grid length are refused beyond their bounds, before
    any sampling allocates for them."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.strip() == f"config error: {message}"


def test_bounds_admit_the_documented_runs():
    """The README's runs and the exact-mode default grid fit the bounds."""
    assert cli.MAX_M >= max(DEFAULT_MC_GRID) and cli.MAX_REPS >= 2000
    assert cli.MAX_GRID_POINTS >= max(len(DEFAULT_EXACT_GRID), len(DEFAULT_MC_GRID))


# -----------------------------------------------------------------------
# output bytes and files

# sha256 of the CSV each invocation writes, recorded before the outputs were
# overwritten in place and the replicate statistics reduced in one pass, under
# numpy 2.4.6 and scipy 1.17.1 (a Generator stream is promised only within a
# numpy version).  A change that alters no number must keep every one.
GOLDEN_CSVS = [
    pytest.param(
        ["simulate", "--preset", "bh_fixed_alpha", "--m", "1e5", "--reps", "200", "--seed", "7"], None,
        "bccb85a3bae0e761158e44a53fd056a510bd8449982fb8a70ac653a7c34c3804",
        id="bh_fixed_alpha",
    ),
    pytest.param(
        ["simulate", "--preset", "bh_fixed_alpha", "--m", "1e5", "--alpha", "0.97",
         "--reps", "200", "--seed", "7"], None,
        "63fcb26024011db581380e6e34d5f898f38bbbfd331ef7944df9e7e4b2590e45",
        id="bh_fixed_alpha_at_0.97",
    ),
    pytest.param(
        ["simulate", "--p", "0.02", "--u", "25", "--m", "1e5", "--rule", "fixed", "--c-sq", "9",
         "--reps", "500", "--seed", "3"], None,
        "ba39b3dbb33e369af17be4f200e03e7b293e7e725ffe402ca226e639140f34e6",
        id="fixed",
    ),
    pytest.param(
        ["simulate", "--p", "0.02", "--u", "25", "--m", "1e5", "--rule", "universal",
         "--reps", "500", "--seed", "3"], None,
        "7f9e3f98611addf245678ddfb22237cfad7bf606fd5c7fd7d5ea6373d3b827dd",
        id="universal",
    ),
    pytest.param(
        ["simulate", "--p", "0.3", "--u", "0.001", "--m", "1e5", "--rule", "bh", "--alpha", "0.97",
         "--reps", "200", "--seed", "5"], None,
        "d67d55d81dec9be2da7768477297fad637519bdf35bde5ae7d7ce71b6f864364",
        id="bh_dense",
    ),
    pytest.param(
        ["convergence", "--preset", "lemma_universal", "--mode", "exact"], None,
        "a4aa2bd04b1d7919e0eabd9108aaacf2367745698e0f2413711b2ba3351d6a84",
        id="lemma_universal_exact",
    ),
    pytest.param(
        ["convergence", "--preset", "bfdr_fixed_alpha", "--grid", "1e3,1e6,1e9,1e12"], None,
        "1ca1d0ba4e434d2c7808e15f8e0478871136137cd1651fe6aa2245ca3dce067d",
        id="bfdr_fixed_alpha_grid",
    ),
    # The other fixed-threshold presets' exact tables, as in bench/goldens.json.
    *(pytest.param(["convergence", "--preset", name], None, digest, id=f"{name}_exact")
      for name, digest in (
          ("bfdr_fixed_delta", "38af569c66b6b9db87b388632ae1716d4a119bb50b624c90078bd3f923a49234"),
          ("bfdr_sqrt_level", "dd3ae924099ecc7559a0b4a5175b966d7cc412cc87a4eecca8a63c4bd2c00110"),
          ("bonferroni_extreme", "32a8f479973ce9d27d19dd9c6f97f3a3fbcc8750104214b7704486fb62c46576"),
          ("gw_fixed_alpha", "f6a80b43db304e341812aaa9a929d46c0f36c7d1fbb800193925e165140c4680"),
          ("nonconforming_sublog", "78926faff55ffcdaf96bcf029429b3e5496fbc0f8a849d1e5f58762d07ad8e29"),
          ("replicate_verge", "8e7fbcca59389901bd90047b23e4957e45f3a88808058ef5a55ba7db3081c8d1"),
      )),
    # Monte-Carlo tables, recorded before the exact and mc modes shared one row builder.
    pytest.param(
        ["convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3,1e4", "--reps", "50", "--seed", "3"],
        None,
        "8a94c0cba61c38cf5e57c563134893b85cdcb77f2d3092758c510262091a9ebe",
        id="bh_fixed_alpha_mc",
    ),
    pytest.param(
        ["convergence", "--preset", "lemma_universal", "--mode", "mc", "--grid", "1e3,1e4",
         "--reps", "50", "--seed", "3"],
        None,
        "308074c57b420523d2bf32503cb426f1a36e03b28c78941c77e5b7d46cde0b3f",
        id="lemma_universal_mc",
    ),
    # Config files, recorded before every config object was read by one reader:
    # integer fields, a power/decaying regime and a preset's overrides.
    pytest.param(
        ["simulate"], {"setting": {"p": 0.02, "u": 25, "delta": 2, "m": 100000},
                       "rule": {"kind": "replicate", "n": 3, "d": 1}, "reps": 300, "seed": 4},
        "f0a74557cbdbe00a3dab398f4e4f56bc5296769fdb96dedbe3e82f9c55758237",
        id="config_setting_and_rule",
    ),
    pytest.param(
        ["convergence"], {"regime": {"beta": 2, "sparsity": {"family": "power", "kappa": 0.5, "a": 1},
                                     "delta": {"family": "decaying", "g": 1}, "alpha": 0.1},
                          "rule": {"kind": "bfdr"}, "grid": [1e3, 1e6, 1e9]},
        "0ad084f90ecb1974c107b145f3a3748078a730729c372a849caed0a21fec6ba5",
        id="config_regime",
    ),
    pytest.param(
        ["simulate"], {"preset": "bh_fixed_alpha", "overrides": {"alpha": 0.2, "kappa": 0.6, "beta": 2},
                       "m": 1e5, "reps": 100, "seed": 9},
        "6367671837f452068b9083532854649f5fa4af31c6d457de28bb64f445fdf3ff",
        id="config_preset_overrides",
    ),
]


@pytest.mark.parametrize("argv, config, digest", GOLDEN_CSVS)
def test_csv_bytes_match_the_recorded_digests(tmp_path, capsys, argv, config, digest):
    out_path = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, *with_config(tmp_path, argv, config), "--out", str(out_path))
    assert code == 0, err
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def _csv_writer_text(columns, rows):
    """The CSV the CLI wrote through csv.writer, kept as the reference."""
    def fmt(value):
        if isinstance(value, (bool, numpy.bool_)):
            return str(bool(value))
        if isinstance(value, (int, numpy.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])
    return buf.getvalue()


_IDENTIFIERS = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                                math.nan, math.inf, -math.inf, 0.1, 1e16, 2.0**53 + 2])
_CELLS = st.one_of(
    st.floats(), _EDGE_FLOATS, st.integers(), st.booleans(), _IDENTIFIERS,
    (st.floats() | _EDGE_FLOATS).map(numpy.float64), st.floats(width=32).map(numpy.float32),
    st.integers(-2**63, 2**63 - 1).map(numpy.int64), st.booleans().map(numpy.bool_),
)


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(_IDENTIFIERS, min_size=1, max_size=6),
       rows=st.lists(st.lists(_CELLS, max_size=6), max_size=5))
def test_csv_text_matches_the_csv_writer(columns, rows):
    """Joining cells gives csv.writer's bytes for every cell the commands
    write: identifiers, and floats, integers and bools, numpy or not."""
    assert cli._csv_text(columns, rows) == _csv_writer_text(columns, rows)


_TABLE_FLOATS = st.floats() | _EDGE_FLOATS | st.floats(0.0, 2.2250738585072014e-308).map(lambda x: -x)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(_TABLE_FLOATS, min_size=18, max_size=18).map(tuple), max_size=5))
def test_csv_text_of_table_rows_matches_the_csv_writer(rows):
    """A row of Python floats, as a convergence row is, takes one format for
    all its cells; it gives csv.writer's bytes, nan, infinities, -0.0,
    subnormals and 2**53 + 2 included."""
    columns = [f"c{i}" for i in range(18)]
    assert cli._csv_text(columns, rows) == _csv_writer_text(columns, rows)


@pytest.mark.parametrize("argv", [
    SIMULATE_ARGS,
    ["risk", "--p", "0.1", "--u", "3", "--m", "100", "--c-sq", "4"],
])
def test_rewriting_a_longer_output_leaves_no_stale_tail(tmp_path, capsys, monkeypatch, argv):
    """The CSV and the sidecar written over longer old files equal the bytes
    of a fresh write.  The --out path is relative, so the sidecars, which
    echo it, are comparable."""
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    (old / "out.csv").write_text("x" * 100_000)
    (old / "out.json").write_text("{" * 100_000)
    for where in (fresh, old):
        monkeypatch.chdir(where)
        code, _, err = run_cli(capsys, *argv, "--out", "out.csv")
        assert code == 0, err
    for name in ("out.csv", "out.json"):
        assert (old / name).read_bytes() == (fresh / name).read_bytes()


def test_a_symlinked_out_writes_through_to_its_target(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("an,older,and,longer,table\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    ref = tmp_path / "ref.csv"
    for path in (ref, link):
        code, _, err = run_cli(capsys, *SIMULATE_ARGS, "--out", str(path))
        assert code == 0, err
    assert link.is_symlink()
    assert target.read_bytes() == ref.read_bytes()


_FAILING_WRITE = """\
import resource, signal, sys
from pathlib import Path
from sparsemix import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
try:
    cli._write_text(Path(sys.argv[1]), "n" * 10_000)
except OSError as exc:
    print(exc.errno)
"""


def test_a_failed_write_leaves_no_old_tail_behind_new_bytes(tmp_path):
    """A write cut short (here by a file-size limit in a child process, so
    the first 4096 new bytes land and the rest fails with EFBIG) cuts the
    old, longer file to nothing instead of leaving new bytes before old."""
    path = tmp_path / "out.csv"
    path.write_bytes(b"o" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_WRITE, str(path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(errno.EFBIG)
    assert path.read_bytes() == b""


def test_short_writes_go_on_to_the_last_byte(tmp_path, monkeypatch):
    """os.write may take fewer bytes than it is given: with at most 7 bytes
    a call, every byte still lands, and the old, longer file is cut to the
    new length."""
    path = tmp_path / "out.csv"
    path.write_bytes(b"o" * 1000)
    text = "stat,mean\n" + "risk,0.12345678901234567\n" * 20 + "\u03b1\n"  # a 2-byte character at the end
    real_write, taken = os.write, []

    def short_write(fd, data):
        taken.append(real_write(fd, bytes(data[:7])))
        return taken[-1]

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_write)
        cli._write_text(path, text)
    assert path.read_bytes() == text.encode()
    assert sum(taken) == len(text.encode()) and max(taken) == 7


def test_writing_to_the_null_device_does_not_cut_it():
    """/dev/null is no regular file: truncating it would raise."""
    cli._write_text(Path(os.devnull), "stat,mean\n")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_a_new_output_gets_the_mode_write_text_gives(tmp_path, umask):
    saved = os.umask(umask)
    try:
        cli._write_text(tmp_path / "new.csv", "a\n")
        (tmp_path / "ref.csv").write_text("a\n")
    finally:
        os.umask(saved)
    mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "ref.csv").stat().st_mode) == 0o666 & ~umask
