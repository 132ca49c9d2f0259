"""Command-line interface: output contracts, exit codes, reproducibility.

Most tests drive main() in process (fast, capsys-friendly).  Two tests run
a real process: `python -m sparsemix.cli` on every machine, and the
installed `sparsemix` console script, which is skipped where the package
is not installed into the running interpreter.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy
import pytest
import scipy

import sparsemix
from sparsemix import (
    CONVERGENCE_COLUMNS,
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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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
    _, out1, _ = run_cli(capsys, *base, "--workers", "1")
    _, out4, _ = run_cli(capsys, *base, "--workers", "4")
    assert out1 == out4
    _, again, _ = run_cli(capsys, *base, "--workers", "1")
    assert out1 == again


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


def test_unwritable_out_is_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "convergence", "--preset", "lemma_universal", "--grid", "1e2",
        "--out", "/nonexistent-dir-xyz/table.csv",
    )
    assert code == 1
    assert "error:" in err


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
