"""The benchmark's workloads: seeded inputs, the user-level calls, their checks.

A workload is a closed loop of units run by one client.  The inputs of
unit i come only from (seed, i), so one seed fixes every input however many
units fit in the run.  ``run_unit`` makes the unit's calls and times each
one; ``check`` verifies a unit's outputs, counts the failed calls and (with
``pool``) adds the outputs to the run-level statistical checks that
``finish`` evaluates.  Checks run outside the timed region.

``TRACE_RATE`` is the number of units a traced run makes per second of
``--seconds``: the traced run does a fixed amount of work, so its per-layer
calls, counts and byte totals are exact and comparable between commits.
On a 2-CPU machine a traced run (every unit once plain, once traced) then
lasts at most about ``--seconds``; ``exact_sweep`` records ~5000 spans a
unit and so gets fewer units, to keep its spans near half a million.

Calls go through attribute lookups on the ``sparsemix`` modules at call
time (``sm.mc_run``, ``cli.main``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sparsemix as sm
import sparsemix.cli as cli

GOLDENS = Path(__file__).with_name("goldens.json")

SIMULATE_STATS = ("risk", "fdr", "fwer", "ev", "power", "threshold_gap")


@dataclass
class Call:
    """One call: its latency, what it returned, and the error it raised.

    ``latency`` marks the user-level calls (one ``cli.main`` or one ``mc_*``)
    whose times feed the latency percentiles.
    """

    seconds: float
    output: object
    error: str | None = None
    latency: bool = True


@dataclass
class Unit:
    calls: list[Call]
    items: int

    def outputs(self) -> list:
        return [(c.output, c.error) for c in self.calls]


def _timed(fn, *args, latency: bool = True, **kwargs) -> Call:
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a failed call is counted; the run goes on
        return Call(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}", latency)
    return Call(time.perf_counter() - t0, out, None, latency)


def _cli(argv: list[str], files: tuple[Path, ...] = ()) -> Call:
    """One ``cli.main`` call with its stdout captured (the ``wrote ...`` lines
    must not reach the benchmark's own output).  Files the call wrote are
    read after the clock stops."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # argparse exits on bad flags
        return Call(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    texts = tuple(path.read_text() if path.is_file() else None for path in files)
    return Call(seconds, (code, buf.getvalue()) + texts)


def _seed_of(seed: int, index: int) -> int:
    """A 32-bit master seed for call `index`, derived from the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _pooled(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Mean of equally sized independent estimates and its standard error."""
    n = len(pairs)
    mean = sum(m for m, _ in pairs) / n
    se = math.sqrt(sum(s * s for _, s in pairs)) / n
    return mean, se


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _sidecar_ok(text: str | None, command: str, columns) -> dict | None:
    if text is None:
        return None
    side = json.loads(text)
    if side.get("version") != sm.__version__ or side.get("command") != command:
        return None
    if side.get("columns") != list(columns) or not isinstance(side.get("config"), dict):
        return None
    return side


def _report_ok(report, reps: int, step_up: bool) -> bool:
    if not isinstance(report, sm.McReport):
        return False
    estimates = [report.risk, report.fdr, report.fwer, report.ev, report.power]
    if step_up != (report.threshold_gap is not None):
        return False
    if step_up:
        estimates.append(report.threshold_gap)
    return all(
        e.reps == reps and math.isfinite(e.mean) and math.isfinite(e.std_error) and e.std_error >= 0
        for e in estimates
    )


def _expect(failures: list[str], name: str, ok: bool, detail: str) -> None:
    if not ok:
        failures.append(f"{name}: {detail}")


class StepUpLarge:
    """CLI ``simulate`` of the step-up procedure at m = 1e6 (preset
    bh_fixed_alpha: p = 1e-3, u = 2 log m, alpha = 0.1), default workers."""

    name = "mc_stepup_large"
    PRESET = "bh_fixed_alpha"
    M = 10**6
    REPS = 2
    TRACE_RATE = 2.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "simulate.csv"
        self.side = self.out.with_suffix(".json")
        point = sm.preset(self.PRESET)[0].generator(float(self.M))
        self.target_fdr = (1.0 - point.p) * point.alpha
        self.fdr: list[tuple[float, float]] = []

    def inputs(self, i: int) -> list[str]:
        return [
            "simulate", "--preset", self.PRESET, "--m", repr(float(self.M)),
            "--reps", str(self.REPS), "--seed", str(_seed_of(self.seed, i)), "--out", str(self.out),
        ]

    def run_unit(self, i: int) -> Unit:
        return Unit([_cli(self.inputs(i), (self.out, self.side))], self.REPS)

    def _fdr(self, call: Call, i: int) -> tuple[float, float] | None:
        """(mean, se) of the FDR row if the call's CSV and sidecar are well formed."""
        if call.error is not None:
            return None
        code, stdout, text, side_text = call.output
        if code != 0 or stdout != f"wrote {self.out} and {self.side}\n" or text is None:
            return None
        header, rows = _parse_csv(text)
        if header != ["stat", "mean", "std_error", "reps"]:
            return None
        if [row[0] for row in rows] != list(SIMULATE_STATS):
            return None
        values = {row[0]: (float(row[1]), float(row[2]), int(row[3])) for row in rows}
        if any(not (math.isfinite(mu) and se >= 0.0 and n == self.REPS) for mu, se, n in values.values()):
            return None
        side = _sidecar_ok(side_text, "simulate", header)
        seed = _seed_of(self.seed, i)
        if side is None or side.get("seed") != seed or side["config"].get("reps") != self.REPS:
            return None
        mean, se, _ = values["fdr"]
        return (mean, se) if 0.0 <= mean <= 1.0 else None

    def check(self, i: int, unit: Unit, pool: bool = True) -> int:
        fdr = self._fdr(unit.calls[0], i)
        if fdr is None:
            return 1
        if pool:
            self.fdr.append(fdr)
        return 0

    def finish(self) -> list[str]:
        failures: list[str] = []
        if not self.fdr:
            return ["no well-formed simulate output"]
        mean, se = _pooled(self.fdr)
        _expect(failures, "pooled FDR", abs(mean - self.target_fdr) <= 4.0 * se,
                f"{mean!r} +- {se!r} vs (1-p) alpha = {self.target_fdr!r}")
        return failures


class ManySmall:
    """Alternating small library MC calls at two workers: the step-up rule
    conditioned on K = 10 signals, then a GW fixed-threshold rule."""

    name = "mc_many_small"
    WORKERS = 2
    COND_REPS = 20
    GW_REPS = 40
    TRACE_RATE = 6.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cond_setting = sm.TestingSetting(sm.MixtureModel(p=1e-3, sigma_sq=1.0, tau_sq=25.0),
                                              sm.Losses(1.0, 1.0), m=10_000)
        self.gw_setting = sm.TestingSetting(sm.MixtureModel(p=0.02, sigma_sq=1.0, tau_sq=25.0),
                                            sm.Losses(1.0, 1.0), m=5000)
        self.k, self.bh_alpha, self.gw_alpha = 10, 0.2, 0.1
        self.ev: list[tuple[float, float]] = []
        self.risk: list[tuple[float, float]] = []

    def inputs(self, i: int) -> tuple[int, int]:
        return _seed_of(self.seed, 2 * i), _seed_of(self.seed, 2 * i + 1)

    def run_unit(self, i: int) -> Unit:
        cond_seed, gw_seed = self.inputs(i)
        cond = _timed(sm.mc_conditional_k, self.cond_setting, sm.BhRule(self.bh_alpha), self.k,
                      self.COND_REPS, cond_seed, workers=self.WORKERS)
        gw = _timed(sm.mc_run, self.gw_setting, sm.GwRule(self.gw_alpha), self.GW_REPS, gw_seed,
                    workers=self.WORKERS)
        return Unit([cond, gw], self.COND_REPS + self.GW_REPS)

    def check(self, i: int, unit: Unit, pool: bool = True) -> int:
        cond, gw = unit.calls
        cond_ok = cond.error is None and _report_ok(cond.output, self.COND_REPS, True)
        gw_ok = gw.error is None and _report_ok(gw.output, self.GW_REPS, False)
        if pool and cond_ok:
            self.ev.append((cond.output.ev.mean, cond.output.ev.std_error))
        if pool and gw_ok:
            self.risk.append((gw.output.risk.mean, gw.output.risk.std_error))
        return (not cond_ok) + (not gw_ok)

    def finish(self) -> list[str]:
        if not (self.ev and self.risk):
            return ["no well-formed MC report"]
        failures: list[str] = []
        ev, ev_se = _pooled(self.ev)
        bound = sm.bh_conditional_ev_bound(self.bh_alpha, self.k)
        _expect(failures, "pooled E(V|K=k)", ev <= bound + 3.0 * ev_se,
                f"{ev!r} +- {ev_se!r} above the bound {bound!r}")
        risk, risk_se = _pooled(self.risk)
        c_sq = sm.gw_threshold(self.gw_setting.model, sm.BfdrLevel(self.gw_alpha))
        exact = sm.fixed_threshold_risk(self.gw_setting, c_sq).total
        _expect(failures, "pooled GW risk", abs(risk - exact) <= 4.0 * risk_se,
                f"{risk!r} +- {risk_se!r} vs exact {exact!r}")
        return failures


@dataclass(frozen=True)
class SweepPoint:
    p: float
    u: float
    delta: float
    alpha: float
    m: float

    @property
    def model(self) -> sm.MixtureModel:
        return sm.MixtureModel(p=self.p, sigma_sq=1.0, tau_sq=self.u)

    @property
    def setting(self) -> sm.TestingSetting:
        return sm.TestingSetting(self.model, sm.Losses(delta0=self.delta, deltaA=1.0), m=self.m)


def fixed_threshold_presets() -> tuple[str, ...]:
    return tuple(name for name in sm.PRESET_NAMES if sm.is_fixed_threshold(sm.preset(name)[1]))


class ExactSweep:
    """Closed forms over a seeded parameter sweep, plus the table-emitting CLI
    on every fixed-threshold preset; never samples."""

    name = "exact_sweep"
    RISK_COLUMNS = ("m", "p", "u", "delta0", "deltaA", "c_sq", "r1", "r2", "total")
    C_SQ_GRID = tuple(np.linspace(0.0, 80.0, 200).tolist())
    TRACE_RATE = 2.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "risk.csv"
        self.side = self.out.with_suffix(".json")
        self.presets = fixed_threshold_presets()
        self.goldens = json.loads(GOLDENS.read_text())["convergence_sha256"]

    def inputs(self, i: int) -> SweepPoint:
        rng = np.random.default_rng([self.seed, i])
        return SweepPoint(
            p=10.0 ** rng.uniform(-8.0, math.log10(0.4)),
            u=10.0 ** rng.uniform(math.log10(0.5), 4.0),
            delta=10.0 ** rng.uniform(-3.0, 3.0),
            alpha=10.0 ** rng.uniform(-3.0, math.log10(0.5)),
            m=10.0 ** rng.uniform(0.0, 8.0),
        )

    def _library(self, pt: SweepPoint) -> tuple:
        model, setting = pt.model, pt.setting
        opt = sm.optimal_risk_exact(setting).total
        c_bfdr = sm.bfdr_threshold(model, sm.BfdrLevel(pt.alpha))
        back = sm.bfdr_of_threshold(model, c_bfdr)
        c_gw = sm.gw_threshold(model, sm.BfdrLevel(pt.alpha))
        c_bfdr_gw = sm.bfdr_threshold(model, sm.BfdrLevel(pt.alpha * (1.0 - pt.p)))
        scan = min(sm.fixed_threshold_risk(setting, c).total for c in self.C_SQ_GRID)
        return opt, float(c_bfdr), back, float(c_gw), float(c_bfdr_gw), scan

    def run_unit(self, i: int) -> Unit:
        pt = self.inputs(i)
        flags = ["--p", repr(pt.p), "--u", repr(pt.u), "--delta", repr(pt.delta)]
        calls = [_timed(self._library, pt, latency=False)]
        calls.append(_cli(["threshold", "--oracle", "--bfdr", "--gw", *flags, "--alpha", repr(pt.alpha)]))
        calls.append(_cli(["risk", *flags, "--m", repr(pt.m), "--out", str(self.out)], (self.out, self.side)))
        calls.extend(_cli(["convergence", "--preset", name]) for name in self.presets)
        return Unit(calls, 1)

    def _library_ok(self, call: Call, pt: SweepPoint) -> bool:
        if call.error is not None:
            return False
        opt, c_bfdr, back, c_gw, c_bfdr_gw, scan = call.output
        return (
            abs(back - pt.alpha) <= 1e-11  # bfdr_threshold's documented tolerance
            and abs(c_gw - c_bfdr_gw) <= 1e-10 * max(1.0, c_bfdr_gw)  # GW(a) = BFDR(a(1-p))
            and opt <= scan * (1.0 + 1e-12)  # the oracle minimizes the risk
        )

    def _threshold_ok(self, call: Call, pt: SweepPoint, library: tuple) -> bool:
        if call.error is not None or call.output[0] != 0:
            return False
        lines = call.output[1].splitlines()[1:]
        oracle = sm.oracle_threshold_sq_raw(pt.model, pt.setting.losses)
        want = {"oracle": float(oracle), "bfdr": library[1], "gw": library[3]}
        got = {}
        for line in lines:
            name, c_sq, z = line.split()
            got[name] = (float(c_sq.removeprefix("c_sq=")), float(z.removeprefix("z=")))
        return set(got) == set(want) and all(
            got[k][0] == v and got[k][1] == math.sqrt(v) for k, v in want.items()
        )

    def _risk_ok(self, call: Call, pt: SweepPoint) -> bool:
        if call.error is not None:
            return False
        code, stdout, text, side_text = call.output
        if code != 0 or text is None or not stdout.endswith(f"wrote {self.out} and {self.side}\n"):
            return False
        c_sq = sm.oracle_threshold_sq_raw(pt.model, pt.setting.losses)
        risk = sm.fixed_threshold_risk(pt.setting, c_sq)
        want = [format(float(v), ".17g")
                for v in (pt.m, pt.p, pt.u, pt.delta, 1.0, c_sq, risk.r1, risk.r2, risk.total)]
        header, rows = _parse_csv(text)
        return (header == list(self.RISK_COLUMNS) and rows == [want]
                and _sidecar_ok(side_text, "risk", header) is not None)

    def _convergence_ok(self, call: Call, preset: str) -> bool:
        if call.error is not None or call.output[0] != 0:
            return False
        return hashlib.sha256(call.output[1].encode()).hexdigest() == self.goldens[preset]

    def check(self, i: int, unit: Unit, pool: bool = True) -> int:
        pt = self.inputs(i)
        library, threshold, risk, *convergence = unit.calls
        ok = [self._library_ok(library, pt)]
        ok.append(library.error is None and self._threshold_ok(threshold, pt, library.output))
        ok.append(self._risk_ok(risk, pt))
        ok.extend(self._convergence_ok(c, name) for c, name in zip(convergence, self.presets))
        return ok.count(False)

    def finish(self) -> list[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (StepUpLarge, ManySmall, ExactSweep)}
