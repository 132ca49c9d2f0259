"""Acceptance gate: one test per release criterion, in order.

Each test pins its tolerances explicitly and uses only public API, so
`pytest tests/test_acceptance.py -v` reads as the release checklist.
The exact closed forms act as deterministic oracles for the Monte-Carlo
criteria; randomized sweeps are seeded and reproducible.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from sparsemix import (
    BfdrLevel,
    BhRule,
    Losses,
    MixtureModel,
    Phi,
    Phi_inv,
    Phi_tail,
    TestingSetting,
    bfdr_identity_residual,
    bfdr_of_threshold,
    bfdr_threshold,
    bfdr_threshold_asymptotic,
    bh_conditional_ev_bound,
    bonferroni_threshold,
    bonferroni_threshold_asymptotic,
    error_rates,
    fixed_threshold_risk,
    gw_threshold,
    mc_conditional_k,
    mc_run,
    optimal_risk_exact,
    oracle_threshold_sq,
    oracle_threshold_sq_raw,
    preset,
    run_convergence,
    threshold_gap_study,
)
from sparsemix.cli import main


def _random_model(rng):
    p = float(rng.uniform(0.001, 0.4))
    u = float(rng.uniform(0.5, 50.0))
    return MixtureModel(p=p, sigma_sq=1.0, tau_sq=u)


# -----------------------------------------------------------------------
# 1. Exact threshold and level identities.


def test_01_threshold_and_level_identities():
    rng = np.random.default_rng(101)

    # The (u, v) form and the raw-parameter form of the oracle threshold
    # are the same function.
    checked = 0
    while checked < 1000:
        model = _random_model(rng)
        losses = Losses(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)))
        v = model.u * model.f**2 * losses.delta**2
        if v <= 1.05:  # keep clear of the degenerate clamp at v <= 1
            continue
        a = float(oracle_threshold_sq(model.u, v))
        b = float(oracle_threshold_sq_raw(model, losses))
        assert a == pytest.approx(b, rel=1e-12)
        checked += 1

    # Level-identity residual (1-a)(1-p) t1 + a p t2 - a p vanishes.
    worst = 0.0
    for _ in range(1000):
        model = _random_model(rng)
        c_sq = float(rng.uniform(0.0, 50.0))
        worst = max(worst, abs(bfdr_identity_residual(model, c_sq)))
    assert worst <= 1e-12

    # The fixed-point threshold is the plain level threshold at alpha(1-p).
    for _ in range(40):
        model = _random_model(rng)
        alpha = float(rng.uniform(0.01, 0.9)) * (1.0 - model.p)
        a = float(gw_threshold(model, BfdrLevel(alpha)))
        b = float(bfdr_threshold(model, BfdrLevel(alpha * (1.0 - model.p))))
        assert abs(a - b) <= 1e-10

    # Inversion round-trips to the requested level.
    for _ in range(10):
        model = _random_model(rng)
        for alpha in np.linspace(1e-6, 0.95 * (1.0 - model.p), 12):
            c_sq = bfdr_threshold(model, BfdrLevel(float(alpha)))
            assert abs(bfdr_of_threshold(model, c_sq) - alpha) <= 1e-11

    # At the oracle threshold, the loss-weighted error ratio restates the
    # rule's own level: d0 (1-p) t1 / (dA p t2) = delta r_alpha (1-t2)/t2.
    for _ in range(200):
        model = _random_model(rng)
        losses = Losses(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)))
        c_sq = oracle_threshold_sq_raw(model, losses)
        if c_sq.degenerate:
            continue
        rates = error_rates(c_sq, model.u)
        alpha = bfdr_of_threshold(model, c_sq)
        lhs = losses.delta0 * (1.0 - model.p) * rates.t1 / (losses.deltaA * model.p * rates.t2)
        rhs = losses.delta * (alpha / (1.0 - alpha)) * (1.0 - rates.t2) / rates.t2
        assert lhs == pytest.approx(rhs, rel=1e-10)


# -----------------------------------------------------------------------
# 2. The oracle threshold minimizes the exact risk.


def test_02_oracle_threshold_minimizes_risk():
    rng = np.random.default_rng(202)
    grid = np.linspace(0.0, 80.0, 10**4)
    for _ in range(100):
        model = _random_model(rng)
        losses = Losses(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)))
        setting = TestingSetting(model=model, losses=losses, m=1.0)
        opt = optimal_risk_exact(setting).total
        best = min(fixed_threshold_risk(setting, float(c)).total for c in grid)
        assert opt <= best * (1.0 + 1e-12)


# -----------------------------------------------------------------------
# 3. Universal-threshold risk ratio along p = 1/m, u = 2 log m.


def test_03_universal_threshold_ratio_convergence():
    regime, rule = preset("lemma_universal")  # p=1/m, u=2 log m, c^2=2 log m
    rows = run_convergence(regime, rule)  # m = 1e2 ... 1e16
    ratios = [row.ratio for row in rows]
    tail = ratios[-10:]
    assert all(b < a for a, b in zip(tail, tail[1:])), "tail not strictly decreasing"

    # Rate and constant of the gap.  With s = 1 and delta = 1 the type I
    # term is m * 2 Phi_tail(sqrt(2 log m)) ~ 1 / sqrt(pi log m), both
    # type II terms tend to 2 Phi(1) - 1, and the oracle's type I term is
    # O(1 / log m).  So gap * sqrt(log m) -> K = 1 / ((2 Phi(1) - 1) sqrt(pi)),
    # approached from below with a correction of order
    # log log m / sqrt(log m).  A shift c^2 = 2 log m + d moves the limit
    # to K exp(-d / 2), so d = +-1 breaks one of the two bounds below.
    K = 1.0 / (math.erf(1.0 / math.sqrt(2.0)) * math.sqrt(math.pi))
    scaled = [abs(row.ratio - 1.0) * math.sqrt(math.log(row.m)) for row in rows]
    for row, s in zip(rows, scaled):
        assert s < K, f"m={row.m:.0e}: gap*sqrt(log m) = {s:.4f} >= K = {K:.4f}"
    assert all(b > a for a, b in zip(scaled, scaled[1:])), (
        f"gap*sqrt(log m) not strictly increasing: {[round(s, 4) for s in scaled]}"
    )
    assert scaled[-1] > 0.5 * K, (
        f"m={rows[-1].m:.0e}: gap*sqrt(log m) = {scaled[-1]:.4f} <= K/2 = {0.5 * K:.4f}"
    )


# -----------------------------------------------------------------------
# 4. A sub-logarithmic threshold stays bounded away from optimal.


def test_04_sublogarithmic_rule_stays_suboptimal():
    regime, rule = preset("nonconforming_sublog")  # c^2 = log v - 3 log log v
    rows = run_convergence(regime, rule)
    tail = [abs(row.ratio - 1.0) for row in rows[-10:]]
    assert min(tail) > 0.05


# -----------------------------------------------------------------------
# 5. Level-based rules: ratio convergence and threshold expansions.


def test_05_level_rule_convergence_and_expansions():
    grid = tuple(10.0**k for k in range(3, 13))

    for name in ("bfdr_fixed_alpha", "bfdr_sqrt_level", "bonferroni_extreme"):
        regime, rule = preset(name)
        rows = run_convergence(replace(regime, t_grid=grid), rule)
        gaps = [abs(row.ratio - 1.0) for row in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), name
        assert gaps[-1] < gaps[0], name

    # Exact level threshold minus its two-term log expansion -> 0.
    for name in ("bfdr_fixed_alpha", "bfdr_sqrt_level"):
        regime, _ = preset(name)
        diffs = []
        for pt in replace(regime, t_grid=grid).points():
            level = BfdrLevel(pt.alpha)
            exact = float(bfdr_threshold(MixtureModel(p=pt.p, sigma_sq=1.0, tau_sq=pt.u), level))
            approx = float(bfdr_threshold_asymptotic(pt.derived.f, level, pt.consts))
            diffs.append(abs(exact - approx))
        assert all(b < a for a, b in zip(diffs, diffs[1:])), name

    # Same for the Bonferroni threshold and its expansion.
    regime, _ = preset("bonferroni_extreme")
    diffs = []
    for pt in replace(regime, t_grid=grid).points():
        exact = float(bonferroni_threshold(pt.m, pt.alpha))
        approx = float(bonferroni_threshold_asymptotic(pt.m, pt.alpha))
        diffs.append(abs(exact - approx))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


# -----------------------------------------------------------------------
# 6. Step-up conditional false-rejection bound.


def test_06_step_up_conditional_false_rejection_bound():
    setting = TestingSetting(
        model=MixtureModel(p=0.001, sigma_sq=1.0, tau_sq=25.0),
        losses=Losses(1.0, 1.0),
        m=10**4,
    )
    rule = BhRule(alpha=0.2)

    ten = mc_conditional_k(setting, rule, 10, 5000, seed=1)
    assert ten.ev.std_error > 0.0
    assert ten.ev.mean <= bh_conditional_ev_bound(0.2, 10) + 3.0 * ten.ev.std_error

    none = mc_conditional_k(setting, rule, 0, 5000, seed=1)
    assert none.ev.mean <= bh_conditional_ev_bound(0.2, 0) + 3.0 * none.ev.std_error


# -----------------------------------------------------------------------
# 7. Step-up FDR sits at (1 - p) alpha.


def test_07_step_up_fdr_estimand():
    setting = TestingSetting(
        model=MixtureModel(p=0.02, sigma_sq=1.0, tau_sq=25.0),
        losses=Losses(1.0, 1.0),
        m=5000,
    )
    report = mc_run(setting, BhRule(alpha=0.1), 2000, seed=1)
    want = (1.0 - 0.02) * 0.1
    assert abs(report.fdr.mean - want) <= 3.0 * report.fdr.std_error
    assert report.fdr.mean <= 0.1 + 3.0 * report.fdr.std_error


# -----------------------------------------------------------------------
# 8. The realized step-up threshold concentrates at the fixed point.


def test_08_step_up_threshold_concentration():
    exceeds = []
    medians = []
    for m in (10**4, 10**5, 10**6):
        setting = TestingSetting(
            model=MixtureModel(p=m**-0.5, sigma_sq=1.0, tau_sq=2.0 * math.log(m)),
            losses=Losses(1.0 / math.log(m), 1.0),
            m=m,
        )
        study = threshold_gap_study(setting, 0.1, 500, seed=1, epsilon=0.25)
        exceeds.append(study.exceed_frac)
        medians.append(study.median_gap)
    assert all(b <= a for a, b in zip(exceeds, exceeds[1:]))
    assert exceeds[-1] < 0.05
    assert all(b < a for a, b in zip(medians, medians[1:]))


# -----------------------------------------------------------------------
# 9. Normal special functions at documented accuracy.


def test_09_normal_special_function_accuracy():
    assert abs(Phi(1.959963985) - 0.975) <= 1e-9
    assert 2.0 * Phi_tail(6.0) == pytest.approx(1.97318e-9, rel=1e-3)

    # Quantile round-trip |Phi(Phi_inv(q)) - q| <= 1e-12 over (1e-12, 1-1e-12).
    qs = np.concatenate([
        np.logspace(-12, math.log10(0.5), 200),
        1.0 - np.logspace(-12, math.log10(0.5), 200),
        np.linspace(1e-6, 1.0 - 1e-6, 101),
    ])
    back = Phi(Phi_inv(qs))
    assert float(np.max(np.abs(back - qs))) <= 1e-12

    xs = np.linspace(-8.0, 8.0, 321)
    sym = np.abs(Phi(xs) + Phi(-xs) - 1.0)
    assert float(sym.max()) <= 1e-15


# -----------------------------------------------------------------------
# 10. Identical seed, repeated runs: byte-identical CSV.


def test_10_simulation_determinism_across_workers(tmp_path):
    def run(command, out):
        assert main(command + ["--out", str(out)]) == 0
        return out.read_bytes()

    simulate = [
        "simulate", "--p", "0.02", "--u", "25", "--m", "2000",
        "--rule", "bh", "--alpha", "0.1", "--reps", "400", "--seed", "9",
    ]
    assert run(simulate, tmp_path / "s1.csv") == run(simulate, tmp_path / "s2.csv")

    convergence = [
        "convergence", "--preset", "bh_fixed_alpha", "--grid", "1e3,3e3",
        "--reps", "100", "--seed", "3",
    ]
    assert run(convergence, tmp_path / "c1.csv") == run(convergence, tmp_path / "c2.csv")
