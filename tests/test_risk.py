"""Exact and asymptotic Bayes risk; threshold-optimality diagnostics."""

import math

import numpy as np
import pytest

from sparsemix import (
    AsymptoticConstants,
    Losses,
    MixtureModel,
    ParameterError,
    RiskBreakdown,
    TestingSetting,
    derive,
    fixed_threshold_risk,
    optimal_risk_asymptotic,
    optimal_risk_exact,
    optimality_diagnostics,
    oracle_threshold_sq,
    risk_ratio,
)


def _setting(p=0.1, u=3.0, delta0=1.0, deltaA=1.0, m=1.0, sigma_sq=1.0):
    return TestingSetting(
        model=MixtureModel(p=p, sigma_sq=sigma_sq, tau_sq=u * sigma_sq),
        losses=Losses(delta0=delta0, deltaA=deltaA),
        m=m,
    )


def test_risk_breakdown_consistency():
    """total is computed as r1 + r2, so it cannot be passed in."""
    for r1, r2 in ((0.1, 0.2), (0.0, 0.0), (1e300, 1e300), (3.5e-7, 12.25)):
        assert RiskBreakdown(r1=r1, r2=r2).total == r1 + r2
    with pytest.raises(TypeError):
        RiskBreakdown(r1=0.1, r2=0.2, total=0.3)
    with pytest.raises(ParameterError):
        RiskBreakdown(r1=-0.1, r2=0.2)
    with pytest.raises(ParameterError):
        RiskBreakdown(r1=0.1, r2=-0.2)


def test_fixed_threshold_risk_hand_value():
    """0.9 * 0.157299 + 0.1 * 0.520500 at c^2 = 2."""
    breakdown = fixed_threshold_risk(_setting(), 2.0)
    assert breakdown.total == pytest.approx(0.193619, abs=1e-5)
    assert breakdown.total == pytest.approx(breakdown.r1 + breakdown.r2, rel=1e-15)


def test_fixed_threshold_risk_reject_all():
    setting = _setting(p=0.3, delta0=2.0, m=7.0)
    breakdown = fixed_threshold_risk(setting, 0.0)
    assert breakdown.r2 == 0.0
    assert breakdown.total == pytest.approx(7.0 * 0.7 * 2.0, rel=1e-14)


def test_fixed_threshold_risk_accept_all():
    setting = _setting(p=0.3, deltaA=2.0, m=7.0)
    breakdown = fixed_threshold_risk(setting, 1e6)
    assert breakdown.total == pytest.approx(7.0 * 0.3 * 2.0, abs=1e-9)


def test_fixed_threshold_risk_scales_with_m():
    one = fixed_threshold_risk(_setting(m=1.0), 2.0)
    many = fixed_threshold_risk(_setting(m=250.0), 2.0)
    assert many.total == pytest.approx(250.0 * one.total, rel=1e-14)


def test_optimal_risk_hand_value():
    """Oracle threshold (4/3)(log 4 + 2 log 9) ~ 7.708 gives risk ~ 0.088436."""
    setting = _setting()
    d = derive(setting)
    c_sq = oracle_threshold_sq(d.u, d.v)
    assert float(c_sq) == pytest.approx((4.0 / 3.0) * (math.log(4.0) + 2.0 * math.log(9.0)), rel=1e-13)
    assert optimal_risk_exact(setting).total == pytest.approx(0.088436, abs=1e-4)


def test_optimal_risk_beats_grid():
    """No fixed threshold beats the oracle (up to 1e-12 relative slack)."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        setting = _setting(
            p=rng.uniform(0.001, 0.9),
            u=rng.uniform(0.2, 40.0),
            delta0=rng.uniform(0.2, 5.0),
            deltaA=rng.uniform(0.2, 5.0),
            m=rng.uniform(1.0, 1e4),
        )
        opt = optimal_risk_exact(setting).total
        grid = np.linspace(0.0, 80.0, 2000)
        totals = [fixed_threshold_risk(setting, c).total for c in grid]
        assert min(totals) >= opt * (1.0 - 1e-12)


def test_optimal_risk_degenerate_case():
    """A negative unconstrained cutoff clamps to reject-everything."""
    setting = _setting(p=0.9, u=0.5)
    d = derive(setting)
    assert oracle_threshold_sq(d.u, d.v).degenerate
    breakdown = optimal_risk_exact(setting)
    assert breakdown.total == pytest.approx((1.0 - 0.9) * 1.0, rel=1e-14)
    assert breakdown.r2 == 0.0


def test_optimal_risk_asymptotic_c0():
    setting = _setting(p=0.01, u=100.0, m=1000.0)
    # v = 100 * 99^2 ~ e^13.8; force log v = 10 by picking delta accordingly.
    d = derive(setting)
    target_delta = math.exp((10.0 - math.log(d.u) - 2.0 * math.log(d.f)) / 2.0)
    setting = _setting(p=0.01, u=100.0, m=1000.0, delta0=target_delta)
    assert derive(setting).log_v == pytest.approx(10.0, abs=1e-12)
    value = optimal_risk_asymptotic(setting, AsymptoticConstants(0.0))
    assert value == pytest.approx(1000.0 * 0.01 * 0.252313, abs=2e-4)
    assert value == pytest.approx(2.52313, abs=2e-3)


def test_optimal_risk_asymptotic_verge():
    """C > 0: risk -> m p deltaA (2 Phi(sqrt(C)) - 1)."""
    setting = _setting(p=0.05, u=20.0, deltaA=1.0, m=100.0)
    value = optimal_risk_asymptotic(setting, AsymptoticConstants(1.0))
    assert value == pytest.approx(100.0 * 0.05 * 0.682689, abs=1e-4)


def test_optimal_risk_asymptotic_tracks_exact():
    """exact / asymptotic -> 1 along u = 2 log m, p = 1/m (C = 1)."""
    consts = AsymptoticConstants(1.0)
    ratios = []
    for k in (4, 8, 12, 16):
        m = 10.0**k
        setting = _setting(p=1.0 / m, u=2.0 * math.log(m), m=m)
        ratios.append(optimal_risk_exact(setting).total / optimal_risk_asymptotic(setting, consts))
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=0.05)


def test_optimal_risk_asymptotic_requires_v_above_one():
    with pytest.raises(ParameterError):
        optimal_risk_asymptotic(_setting(p=0.5, u=1.0), AsymptoticConstants(0.0))


def test_risk_ratio_oracle_is_one():
    setting = _setting()
    opt = optimal_risk_exact(setting)
    assert risk_ratio(opt, opt) == pytest.approx(1.0, abs=1e-12)


def test_risk_ratio_detects_suboptimality():
    setting = _setting()
    d = derive(setting)
    off = fixed_threshold_risk(setting, float(oracle_threshold_sq(d.u, d.v)) + 10.0)
    assert risk_ratio(off, optimal_risk_exact(setting)) > 1.0


def test_risk_ratio_shrinks_along_regime():
    """Universal threshold c^2 = 2 log m against the oracle: closer at larger m."""

    def ratio_at(m):
        setting = _setting(p=1.0 / m, u=2.0 * math.log(m), m=m)
        rule = fixed_threshold_risk(setting, 2.0 * math.log(m))
        return risk_ratio(rule, optimal_risk_exact(setting))

    assert ratio_at(1e6) < ratio_at(1e3)


def test_optimality_diagnostics_exact_threshold():
    diag = optimality_diagnostics(math.log(50.0), v=50.0)
    assert diag.z_t == pytest.approx(0.0, abs=1e-14)
    assert diag.ratio1 == pytest.approx(0.0, abs=1e-14)


def test_optimality_diagnostics_hand_value():
    """Oracle threshold at u=100, log v=10: z_t = 1.01 (10 + log 1.01) - 10."""
    c_sq = oracle_threshold_sq(100.0, log_v=10.0)
    diag = optimality_diagnostics(c_sq, log_v=10.0)
    assert diag.z_t == pytest.approx(1.01 * (10.0 + math.log(1.01)) - 10.0, rel=1e-12)
    assert diag.z_t == pytest.approx(0.11005, abs=1e-5)


def test_optimality_diagnostics_trends():
    """Along p=1/m, u=2 log m, c^2=2 log m: ratio1 -> 0 and crit2 -> inf."""
    rows = []
    for k in range(6, 17):
        m = 10.0**k
        setting = _setting(p=1.0 / m, u=2.0 * math.log(m), m=m)
        rows.append(optimality_diagnostics(2.0 * math.log(m), log_v=derive(setting).log_v))
    ratio1 = [abs(r.ratio1) for r in rows]
    crit2 = [r.crit2 for r in rows]
    # crit2 diverges at log-log rate, so a finite grid can only certify
    # the direction of travel, not a large increment.
    assert all(b < a for a, b in zip(ratio1, ratio1[1:]))
    assert all(b > a for a, b in zip(crit2, crit2[1:]))


def test_optimality_diagnostics_lower_bound():
    """z_t >= -log v for any admissible threshold (c^2 >= 0)."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        log_v = rng.uniform(0.1, 50.0)
        c_sq = rng.uniform(0.0, 100.0)
        assert optimality_diagnostics(c_sq, log_v=log_v).z_t >= -log_v


def test_optimality_diagnostics_crit2_marker():
    """For v <= e the second condition has no defined value: -inf marker."""
    diag = optimality_diagnostics(1.0, v=2.0)  # log v < 1
    assert diag.crit2 == -math.inf


def test_optimality_diagnostics_domain():
    with pytest.raises(ParameterError):
        optimality_diagnostics(1.0, v=0.5)
    with pytest.raises(ParameterError):
        optimality_diagnostics(1.0)
    with pytest.raises(ParameterError):
        optimality_diagnostics(1.0, v=2.0, log_v=1.0)
    with pytest.raises(ParameterError):
        optimality_diagnostics(-1.0, v=2.0)


def test_optimality_diagnostics_requires_a_positive_log_v():
    with pytest.raises(ParameterError, match="^optimality_diagnostics requires log v > 0$"):
        optimality_diagnostics(1.0, log_v=0.0)


def test_risk_ratio_refuses_a_zero_optimum():
    with pytest.raises(ParameterError, match="^optimal risk is zero; ratio undefined$"):
        risk_ratio(RiskBreakdown(1.0, 0.5), RiskBreakdown(0.0, 0.0))
