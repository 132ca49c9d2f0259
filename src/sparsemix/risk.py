"""Bayes risk of fixed-threshold rules and threshold-optimality diagnostics.

Risk here is the expected additive loss over all m tests,

    R = m [ (1-p) t1 delta0  +  p t2 deltaA ],

split into its type I component r1 and type II component r2.  A rule is
judged by its ratio R / R_opt against the oracle; whether that ratio can
tend to 1 along a regime is characterized by two conditions on the
centred threshold z_t = c^2 - log v: z_t / log v -> 0 and
z_t + 2 log log v -> +inf.  The module reports those quantities per point
and never a boolean verdict — finitely many grid points cannot decide an
asymptotic statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _MAX, ParameterError, _c_sq
from .model import (
    AsymptoticConstants,
    TestingSetting,
    _oracle_c_sq,
    _type1,
    _type2,
    derive,
    type1_exact,
    type2_exact,
    type2_asymptotic,
)

__all__ = [
    "RiskBreakdown",
    "OptimalityDiagnostics",
    "risk_from_rates",
    "fixed_threshold_risk",
    "optimal_risk_exact",
    "optimal_risk_asymptotic",
    "risk_ratio",
    "optimality_diagnostics",
]


@dataclass(frozen=True)
class RiskBreakdown:
    """Type I component r1, type II component r2, and their sum total."""

    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ParameterError("risk components must be >= 0")

    @property
    def total(self) -> float:
        return self.r1 + self.r2


@dataclass(frozen=True)
class OptimalityDiagnostics:
    """Per-point values of the two optimality conditions; crit2 is -inf when
    v <= e, where log log v is not usable."""

    z_t: float
    ratio1: float
    crit2: float


def risk_from_rates(setting: TestingSetting, t1: float, t2: float) -> RiskBreakdown:
    """Risk of a fixed-threshold rule with type I error t1 and type II error
    t2: r1 = m (1-p) t1 delta0 and r2 = m p t2 deltaA."""
    r1, r2 = _risk_parts(setting, t1, t2)
    return RiskBreakdown(r1=r1, r2=r2)


def _risk_parts(setting: TestingSetting, t1: float, t2: float) -> tuple[float, float]:
    """risk_from_rates's (r1, r2) as floats, unchecked."""
    p = setting.model.p
    m = float(setting.m)
    return m * (1.0 - p) * t1 * setting.losses.delta0, m * p * t2 * setting.losses.deltaA


def fixed_threshold_risk(setting: TestingSetting, c_sq) -> RiskBreakdown:
    """Exact risk of "reject when X^2/sigma^2 >= c^2" under the setting."""
    return risk_from_rates(setting, type1_exact(c_sq), type2_exact(c_sq, setting.model.u))


def optimal_risk_exact(setting: TestingSetting) -> RiskBreakdown:
    """Risk of the Bayes oracle: fixed_threshold_risk at the oracle threshold.

    In the degenerate case the threshold is 0 (reject everything) and the
    risk is m (1-p) delta0 by construction.
    """
    d = derive(setting)
    return RiskBreakdown(*_oracle_parts(setting, d.u, d.log_v))


def _oracle_parts(setting: TestingSetting, u: float, log_v: float) -> tuple[float, float]:
    """optimal_risk_exact's (r1, r2) as floats for a checked u and log v: the
    oracle's c^2, clamped at 0 where rejecting everything is the Bayes rule."""
    c_sq = max(_oracle_c_sq(u, log_v), 0.0)
    return _risk_parts(setting, _type1(c_sq), _type2(c_sq, u))


def optimal_risk_asymptotic(setting: TestingSetting, consts: AsymptoticConstants) -> float:
    """Leading form of the optimal risk: m p deltaA (2 Phi(sqrt(C)) - 1) on the
    verge (C > 0), m p deltaA sqrt(2 log v / (pi u)) when C = 0.  Needs v > 1."""
    d = derive(setting)
    if d.log_v <= 0.0:
        raise ParameterError("optimal_risk_asymptotic requires v > 1")
    if consts.C > 0.0:
        t2 = type2_asymptotic(d.u, d.v, consts)  # constant in v; v unused
    else:
        t2 = math.sqrt(2.0 * d.log_v / (math.pi * d.u))
    return float(setting.m) * setting.model.p * setting.losses.deltaA * t2


def risk_ratio(rule_risk: RiskBreakdown, opt: RiskBreakdown) -> float:
    """R / R_opt.  >= 1 up to ~1e-12 noise whenever opt is the exact oracle risk."""
    if opt.total == 0.0:
        raise ParameterError("optimal risk is zero; ratio undefined")
    return rule_risk.total / opt.total


def optimality_diagnostics(c_sq, v: float | None = None, *, log_v: float | None = None) -> OptimalityDiagnostics:
    """Centred threshold z_t = c^2 - log v and the two condition values.

    Accepts log_v directly for regimes where v overflows.  Requires v > 1;
    crit2 is reported as -inf for v <= e.
    """
    if (v is None) == (log_v is None):
        raise ParameterError("supply exactly one of v or log_v")
    if log_v is None:
        if not 1.0 < v <= _MAX:
            raise ParameterError("optimality_diagnostics requires v > 1")
        lv = math.log(float(v))
    else:
        if not 0.0 < log_v <= _MAX:
            raise ParameterError("optimality_diagnostics requires log v > 0")
        lv = float(log_v)
    return OptimalityDiagnostics(*_diagnostics(_c_sq(c_sq), lv))


def _diagnostics(c_sq: float, log_v: float) -> tuple[float, float, float]:
    """optimality_diagnostics's (z_t, ratio1, crit2) for a checked c^2 and
    log v > 0."""
    z_t = c_sq - log_v
    return z_t, z_t / log_v, (z_t + 2.0 * math.log(log_v) if log_v > 1.0 else -math.inf)
