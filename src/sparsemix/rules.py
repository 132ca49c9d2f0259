"""Procedure descriptors: small frozen values naming a testing rule.

A rule is data, not behavior — the same descriptor is resolved to a fixed
squared threshold for the exact risk engine, or applied to a realized sample
by the Monte-Carlo runner.  Descriptors with ``alpha=None`` (or ``n=None``
for the replicate rule) are templates: regime presets fill the missing
field per grid point, e.g. a level schedule alpha_m = 1/log m.

The step-up procedure is the one rule without a data-independent threshold,
so it supports only sample application; asking for its fixed threshold is an
error by design rather than an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bfdr import BfdrLevel, bfdr_threshold, gw_threshold
from .errors import ParameterError
from .model import TestingSetting, ThresholdSq, derive, oracle_threshold_sq
from .procedures import (
    RejectionResult,
    bh_reject,
    bonferroni_threshold,
    fixed_threshold_reject,
    pvalues,
    replicate_threshold,
    universal_threshold,
)

__all__ = [
    "FixedThresholdRule",
    "OracleRule",
    "UniversalRule",
    "ReplicateRule",
    "BonferroniRule",
    "BfdrRule",
    "GwRule",
    "LogVRule",
    "BhRule",
    "Rule",
    "is_fixed_threshold",
    "fill_rule",
    "threshold_sq",
    "apply_rule",
    "rule_to_config",
    "rule_from_config",
]


def _check_optional_level(alpha) -> None:
    if alpha is not None and not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0,1), got {alpha!r}")


@dataclass(frozen=True)
class FixedThresholdRule:
    """Reject when X^2/sigma^2 >= c_sq, for a caller-chosen constant."""

    c_sq: float

    def __post_init__(self):
        ThresholdSq(float(self.c_sq))


@dataclass(frozen=True)
class OracleRule:
    """The Bayes rule at the true mixture parameters."""


@dataclass(frozen=True)
class UniversalRule:
    """c^2 = 2 log m + d."""

    d: float = 0.0


@dataclass(frozen=True)
class ReplicateRule:
    """c^2 = log n + 2 log m + d; n may be supplied later by a regime."""

    n: float | None = None
    d: float = 0.0


@dataclass(frozen=True)
class BonferroniRule:
    alpha: float | None = None

    def __post_init__(self):
        _check_optional_level(self.alpha)


@dataclass(frozen=True)
class BfdrRule:
    """Threshold chosen so the rule's Bayesian FDR equals alpha."""

    alpha: float | None = None

    def __post_init__(self):
        _check_optional_level(self.alpha)


@dataclass(frozen=True)
class GwRule:
    """Threshold solving the fixed-point equation the step-up rule tracks."""

    alpha: float | None = None

    def __post_init__(self):
        _check_optional_level(self.alpha)


@dataclass(frozen=True)
class LogVRule:
    """c^2 = log v + loglog_coeff * log log v + offset, floored at 0.

    Deliberately parametrized relative to log v so that non-conforming
    choices (e.g. loglog_coeff = -3) can probe the necessity direction of
    the optimality conditions.
    """

    loglog_coeff: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.loglog_coeff) and np.isfinite(self.offset)):
            raise ParameterError("loglog_coeff and offset must be finite")


@dataclass(frozen=True)
class BhRule:
    """Step-up procedure at level alpha; data-dependent threshold."""

    alpha: float | None = None

    def __post_init__(self):
        _check_optional_level(self.alpha)


Rule = (
    FixedThresholdRule
    | OracleRule
    | UniversalRule
    | ReplicateRule
    | BonferroniRule
    | BfdrRule
    | GwRule
    | LogVRule
    | BhRule
)

_KINDS: dict[type, str] = {
    FixedThresholdRule: "fixed",
    OracleRule: "oracle",
    UniversalRule: "universal",
    ReplicateRule: "replicate",
    BonferroniRule: "bonferroni",
    BfdrRule: "bfdr",
    GwRule: "gw",
    LogVRule: "logv",
    BhRule: "bh",
}
_BY_KIND = {kind: cls for cls, kind in _KINDS.items()}


def is_fixed_threshold(rule: Rule) -> bool:
    """True for every rule whose threshold does not depend on the data."""
    _kind_of(rule)
    return not isinstance(rule, BhRule)


def _kind_of(rule: Rule) -> str:
    try:
        return _KINDS[type(rule)]
    except KeyError:
        raise ParameterError(f"unknown rule descriptor {rule!r}") from None


def fill_rule(rule: Rule, *, alpha: float | None = None, n: float | None = None) -> Rule:
    """Complete a template rule with per-point alpha and/or n; set fields win."""
    _kind_of(rule)
    if isinstance(rule, (BonferroniRule, BfdrRule, GwRule, BhRule)) and rule.alpha is None:
        if alpha is not None:
            rule = replace(rule, alpha=alpha)
    if isinstance(rule, ReplicateRule) and rule.n is None and n is not None:
        rule = replace(rule, n=n)
    return rule


def _need_alpha(rule) -> float:
    if rule.alpha is None:
        raise ParameterError(
            f"{_kind_of(rule)} rule has no level: set alpha or use a regime that provides one"
        )
    return rule.alpha


def threshold_sq(rule: Rule, setting: TestingSetting) -> ThresholdSq:
    """The data-independent squared threshold a rule applies under a setting."""
    kind = _kind_of(rule)
    if isinstance(rule, FixedThresholdRule):
        return ThresholdSq(float(rule.c_sq))
    if isinstance(rule, OracleRule):
        d = derive(setting)
        return oracle_threshold_sq(d.u, log_v=d.log_v)
    if isinstance(rule, UniversalRule):
        return universal_threshold(setting.m, rule.d)
    if isinstance(rule, ReplicateRule):
        if rule.n is None:
            raise ParameterError("replicate rule has no n: set it or use a regime that provides one")
        return replicate_threshold(setting.m, rule.n, rule.d)
    if isinstance(rule, BonferroniRule):
        return bonferroni_threshold(setting.m, _need_alpha(rule))
    if isinstance(rule, BfdrRule):
        return bfdr_threshold(setting.model, BfdrLevel(_need_alpha(rule)))
    if isinstance(rule, GwRule):
        return gw_threshold(setting.model, BfdrLevel(_need_alpha(rule)))
    if isinstance(rule, LogVRule):
        lv = derive(setting).log_v
        if lv <= 0.0:
            raise ParameterError("logv rule requires v > 1")
        return ThresholdSq(max(lv + rule.loglog_coeff * math.log(lv) + rule.offset, 0.0))
    raise ParameterError(f"{kind} rule has no fixed threshold; use the Monte-Carlo runner")


def _decision(rule: Rule, setting: TestingSetting, *, overwrite: bool = False):
    """Resolve a rule under a setting into x -> RejectionResult, once.

    A fixed rule's threshold is computed here rather than per sample.  With
    ``overwrite`` the step-up rule turns x into its p-values in place, for
    callers that own x and need it no further.
    """
    sigma = setting.model.sigma
    if isinstance(rule, BhRule):
        alpha = _need_alpha(rule)
        return lambda x: bh_reject(pvalues(x, sigma, out=x if overwrite else None), alpha)
    c_sq = threshold_sq(rule, setting)
    return lambda x: fixed_threshold_reject(x, sigma, c_sq)


def apply_rule(rule: Rule, x, setting: TestingSetting) -> RejectionResult:
    """Apply a rule to one sample of test statistics."""
    return _decision(rule, setting)(x)


def rule_to_config(rule: Rule) -> dict:
    """Serializable {kind, **fields} form, inverse of rule_from_config."""
    kind = _kind_of(rule)
    out: dict = {"kind": kind}
    for field in type(rule).__dataclass_fields__:
        value = getattr(rule, field)
        if value is not None:
            out[field] = value
    return out


def rule_from_config(config: dict) -> Rule:
    """Build a rule from {kind, **fields}; unknown kinds and fields rejected."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ParameterError("rule config must be an object with a 'kind' field")
    kind = config["kind"]
    cls = _BY_KIND.get(kind)
    if cls is None:
        raise ParameterError(f"unknown rule kind {kind!r}; expected one of {sorted(_BY_KIND)}")
    params = {k: v for k, v in config.items() if k != "kind"}
    allowed = set(cls.__dataclass_fields__)
    extra = set(params) - allowed
    if extra:
        raise ParameterError(f"rule kind {kind!r} does not accept {sorted(extra)}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for rule kind {kind!r}: {exc}") from None
