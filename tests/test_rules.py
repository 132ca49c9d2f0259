"""Rule descriptors: resolution to thresholds, sample application, config round-trip."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from sparsemix import (
    BfdrLevel,
    BfdrRule,
    BhRule,
    BonferroniRule,
    FixedThresholdRule,
    GwRule,
    Losses,
    LogVRule,
    MixtureModel,
    OracleRule,
    ConfigError,
    ParameterError,
    ReplicateRule,
    TestingSetting,
    UniversalRule,
    apply_rule,
    bfdr_threshold,
    bh_reject,
    bonferroni_threshold,
    derive,
    fill_rule,
    gw_threshold,
    is_fixed_threshold,
    oracle_threshold_sq,
    pvalues,
    replicate_threshold,
    rule_from_config,
    rule_to_config,
    threshold_sq,
    universal_threshold,
)


def _setting(p=0.05, u=9.0, m=100.0, delta0=1.0, deltaA=1.0):
    return TestingSetting(
        model=MixtureModel(p=p, sigma_sq=1.0, tau_sq=u),
        losses=Losses(delta0, deltaA),
        m=m,
    )


ALL_RULES = [
    FixedThresholdRule(c_sq=4.0),
    OracleRule(),
    UniversalRule(d=0.5),
    ReplicateRule(n=10.0),
    BonferroniRule(alpha=0.05),
    BfdrRule(alpha=0.1),
    GwRule(alpha=0.1),
    LogVRule(loglog_coeff=-3.0),
    BhRule(alpha=0.1),
]


def test_is_fixed_threshold():
    for rule in ALL_RULES:
        assert is_fixed_threshold(rule) == (not isinstance(rule, BhRule))


def test_threshold_dispatch_matches_direct_functions():
    setting = _setting()
    d = derive(setting)
    cases = [
        (FixedThresholdRule(c_sq=4.0), 4.0),
        (OracleRule(), float(oracle_threshold_sq(d.u, log_v=d.log_v))),
        (UniversalRule(d=0.5), float(universal_threshold(setting.m, 0.5))),
        (ReplicateRule(n=10.0), float(replicate_threshold(setting.m, 10.0))),
        (BonferroniRule(alpha=0.05), float(bonferroni_threshold(setting.m, 0.05))),
        (BfdrRule(alpha=0.1), float(bfdr_threshold(setting.model, BfdrLevel(0.1)))),
        (GwRule(alpha=0.1), float(gw_threshold(setting.model, BfdrLevel(0.1)))),
    ]
    for rule, want in cases:
        assert float(threshold_sq(rule, setting)) == pytest.approx(want, rel=1e-14)


def test_logv_rule_formula():
    setting = _setting()
    lv = derive(setting).log_v
    rule = LogVRule(loglog_coeff=-3.0, offset=1.0)
    assert float(threshold_sq(rule, setting)) == pytest.approx(
        max(lv - 3.0 * math.log(lv) + 1.0, 0.0), rel=1e-14
    )
    # Heavily negative offsets floor at zero.
    floored = LogVRule(loglog_coeff=0.0, offset=-1e6)
    assert float(threshold_sq(floored, setting)) == 0.0


def test_logv_rule_needs_v_above_one():
    with pytest.raises(ParameterError):
        threshold_sq(LogVRule(), _setting(p=0.5, u=1.0))


def test_bh_has_no_fixed_threshold():
    with pytest.raises(ParameterError):
        threshold_sq(BhRule(alpha=0.1), _setting())


def test_threshold_sq_refuses_an_unknown_descriptor():
    with pytest.raises(ParameterError, match="^unknown rule descriptor <object object at "):
        threshold_sq(object(), _setting())


def test_template_rules_need_their_level():
    with pytest.raises(ParameterError):
        threshold_sq(BonferroniRule(), _setting())
    with pytest.raises(ParameterError):
        threshold_sq(ReplicateRule(), _setting())


def test_fill_rule_supplies_missing_fields():
    assert fill_rule(BfdrRule(), alpha=0.2) == BfdrRule(alpha=0.2)
    assert fill_rule(ReplicateRule(), n=7.0) == ReplicateRule(n=7.0)
    # Set fields win over the fill.
    assert fill_rule(BfdrRule(alpha=0.3), alpha=0.2) == BfdrRule(alpha=0.3)
    # Rules without the field pass through unchanged.
    assert fill_rule(UniversalRule(), alpha=0.2) == UniversalRule()


def test_apply_rule_fixed_matches_manual():
    setting = _setting(m=500.0)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500)
    result = apply_rule(UniversalRule(), x, setting)
    want = (x**2 >= float(universal_threshold(500.0))).sum()
    assert result.num_rejected == want


def test_apply_rule_bh_matches_manual():
    setting = _setting(m=500.0)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(500) * 1.7
    result = apply_rule(BhRule(alpha=0.2), x, setting)
    want = bh_reject(pvalues(x, 1.0), 0.2)
    np.testing.assert_array_equal(result.rejected, want.rejected)


def _stand_in_setting(sigma, m=500.0):
    """What apply_rule reads of a setting.  A MixtureModel only holds a
    finite positive sigma; this reaches apply_rule's own checks with any."""
    return SimpleNamespace(m=m, model=SimpleNamespace(sigma=sigma))


def test_apply_rule_reports_a_missing_level_before_x():
    with pytest.raises(ParameterError, match="bh rule has no level"):
        apply_rule(BhRule(), np.array([0.5, np.nan]), _setting(m=2.0))


@pytest.mark.parametrize(
    "x, sigma",
    [
        ([0.5, np.nan], 1.0),
        ([np.inf, 0.5], 1.0),
        ([0.5, np.nan], 0.0),  # x before sigma
        ([[np.nan]], 1.0),  # x before the shape
        ([0.5], 0.0),
        ([0.5], np.nan),
        ([], 0.0),  # sigma before the shape
        ([[0.1, 0.2]], 1.0),
        ([], 1.0),
    ],
)
def test_apply_rule_bh_errors_match_the_p_value_path(x, sigma):
    x = np.asarray(x, dtype=float)
    with pytest.raises(ParameterError) as want:
        bh_reject(pvalues(x, sigma), 0.1)
    with pytest.raises(ParameterError) as got:
        apply_rule(BhRule(alpha=0.1), x, _stand_in_setting(sigma))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("rule", [FixedThresholdRule(c_sq=4.0), UniversalRule()])
@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_apply_rule_fixed_checks_x_before_sigma(rule, sigma):
    with pytest.raises(ParameterError, match="x must be finite"):
        apply_rule(rule, np.array([0.5, np.nan]), _stand_in_setting(sigma))


def test_rule_config_round_trip():
    for rule in ALL_RULES:
        assert rule_from_config(rule_to_config(rule)) == rule


def test_rule_config_omits_unset_fields():
    cfg = rule_to_config(BfdrRule())
    assert cfg == {"kind": "bfdr"}
    assert rule_from_config(cfg) == BfdrRule()


def test_rule_config_rejects_unknowns():
    with pytest.raises(ParameterError):
        rule_from_config({"kind": "martingale"})
    with pytest.raises(ParameterError):
        rule_from_config({"kind": "universal", "alpha": 0.1})
    with pytest.raises(ParameterError):
        rule_from_config({"no_kind": True})


@pytest.mark.parametrize("config, path", [
    ({"kind": "universal", "d": "x"}, "rule.d"),
    ({"kind": "replicate", "n": "3"}, "rule.n"),
    ({"kind": "bfdr", "alpha": True}, "rule.alpha"),
    ({"kind": "fixed"}, "rule.c_sq"),
    ({"kind": "universal", "alpha": 0.1}, "rule.alpha"),
    ({"kind": ["bh"]}, "rule.kind"),
    ([], "rule"),
])
def test_rule_config_errors_name_the_field(config, path):
    with pytest.raises(ConfigError) as exc:
        rule_from_config(config)
    assert exc.value.path == path
    assert isinstance(exc.value, ParameterError)


def test_rule_config_fields_are_read_as_floats():
    rule = rule_from_config({"kind": "replicate", "n": 3, "d": None})
    assert rule == ReplicateRule(n=3.0) and type(rule.n) is float


def test_rule_validation():
    with pytest.raises(ParameterError):
        FixedThresholdRule(c_sq=-1.0)
    with pytest.raises(ParameterError):
        BfdrRule(alpha=1.5)
    with pytest.raises(ParameterError):
        LogVRule(loglog_coeff=math.inf)
