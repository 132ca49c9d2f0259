"""Every scalar parameter of the library is checked against its domain by one
helper per quantity: a real outside the domain (nan, an infinity, a Python
int beyond the float range, or a plain out-of-range value, also as a numpy
scalar) raises ParameterError with that quantity's one message, and a value
inside it gives the same result whatever its numeric type.  A count is an
integer: a bool or a float such as 2.0 is outside its domain, and a Python
or numpy integer inside it gives the same result."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemix import (
    AsymptoticConstants,
    BfdrLevel,
    BfdrRule,
    BhRule,
    BonferroniRule,
    ConfusionCounts,
    ConstantDelta,
    DecayingDelta,
    DerivedParams,
    ExtremeSparsity,
    FixedThresholdRule,
    GwRule,
    LogVRule,
    Losses,
    McEstimate,
    MixtureModel,
    ParameterError,
    Phi,
    Phi_inv,
    Phi_tail,
    PowerSparsity,
    RegimePoint,
    TestingSetting,
    ThresholdSq,
    bfdr_of_threshold,
    bfdr_threshold_asymptotic,
    bh_conditional_ev_bound,
    bh_reject,
    bonferroni_threshold,
    bonferroni_threshold_asymptotic,
    fill_rule,
    fixed_threshold_reject,
    mc_conditional_k,
    mc_run,
    normal_tail_approx,
    optimality_diagnostics,
    oracle_bfdr_asymptotic_finite,
    oracle_threshold_sq,
    phi,
    preset,
    pvalues,
    regime_verge,
    replicate_threshold,
    rule_to_config,
    threshold_gap_study,
    type1_asymptotic,
    type1_exact,
    type2_asymptotic,
    type2_exact,
    universal_threshold,
)

HUGE = 10**400  # a real beyond the float range

# The one message of each quantity, given the parameter's name.
MESSAGES = {
    "level": "{} must lie in (0,1), got {!r}",
    "positive": "{} must be a finite positive real, got {!r}",
    "at_least_one": "{} must be >= 1, got {!r}",
    "c_sq": "{} must be >= 0, got {!r}",
    "finite": "{} must be finite, got {!r}",
    "finite_array": "{} must be finite",
}

_NONFINITE = [math.nan, math.inf, -math.inf, HUGE, -HUGE]
_NONPOSITIVE = [0.0, -1.0, 0, -1]
OUTSIDE = {
    "level": _NONFINITE + _NONPOSITIVE + [1.0, 1],
    "positive": _NONFINITE + _NONPOSITIVE,
    "at_least_one": _NONFINITE + _NONPOSITIVE + [0.5],
    "c_sq": [math.nan, -math.inf, HUGE, -HUGE, -1.0, -1, -1e-300],
    "finite": _NONFINITE,
    "finite_array": _NONFINITE,
}


def _with_numpy_forms(values):
    """The values and, where a double holds them, their np.float64 forms."""
    return values + [np.float64(v) for v in values if abs(v) != HUGE]


# Levels reach the smallest double, where the Bonferroni tail alpha/(2m)
# underflows to 0.
LEVEL = st.floats(5e-324, 1.0, exclude_max=True)
POSITIVE = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 1000))
AT_LEAST_ONE = st.one_of(st.floats(1.0, 1e12), st.integers(1, 10**6))
C_SQ = st.one_of(st.floats(0.0, 1e4), st.integers(0, 10**4), st.just(math.inf))
FINITE = st.one_of(st.floats(-1e3, 1e3), st.integers(-1000, 1000))
# A regime point's p keeps f = (1 - p) / p finite: at p = 5e-324, f overflows.
POINT_P = st.floats(1e-300, 1.0, exclude_max=True)

MODEL = MixtureModel(p=0.01, sigma_sq=1.0, tau_sq=9.0)
CONSTS = AsymptoticConstants(1.0)
X = np.array([0.3, -2.5, 4.0])


def _point(**kwargs):
    fields = dict(m=100.0, p=0.01, u=5.0, delta=1.0, consts=CONSTS)
    return RegimePoint(**{**fields, **kwargs})


def _verge(beta=2.0, **kwargs):
    return regime_verge(beta, PowerSparsity(0.5), ConstantDelta(), t_grid=(1e4, 1e6), **kwargs).points()


# (quantity, parameter name, entry point of one argument, values inside the domain)
ENTRIES = {
    # Levels.
    "BfdrLevel": ("level", "alpha", BfdrLevel, LEVEL),
    "bh_reject": ("level", "alpha", lambda a: bh_reject([0.001, 0.3, 0.9], a), LEVEL),
    "bonferroni_threshold.alpha": ("level", "alpha", lambda a: bonferroni_threshold(10, a), LEVEL),
    "bonferroni_threshold_asymptotic.alpha": (
        "level", "alpha", lambda a: bonferroni_threshold_asymptotic(1e6, a), LEVEL),
    "BonferroniRule": ("level", "alpha", lambda a: BonferroniRule(alpha=a), LEVEL),
    "BfdrRule": ("level", "alpha", lambda a: BfdrRule(alpha=a), LEVEL),
    "GwRule": ("level", "alpha", lambda a: GwRule(alpha=a), LEVEL),
    "BhRule": ("level", "alpha", lambda a: BhRule(alpha=a), LEVEL),
    "fill_rule": ("level", "alpha", lambda a: fill_rule(BfdrRule(), alpha=a), LEVEL),
    "RegimePoint.alpha": ("level", "alpha", lambda a: _point(alpha=a), LEVEL),
    "RegimePoint.p": ("level", "p", lambda p: _point(p=p), POINT_P),
    "bh_conditional_ev_bound": ("level", "alpha", lambda a: bh_conditional_ev_bound(a, 3), LEVEL),
    "MixtureModel.p": ("level", "p", lambda p: MixtureModel(p, 1.0, 1.0), LEVEL),
    # Finite positive reals.
    "MixtureModel.sigma_sq": ("positive", "sigma_sq", lambda s: MixtureModel(0.1, s, 1.0), POSITIVE),
    "MixtureModel.tau_sq": ("positive", "tau_sq", lambda t: MixtureModel(0.1, 1.0, t), POSITIVE),
    "Losses.delta0": ("positive", "delta0", lambda d: Losses(d, 1.0), POSITIVE),
    "Losses.deltaA": ("positive", "deltaA", lambda d: Losses(1.0, d), POSITIVE),
    "DerivedParams.u": ("positive", "u", lambda u: DerivedParams(u=u, f=9.0, delta=1.0), POSITIVE),
    "DerivedParams.f": ("positive", "f", lambda f: DerivedParams(u=4.0, f=f, delta=1.0), POSITIVE),
    "DerivedParams.delta": (
        "positive", "delta", lambda d: DerivedParams(u=4.0, f=9.0, delta=d), POSITIVE),
    "oracle_threshold_sq.u": ("positive", "u", lambda u: oracle_threshold_sq(u, 50.0), POSITIVE),
    "oracle_threshold_sq.v": ("positive", "v", lambda v: oracle_threshold_sq(4.0, v), POSITIVE),
    "type2_exact.u": ("positive", "u", lambda u: type2_exact(4.0, u), POSITIVE),
    "type1_asymptotic": ("positive", "v", lambda v: type1_asymptotic(v, CONSTS), st.floats(1.5, 1e12)),
    "type2_asymptotic": ("positive", "u", lambda u: type2_asymptotic(u, 50.0, CONSTS), POSITIVE),
    "pvalues": ("positive", "sigma", lambda s: pvalues(X, s), POSITIVE),
    "fixed_threshold_reject": ("positive", "sigma", lambda s: fixed_threshold_reject(X, s, 4.0), POSITIVE),
    "PowerSparsity.a": ("positive", "a", lambda a: PowerSparsity(0.5, a=a), POSITIVE),
    "ExtremeSparsity.s": ("positive", "s", lambda s: ExtremeSparsity(s=s), POSITIVE),
    "ConstantDelta": ("positive", "delta", ConstantDelta, POSITIVE),
    "DecayingDelta": ("positive", "g", DecayingDelta, POSITIVE),
    "regime_verge.beta": ("positive", "beta", lambda b: _verge(beta=b), POSITIVE),
    "bfdr_threshold_asymptotic": (
        "positive", "f", lambda f: bfdr_threshold_asymptotic(f, BfdrLevel(0.1), CONSTS),
        st.floats(1e2, 1e300)),
    "normal_tail_approx": ("positive", "c", normal_tail_approx, POSITIVE),
    # Reals >= 1.
    "TestingSetting.m": ("at_least_one", "m", lambda m: TestingSetting(MODEL, Losses(1.0, 1.0), m), AT_LEAST_ONE),
    "RegimePoint.m": ("at_least_one", "m", lambda m: _point(m=m), AT_LEAST_ONE),
    "bonferroni_threshold.m": ("at_least_one", "m", lambda m: bonferroni_threshold(m, 0.1), AT_LEAST_ONE),
    "bonferroni_threshold_asymptotic.m": (
        "at_least_one", "m", lambda m: bonferroni_threshold_asymptotic(m, 0.1), AT_LEAST_ONE),
    "universal_threshold.m": ("at_least_one", "m", universal_threshold, AT_LEAST_ONE),
    "replicate_threshold.m": ("at_least_one", "m", lambda m: replicate_threshold(m, 4.0), AT_LEAST_ONE),
    "replicate_threshold.n": ("at_least_one", "n", lambda n: replicate_threshold(1e4, n), AT_LEAST_ONE),
    # Squared thresholds.
    "ThresholdSq": ("c_sq", "threshold c^2", ThresholdSq, C_SQ),
    "fixed_threshold_reject.c_sq": (
        "c_sq", "threshold c^2", lambda c: fixed_threshold_reject(X, 1.0, c), C_SQ),
    "FixedThresholdRule": ("c_sq", "c_sq", lambda c: FixedThresholdRule(c_sq=c), C_SQ),
    "type1_exact": ("c_sq", "c_sq", type1_exact, C_SQ),
    "type2_exact.c_sq": ("c_sq", "c_sq", lambda c: type2_exact(c, 4.0), C_SQ),
    "bfdr_of_threshold": ("c_sq", "c_sq", lambda c: bfdr_of_threshold(MODEL, c), C_SQ),
    "optimality_diagnostics": (
        "c_sq", "c_sq", lambda c: optimality_diagnostics(c, log_v=5.0), st.floats(0.0, 1e4)),
    # Finite reals.
    "universal_threshold.d": ("finite", "d", lambda d: universal_threshold(1e4, d), FINITE),
    "replicate_threshold.d": ("finite", "d", lambda d: replicate_threshold(1e4, 4.0, d), FINITE),
    "LogVRule.loglog_coeff": ("finite", "loglog_coeff", lambda c: LogVRule(loglog_coeff=c), FINITE),
    "LogVRule.offset": ("finite", "offset", lambda c: LogVRule(offset=c), FINITE),
    "regime_verge.alpha_rule": ("finite", "alpha_rule", lambda a: _verge(alpha_rule=a), LEVEL),
    "regime_verge.n_rule": ("finite", "n_rule", lambda n: _verge(n_rule=n), FINITE),
    # Finite reals that may also come as arrays.
    "phi": ("finite_array", "x", phi, FINITE),
    "Phi": ("finite_array", "x", Phi, FINITE),
    "Phi_tail": ("finite_array", "x", Phi_tail, FINITE),
    # The oracle_threshold_sq alternative to v.
    "oracle_threshold_sq.log_v": ("finite", "log_v", lambda lv: oracle_threshold_sq(4.0, log_v=lv), FINITE),
}


# (message, entry point of one array argument): an element outside the domain,
# a Python int beyond the float range included, raises that message.
ARRAY_ENTRIES = {
    "bh_reject": ("p-values must lie in [0, 1]", lambda a: bh_reject(a, 0.1)),
    "Phi_inv": ("q must be finite", Phi_inv),
    "type1_exact": ("c_sq must be >= 0", type1_exact),
    "type2_exact": ("c_sq must be >= 0", lambda a: type2_exact(a, 4.0)),
    "pvalues": ("x must be finite", lambda a: pvalues(a, 1.0)),
    "phi": ("x must be finite", phi),
}


def _bits(value):
    """A value as exact bits: numbers as float.hex (a threshold with its flag),
    arrays and dataclasses field by field, anything else as its repr."""
    if isinstance(value, ThresholdSq):
        return float(value).hex(), value.degenerate
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, [_bits(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return repr(value)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_error_and_one_message_per_quantity(entry, data):
    kind, name, call, inside = ENTRIES[entry]
    bad = data.draw(st.sampled_from(_with_numpy_forms(OUTSIDE[kind])), label="outside")
    with pytest.raises(ParameterError) as info:
        call(bad)
    assert str(info.value) == MESSAGES[kind].format(name, bad)

    good = data.draw(inside, label="inside")
    result = _bits(call(good))
    assert _bits(call(float(good))) == result
    assert _bits(call(np.float64(good))) == result


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRIES))
@pytest.mark.parametrize("bad", [math.nan, HUGE, -HUGE], ids=["nan", "HUGE", "-HUGE"])
def test_one_error_and_one_message_per_array_argument(entry, bad):
    message, call = ARRAY_ENTRIES[entry]
    with pytest.raises(ParameterError) as info:
        call([0.25, bad])
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: fill_rule(BfdrRule(), alpha=HUGE),
    lambda: BfdrLevel(HUGE),
    lambda: bonferroni_threshold(10, HUGE),
    lambda: PowerSparsity(0.5, a=HUGE),
    lambda: pvalues([1.0], HUGE),
])
def test_reals_beyond_the_float_range_are_out_of_domain(call):
    with pytest.raises(ParameterError, match=r", got 1000000000"):
        call()


# (parameter name, least value, entry point of one argument, values inside the domain)
SMALL = TestingSetting(MixtureModel(p=0.1, sigma_sq=1.0, tau_sq=9.0), Losses(1.0, 1.0), m=20)
COUNTS = {
    "mc_run.reps": ("reps", 2, lambda r: mc_run(SMALL, BhRule(0.1), r, 0), st.integers(2, 4)),
    "mc_conditional_k.reps": (
        "reps", 2, lambda r: mc_conditional_k(SMALL, BhRule(0.1), 3, r, 0), st.integers(2, 4)),
    "threshold_gap_study.reps": (
        "reps", 2, lambda r: threshold_gap_study(SMALL, 0.1, r, 0, 0.5), st.integers(2, 4)),
    "McEstimate.reps": ("reps", 1, lambda r: McEstimate(0.5, 0.1, r), st.integers(1, 10**6)),
    "mc_run.workers": (
        "workers", 1, lambda w: mc_run(SMALL, BhRule(0.1), 2, 0, workers=w), st.integers(1, 3)),
    "mc_conditional_k.workers": (
        "workers", 1, lambda w: mc_conditional_k(SMALL, BhRule(0.1), 3, 2, 0, workers=w), st.integers(1, 3)),
    "mc_conditional_k.k": ("k", 0, lambda k: mc_conditional_k(SMALL, GwRule(0.1), k, 2, 0), st.integers(0, 20)),
    "bh_conditional_ev_bound.k": ("k", 0, lambda k: bh_conditional_ev_bound(0.1, k), st.integers(0, 10**6)),
    "ConfusionCounts.V": ("V", 0, lambda v: ConfusionCounts(V=v, S=0, K=0), st.integers(0, 10**6)),
    "ConfusionCounts.S": ("S", 0, lambda s: ConfusionCounts(V=0, S=s, K=10**6), st.integers(0, 10**6)),
    "ConfusionCounts.K": ("K", 0, lambda k: ConfusionCounts(V=0, S=0, K=k), st.integers(0, 10**6)),
}
COUNT_OUTSIDE = [True, False, 2.0, np.float64(2.0), math.nan, -1, np.int64(-1)]


@pytest.mark.parametrize("entry", sorted(COUNTS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_one_error_and_one_message_per_count(entry, data):
    name, least, call, inside = COUNTS[entry]
    bad = data.draw(st.sampled_from(COUNT_OUTSIDE), label="outside")
    with pytest.raises(ParameterError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be an integer >= {least}, got {bad!r}"

    good = data.draw(inside, label="inside")
    assert _bits(call(np.int64(good))) == _bits(call(good))


def test_a_grid_beyond_the_float_range_is_out_of_domain():
    with pytest.raises(ParameterError, match=r"^t_grid must hold numbers within the float range$"):
        regime_verge(2.0, PowerSparsity(0.5), ConstantDelta(), t_grid=(1e4, HUGE))


@pytest.mark.parametrize("call, message", [
    (lambda x: PowerSparsity(kappa=x), "kappa must lie in (0, 1]"),
    (lambda x: ExtremeSparsity(log_exponent=x), "log_exponent must be >= 0"),
    (lambda x: AsymptoticConstants(x), "C must be finite and >= 0"),
    (lambda x: oracle_bfdr_asymptotic_finite(CONSTS, x), "C1 must be finite and >= 0"),
    (lambda x: regime_verge(2.0, PowerSparsity(0.5), ConstantDelta()).generator(x),
     "regime points need m > 1"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, HUGE, np.float64(math.nan), -1.0])
def test_range_checks_of_their_own_keep_their_messages(call, message, value):
    with pytest.raises(ParameterError) as info:
        call(value)
    assert str(info.value) == message


def test_stored_fields_keep_the_value_given():
    alpha = np.float64(0.1)
    rule = BfdrRule(alpha=alpha)
    assert rule.alpha is alpha
    assert rule_to_config(rule)["alpha"] is alpha
    assert BfdrLevel(alpha).alpha is alpha
    assert TestingSetting(MODEL, Losses(1.0, 1.0), m=10).m == 10
    assert type(TestingSetting(MODEL, Losses(1.0, 1.0), m=10).m) is int


@pytest.mark.parametrize("grid", [(1e4, 1e3), (1e3, 1e3), [1e3, 1e4, 1e4]])
@pytest.mark.parametrize("name", ["bfdr_fixed_alpha", "bh_fixed_alpha", "bh_fixed_delta"])
def test_every_regime_grid_is_strictly_increasing(name, grid):
    """The grid is checked where a regime is made, a replaced grid too."""
    regime, _ = preset(name)
    with pytest.raises(ParameterError, match=r"^t_grid must be strictly increasing$"):
        dataclasses.replace(regime, t_grid=grid)


def test_a_regime_grid_is_held_as_a_tuple_of_floats():
    regime, _ = preset("bh_fixed_alpha")
    grid = dataclasses.replace(regime, t_grid=[100, np.float64(1e4), 10**6]).t_grid
    assert grid == (100.0, 1e4, 1e6)
    assert all(type(t) is float for t in grid)
