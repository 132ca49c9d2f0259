"""The invariants the paper rests on, as properties over the parameter space.

The box is p in [1e-12, 0.4], u in [0.1, 1e4], delta in [1e-3, 1e3] and
alpha in [1e-4, 0.5], each drawn log-uniformly, with the box's corners
among the draws:
- the GW threshold at alpha is the BFDR threshold at alpha(1-p);
- the BFDR threshold meets its level;
- the BFDR does not rise with the threshold, where both tails are normal
  doubles (c^2 <= 37^2), up to rounding of 1e-12 relative;
- no fixed threshold has a risk below the oracle's;
- the BFDR rule at the oracle's own BFDR level has the oracle's risk.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsemix import (
    BfdrLevel,
    Losses,
    MixtureModel,
    TestingSetting,
    bfdr_of_threshold,
    bfdr_threshold,
    derive,
    fixed_threshold_risk,
    gw_threshold,
    optimal_risk_exact,
    oracle_threshold_sq,
)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))


_P = _log_uniform(1e-12, 0.4)
_U = _log_uniform(0.1, 1e4)
_DELTA = _log_uniform(1e-3, 1e3)
_ALPHA = _log_uniform(1e-4, 0.5)


def _model(p, u):
    return MixtureModel(p=p, sigma_sq=1.0, tau_sq=u)


def _setting(p, u, delta):
    return TestingSetting(model=_model(p, u), losses=Losses(delta0=delta, deltaA=1.0), m=1000.0)


@settings(max_examples=200, deadline=None)
@given(p=_P, u=_U, alpha=_ALPHA)
def test_gw_is_the_bfdr_threshold_at_the_shrunk_level(p, u, alpha):
    model = _model(p, u)
    gw = float(gw_threshold(model, BfdrLevel(alpha)))
    bf = float(bfdr_threshold(model, BfdrLevel(alpha * (1.0 - p))))
    assert abs(gw - bf) <= 1e-10 * max(1.0, bf)


@settings(max_examples=200, deadline=None)
@given(p=_P, u=_U, alpha=_ALPHA)
def test_the_bfdr_threshold_meets_its_level(p, u, alpha):
    model = _model(p, u)
    assert abs(bfdr_of_threshold(model, bfdr_threshold(model, BfdrLevel(alpha))) - alpha) <= 1e-11


@settings(max_examples=200, deadline=None)
@given(p=_P, u=_U, pair=st.lists(st.floats(0.0, 37.0**2), min_size=2, max_size=2, unique=True),
       adjacent=st.booleans())
def test_the_bfdr_falls_as_the_threshold_rises(p, u, pair, adjacent):
    """BFDR(c2) <= BFDR(c1) for c1 < c2, the pair drawn apart or as adjacent
    doubles.  The evaluator rounds: over 200,000 seeded pairs in this box,
    half of them adjacent, the BFDR rose in 6,898, by at most 2.3e-13
    relative."""
    model = _model(p, u)
    c1, c2 = sorted(pair)
    if adjacent:
        c2 = math.nextafter(c1, math.inf)
        assume(c2 <= 37.0**2)
    assert bfdr_of_threshold(model, c2) <= bfdr_of_threshold(model, c1) * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(p=_P, u=_U, delta=_DELTA,
       c_sq=st.floats(0.0, 1e4) | st.sampled_from([0.0, 5e-324, math.inf]))
def test_no_fixed_threshold_beats_the_oracle(p, u, delta, c_sq):
    setting = _setting(p, u, delta)
    oracle = optimal_risk_exact(setting).total
    assert fixed_threshold_risk(setting, c_sq).total >= oracle * (1.0 - 1e-12)


@settings(max_examples=200, deadline=None)
@given(p=_P, u=_U, delta=_DELTA)
def test_the_bfdr_rule_at_the_oracle_level_has_the_oracle_risk(p, u, delta):
    """Where the oracle's threshold has |Z| <= 37 and its BFDR alpha* lies
    below the supremum 1-p, the BFDR rule at alpha* is the oracle."""
    setting = _setting(p, u, delta)
    oracle_c_sq = oracle_threshold_sq(u, log_v=derive(setting).log_v)
    assume(oracle_c_sq.z <= 37.0)
    alpha_star = bfdr_of_threshold(setting.model, oracle_c_sq)
    assume(alpha_star < 1.0 - p)
    oracle = optimal_risk_exact(setting).total
    rule = fixed_threshold_risk(setting, bfdr_threshold(setting.model, BfdrLevel(alpha_star))).total
    assert abs(rule / oracle - 1.0) <= 1e-12
