"""Mixture model, derived parameters, oracle threshold, exact error rates."""

import math

import numpy as np
import pytest

import sparsemix
from sparsemix import (
    AsymptoticConstants,
    DerivedParams,
    ErrorRates,
    Losses,
    MixtureModel,
    ParameterError,
    Phi_tail,
    TestingSetting,
    ThresholdSq,
    derive,
    error_rates,
    oracle_threshold_sq,
    oracle_threshold_sq_raw,
    sample,
    type1_asymptotic,
    type1_exact,
    type2_asymptotic,
    type2_exact,
)


# -----------------------------------------------------------------------
# Containers and their admissibility checks.


def test_threshold_sq_basics():
    c = ThresholdSq(4.0)
    assert float(c) == 4.0
    assert c.z == 2.0
    assert not c.degenerate
    assert ThresholdSq(0.0, degenerate=True).degenerate


def test_threshold_sq_repr_shows_the_degenerate_mark():
    assert repr(ThresholdSq(2.5)) == "ThresholdSq(2.5)"
    assert repr(ThresholdSq(0.0, degenerate=True)) == "ThresholdSq(0.0, degenerate=True)"


def test_threshold_sq_accepts_inf_marker():
    c = ThresholdSq(math.inf)
    assert math.isinf(c)
    assert math.isinf(c.z)


def test_threshold_sq_rejects_negative_and_nan():
    with pytest.raises(ParameterError):
        ThresholdSq(-1e-12)
    with pytest.raises(ParameterError):
        ThresholdSq(math.nan)


def test_mixture_model_validation():
    with pytest.raises(ParameterError):
        MixtureModel(p=0.0, sigma_sq=1.0, tau_sq=1.0)
    with pytest.raises(ParameterError):
        MixtureModel(p=1.0, sigma_sq=1.0, tau_sq=1.0)
    with pytest.raises(ParameterError):
        MixtureModel(p=0.5, sigma_sq=0.0, tau_sq=1.0)
    with pytest.raises(ParameterError):
        MixtureModel(p=0.5, sigma_sq=1.0, tau_sq=-2.0)


def test_mixture_model_variance_decomposition():
    """Only the total null variance sigma^2 = sigma0^2 + sigma_eps^2 is a
    parameter: the risk depends on the X-marginal alone."""
    with pytest.raises(TypeError):
        MixtureModel(p=0.1, sigma_sq=2.0, tau_sq=1.0, sigma0_sq=0.5, sigma_eps_sq=1.5)
    with pytest.raises(TypeError):
        MixtureModel(p=0.1, sigma_sq=2.0, tau_sq=1.0, sigma0_sq=0.5)
    assert not hasattr(sparsemix, "sample_with_means")


def test_losses_delta():
    assert Losses(delta0=2.0, deltaA=4.0).delta == 0.5
    with pytest.raises(ParameterError):
        Losses(delta0=0.0, deltaA=1.0)


def test_setting_m_contract():
    setting = TestingSetting(
        model=MixtureModel(p=0.1, sigma_sq=1.0, tau_sq=1.0),
        losses=Losses(1.0, 1.0),
        m=2.5,
    )
    with pytest.raises(ParameterError):
        setting.int_m()
    with pytest.raises(ParameterError):
        TestingSetting(setting.model, setting.losses, m=0.5)


@pytest.mark.parametrize("make, message", [
    (lambda: type2_exact(1.0, math.nan), "u must be a finite positive real, got nan"),
    (lambda: type2_exact(1.0, -1.0), "u must be a finite positive real, got -1.0"),
    (lambda: type2_exact(1.0, math.inf), "u must be a finite positive real, got inf"),
    (lambda: Losses(delta0=1.0, deltaA=math.nan), "deltaA must be a finite positive real, got nan"),
    (lambda: MixtureModel(p=1.5, sigma_sq=1.0, tau_sq=1.0), "p must lie in (0,1), got 1.5"),
    (lambda: MixtureModel(p=0.5, sigma_sq=1.0, tau_sq=-1.0), "tau_sq must be a finite positive real, got -1.0"),
    (lambda: TestingSetting(MixtureModel(0.1, 1.0, 1.0), Losses(1.0, 1.0), m=0.5), "m must be >= 1, got 0.5"),
    (lambda: TestingSetting(MixtureModel(0.1, 1.0, 1.0), Losses(1.0, 1.0), m=math.nan), "m must be >= 1, got nan"),
])
def test_validator_messages_name_the_value(make, message):
    """The checks run on every construction and format their message only
    when they fail; the message names the parameter and the value."""
    with pytest.raises(ParameterError) as info:
        make()
    assert str(info.value) == message


# -----------------------------------------------------------------------
# Derived parameters.


def test_derive_hand_values():
    setting = TestingSetting(
        model=MixtureModel(p=0.5, sigma_sq=1.0, tau_sq=4.0),
        losses=Losses(1.0, 1.0),
        m=1.0,
    )
    d = derive(setting)
    assert (d.u, d.f, d.delta, d.v) == (4.0, 1.0, 1.0, 4.0)


def test_derive_identity_case():
    setting = TestingSetting(
        model=MixtureModel(p=0.5, sigma_sq=1.0, tau_sq=1.0),
        losses=Losses(1.0, 1.0),
        m=1.0,
    )
    assert derive(setting).v == 1.0


def test_derive_asymmetric_losses():
    setting = TestingSetting(
        model=MixtureModel(p=0.01, sigma_sq=1.0, tau_sq=9.0),
        losses=Losses(delta0=2.0, deltaA=1.0),
        m=1.0,
    )
    d = derive(setting)
    assert d.f == pytest.approx(99.0, rel=1e-15)
    assert d.v == pytest.approx(9.0 * 99.0**2 * 4.0, rel=1e-13)


def test_derived_params_consistency_enforced():
    """v is computed from u, f and delta, so it cannot disagree with them."""
    with pytest.raises(TypeError):
        DerivedParams(u=4.0, f=1.0, delta=1.0, v=5.0)
    for u, f, delta in ((4.0, 1.0, 1.0), (9.0, 99.0, 2.0), (0.3, 1e-3, 7.5), (100.0, 1e160, 1.0)):
        assert DerivedParams(u=u, f=f, delta=delta).v == u * f * f * delta * delta


def test_derived_params_rejects_what_it_rejected():
    for u, f, delta in ((math.inf, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0), (1.0, math.nan, 1.0)):
        with pytest.raises(ParameterError):
            DerivedParams(u=u, f=f, delta=delta)
    with pytest.raises(ParameterError, match="underflows"):
        DerivedParams(u=1e-100, f=1e-100, delta=1e-100)  # v underflows to 0


def test_log_v_never_overflows():
    """Extreme sparsity drives v past the float range; log_v must survive."""
    d = DerivedParams(u=100.0, f=1e160, delta=1.0)
    assert d.v == math.inf
    assert d.log_v == pytest.approx(math.log(100.0) + 2.0 * 160.0 * math.log(10.0), rel=1e-14)


def test_t_uvd():
    d = DerivedParams(u=4.0, f=10.0, delta=1.0)
    assert d.t_uvd == pytest.approx(math.sqrt(4.0 * math.log(400.0)), rel=1e-14)
    small = DerivedParams(u=1.0, f=0.5, delta=1.0)
    with pytest.raises(ParameterError):
        small.t_uvd


def test_asymptotic_constants_pairing():
    """D is computed from C, so the pair cannot disagree."""
    for C in (0.0, 0.5, 1.0, 7.25, 1400.0):
        assert AsymptoticConstants(C).D == 2.0 * Phi_tail(math.sqrt(C))
    assert AsymptoticConstants(0.0).D == 1.0
    with pytest.raises(TypeError):
        AsymptoticConstants(C=1.0, D=0.5)
    assert not hasattr(AsymptoticConstants, "from_limit")
    consts = AsymptoticConstants(2)
    assert consts.C == 2.0 and isinstance(consts.C, float)
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ParameterError):
            AsymptoticConstants(bad)


def test_asymptotic_constants_reject_an_underflowing_power():
    with pytest.raises(ParameterError, match="underflows"):
        AsymptoticConstants(5000.0)


# -----------------------------------------------------------------------
# Oracle threshold.


def test_oracle_threshold_hand_values():
    assert oracle_threshold_sq(1.0, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert oracle_threshold_sq(4.0, 4.0) == pytest.approx(1.25 * math.log(5.0), rel=1e-14)
    assert oracle_threshold_sq(4.0, 4.0) == pytest.approx(2.0117973905426254, rel=1e-15)


def test_oracle_threshold_raw_form():
    model = MixtureModel(p=0.5, sigma_sq=1.0, tau_sq=4.0)
    losses = Losses(1.0, 1.0)
    assert oracle_threshold_sq_raw(model, losses) == pytest.approx(1.25 * math.log(5.0), rel=1e-14)


def test_oracle_threshold_two_forms_agree():
    """The (u, v) form and the raw-parameter form are the same function."""
    rng = np.random.default_rng(17)
    for _ in range(500):
        p = rng.uniform(0.001, 0.999)
        sigma_sq = rng.uniform(0.1, 10.0)
        tau_sq = rng.uniform(0.1, 50.0)
        delta0 = rng.uniform(0.1, 10.0)
        delta_a = rng.uniform(0.1, 10.0)
        model = MixtureModel(p=p, sigma_sq=sigma_sq, tau_sq=tau_sq)
        losses = Losses(delta0, delta_a)
        d = derive(TestingSetting(model, losses, 1.0))
        via_uv = oracle_threshold_sq(d.u, d.v)
        via_raw = oracle_threshold_sq_raw(model, losses)
        assert via_uv == pytest.approx(via_raw, rel=1e-12, abs=1e-12)
        assert via_uv.degenerate == via_raw.degenerate


def test_oracle_threshold_log_v_route():
    c_direct = oracle_threshold_sq(100.0, math.exp(10.0))
    c_log = oracle_threshold_sq(100.0, log_v=10.0)
    assert c_log == pytest.approx(c_direct, rel=1e-13)
    with pytest.raises(ParameterError):
        oracle_threshold_sq(100.0)
    with pytest.raises(ParameterError):
        oracle_threshold_sq(100.0, math.exp(10.0), log_v=10.0)


def test_oracle_threshold_degenerate_clamp():
    """When the unconstrained cutoff is negative, reject-everything wins."""
    c = oracle_threshold_sq(1.0, 0.01)
    assert float(c) == 0.0
    assert c.degenerate
    assert not oracle_threshold_sq(1.0, 1.0).degenerate


# -----------------------------------------------------------------------
# Exact error rates.


def test_type1_exact_values():
    assert type1_exact(0.0) == 1.0
    assert type1_exact(3.841459) == pytest.approx(0.05, abs=1e-6)
    assert type1_exact(2.0) == pytest.approx(0.157299, abs=1e-5)


def test_type1_exact_inf_marker():
    assert type1_exact(math.inf) == 0.0


def test_type2_exact_values():
    assert type2_exact(0.0, 3.0) == 0.0
    assert type2_exact(3.841459, 3.0) == pytest.approx(0.672914, abs=1e-4)
    assert type2_exact(2.0, 3.0) == pytest.approx(0.520500, abs=1e-5)


def test_type2_exact_inf_marker():
    assert type2_exact(math.inf, 3.0) == 1.0


def test_error_rates_vectorized():
    grid = np.linspace(0.0, 30.0, 100)
    t1 = type1_exact(grid)
    t2 = type2_exact(grid, 3.0)
    assert t1.shape == grid.shape
    assert np.all(np.diff(t1) <= 0)  # larger threshold, fewer false rejections
    assert np.all(np.diff(t2) >= 0)  # larger threshold, more misses
    rates = error_rates(4.0, 3.0)
    assert isinstance(rates, ErrorRates)
    assert rates.t1 == type1_exact(4.0)
    assert rates.t2 == type2_exact(4.0, 3.0)


def test_scalar_and_array_error_rates_agree_to_a_few_ulps():
    """Floats go through math.erfc/erf and arrays through scipy's: the bits
    differ at about half the points, by far less than 1e-13 relative."""
    c_sq = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, 2000)
    scalar1 = np.array([type1_exact(float(c)) for c in c_sq])
    np.testing.assert_allclose(type1_exact(c_sq), scalar1, rtol=1e-13, atol=0.0)
    for u in (0.01, 4.0, 1e4):
        scalar2 = np.array([type2_exact(float(c), u) for c in c_sq])
        np.testing.assert_allclose(type2_exact(c_sq, u), scalar2, rtol=1e-13, atol=0.0)
    assert np.count_nonzero(type1_exact(c_sq) != scalar1) > 0  # two paths, not one


def test_error_rates_reject_negative_threshold():
    with pytest.raises(ParameterError):
        type1_exact(-0.5)
    with pytest.raises(ParameterError):
        type2_exact(np.array([1.0, -2.0]), 3.0)


# -----------------------------------------------------------------------
# Asymptotic error rates.


def test_type1_asymptotic_hand_value():
    consts = AsymptoticConstants(0.0)
    assert type1_asymptotic(math.e, consts) == pytest.approx(math.sqrt(2.0 / (math.pi * math.e)), rel=1e-14)
    assert type1_asymptotic(math.e, consts) == pytest.approx(0.48394, abs=1e-5)


def test_type1_asymptotic_c_dependence():
    """Raising C by 2 multiplies the leading term by e^{-1} at fixed v."""
    v = math.e
    at0 = type1_asymptotic(v, AsymptoticConstants(0.0))
    at2 = type1_asymptotic(v, AsymptoticConstants(2.0))
    assert at2 / at0 == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_type1_asymptotic_tracks_exact():
    """Exact t1 at the oracle threshold over approx -> 1 along fixed C = 0."""
    consts = AsymptoticConstants(0.0)
    ratios = []
    for log_v in (10.0, 20.0, 40.0):
        u = math.exp(math.sqrt(log_v))  # u grows much faster than log v: C -> 0
        c_sq = oracle_threshold_sq(u, log_v=log_v)
        ratios.append(type1_exact(c_sq) / type1_asymptotic(math.exp(log_v), consts))
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_type1_asymptotic_requires_v_above_one():
    with pytest.raises(ParameterError):
        type1_asymptotic(1.0, AsymptoticConstants(0.0))


def test_type2_asymptotic_values():
    on_verge = AsymptoticConstants(1.0)
    assert type2_asymptotic(5.0, 100.0, on_verge) == pytest.approx(0.682689, abs=1e-6)
    at_zero = AsymptoticConstants(0.0)
    assert type2_asymptotic(100.0, math.exp(10.0), at_zero) == pytest.approx(0.252313, abs=1e-6)
    assert type2_asymptotic(100.0, math.exp(10.0), at_zero) == pytest.approx(
        math.sqrt(20.0 / (100.0 * math.pi)), rel=1e-14
    )


def test_type2_asymptotic_c0_vanishes_in_u():
    at_zero = AsymptoticConstants(0.0)
    values = [type2_asymptotic(u, math.exp(10.0), at_zero) for u in (1e2, 1e4, 1e6)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.01


# -----------------------------------------------------------------------
# Sampling.


def _setting(p=0.1, u=3.0, m=100):
    return TestingSetting(
        model=MixtureModel(p=p, sigma_sq=1.0, tau_sq=u),
        losses=Losses(1.0, 1.0),
        m=m,
    )


def test_sample_deterministic():
    setting = _setting()
    t1, x1 = sample(setting, 42)
    t2, x2 = sample(setting, 42)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(x1, x2)
    _, x3 = sample(setting, 43)
    assert not np.array_equal(x1, x3)


@pytest.mark.parametrize("p, sigma_sq", [(0.1, 1.0), (0.3, 2.7), (0.9, 0.4)])
def test_sample_matches_a_scale_array_draw(p, sigma_sq):
    """Same stream and bit-identical values as one normal block times a
    per-element scale array."""
    setting = TestingSetting(
        model=MixtureModel(p=p, sigma_sq=sigma_sq, tau_sq=5.0), losses=Losses(1.0, 1.0), m=500
    )
    rng = np.random.default_rng(11)
    truth = rng.random(500) < p
    x = rng.standard_normal(500) * np.where(truth, math.sqrt(sigma_sq + 5.0), math.sqrt(sigma_sq))
    got_truth, got_x = sample(setting, 11)
    np.testing.assert_array_equal(got_truth, truth)
    assert got_x.tobytes() == x.tobytes()


def test_sample_signal_frequency():
    setting = _setting(p=0.1, m=10**5)
    truth, _ = sample(setting, 0)
    se = math.sqrt(0.1 * 0.9 / 10**5)
    assert abs(truth.mean() - 0.1) <= 3.0 * se


def test_sample_degenerate_p():
    setting = _setting(p=1e-300, m=1000)
    truth, x = sample(setting, 1)
    assert not truth.any()
    assert x.shape == (1000,)


def test_sample_requires_integer_m():
    with pytest.raises(ParameterError):
        sample(_setting(m=10.5), 0)
