"""Regimes, presets and convergence studies."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsemix import rules
from sparsemix import (
    CONVERGENCE_COLUMNS,
    DEFAULT_EXACT_GRID,
    DEFAULT_MC_GRID,
    PRESET_NAMES,
    AsymptoticConstants,
    BfdrLevel,
    BfdrRule,
    BhRule,
    BonferroniRule,
    ConstantDelta,
    ConvergenceRow,
    DecayingDelta,
    DerivedParams,
    ExtremeSparsity,
    FixedThresholdRule,
    GwRule,
    LogVRule,
    Losses,
    McOptions,
    MixtureModel,
    OracleRule,
    ConfigError,
    ParameterError,
    PowerSparsity,
    Regime,
    RegimePoint,
    ReplicateRule,
    TestingSetting,
    UniversalRule,
    bfdr_optimality_diagnostics,
    derive,
    error_rates,
    fill_rule,
    fixed_threshold_risk,
    optimal_risk_exact,
    optimality_diagnostics,
    point_setting,
    preset,
    regime_verge,
    run_convergence,
    threshold_sq,
)

# -----------------------------------------------------------------------
# Sparsity and effect-size schedules.


def test_power_sparsity():
    sp = PowerSparsity(kappa=0.5, a=2.0)
    assert sp.p(10**4) == pytest.approx(0.02, rel=1e-14)
    assert sp.c_numerator == pytest.approx(1.0)
    assert PowerSparsity(kappa=1.0).p(1000.0) == pytest.approx(1e-3, rel=1e-14)
    assert PowerSparsity(kappa=1.0).c_numerator == pytest.approx(2.0)


def test_extreme_sparsity():
    sp = ExtremeSparsity(s=3.0)
    assert sp.p(1e6) == pytest.approx(3e-6, rel=1e-14)
    assert sp.c_numerator == pytest.approx(2.0)
    logged = ExtremeSparsity(s=1.0, log_exponent=1.0)
    assert logged.p(math.e**4) == pytest.approx(4.0 * math.exp(-4.0), rel=1e-13)


def test_sparsity_validation():
    for kwargs in ({"kappa": 0.0}, {"kappa": 1.5}, {"kappa": 0.5, "a": 0.0}):
        with pytest.raises(ParameterError):
            PowerSparsity(**kwargs)
    for kwargs in ({"s": 0.0}, {"s": 1.0, "log_exponent": -1.0}):
        with pytest.raises(ParameterError):
            ExtremeSparsity(**kwargs)


def test_delta_schedules():
    assert ConstantDelta(2.0).delta(1e12) == 2.0
    assert DecayingDelta(g=1.0).delta(math.e**4) == pytest.approx(0.25, rel=1e-14)
    assert DecayingDelta(g=2.0).delta(math.e**4) == pytest.approx(1.0 / 16.0, rel=1e-13)
    with pytest.raises(ParameterError):
        ConstantDelta(0.0)
    with pytest.raises(ParameterError):
        DecayingDelta(g=0.0)


def test_decaying_delta_is_sublogarithmic():
    """log delta_m / log m -> 0, the condition that keeps the regime on the
    verge of detectability despite the vanishing effect size."""
    sched = DecayingDelta(g=1.0)
    ratios = [abs(math.log(sched.delta(m))) / math.log(m) for m in (1e3, 1e6, 1e12)]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 0.13


# -----------------------------------------------------------------------
# Verge regimes.


def test_regime_verge_point_values():
    regime = regime_verge(2.0, PowerSparsity(kappa=1.0), ConstantDelta())
    point = regime.generator(1e4)
    assert point.u == pytest.approx(18.420680743952367, rel=1e-14)
    assert point.p == pytest.approx(1e-4, rel=1e-14)
    assert point.delta == 1.0
    # p = 1/m with u = 2 log m sits at the C = 1 boundary.
    assert point.consts.C == pytest.approx(1.0, rel=1e-12)


def test_regime_verge_declared_limits():
    half = regime_verge(2.0, PowerSparsity(kappa=0.5), ConstantDelta())
    assert half.generator(100.0).consts.C == pytest.approx(0.5)
    one = regime_verge(1.0, PowerSparsity(kappa=0.5), ConstantDelta())
    assert one.generator(100.0).consts.C == pytest.approx(1.0)
    extreme = regime_verge(2.0, ExtremeSparsity(), ConstantDelta())
    assert extreme.generator(100.0).consts.C == pytest.approx(1.0)


def test_regime_c_finite_approaches_declared_limit():
    regime = regime_verge(2.0, ExtremeSparsity(), ConstantDelta())
    gaps = [abs(pt.c_finite - pt.consts.C) for pt in regime.points()]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # log v / u - C ~ log(2 log m) / (2 log m): slow, so only a factor here.
    assert gaps[-1] < gaps[0] / 3.0


def test_regime_grid_monotone_in_m():
    regime = regime_verge(2.0, PowerSparsity(kappa=0.5), DecayingDelta())
    points = regime.points()
    assert len(points) == len(DEFAULT_EXACT_GRID)
    us = [pt.u for pt in points]
    vs = [pt.derived.v for pt in points]
    ps = [pt.p for pt in points]
    assert us == sorted(us) and us[0] < us[-1]
    assert vs == sorted(vs) and vs[0] < vs[-1]
    assert ps == sorted(ps, reverse=True)


def test_regime_schedules_attach_alpha_and_n():
    regime = regime_verge(
        2.0,
        PowerSparsity(kappa=0.5),
        ConstantDelta(),
        alpha_rule=0.1,
        n_rule=lambda m: math.log(m),
        t_grid=(1e2, 1e4),
    )
    points = regime.points()
    assert [pt.alpha for pt in points] == [0.1, 0.1]
    assert points[1].n == pytest.approx(math.log(1e4), rel=1e-14)
    bare = regime_verge(2.0, PowerSparsity(kappa=0.5), ConstantDelta(), t_grid=(1e2,))
    assert bare.points()[0].alpha is None
    assert bare.points()[0].n is None


def test_regime_verge_validation():
    with pytest.raises(ParameterError):
        regime_verge(0.0, PowerSparsity(kappa=0.5), ConstantDelta())
    with pytest.raises(ParameterError):
        regime_verge(2.0, "sparse", ConstantDelta())
    with pytest.raises(ParameterError):
        regime_verge(2.0, PowerSparsity(kappa=0.5), 1.0)
    with pytest.raises(ParameterError):
        regime_verge(2.0, PowerSparsity(kappa=0.5), ConstantDelta(), t_grid=(1e4, 1e2))
    with pytest.raises(ParameterError):
        regime_verge(2.0, PowerSparsity(kappa=0.5), ConstantDelta(), alpha_rule=math.inf)


def test_regime_point_rejects_inconsistent_derived():
    """setting, derived and c_finite are computed from the point, so none can
    be passed in, and they cannot disagree with it."""
    u, p, delta = 10.0, 0.01, 1.0
    consts = AsymptoticConstants(1.0)
    point = RegimePoint(m=100.0, p=p, u=u, delta=delta, consts=consts)
    assert point.derived == DerivedParams(u=u, f=(1.0 - p) / p, delta=delta)
    for extra in ({"derived": point.derived}, {"setting": point.setting}, {"c_finite": point.c_finite}):
        with pytest.raises(TypeError):
            RegimePoint(m=100.0, p=p, u=u, delta=delta, consts=consts, **extra)


def test_numpy_scalars_overflow_v_like_python_floats():
    """v from np.float64 fields is the Python float that float fields give,
    inf past the float range, and numpy warns of no overflow."""
    consts = AsymptoticConstants(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, f, delta in ((100.0, 1e160, 1.0), (4.0, 1e150, 1e10), (9.0, 99.0, 2.0)):
            d = DerivedParams(u=np.float64(u), f=np.float64(f), delta=np.float64(delta))
            assert type(d.v) is float and d.v == DerivedParams(u=u, f=f, delta=delta).v
        for p in (1e-300, 1e-170, 0.01):
            point = RegimePoint(m=np.float64(1e4), p=np.float64(p), u=np.float64(30.0),
                                delta=np.float64(1e3), consts=consts)
            want = RegimePoint(m=1e4, p=p, u=30.0, delta=1e3, consts=consts).derived.v
            assert type(point.derived.v) is float and point.derived.v == want


def test_regime_point_fields_follow_their_formulas():
    for name in PRESET_NAMES:
        for pt in preset(name)[0].points():
            f = (1.0 - pt.p) / pt.p
            assert (pt.derived.u, pt.derived.f, pt.derived.delta) == (pt.u, f, pt.delta)
            assert pt.derived.v == pt.u * f * f * pt.delta * pt.delta
            assert pt.c_finite == pt.derived.log_v / pt.u
            assert pt.derived is pt.derived  # computed once


def test_regime_point_rejects_an_overflowing_f():
    """p = 1e-310 is a positive double, but f = (1-p)/p overflows."""
    regime = regime_verge(2.0, ExtremeSparsity(s=1e-300), ConstantDelta(), t_grid=(1e10,))
    with pytest.raises(ParameterError, match="f must be"):
        regime.points()


def test_regime_keeps_p_at_extreme_m():
    """p = 1/m holds past m = 1e300; the universal gap keeps its slow decay."""
    regime, rule = preset("lemma_universal")
    regime = dataclasses.replace(regime, t_grid=(1e300, 1e305))
    assert [point.p for point in regime.points()] == [1.0 / 1e300, 1.0 / 1e305]
    gaps = [abs(row.ratio - 1.0) for row in run_convergence(regime, rule)]
    assert 0.9 * gaps[0] < gaps[1] < gaps[0]


def test_regime_rejects_p_outside_unit_interval():
    underflow = regime_verge(
        2.0, PowerSparsity(kappa=1.0, a=1e-30), ConstantDelta(), t_grid=(1e300,)
    )
    with pytest.raises(ParameterError, match=r"p = 0\.0 at m = 1e\+300"):
        underflow.points()
    above_one = regime_verge(
        2.0, PowerSparsity(kappa=0.5, a=2.0), ConstantDelta(), t_grid=(2.0,)
    )
    with pytest.raises(ParameterError, match=r"m = 2\.0"):
        above_one.points()


def test_point_setting_materialization():
    regime = regime_verge(2.0, PowerSparsity(kappa=0.5), DecayingDelta(), t_grid=(1e4,))
    point = regime.points()[0]
    setting = point.setting
    assert point_setting(point) is setting
    assert setting.model.sigma_sq == 1.0
    assert setting.model.tau_sq == pytest.approx(point.u, rel=1e-15)
    assert setting.model.p == pytest.approx(point.p, rel=1e-15)
    assert setting.losses.delta0 == pytest.approx(point.delta, rel=1e-15)
    assert setting.losses.deltaA == 1.0
    assert setting.m == point.m
    for name in PRESET_NAMES:
        for pt in preset(name)[0].points():
            assert pt.derived == derive(pt.setting)


# -----------------------------------------------------------------------
# Presets.


def test_preset_names():
    assert PRESET_NAMES == tuple(sorted(PRESET_NAMES))
    for name in (
        "lemma_universal",
        "replicate_verge",
        "bonferroni_extreme",
        "bfdr_fixed_alpha",
        "gw_fixed_alpha",
        "bh_fixed_alpha",
        "nonconforming_sublog",
    ):
        assert name in PRESET_NAMES


def test_preset_structure():
    for name in PRESET_NAMES:
        regime, rule = preset(name)
        assert isinstance(regime, Regime)
        assert regime.name == name
        assert len(regime.t_grid) >= 2
        regime.points()  # materializes without error


def test_preset_overrides():
    regime, _ = preset("bfdr_fixed_alpha", alpha=0.05)
    assert all(pt.alpha == 0.05 for pt in regime.points())
    with pytest.raises(ParameterError):
        preset("no_such_preset")
    with pytest.raises(ParameterError):
        preset("bfdr_fixed_alpha", bogus=1.0)


@pytest.mark.parametrize("overrides, path", [
    ({"alpha": "x"}, "overrides.alpha"),
    ({"kappa": True}, "overrides.kappa"),
    ({"s": 1.0}, "overrides.s"),
    ({"beta": 10**400}, "overrides.beta"),
])
def test_preset_override_errors_name_the_field(overrides, path):
    with pytest.raises(ConfigError) as exc:
        preset("bh_fixed_alpha", **overrides)
    assert exc.value.path == path


def test_preset_mc_grids_for_step_up():
    regime, rule = preset("bh_fixed_alpha")
    assert isinstance(rule, BhRule)
    assert regime.t_grid == DEFAULT_MC_GRID


# -----------------------------------------------------------------------
# Convergence studies.


def test_convergence_columns_match_row_fields():
    assert CONVERGENCE_COLUMNS == ConvergenceRow._fields


@pytest.mark.parametrize("name, mode, opts", [
    ("lemma_universal", "exact", None),
    ("bfdr_fixed_alpha", "exact", None),
    ("bonferroni_extreme", "mc", McOptions(reps=20, seed=1)),
    ("bh_fixed_alpha", "mc", McOptions(reps=20, seed=1)),
])
def test_convergence_rows_are_tuples_of_python_floats(name, mode, opts):
    """Every row, exact or mc, is a ConvergenceRow whose cells are Python
    floats in CONVERGENCE_COLUMNS order, so the CLI writes it with one format."""
    regime, rule = preset(name)
    regime = Regime(regime.name, regime.generator, regime.t_grid[:2])
    for row in run_convergence(regime, rule, mode, opts):
        assert type(row) is ConvergenceRow
        assert [type(cell) for cell in row] == [float] * len(CONVERGENCE_COLUMNS)
        assert tuple(row) == tuple(getattr(row, col) for col in CONVERGENCE_COLUMNS)


# Digests of the rows' float.hex() cells, recorded before an mc table
# passed its replicates the threshold it had solved.
@pytest.mark.parametrize("name, solver, digest", [
    ("bfdr_fixed_alpha", "bfdr_threshold", "2edb34bd1bbdc69127a9a445063847f063966be2444ec135651777f435cbfc1e"),
    ("gw_fixed_alpha", "gw_threshold", "f4897093a877d3cf32c3ba7dcfcfe8e9125dd9777675d52c9984104cbd8e17b1"),
])
def test_an_mc_table_solves_each_point_once(monkeypatch, name, solver, digest):
    """An mc-mode table of a solved rule bisects once per point, for its
    c_sq column and its replicates alike, and keeps its recorded bits."""
    calls = []
    real = getattr(rules, solver)

    def spy(model, level):
        calls.append(level)
        return real(model, level)

    monkeypatch.setattr(rules, solver, spy)
    regime, rule = preset(name)
    regime = Regime(regime.name, regime.generator, (1e3, 1e4, 1e5))
    rows = run_convergence(regime, rule, "mc", McOptions(reps=20, seed=1))
    assert len(calls) == len(rows) == 3
    text = "\n".join(",".join(cell.hex() for cell in row) for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_convergence_oracle_ratio_is_one():
    regime = regime_verge(
        2.0, PowerSparsity(kappa=0.5), ConstantDelta(), t_grid=(1e2, 1e4, 1e6)
    )
    rows = run_convergence(regime, OracleRule())
    for row in rows:
        assert row.ratio == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(row.risk_se)
        assert row.efr >= 0.0 and row.etr >= 0.0


def test_convergence_universal_rule_tail():
    regime, rule = preset("lemma_universal")
    short = Regime(regime.name, regime.generator, (1e4, 1e6, 1e8, 1e10))
    rows = run_convergence(short, rule)
    ratios = [row.ratio for row in rows]
    assert all(r >= 1.0 - 1e-9 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_convergence_nonconforming_stays_away_from_one():
    regime, rule = preset("nonconforming_sublog")
    short = Regime(regime.name, regime.generator, (1e8, 1e12, 1e16))
    rows = run_convergence(short, rule)
    assert all(abs(row.ratio - 1.0) > 0.05 for row in rows)


def test_convergence_rows_follow_grid_order():
    regime = regime_verge(
        2.0, PowerSparsity(kappa=0.5), ConstantDelta(), t_grid=(1e3, 1e5)
    )
    rows = run_convergence(regime, OracleRule())
    assert [row.m for row in rows] == [1e3, 1e5]
    assert rows[0].v < rows[1].v


def test_convergence_exact_rejects_step_up():
    regime, _ = preset("bh_fixed_alpha")
    with pytest.raises(ParameterError):
        run_convergence(regime, BhRule(), mode="exact")
    with pytest.raises(ParameterError):
        run_convergence(regime, BhRule(), mode="typo")


def test_convergence_mc_smoke():
    regime = regime_verge(
        2.0,
        PowerSparsity(kappa=0.5),
        DecayingDelta(),
        alpha_rule=0.2,
        t_grid=(1e3, 3e3),
    )
    rows = run_convergence(regime, BhRule(), mode="mc", mc_opts=McOptions(reps=80, seed=3))
    assert len(rows) == 2
    for row in rows:
        assert np.isfinite(row.risk) and row.risk >= 0.0
        assert np.isfinite(row.risk_se) and row.risk_se > 0.0
        assert math.isnan(row.c_sq) and math.isnan(row.z_t)
        assert np.isfinite(row.s_t)  # level is attached, so diagnostics exist
        assert np.isfinite(row.bo_bh_gap)


def test_convergence_mc_reproducible():
    regime = regime_verge(
        2.0, PowerSparsity(kappa=0.5), ConstantDelta(), alpha_rule=0.2, t_grid=(1e3,)
    )
    a = run_convergence(regime, BhRule(), mode="mc", mc_opts=McOptions(reps=50, seed=9))
    b = run_convergence(regime, BhRule(), mode="mc", mc_opts=McOptions(reps=50, seed=9))
    assert a == b


def _reference_rows(regime, rule) -> list[ConvergenceRow]:
    """Exact-mode rows composed from the public closed forms, one call per
    quantity: every point first, then each point's rule and threshold."""
    rows = []
    for point in regime.points():
        setting = TestingSetting(MixtureModel(p=point.p, sigma_sq=1.0, tau_sq=point.u),
                                 Losses(delta0=point.delta, deltaA=1.0), m=point.m)
        c_sq = float(threshold_sq(fill_rule(rule, alpha=point.alpha, n=point.n), setting))
        risk = fixed_threshold_risk(setting, c_sq).total
        opt = optimal_risk_exact(setting).total
        d = derive(setting)
        z_t = crit2 = ratio1 = etr = efr = math.nan
        if math.isfinite(c_sq) and d.log_v > 0.0:
            diag = optimality_diagnostics(c_sq, log_v=d.log_v)
            z_t, crit2, ratio1 = diag.z_t, diag.crit2, diag.ratio1
            rates = error_rates(c_sq, d.u)
            etr = point.m * point.p * (1.0 - rates.t2)
            efr = point.m * (1.0 - point.p) * rates.t1
        s_t = cond_w2 = t_uvd = bo_bh_gap = math.nan
        if point.alpha is not None:
            try:
                bd = bfdr_optimality_diagnostics(d, BfdrLevel(point.alpha))
                s_t, cond_w2, t_uvd = bd.s_t, bd.cond_w2, bd.t_uvd
            except ParameterError:
                pass
            if point.p < math.exp(-1.0):
                bo_bh_gap = 2.0 * math.log(math.log(1.0 / point.p)) + 2.0 * math.log(point.alpha)
        rows.append(ConvergenceRow(
            m=point.m, p=point.p, u=point.u, v=d.v, c_sq=c_sq, risk=risk, risk_opt=opt,
            ratio=risk / opt, z_t=z_t, crit2=crit2, ratio1=ratio1, s_t=s_t, cond_w2=cond_w2,
            t_uvd=t_uvd, etr=etr, efr=efr, bo_bh_gap=bo_bh_gap, risk_se=math.nan,
        ))
    return rows


def _outcome(build):
    """The rows as exact bits (float.hex tells nan, -0.0 and every ulp apart),
    or the type and message of what building them raised."""
    try:
        rows = build()
    except Exception as exc:  # any failure must be the reference's failure
        return type(exc), str(exc)
    return [[float(getattr(row, col)).hex() for col in CONVERGENCE_COLUMNS] for row in rows]


@st.composite
def _regimes_and_rules(draw):
    beta = draw(st.floats(0.1, 8.0))
    if draw(st.booleans()):
        sparsity = PowerSparsity(kappa=draw(st.floats(0.01, 1.0)), a=draw(st.floats(1e-3, 1.0)))
    else:
        sparsity = ExtremeSparsity(s=draw(st.floats(1e-3, 1.0)), log_exponent=draw(st.floats(0.0, 3.0)))
    if draw(st.booleans()):
        delta = ConstantDelta(draw(st.floats(1e-3, 1e3)))
    else:
        delta = DecayingDelta(g=draw(st.floats(0.1, 6.0)))
    grid = tuple(sorted({10.0 ** e for e in draw(st.lists(st.floats(0.5, 18.0), min_size=1, max_size=4))}))
    levels = draw(st.lists(st.floats(1e-4, 0.999), min_size=len(grid), max_size=len(grid)) | st.none())
    regime = regime_verge(
        beta, sparsity, delta,
        alpha_rule=None if levels is None else dict(zip(grid, levels)).__getitem__,
        n_rule=draw(st.floats(1.0, 100.0)),
        t_grid=grid,
    )
    rule = draw(st.sampled_from([
        BfdrRule(), GwRule(), BonferroniRule(), LogVRule(draw(st.floats(-4.0, 2.0)), draw(st.floats(-3.0, 3.0))),
        UniversalRule(draw(st.floats(-5.0, 5.0))), ReplicateRule(d=draw(st.floats(-5.0, 5.0))),
        FixedThresholdRule(draw(st.floats(0.0, 100.0))), OracleRule(),
    ]))
    return regime, rule


@settings(max_examples=300, deadline=None)
@given(regime_and_rule=_regimes_and_rules())
# v <= 1 at the second point, where the logv rule has no threshold.
@example(regime_and_rule=(
    regime_verge(5.0, PowerSparsity(kappa=0.01, a=0.01), DecayingDelta(g=5.0), t_grid=(3.0, 1e6)),
    LogVRule(),
))
# The level reaches the supremum 1 - p = 0.99 at the second point.
@example(regime_and_rule=(
    regime_verge(2.0, PowerSparsity(kappa=0.5), ConstantDelta(), t_grid=(1e2, 1e4),
                 alpha_rule={1e2: 0.1, 1e4: 1.0 - 1e4**-0.5}.__getitem__),
    BfdrRule(),
))
# The first point's level is unattainable and the second point's is no level:
# generating every point first reports the second.
@example(regime_and_rule=(
    regime_verge(2.0, PowerSparsity(kappa=0.5), ConstantDelta(), t_grid=(1e2, 1e4),
                 alpha_rule={1e2: 0.995, 1e4: 1.5}.__getitem__),
    BfdrRule(),
))
def test_exact_rows_are_the_composition_of_the_closed_forms(regime_and_rule):
    """Every exact row holds the same bits as the public functions give, and
    a regime that fails at some point raises what the composition raises."""
    regime, rule = regime_and_rule
    assert _outcome(lambda: run_convergence(regime, rule)) == _outcome(lambda: _reference_rows(regime, rule))
