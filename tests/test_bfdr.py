"""Bayesian FDR: evaluation, threshold inversion, GW fixed point, asymptotics.

The two solvers (BFDR inversion and the GW fixed point) are independent
bisections on different equations; their agreement at alpha' = alpha(1-p)
is checked here as a fact about the functions, not wired into either one.
"""

import hashlib
import math

import numpy as np
import pytest

from sparsemix import bfdr
from sparsemix import (
    AsymptoticConstants,
    BfdrLevel,
    DerivedParams,
    LevelError,
    MixtureModel,
    PRESET_NAMES,
    ParameterError,
    bfdr_identity_residual,
    bfdr_of_threshold,
    bfdr_optimality_diagnostics,
    bfdr_threshold,
    bfdr_threshold_asymptotic,
    gw_threshold,
    oracle_bfdr_asymptotic,
    oracle_bfdr_asymptotic_finite,
    oracle_threshold_sq,
    preset,
)


def _model(p=0.1, u=3.0, sigma_sq=1.0):
    return MixtureModel(p=p, sigma_sq=sigma_sq, tau_sq=u * sigma_sq)


# -----------------------------------------------------------------------
# Level container.


def test_level_computes_odds():
    level = BfdrLevel(0.05)
    assert level.r_alpha == pytest.approx(0.05 / 0.95, rel=1e-15)
    for alpha in (1e-300, 1e-3, 0.05, 0.2, 0.5, 0.999):
        assert BfdrLevel(alpha).r_alpha == alpha / (1.0 - alpha)


def test_level_rejects_mismatched_odds():
    """The odds are computed from alpha, so none can be passed in."""
    with pytest.raises(TypeError):
        BfdrLevel(0.2, r_alpha=0.25)
    with pytest.raises(TypeError):
        BfdrLevel(0.2, 0.26)


def test_level_domain():
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ParameterError):
            BfdrLevel(bad)


# -----------------------------------------------------------------------
# BFDR of a fixed threshold.


def test_bfdr_starts_at_one_minus_p():
    for p in (0.01, 0.1, 0.5, 0.9):
        assert bfdr_of_threshold(_model(p=p), 0.0) == pytest.approx(1.0 - p, rel=1e-14)


def test_bfdr_hand_value():
    """0.045 / (0.045 + 0.0327086) at p=0.1, u=3, c^2=3.841459."""
    assert bfdr_of_threshold(_model(), 3.841459) == pytest.approx(0.579086, abs=1e-5)


def test_bfdr_vanishes_in_deep_tail():
    assert bfdr_of_threshold(_model(), 1e4) < 1e-15
    assert bfdr_of_threshold(_model(), math.inf) == 0.0


def test_bfdr_strictly_decreasing():
    model = _model(p=0.05, u=10.0)
    grid = np.linspace(0.0, 60.0, 400)
    values = [bfdr_of_threshold(model, c) for c in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_bfdr_deep_tail_stays_monotone():
    """Past the underflow point of the plain ratio the log form takes over;
    the two branches must splice without a jump."""
    model = _model(p=0.01, u=25.0)
    grid = np.linspace(500.0, 4000.0, 200)  # t1 underflows around c^2 ~ 1420
    values = [bfdr_of_threshold(model, c) for c in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[0] > 0.0


def test_bfdr_rejects_bad_threshold():
    with pytest.raises(ParameterError):
        bfdr_of_threshold(_model(), -1.0)


# -----------------------------------------------------------------------
# Threshold inversion.


def test_bfdr_forward_frozen_value():
    # High-precision oracle value for BFDR(3.841459) at p=0.1, u=3.
    assert bfdr_of_threshold(_model(), 3.841459) == pytest.approx(0.5790797545071101, rel=1e-13)


# Values recorded before the scalar tails returned Python floats; the second
# of each pair takes the deep-tail (log_ndtr) branch.
@pytest.mark.parametrize(
    "fn, model, x, value",
    [
        (bfdr_of_threshold, _model(p=0.01, u=20.0), 9.0, 0.3426793527388618),
        (bfdr_of_threshold, _model(p=0.01, u=0.01), 1600.0, 0.034534846091623154),
        (bfdr._gw_value, _model(p=0.01, u=20.0), 3.0, 0.3461407603422847),
        (bfdr._gw_value, _model(p=0.01, u=0.01), 40.0, 0.03488368292083212),
    ],
)
def test_scalar_tails_are_floats_with_the_recorded_bits(fn, model, x, value):
    result = fn(model, x)
    assert type(result) is float
    assert result.hex() == value.hex()


@pytest.mark.parametrize(
    "p, u, alpha, gw, bf",
    [
        (0.01, 25.0, 0.05, 13.423301865071418, 13.402071337821388),
        (3.6655368972165453e-293, 1.6791230847465808, 0.26004757262853156,
         2150.5198507522805, 2150.5198507522805),
    ],
)
def test_solved_thresholds_keep_their_recorded_bits(p, u, alpha, gw, bf):
    model = _model(p=p, u=u)
    assert float(gw_threshold(model, BfdrLevel(alpha))).hex() == gw.hex()
    assert float(bfdr_threshold(model, BfdrLevel(alpha))).hex() == bf.hex()


@pytest.mark.parametrize("solver", [bfdr_threshold, gw_threshold])
def test_solvers_report_a_level_they_cannot_bracket(solver):
    """At u = 1e-17, sqrt(1 + u) rounds to 1: the null and alternative tails
    coincide, so the function is flat at 1 - p (BFDR) or 1 (GW), the root
    estimate declines, and no doubling of the upper end gets below alpha."""
    model = _model(p=0.1, u=1e-17)
    assert math.sqrt(model.u + 1.0) == 1.0
    assert bfdr._root_bracket(1.0, math.log(0.05), 1.0) is None
    with pytest.raises(ParameterError, match="^failed to bracket the threshold$"):
        solver(model, BfdrLevel(0.05))


def test_bfdr_threshold_hand_value():
    """Inverting the BFDR at c^2 = 3.841459 recovers that threshold."""
    alpha = bfdr_of_threshold(_model(), 3.841459)
    c_sq = bfdr_threshold(_model(), BfdrLevel(alpha))
    assert float(c_sq) == pytest.approx(3.841459, abs=1e-6)


def test_bfdr_threshold_near_supremum():
    """alpha just below 1-p maps to a threshold near 0."""
    c_sq = bfdr_threshold(_model(p=0.1), BfdrLevel(0.9 - 1e-9))
    assert float(c_sq) < 1e-6


def test_bfdr_threshold_unattainable_level():
    with pytest.raises(LevelError) as info:
        bfdr_threshold(_model(p=0.1), BfdrLevel(0.95))
    assert info.value.supremum == pytest.approx(0.9, rel=1e-15)
    with pytest.raises(LevelError):
        bfdr_threshold(_model(p=0.1), BfdrLevel(0.9))  # the supremum itself


def test_bfdr_round_trip():
    """bfdr_of_threshold(bfdr_threshold(alpha)) = alpha to 1e-11."""
    model = _model(p=0.05, u=8.0)
    for alpha in np.linspace(0.001, 0.94, 25):
        c_sq = bfdr_threshold(model, BfdrLevel(alpha))
        assert bfdr_of_threshold(model, c_sq) == pytest.approx(alpha, abs=1e-11)


def test_bfdr_round_trip_extreme_parameters():
    for p, u, alpha in [(1e-8, 100.0, 0.01), (1e-4, 2.0, 0.3), (0.6, 50.0, 0.05)]:
        model = _model(p=p, u=u)
        c_sq = bfdr_threshold(model, BfdrLevel(alpha))
        assert bfdr_of_threshold(model, c_sq) == pytest.approx(alpha, abs=1e-11)


def test_bisection_narrows_until_the_level_is_met():
    """Where the BFDR is steep in c, a bracket of relative width 1e-13 can
    still miss the level by more than 1e-11; the solvers keep bisecting."""
    p, u, alpha = 3.6655368972165453e-293, 1.6791230847465808, 0.26004757262853156
    model = _model(p=p, u=u)
    c_sq = bfdr_threshold(model, BfdrLevel(alpha))
    assert abs(bfdr_of_threshold(model, c_sq) - alpha) <= 1e-11
    gw = gw_threshold(model, BfdrLevel(alpha))
    want = bfdr_threshold(model, BfdrLevel(alpha * (1.0 - p)))
    assert float(gw) == pytest.approx(float(want), abs=1e-10)


def test_bisection_returns_the_endpoint_the_midpoint_cannot_reach():
    """Once the bracket is two adjacent doubles the midpoint rounds to one of
    them; here that one misses the level and the other meets it."""
    target, edge = 0.25, math.nextafter(1.0, 2.0)
    calls = []

    def fn(z):
        calls.append(z)
        return target - 5e-12 if z >= edge else target + 2e-11

    assert bfdr._bisect_decreasing(fn, target, edge) == edge
    assert calls.count(edge) == 2 and len(calls) < 70


def test_bisection_raises_when_no_midpoint_meets_the_level(monkeypatch):
    """Here neighbouring |Z|-scale midpoints straddle the level by more than
    1e-11 each, so no threshold within the tolerance is returned.  The
    solvers raise once the bracket is down to two adjacent doubles, instead
    of re-evaluating one of them for the remaining halvings."""
    calls = []
    for name in ("bfdr_of_threshold", "_gw_value"):
        original = getattr(bfdr, name)
        monkeypatch.setattr(bfdr, name, lambda *a, _f=original: calls.append(a) or _f(*a))
    for p, u, alpha in (
        (1.0231857490965871e-254, 0.0015606930069462827, 0.28743590949794257),
        (2.614534402199717e-259, 0.0016157884355166715, 0.28142964198422454),
    ):
        model = _model(p=p, u=u)
        for solver in (bfdr_threshold, gw_threshold):
            calls.clear()
            with pytest.raises(ParameterError, match="1e-11 level tolerance"):
                solver(model, BfdrLevel(alpha))
            assert len(calls) < 70


# -----------------------------------------------------------------------
# Certified brackets: fewer evaluations, the same bits.


def _log_uniform(rng, n, lo, hi):
    return (10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=n)).tolist()


def _sweep_triples(name):
    """Seeded (p, u, alpha) triples: the exact_sweep benchmark's box, a deep
    box (p down to 1e-300, u up to 1e6, alpha down to 1e-12), or every point
    on the preset grids at its own level and three fixed ones."""
    if name == "presets":
        return [
            (point.p, point.u, alpha)
            for preset_name in PRESET_NAMES
            for point in preset(preset_name)[0].points()
            for alpha in sorted({point.alpha or 0.1, 0.01, 0.1, 0.3})
        ]
    n = 10_000
    if name == "box":
        rng = np.random.default_rng(20140)
        return list(zip(_log_uniform(rng, n, 1e-8, 0.4), _log_uniform(rng, n, 0.5, 1e4),
                        _log_uniform(rng, n, 1e-3, 0.5)))
    rng = np.random.default_rng(20141)
    return list(zip(_log_uniform(rng, n, 1e-300, 0.5), _log_uniform(rng, n, 1e-3, 1e6),
                    _log_uniform(rng, n, 1e-12, 0.5)))


# sha256 of both solvers' results over each sweep, recorded with the plain
# bisection before the solvers took a certified bracket.
@pytest.mark.parametrize(
    "name, digest",
    [
        ("box", "ecd3f9c7219e270a35b1f016f803464776f248ab5f8f03385b3322de24dd7795"),
        ("deep", "155472c20042ab1c5254886a6598b17bead5da18d245f22ccbcd6f365e8f52f8"),
        ("presets", "e1172d4753760a86bbcfdbc4d90a05daa03cfa7a4441acf424f7e92f8a8df297"),
    ],
)
def test_solver_sweeps_keep_their_recorded_bits(name, digest):
    lines = []
    for p, u, alpha in _sweep_triples(name):
        model, out = _model(p=p, u=u), [p.hex(), u.hex(), alpha.hex()]
        for solver in (bfdr_threshold, gw_threshold):
            try:
                out.append(float(solver(model, BfdrLevel(alpha))).hex())
            except ParameterError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        lines.append(" ".join(out))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_bracket_margin_is_far_above_the_rounding_error():
    """On |Z| <= _Z_ACCURATE both evaluators stay within _MARGIN / 20 of an
    mpmath reference, which is what lets a certified bracket decide a side
    of the level without evaluating."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(20142)
    n = 2000
    worst = 0.0
    for p, u, z in zip(_log_uniform(rng, n, 1e-300, 0.5), _log_uniform(rng, n, 1e-3, 1e6),
                       rng.uniform(0.0, bfdr._Z_ACCURATE, n).tolist()):
        model = _model(p=p, u=u)
        big_p, big_z = mpmath.mpf(p), mpmath.mpf(z)
        q0 = mpmath.erfc(big_z / mpmath.sqrt(2))
        qa = mpmath.erfc(big_z / mpmath.sqrt(mpmath.mpf(model.u) + 1) / mpmath.sqrt(2))
        den = (1 - big_p) * q0 + big_p * qa
        for got, want in ((bfdr_of_threshold(model, z * z), (1 - big_p) * q0 / den),
                          (bfdr._gw_value(model, z), q0 / den)):
            worst = max(worst, float(abs(got / want - 1)))
    assert 0.0 < worst and bfdr._MARGIN >= 20.0 * worst


def test_solves_on_the_preset_grids_take_few_evaluations(monkeypatch):
    """The plain bisection took about 48 evaluations per solve; a silent
    fall-back to it fails here."""
    calls = []
    for name in ("bfdr_of_threshold", "_gw_value"):
        original = getattr(bfdr, name)
        monkeypatch.setattr(bfdr, name, lambda *a, _f=original: calls.append(a) or _f(*a))
    for p, u, alpha in _sweep_triples("presets"):
        for solver in (bfdr_threshold, gw_threshold):
            calls.clear()
            c_sq = solver(_model(p=p, u=u), BfdrLevel(alpha))
            assert c_sq.z <= bfdr._Z_ACCURATE  # the direct branch
            assert len(calls) <= 15


def test_a_bracket_that_fails_certification_leaves_the_plain_bisection():
    """A wrong candidate costs its two evaluations and nothing else."""
    def fn(z):
        calls.append(z)
        return math.exp(-z)

    results = []
    for near in (None, (0.5, 0.6), (3.0 - 1e-9, 3.0 + 1e-9)):
        calls = []
        results.append((bfdr._bisect_decreasing(fn, math.exp(-3.0), 20.0, near), len(calls)))
    (plain, n_plain), (wrong, n_wrong), (good, n_good) = results
    assert plain == wrong == good
    assert n_wrong == n_plain + 2 and n_good < n_plain / 2


# -----------------------------------------------------------------------
# GW fixed point.


def test_gw_matches_bfdr_at_shrunk_level():
    """gw(alpha) and bfdr(alpha (1-p)) solve different equations with the
    same root."""
    model = _model()
    got = gw_threshold(model, BfdrLevel(0.1))
    want = bfdr_threshold(model, BfdrLevel(0.09))
    assert float(got) == pytest.approx(float(want), abs=1e-10)


def test_gw_matches_bfdr_across_settings():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = rng.uniform(0.001, 0.5)
        model = _model(p=p, u=rng.uniform(0.5, 40.0))
        alpha = rng.uniform(0.01, 0.8)
        got = gw_threshold(model, BfdrLevel(alpha))
        want = bfdr_threshold(model, BfdrLevel(alpha * (1.0 - p)))
        assert float(got) == pytest.approx(float(want), abs=1e-10)


def test_gw_approaches_bfdr_for_tiny_p():
    model = _model(p=1e-8, u=25.0)
    gw = gw_threshold(model, BfdrLevel(0.05))
    bf = bfdr_threshold(model, BfdrLevel(0.05))
    assert abs(float(gw) - float(bf)) < 1e-6


def test_gw_frozen_value():
    c_sq = gw_threshold(_model(p=0.01, u=25.0), BfdrLevel(0.05))
    # High-precision root of the fixed-point equation, frozen once.
    assert float(c_sq) == pytest.approx(13.423301865071131, rel=1e-12)


# -----------------------------------------------------------------------
# Asymptotic expansions.


def test_bfdr_threshold_expansion_hand_value():
    """f/r_alpha = e^10, D = 1: 20 - log 20 + log(2/pi) = 16.5528."""
    level = BfdrLevel(0.5)  # r_alpha = 1
    consts = AsymptoticConstants(0.0)
    c_sq = bfdr_threshold_asymptotic(math.exp(10.0), level, consts)
    assert float(c_sq) == pytest.approx(20.0 - math.log(20.0) + math.log(2.0 / math.pi), rel=1e-14)
    assert float(c_sq) == pytest.approx(16.552685021156554, rel=1e-13)


def test_bfdr_threshold_expansion_d_dependence():
    """Halving D (raising C) adds 2 log 2 to the expansion."""
    level = BfdrLevel(0.5)
    base = AsymptoticConstants(0.0)
    # D = 1/2 corresponds to C = (Phi^{-1}(3/4))^2.
    from sparsemix import Phi_inv

    halved = AsymptoticConstants(Phi_inv(0.75) ** 2)
    assert halved.D == pytest.approx(0.5, abs=1e-12)
    lo = bfdr_threshold_asymptotic(math.exp(10.0), level, base)
    hi = bfdr_threshold_asymptotic(math.exp(10.0), level, halved)
    assert float(hi) - float(lo) == pytest.approx(2.0 * math.log(2.0), rel=1e-10)


def test_bfdr_threshold_expansion_tracks_exact():
    """Exact threshold minus the expansion -> 0 along fixed alpha, u = 2 log m,
    p = m^{-1/2}, delta = 1/log m."""
    level = BfdrLevel(0.1)
    consts = AsymptoticConstants(0.5)  # 2 kappa / beta with kappa=1/2, beta=2
    gaps = []
    for k in (4, 6, 8, 10, 12):
        m = 10.0**k
        p = m**-0.5
        model = _model(p=p, u=2.0 * math.log(m))
        exact = bfdr_threshold(model, level)
        approx = bfdr_threshold_asymptotic(model.f, level, consts)
        gaps.append(abs(float(exact) - float(approx)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1


def test_bfdr_threshold_expansion_domain():
    level = BfdrLevel(0.5)
    consts = AsymptoticConstants(0.0)
    with pytest.raises(ParameterError):
        bfdr_threshold_asymptotic(2.0, level, consts)  # f/r_alpha barely above 1


def test_oracle_bfdr_asymptotic_hand_value():
    """C=0 (D=1), t = 100: sqrt(2/pi)/100."""
    d = DerivedParams(u=100.0, f=10.0, delta=1.0)
    scale = d.t_uvd
    consts = AsymptoticConstants(0.0)
    value = oracle_bfdr_asymptotic(d, consts)
    assert value == pytest.approx(math.sqrt(2.0 / math.pi) / scale, rel=1e-14)
    # And the pinned magnitude at t = 100 exactly:
    assert math.sqrt(2.0 / math.pi) / 100.0 == pytest.approx(0.0079788, abs=1e-6)


def test_oracle_bfdr_asymptotic_requires_v_above_one():
    d = DerivedParams(u=1.0, f=1.0, delta=1.0)  # log v = 0
    with pytest.raises(ParameterError, match="^oracle_bfdr_asymptotic requires v > 1$"):
        oracle_bfdr_asymptotic(d, AsymptoticConstants(0.0))


def test_oracle_bfdr_asymptotic_tracks_exact():
    """BFDR of the oracle over its leading term -> 1 along a fixed-C regime."""
    consts = AsymptoticConstants(1.0)
    ratios = []
    for k in (4, 8, 12, 16):
        m = 10.0**k
        p = 1.0 / m
        u = 2.0 * math.log(m)
        model = _model(p=p, u=u)
        d = DerivedParams(u=u, f=model.f, delta=1.0)
        c_sq = oracle_threshold_sq(u, log_v=d.log_v)
        ratios.append(bfdr_of_threshold(model, c_sq) / oracle_bfdr_asymptotic(d, consts))
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=0.1)


def test_oracle_bfdr_finite_limit():
    consts = AsymptoticConstants(0.0)
    assert oracle_bfdr_asymptotic_finite(consts, 0.0) == 1.0
    value = oracle_bfdr_asymptotic_finite(consts, 2.0)
    assert value == pytest.approx(1.0 / (1.0 + math.sqrt(math.pi / 2.0) * 2.0), rel=1e-14)
    with pytest.raises(ParameterError):
        oracle_bfdr_asymptotic_finite(consts, -1.0)


# -----------------------------------------------------------------------
# Optimality diagnostics for level choices.


def test_bfdr_diagnostics_matched_scale_is_zero():
    """r_alpha = 1/(delta sqrt(u)) makes s_t vanish identically."""
    d = DerivedParams(u=16.0, f=1000.0, delta=0.5)
    r_alpha = 1.0 / (d.delta * math.sqrt(d.u))
    alpha = r_alpha / (1.0 + r_alpha)
    diag = bfdr_optimality_diagnostics(d, BfdrLevel(alpha))
    assert diag.s_t == pytest.approx(0.0, abs=1e-12)


def test_bfdr_diagnostics_hand_value():
    """f = e^10, delta sqrt(u) = e, r_alpha = 1: s_t = 11/10 - 1 = 0.1."""
    u = 4.0
    delta = math.e / 2.0  # delta sqrt(u) = e
    f = math.exp(10.0)
    d = DerivedParams(u=u, f=f, delta=delta)
    diag = bfdr_optimality_diagnostics(d, BfdrLevel(0.5))  # r_alpha = 1
    assert diag.s_t == pytest.approx(0.1, rel=1e-12)


def test_bfdr_diagnostics_trends():
    """Fixed alpha, delta = 1/log m, u = 2 log m, p = m^{-1/2}:
    s_t -> 0 and the mixed condition value -> -inf."""
    level = BfdrLevel(0.1)
    s_ts, conds = [], []
    for k in (4, 6, 8, 10, 12, 14, 16):
        m = 10.0**k
        p = m**-0.5
        u = 2.0 * math.log(m)
        delta = 1.0 / math.log(m)
        f = (1.0 - p) / p
        d = DerivedParams(u=u, f=f, delta=delta)
        diag = bfdr_optimality_diagnostics(d, level)
        s_ts.append(diag.s_t)
        conds.append(diag.cond_w2)
    assert all(abs(b) < abs(a) for a, b in zip(s_ts, s_ts[1:]))
    assert all(b < a for a, b in zip(conds, conds[1:]))
    assert conds[-1] < -1.0


def test_bfdr_diagnostics_domain():
    d = DerivedParams(u=1.0, f=1.5, delta=1.0)
    with pytest.raises(ParameterError):
        bfdr_optimality_diagnostics(d, BfdrLevel(0.7))  # f/r_alpha < 1


# -----------------------------------------------------------------------
# Defining identity.


def test_identity_residual_hand_points():
    assert bfdr_identity_residual(_model(), 3.841459) == pytest.approx(0.0, abs=1e-12)
    assert bfdr_identity_residual(_model(), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_identity_residual_random_sweep():
    """(1-alpha)(1-p) t1 + alpha p t2 = alpha p at alpha = BFDR(c^2), always."""
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(1000):
        model = _model(p=rng.uniform(0.001, 0.999), u=rng.uniform(0.1, 50.0))
        c_sq = rng.uniform(0.0, 40.0)
        worst = max(worst, abs(bfdr_identity_residual(model, c_sq)))
    assert worst <= 1e-12
