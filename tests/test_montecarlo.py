"""Monte-Carlo runner: determinism, agreement with closed forms, gap study."""

import math
import tracemalloc
from concurrent.futures import Future
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from sparsemix import montecarlo, procedures
from sparsemix import (
    BhRule,
    BfdrLevel,
    BonferroniRule,
    FixedThresholdRule,
    Losses,
    McEstimate,
    McReport,
    MixtureModel,
    OracleRule,
    ParameterError,
    TestingSetting,
    UniversalRule,
    apply_rule,
    bh_conditional_ev_bound,
    bh_ev_constant,
    bonferroni_threshold,
    confusion,
    default_workers,
    gw_threshold,
    mc_conditional_k,
    mc_run,
    optimal_risk_exact,
    sample,
    threshold_gap_study,
    threshold_sq,
)
from sparsemix.normal import Phi_inv_upper


def _setting(p=0.05, u=16.0, m=2000, delta0=1.0, deltaA=1.0):
    return TestingSetting(
        model=MixtureModel(p=p, sigma_sq=1.0, tau_sq=u),
        losses=Losses(delta0, deltaA),
        m=m,
    )


# -----------------------------------------------------------------------
# Estimates.


def test_mc_estimate_from_samples():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    est = McEstimate.from_samples(samples)
    assert est.mean == pytest.approx(2.5)
    assert est.std_error == pytest.approx(np.std(samples, ddof=1) / 2.0, rel=1e-15)
    assert est.reps == 4


@pytest.mark.parametrize("reps", [2, 3, 9, 129, 4097, 30_001, 100_001])
def test_one_pass_report_matches_per_row_estimates_bit_for_bit(reps):
    """_report reduces the whole replicate table along its rows; every
    estimate must carry the bits of the mean and standard error of its row
    taken alone, and from_samples of the row must agree."""
    rng = np.random.default_rng(reps)
    table = np.array([
        (rng.random(reps) < 0.3).astype(float),  # 0/1, as fwer
        np.ones(reps),  # a constant row has standard error 0
        rng.poisson(15.7, reps).astype(float),  # counts, as ev
        rng.integers(0, 10**6, reps).astype(float),
        rng.standard_cauchy(reps),  # heavy tails
        rng.pareto(1.1, reps) * 1e3,
    ])
    assert table.flags.c_contiguous
    for rows in (table, table[:5]):
        report = montecarlo._report(rows)
        names = montecarlo._STATS[: len(rows)]
        for name, row in zip(names, rows):
            want = (
                float(np.mean(row)).hex(),
                float(np.std(row, ddof=1) / math.sqrt(reps)).hex(),
                reps,
            )
            for got in (getattr(report, name), McEstimate.from_samples(row)):
                assert (got.mean.hex(), got.std_error.hex(), got.reps) == want, name
    assert report.threshold_gap is None


def test_mc_estimate_validation():
    with pytest.raises(ParameterError):
        McEstimate.from_samples(np.array([1.0]))
    with pytest.raises(ParameterError):
        McEstimate(mean=0.0, std_error=-1.0, reps=10)


def test_default_workers_env(monkeypatch):
    """One worker unless SPARSEMIX_WORKERS says otherwise, whatever the
    CPUs: a replicate holds the GIL, so threads only add start-up cost."""
    monkeypatch.delenv("SPARSEMIX_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(5)))
    assert default_workers() == 1
    monkeypatch.setenv("SPARSEMIX_WORKERS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("SPARSEMIX_WORKERS", "zero")
    with pytest.raises(ParameterError):
        default_workers()


# -----------------------------------------------------------------------
# Agreement with the closed forms.


def test_mc_risk_matches_exact_oracle():
    """Simulated risk of the oracle rule within 3 SE of the closed form."""
    setting = _setting()
    report = mc_run(setting, OracleRule(), 2000, seed=7)
    exact = optimal_risk_exact(setting).total
    assert abs(report.risk.mean - exact) <= 3.0 * report.risk.std_error


def test_mc_statistics_are_coherent():
    setting = _setting(m=500)
    report = mc_run(setting, UniversalRule(), 400, seed=1)
    for est in (report.fdr, report.fwer, report.power):
        assert 0.0 <= est.mean <= 1.0
    assert report.ev.mean >= 0.0
    assert report.threshold_gap is None  # fixed-threshold rule has no gap


def test_mc_degenerate_stream():
    """No signals and an astronomical threshold: nothing ever happens."""
    setting = _setting(p=1e-300, m=100)
    report = mc_run(setting, FixedThresholdRule(c_sq=1e6), 50, seed=0)
    assert report.risk.mean == 0.0
    assert report.ev.mean == 0.0
    assert report.fwer.mean == 0.0
    assert report.power.mean == 0.0  # no replicate had a signal to find


def test_mc_bh_fdr_near_expected_level():
    """The step-up rule's FDR sits at (1-p) alpha under the mixture."""
    setting = _setting(p=0.02, u=25.0, m=2000)
    report = mc_run(setting, BhRule(alpha=0.1), 500, seed=11)
    want = 0.98 * 0.1
    assert abs(report.fdr.mean - want) <= 4.0 * report.fdr.std_error
    assert report.threshold_gap is not None


# -----------------------------------------------------------------------
# Determinism.


def test_mc_worker_count_does_not_change_results():
    setting = _setting(m=300)
    a = mc_run(setting, BhRule(alpha=0.2), 60, seed=5, workers=1)
    b = mc_run(setting, BhRule(alpha=0.2), 60, seed=5, workers=4)
    assert a == b  # bit-identical estimates, not just close


def test_mc_seed_changes_results():
    setting = _setting(m=300)
    a = mc_run(setting, UniversalRule(), 60, seed=5)
    b = mc_run(setting, UniversalRule(), 60, seed=6)
    assert a != b


def test_mc_conditional_worker_invariance():
    setting = _setting(m=300)
    a = mc_conditional_k(setting, BhRule(alpha=0.2), 7, 60, seed=2, workers=1)
    b = mc_conditional_k(setting, BhRule(alpha=0.2), 7, 60, seed=2, workers=3)
    assert a == b


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each
    submitted span at once in the calling thread, so no thread starts."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "asked, cpus, reps, expected",
    [
        (100_000, 3, 40, 3),  # clamped to the usable CPUs
        (100_000, 64, 10, 10),  # clamped to reps
        (4, 8, 40, 4),
        (8, 16, 5, 5),  # clamped to reps
        (2, 8, 2, 2),  # the fewest reps still fill two threads
        (2, 1, 40, None),  # one CPU: runs in the calling thread
    ],
)
def test_worker_count_is_clamped(monkeypatch, asked, cpus, reps, expected):
    setting = _setting(m=200)
    serial = mc_run(setting, BhRule(alpha=0.2), reps, seed=4, workers=1)
    made = []
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", partial(_RecordingPool, made))
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert mc_run(setting, BhRule(alpha=0.2), reps, seed=4, workers=asked) == serial
    assert made == ([] if expected is None else [expected])


def test_worker_clamp_falls_back_to_cpu_count(monkeypatch):
    made = []
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", partial(_RecordingPool, made))
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("SPARSEMIX_WORKERS", "100000")
    setting = _setting(m=200)
    report = mc_conditional_k(setting, BhRule(alpha=0.2), 4, 30, seed=1)
    assert report == mc_conditional_k(setting, BhRule(alpha=0.2), 4, 30, seed=1, workers=1)
    assert made == [3]


def test_worker_count_below_one_rejected():
    with pytest.raises(ParameterError, match=r"^workers must be an integer >= 1, got 0$"):
        mc_run(_setting(m=50), UniversalRule(), 10, seed=0, workers=0)


def _setting_sigma(m=400):
    return TestingSetting(
        model=MixtureModel(p=0.03, sigma_sq=2.7, tau_sq=40.0),
        losses=Losses(1.0, 2.0),
        m=m,
    )


@pytest.mark.parametrize("rule", [BhRule(alpha=0.2), UniversalRule()])
def test_default_worker_count_gives_the_serial_reports(monkeypatch, rule):
    """The default worker count changes no number, here on three usable CPUs."""
    monkeypatch.delenv("SPARSEMIX_WORKERS", raising=False)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(3)))
    setting = _setting_sigma()
    assert mc_run(setting, rule, 7, seed=3) == mc_run(setting, rule, 7, seed=3, workers=1)
    assert mc_conditional_k(setting, rule, 12, 5, seed=8) == mc_conditional_k(
        setting, rule, 12, 5, seed=8, workers=1
    )
    if isinstance(rule, BhRule):
        study = threshold_gap_study(setting, rule.alpha, 7, seed=3, epsilon=0.3)
        assert study.gap == mc_run(setting, rule, 7, seed=3, workers=1).threshold_gap


# -----------------------------------------------------------------------
# The tail draw against the full draw.
#
# The loop draws only the tail of p-values a rule can reject, and the
# step-up rule walks to its fixed point with counts (stream 3).  The
# reference below is the full draw (stream 1), written from the public
# sample, apply_rule and confusion.  The two share no stream, so they are
# compared in distribution: the means of V, S, K, R, FDP, the loss and the
# realized threshold agree within 4.5 two-sample standard errors.


def _full_draw(setting, rule, rng, k=None):
    """(V, S, K, realized c^2) of one replicate drawn for all m tests; k
    signals at uniformly chosen positions when k is given."""
    if k is None:
        truth, x = sample(setting, rng)
    else:
        m = setting.int_m()
        truth = np.zeros(m, dtype=bool)
        truth[rng.choice(m, size=k, replace=False)] = True
        model = setting.model
        x = rng.standard_normal(m) * np.where(truth, math.sqrt(model.sigma_sq + model.tau_sq), model.sigma)
    result = apply_rule(rule, x, setting)
    counts = confusion(result, truth)
    return counts.V, counts.S, counts.K, float(result.realized_threshold_sq)


# The loop resolves a rule once per run; the reference draws below are
# called once per replicate, so they share one resolution too.
_resolved_tail = cache(montecarlo._tail)


def _tail_draw(setting, rule, rng, k=None):
    """The same four numbers from the loop's own replicate."""
    tail = _resolved_tail(setting, rule)
    v, s, signals, crit = montecarlo._replicate_counts(tail, rng, k)
    if tail.alpha is None:
        return v, s, signals, float(threshold_sq(rule, setting))
    return v, s, signals, float(procedures._step_up_threshold(crit, setting.int_m(), tail.alpha))


def _columns(draw, setting, rule, reps, seed, k=None):
    """Per-replicate V, S, K, R, loss and c^2, replicate i from stream (seed, i)."""
    v, s, signals, c_sq = np.array(
        [draw(setting, rule, montecarlo._replicate_rng(seed, i), k) for i in range(reps)], dtype=float
    ).T
    losses = setting.losses
    loss = losses.delta0 * v + losses.deltaA * (signals - s)
    fdp = np.divide(v, v + s, out=np.zeros_like(v), where=v + s > 0)
    return {"V": v, "S": s, "K": signals, "R": v + s, "FDP": fdp, "loss": loss, "c_sq": c_sq}


def _assert_same_law(tail, full):
    """Each mean within 4.5 two-sample standard errors (equal when both are
    constant, as a fixed rule's threshold is)."""
    for name in tail:
        a, b = tail[name], full[name]
        se = math.sqrt(np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= 4.5 * se, (name, a.mean(), b.mean(), se)


_SIGMA_SETTING = TestingSetting(model=MixtureModel(p=0.05, sigma_sq=2.7, tau_sq=40.0), losses=Losses(1.0, 2.0), m=400)


@pytest.mark.parametrize(
    "rule",
    [BhRule(alpha=0.1), BhRule(alpha=0.5), BhRule(alpha=0.97), UniversalRule(d=-4.0), OracleRule()],
    ids=["bh-0.1", "bh-0.5", "bh-0.97", "universal", "oracle"],
)
def test_tail_draw_has_the_law_of_the_full_draw(rule):
    setting, reps = _SIGMA_SETTING, 3000
    tail = _columns(_tail_draw, setting, rule, reps, seed=21)
    _assert_same_law(tail, _columns(_full_draw, setting, rule, reps, seed=22))
    # The loop reports from these very replicates.
    report = mc_run(setting, rule, reps, seed=21, workers=1)
    assert report.ev.mean == pytest.approx(tail["V"].mean(), rel=1e-12)
    assert report.risk.mean == pytest.approx(tail["loss"].mean(), rel=1e-12)


@pytest.mark.parametrize("k", [0, 10])
def test_conditional_tail_draw_has_the_law_of_the_full_draw(k):
    setting = _setting(p=0.001, u=25.0, m=2000)
    rule = BhRule(alpha=0.2)
    tail = _columns(_tail_draw, setting, rule, 3000, seed=23, k=k)
    assert (tail["K"] == k).all()
    _assert_same_law(tail, _columns(_full_draw, setting, rule, 3000, seed=24, k=k))
    report = mc_conditional_k(setting, rule, k, 3000, seed=23, workers=1)
    assert report.ev.mean == pytest.approx(tail["V"].mean(), rel=1e-12)


def test_gap_study_has_the_law_of_the_full_draw():
    setting = _setting(p=0.02, u=9.0, m=3000)
    alpha, reps = 0.2, 2000
    study = threshold_gap_study(setting, alpha, reps, seed=25, epsilon=0.25)
    c_sq = _columns(_full_draw, setting, BhRule(alpha=alpha), reps, seed=26)["c_sq"]
    bon_z = math.sqrt(float(bonferroni_threshold(setting.int_m(), alpha)))
    gw_z = math.sqrt(float(gw_threshold(setting.model, BfdrLevel(alpha))))
    gaps = np.abs(np.minimum(bon_z, np.sqrt(c_sq)) - gw_z)
    se = math.hypot(study.gap.std_error, np.std(gaps, ddof=1) / math.sqrt(reps))
    assert abs(study.gap.mean - gaps.mean()) <= 4.5 * se


def test_full_draw_reference_matches_exact_oracle_risk():
    """The reference is itself right: a fixed rule's tail counts use the
    same erfc as the closed form, so only the full draw checks it
    independently."""
    setting = _SIGMA_SETTING
    loss = _columns(_full_draw, setting, OracleRule(), 3000, seed=27)["loss"]
    exact = optimal_risk_exact(setting).total
    assert abs(loss.mean() - exact) <= 3.0 * np.std(loss, ddof=1) / math.sqrt(loss.size)


# The walk against the explicit tail draw.
#
# At m = 1e5 the full draw is too slow to repeat thousands of times, and the
# walk reaches its fixed point and its budget there, which it cannot at
# m = 400.  The reference is the tail draw of stream 2, written here: every
# p-value at or below a = alpha m / m, then the critical p-value of them.


def _explicit_tail_draw(setting, rule, rng, k=None):
    """(V, S, K, realized c^2) from the n0 + n1 tail p-values at level a."""
    tail = _resolved_tail(setting, rule)
    m = setting.int_m()
    signals = int(rng.binomial(m, tail.p)) if k is None else k
    n0 = int(rng.binomial(m - signals, tail.a))
    n1 = int(rng.binomial(signals, tail.q1))
    nulls = tail.a * rng.random(n0)
    w = np.maximum((1.0 - rng.random(n1)) * tail.q1 / 2.0, 5e-324)
    alts = special.erfc(tail.s * Phi_inv_upper(w) / math.sqrt(2.0))
    crit = procedures._critical_pvalue(np.concatenate([nulls, alts]), tail.alpha, m)
    v = 0 if crit is None else int(np.count_nonzero(nulls <= crit))
    s = 0 if crit is None else int(np.count_nonzero(alts <= crit))
    return v, s, signals, float(procedures._step_up_threshold(crit, m, tail.alpha))


def _walk_endings(monkeypatch, setting, rule, reps, seed, k=None):
    """How each replicate's walk ended: "zero" (nothing rejected), "fixed"
    (the fixed point) or "budget" (an explicit draw of the tail left)."""
    budget = []
    critical_pvalue = montecarlo._critical_pvalue

    def spy(*args):
        budget.append(True)
        return critical_pvalue(*args)

    monkeypatch.setattr(montecarlo, "_critical_pvalue", spy)
    tail = montecarlo._tail(setting, rule)
    endings = set()
    for i in range(reps):
        budget.clear()
        crit = montecarlo._replicate_counts(tail, montecarlo._replicate_rng(seed, i), k)[3]
        endings.add("budget" if budget else "zero" if crit is None else "fixed")
    return endings


def _large_setting(p, u, m=10**5):
    return TestingSetting(model=MixtureModel(p=p, sigma_sq=2.7, tau_sq=2.7 * u), losses=Losses(1.0, 2.0), m=m)


@pytest.mark.parametrize(
    "p, u, alpha, k, reps, endings",
    [
        (0.05, 9.0, 0.1, None, 1000, {"fixed"}),
        (0.05, 9.0, 0.5, None, 1000, {"fixed"}),
        (0.05, 9.0, 0.97, None, 600, {"fixed"}),
        (1e-3, 23.0, 0.97, None, 600, {"budget"}),
        (1e-3, 25.0, 0.2, 10, 1500, {"budget"}),
        (1e-3, 25.0, 1e-5, 10, 3000, {"zero", "fixed", "budget"}),
        (1e-5, 25.0, 1e-4, None, 3000, {"zero", "budget"}),
        (1e-3, 23.0, 1.0 - 1e-5, 0, 400, {"fixed"}),  # p_(k) is a null's maximum
    ],
    ids=["fixed-0.1", "fixed-0.5", "fixed-0.97", "budget-0.97", "k10-0.2", "k10-1e-5", "zero-1e-4", "k0-near-1"],
)
def test_walk_has_the_law_of_the_explicit_tail_draw(monkeypatch, p, u, alpha, k, reps, endings):
    setting, rule = _large_setting(p, u), BhRule(alpha=alpha)
    walk = _columns(_tail_draw, setting, rule, reps, seed=41, k=k)
    _assert_same_law(walk, _columns(_explicit_tail_draw, setting, rule, reps, seed=42, k=k))
    report = (
        mc_run(setting, rule, reps, seed=41, workers=1)
        if k is None
        else mc_conditional_k(setting, rule, k, reps, seed=41, workers=1)
    )
    assert report.fdr.mean == pytest.approx(walk["FDP"].mean(), rel=1e-12)
    assert report.risk.mean == pytest.approx(walk["loss"].mean(), rel=1e-12)
    assert _walk_endings(monkeypatch, setting, rule, reps, seed=41, k=k) == endings


# The loop reads V, S and K as plain ints, with no ConfusionCounts built per
# replicate, so the draw itself must keep the invariants that class checks.


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(1, 10**6),
    p=st.floats(1e-6, 0.5),
    u=st.floats(1e-3, 1e6),
    alpha=st.floats(1e-6, 0.97),
    step_up=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_replicate_counts_are_counts(m, p, u, alpha, step_up, seed, data):
    setting = _setting(p=p, u=u, m=m)
    rule = BhRule(alpha=alpha) if step_up else BonferroniRule(alpha=alpha)
    k = data.draw(st.none() | st.integers(0, m), label="k")
    tail = montecarlo._tail(setting, rule)
    v, s, signals, crit = montecarlo._replicate_counts(tail, np.random.default_rng(seed), k)
    assert (type(v), type(s), type(signals)) == (int, int, int)
    assert 0 <= s <= signals <= m and 0 <= v <= m - signals
    if k is not None:
        assert signals == k
    if step_up:
        assert (crit is None) == (v + s == 0)
    else:
        assert crit is None


@pytest.mark.parametrize(
    "rule, report",
    [
        (
            UniversalRule(d=-4.0),
            McReport(
                risk=McEstimate(7300.46, 15.971740605180877, 50),
                fdr=McEstimate(0.000988840680654221, 0.00011540967782446135, 50),
                fwer=McEstimate(0.84, 0.05237229365663817, 50),
                ev=McEstimate(1.34, 0.15547163269043188, 50),
                power=McEstimate(0.2708686255453266, 0.0009240630477188206, 50),
            ),
        ),
        (
            OracleRule(),
            McReport(
                risk=McEstimate(5681.74, 13.460139490437712, 50),
                fdr=McEstimate(0.17523697053720422, 0.0009541441444835516, 50),
                fwer=McEstimate(1.0, 0.0, 50),
                ev=McEstimate(514.58, 3.168092196143493, 50),
                power=McEstimate(0.4838288645126729, 0.0010027523030820443, 50),
            ),
        ),
    ],
    ids=["universal", "oracle"],
)
def test_fixed_rule_reports_keep_stream_2(rule, report):
    """A fixed threshold never walks, so its replicates are stream 2's: these
    are the reports stream 2 gave at this seed."""
    setting = TestingSetting(model=MixtureModel(p=0.05, sigma_sq=2.7, tau_sq=40.0), losses=Losses(1.0, 2.0), m=10**5)
    assert mc_run(setting, rule, 50, seed=31, workers=1) == report


def test_step_up_level_still_required():
    with pytest.raises(ParameterError, match="bh rule has no level"):
        mc_run(_setting(m=50), BhRule(), 4, seed=0, workers=1)


def _replicate_peak_bytes(rule, m=200_000) -> int:
    """tracemalloc's peak over a one-worker mc_run of two replicates."""
    setting = _setting(p=1e-3, u=2.0 * math.log(m), m=m)
    mc_run(setting, rule, 2, seed=0, workers=1)  # warm caches and imports
    tracemalloc.start()
    try:
        mc_run(setting, rule, 2, seed=1, workers=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _replicate_peak_bytes_per_test(rule, m=200_000) -> float:
    return _replicate_peak_bytes(rule, m) / m


def test_step_up_replicate_peak_memory():
    """A step-up replicate walks with counts and draws p-values only for the
    tail its budget leaves, fewer than 128 per step; a draw of the alpha m
    p-values at the first level would take about 1 byte per test."""
    assert _replicate_peak_bytes_per_test(BhRule(alpha=0.1)) <= 0.06


@pytest.mark.parametrize("alpha, bound", [(0.5, 0.10), (0.97, 2.10)])
def test_step_up_replicate_peak_memory_at_high_levels(alpha, bound):
    """Near alpha = 1 the walk shrinks its count by a factor of about alpha a
    step, so its budget leaves the most to draw, a few percent of m here:
    8 bytes per p-value drawn, a byte-per-candidate mask and the sorted copy."""
    assert _replicate_peak_bytes_per_test(BhRule(alpha=alpha)) <= bound


def test_step_up_replicate_memory_does_not_grow_with_m():
    """At m = 1e9 the walk ends at its fixed point with no array; at m = 1e5
    it ends on its budget with a small one."""
    small = _replicate_peak_bytes(BhRule(alpha=0.1), m=10**5)
    assert _replicate_peak_bytes(BhRule(alpha=0.1), m=10**9) <= small + 2048


@pytest.mark.parametrize("rule", [OracleRule(), UniversalRule()])
def test_fixed_threshold_replicate_peak_memory(rule):
    """A fixed-threshold replicate draws three counts and no array."""
    assert _replicate_peak_bytes_per_test(rule) <= 0.02


def test_fixed_threshold_replicate_memory_does_not_grow_with_m():
    small = _replicate_peak_bytes(UniversalRule(), m=10**5)
    assert abs(_replicate_peak_bytes(UniversalRule(), m=10**9) - small) <= 2048


# -----------------------------------------------------------------------
# Conditional-on-k runs.


def test_conditional_k_equals_m_no_false_rejections():
    """With every test a true signal there is nothing to falsely reject."""
    setting = _setting(m=50)
    report = mc_conditional_k(setting, BhRule(alpha=0.2), 50, 100, seed=3)
    assert report.ev.mean == 0.0
    assert report.fwer.mean == 0.0
    assert report.fdr.mean == 0.0


def test_conditional_k_zero_gap_is_deterministic():
    """k = 0 and a level so small nothing is ever rejected: the realized
    step-up threshold is the Bonferroni one in every replicate, so the gap
    to the fixed-point threshold is a constant."""
    setting = _setting(p=0.05, u=9.0, m=20)
    alpha = 1e-12
    report = mc_conditional_k(setting, BhRule(alpha=alpha), 0, 50, seed=4)
    assert report.threshold_gap is not None
    # Not exactly zero: np.mean of 50 identical doubles can land 1 ulp off,
    # and np.std then sees constant 1-ulp deviations.
    assert report.threshold_gap.std_error <= 1e-15
    bon_z = math.sqrt(float(bonferroni_threshold(20, alpha)))
    gw_z = math.sqrt(float(gw_threshold(setting.model, BfdrLevel(alpha))))
    assert report.threshold_gap.mean == pytest.approx(abs(bon_z - gw_z), rel=1e-14)


def test_conditional_k_ev_bound_spot_check():
    """E(V | K = k) for the step-up rule under the documented bound
    (light replication here; the heavy version lives in the acceptance suite)."""
    setting = _setting(p=0.001, u=25.0, m=2000)
    report = mc_conditional_k(setting, BhRule(alpha=0.2), 10, 400, seed=9)
    bound = bh_conditional_ev_bound(0.2, 10)
    assert report.ev.mean <= bound + 3.0 * report.ev.std_error


def test_conditional_k_validation():
    setting = _setting(m=50)
    with pytest.raises(ParameterError):
        mc_conditional_k(setting, BhRule(alpha=0.2), 51, 10, seed=0)
    with pytest.raises(ParameterError):
        mc_conditional_k(setting, BhRule(alpha=0.2), -1, 10, seed=0)


# -----------------------------------------------------------------------
# Threshold-gap study.


def test_gap_study_epsilon_inf():
    setting = _setting(m=200)
    study = threshold_gap_study(setting, 0.1, 50, seed=0, epsilon=math.inf)
    assert study.exceed_frac == 0.0
    assert study.gap.mean >= 0.0
    assert study.median_gap >= 0.0


def test_gap_study_shares_the_step_up_replicates():
    setting = _setting(m=300)
    study = threshold_gap_study(setting, 0.1, 40, seed=7, epsilon=0.25)
    report = mc_run(setting, BhRule(alpha=0.1), 40, seed=7)
    assert study.gap == report.threshold_gap


@pytest.mark.parametrize(
    "p, u, alpha, reps, seed, gap",
    [
        (0.01, 2.0 * math.log(1e5), 0.1, 300, 11,
         (0.012633889805786041, 0.0005715141209302107, 0.2, 0.010924872652535944)),
        (0.3, 1e-3, 0.97, 40, 2,
         (11.139655181982008, 0.1156084810850272, 1.0, 11.307895251263208)),
    ],
)
def test_gap_study_keeps_its_recorded_bits(p, u, alpha, reps, seed, gap):
    """Values recorded before the replicates went into one table: the
    mean, standard error, share above 0.02 and median of the gap."""
    study = threshold_gap_study(_setting(p=p, u=u, m=100_000), alpha, reps, seed=seed, epsilon=0.02)
    got = (study.gap.mean, study.gap.std_error, study.exceed_frac, study.median_gap)
    assert [value.hex() for value in got] == [value.hex() for value in gap]
    assert study.gap.reps == reps


def test_gap_study_concentrates_with_m():
    """Median |c_BH - c_GW| shrinks as m grows along the matched regime."""

    def median_at(m):
        p = m**-0.5
        setting = TestingSetting(
            model=MixtureModel(p=p, sigma_sq=1.0, tau_sq=2.0 * math.log(m)),
            losses=Losses(1.0 / math.log(m), 1.0),
            m=m,
        )
        return threshold_gap_study(setting, 0.1, 100, seed=2, epsilon=0.25).median_gap

    assert median_at(10**5) < median_at(10**3)


def test_gap_study_validation():
    setting = _setting(m=200)
    with pytest.raises(ParameterError):
        threshold_gap_study(setting, 0.1, 50, seed=0, epsilon=0.0)
    with pytest.raises(ParameterError):
        threshold_gap_study(setting, 0.1, 1, seed=0, epsilon=0.5)


# -----------------------------------------------------------------------
# Bound constants.


def test_bh_conditional_ev_bound_values():
    assert bh_conditional_ev_bound(0.2, 0) == pytest.approx(0.3125, rel=1e-14)
    assert bh_conditional_ev_bound(0.2, 10) == pytest.approx(2.8125, rel=1e-14)


def test_bh_ev_constant():
    base = bh_ev_constant(math.inf, 0.1)
    assert base == pytest.approx((2.0 - 0.1) / 0.9**2, rel=1e-14)
    with_term = bh_ev_constant(2.0, 0.1)
    assert with_term == pytest.approx(base + math.exp(-2.0) / (2.0 * 0.9), rel=1e-14)
    assert bh_ev_constant(1.0, 0.0) == pytest.approx(2.0 + math.exp(-1.0), rel=1e-14)
    with pytest.raises(ParameterError):
        bh_ev_constant(-1.0, 0.1)
    with pytest.raises(ParameterError):
        bh_ev_constant(1.0, 1.0)
