"""Monte-Carlo runner: determinism, agreement with closed forms, gap study."""

import math
import os
import tracemalloc
from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

from sparsemix import montecarlo
from sparsemix import (
    BhRule,
    BfdrLevel,
    FixedThresholdRule,
    Losses,
    McEstimate,
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
)


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


def test_mc_estimate_validation():
    with pytest.raises(ParameterError):
        McEstimate.from_samples(np.array([1.0]))
    with pytest.raises(ParameterError):
        McEstimate(mean=0.0, std_error=-1.0, reps=10)


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("SPARSEMIX_WORKERS", raising=False)
    assert default_workers() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(5)))
    assert default_workers() == 5
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


def test_each_span_draws_into_a_block_from_the_calling_thread(monkeypatch):
    """Each span's m-length block is handed to the pool with the span, so no
    worker thread allocates one in its own malloc arena; the draws land in it."""
    made, blocks = [], []

    class BlockPool(_RecordingPool):
        def submit(self, fn, *args):
            args[-1].fill(np.nan)
            blocks.append(args[-1])
            return super().submit(fn, *args)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", partial(BlockPool, made))
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(3)))
    setting = _setting(m=200)
    for run in (partial(mc_run, setting, BhRule(alpha=0.2)),
                partial(mc_conditional_k, setting, UniversalRule(), 4)):
        blocks.clear()
        assert run(7, seed=4, workers=3) == run(7, seed=4, workers=1)
        assert [(b.shape, b.dtype) for b in blocks] == [((200,), np.dtype(float))] * 3
        assert len({id(b) for b in blocks}) == 3
        assert not np.isnan(blocks).any()
    assert made == [3, 3]


def test_worker_count_below_one_rejected():
    with pytest.raises(ParameterError, match="worker count must be >= 1"):
        mc_run(_setting(m=50), UniversalRule(), 10, seed=0, workers=0)


def _setting_sigma(m=400):
    return TestingSetting(
        model=MixtureModel(p=0.03, sigma_sq=2.7, tau_sq=40.0),
        losses=Losses(1.0, 2.0),
        m=m,
    )


@pytest.mark.parametrize("rule", [BhRule(alpha=0.2), UniversalRule()])
def test_default_worker_count_gives_the_serial_reports(monkeypatch, rule):
    """The default policy (one thread per usable CPU) changes no number."""
    monkeypatch.delenv("SPARSEMIX_WORKERS", raising=False)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(3)))
    setting = _setting_sigma()
    assert mc_run(setting, rule, 7, seed=3) == mc_run(setting, rule, 7, seed=3, workers=1)
    assert mc_conditional_k(setting, rule, 12, 5, seed=8) == mc_conditional_k(
        setting, rule, 12, 5, seed=8, workers=1
    )
    if isinstance(rule, BhRule):
        assert threshold_gap_study(setting, rule.alpha, 7, seed=3, epsilon=0.3) == (
            threshold_gap_study(setting, rule.alpha, 7, seed=3, epsilon=0.3, workers=1)
        )


@pytest.mark.parametrize("rule", [BhRule(alpha=0.3), BhRule(alpha=0.97), UniversalRule(d=-4.0)])
def test_replicate_counts_match_confusion(rule):
    """The loop counts V, S and K from the signal indices; confusion on the
    same draws (through apply_rule, which leaves x alone) gives the same."""
    setting = _setting_sigma(m=300)
    stats = montecarlo._replicates(setting, rule, 6, 11, 1, partial(sample, setting))
    for i in range(6):
        truth, x = sample(setting, montecarlo._replicate_rng(11, i))
        counts = confusion(apply_rule(rule, x, setting), truth)
        rejected = counts.num_rejected
        assert stats["ev"][i] == counts.V
        assert stats["risk"][i] == counts.loss(setting.losses)
        assert stats["fdr"][i] == (counts.V / rejected if rejected else 0.0)
        assert stats["power"][i] == (counts.S / counts.K if counts.K else 0.0)
    assert stats["ev"].sum() > 0 and stats["power"].sum() > 0  # both counts exercised


def test_step_up_level_still_required():
    with pytest.raises(ParameterError, match="bh rule has no level"):
        mc_run(_setting(m=50), BhRule(), 4, seed=0, workers=1)


def _replicate_peak_bytes_per_test(rule, m=200_000) -> float:
    """tracemalloc's peak over a one-worker mc_run of two replicates, per test."""
    setting = _setting(p=1e-3, u=2.0 * math.log(m), m=m)
    mc_run(setting, rule, 2, seed=0, workers=1)  # warm caches and imports
    tracemalloc.start()
    try:
        mc_run(setting, rule, 2, seed=1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / m


def test_step_up_replicate_peak_memory():
    """One step-up replicate holds its draw, the |x| tail it computes
    p-values for and about a byte-per-test mask; an extra m-length float
    temporary would add 8 bytes per test and break the bound."""
    assert _replicate_peak_bytes_per_test(BhRule(alpha=0.1)) <= 9.84


@pytest.mark.parametrize("alpha, bound", [(0.5, 16.55), (0.97, 24.82)])
def test_step_up_replicate_peak_memory_at_high_levels(alpha, bound):
    """Where most tests are candidates the tail is most of m; the bounds are
    the peaks of the decision that computed every p-value in place."""
    assert _replicate_peak_bytes_per_test(BhRule(alpha=alpha)) <= bound


@pytest.mark.parametrize("rule", [OracleRule(), UniversalRule()])
def test_fixed_threshold_replicate_peak_memory(rule):
    """A fixed-threshold replicate holds its draw and the mask; its quotient
    x / sigma is formed a chunk at a time, not as an m-length temporary."""
    assert _replicate_peak_bytes_per_test(rule) <= 11.0


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


def test_gap_study_deterministic_in_workers():
    setting = _setting(m=200)
    a = threshold_gap_study(setting, 0.1, 60, seed=1, epsilon=0.25, workers=1)
    b = threshold_gap_study(setting, 0.1, 60, seed=1, epsilon=0.25, workers=4)
    assert a == b


def test_gap_study_shares_the_step_up_replicates():
    setting = _setting(m=300)
    study = threshold_gap_study(setting, 0.1, 40, seed=7, epsilon=0.25)
    report = mc_run(setting, BhRule(alpha=0.1), 40, seed=7)
    assert study.gap == report.threshold_gap


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
