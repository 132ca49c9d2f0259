"""Sample-level procedures: p-values, step-up rule, threshold families,
confusion counts."""

import math

import numpy as np
import pytest

from sparsemix import (
    ConfusionCounts,
    Losses,
    ParameterError,
    RejectionResult,
    ThresholdSq,
    bh_reject,
    bonferroni_threshold,
    bonferroni_threshold_asymptotic,
    confusion,
    fixed_threshold_reject,
    pvalues,
    replicate_threshold,
    universal_threshold,
)


# -----------------------------------------------------------------------
# p-values.


def test_pvalue_at_center():
    assert pvalues(np.array([0.0]), 1.0)[0] == 1.0


def test_pvalue_at_standard_quantile():
    assert pvalues(np.array([1.959964]), 1.0)[0] == pytest.approx(0.05, abs=1e-7)


def test_pvalues_monotone_in_magnitude():
    x = np.array([0.0, -0.5, 1.0, -2.0, 3.5])
    p = pvalues(x, 1.0)
    order = np.argsort(np.abs(x))
    assert np.all(np.diff(p[order]) < 0)


def test_pvalues_scale_by_sigma():
    x = np.array([1.0, 2.0, -3.0])
    np.testing.assert_allclose(pvalues(x, 2.0), pvalues(x / 2.0, 1.0), rtol=1e-15)


def test_pvalues_keep_tail_accuracy():
    p = pvalues(np.array([30.0]), 1.0)[0]
    assert 0.0 < p < 1e-190


def test_pvalues_domain():
    with pytest.raises(ParameterError):
        pvalues(np.array([np.inf]), 1.0)
    with pytest.raises(ParameterError):
        pvalues(np.array([1.0]), 0.0)


# -----------------------------------------------------------------------
# Step-up procedure.


def test_bh_hand_example():
    """p = [0.01, 0.02, 0.5, 0.9] at alpha = 0.1: critical values are
    0.025, 0.05, 0.075, 0.1, so k = 2 and the two smallest are rejected."""
    result = bh_reject(np.array([0.01, 0.02, 0.5, 0.9]), 0.1)
    np.testing.assert_array_equal(result.rejected, [True, True, False, False])
    assert result.num_rejected == 2


def test_bh_single_test_is_bonferroni():
    assert bh_reject(np.array([0.04]), 0.05).num_rejected == 1
    assert bh_reject(np.array([0.06]), 0.05).num_rejected == 0


def test_bh_no_rejections():
    result = bh_reject(np.array([0.2, 0.3, 0.9]), 0.1)
    assert result.num_rejected == 0
    assert not result.rejected.any()
    # The realized threshold is the first critical value it failed to clear.
    assert float(result.realized_threshold_sq) == pytest.approx(
        float(bonferroni_threshold(3, 0.1)), rel=1e-14
    )


def test_bh_rejects_at_boundary():
    """Exact ties with the critical p-value are rejected."""
    result = bh_reject(np.array([0.025, 0.5]), 0.05)
    assert result.num_rejected == 1


def test_bh_realized_threshold_reproduces_rejections():
    """Re-running the fixed-threshold rule at the realized c^2 gives the
    same rejection set, except possibly the exact boundary tie (the
    critical p-value round-trips through the quantile with ~1 ulp slack)."""
    rng = np.random.default_rng(19)
    for _ in range(50):
        x = rng.standard_normal(200) * rng.uniform(0.5, 3.0)
        pvals = pvalues(x, 1.0)
        result = bh_reject(pvals, 0.2)
        again = fixed_threshold_reject(x, 1.0, result.realized_threshold_sq)
        mismatch = result.rejected != again.rejected
        if result.num_rejected:
            crit = pvals[result.rejected].max()
            assert np.all(pvals[mismatch] == crit)
        else:
            assert not mismatch.any()


def test_bh_contains_bonferroni():
    """Everything Bonferroni rejects, the step-up rule also rejects."""
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = rng.uniform(0.0, 1.0, size=100) ** 3
        alpha = rng.uniform(0.01, 0.5)
        bh = bh_reject(p, alpha)
        bon = p <= alpha / p.size
        assert np.all(bh.rejected[bon])


def test_bh_permutation_equivariant():
    rng = np.random.default_rng(37)
    p = rng.uniform(0.0, 0.3, size=50)
    perm = rng.permutation(50)
    base = bh_reject(p, 0.1)
    shuffled = bh_reject(p[perm], 0.1)
    np.testing.assert_array_equal(base.rejected[perm], shuffled.rejected)
    assert base.num_rejected == shuffled.num_rejected


def test_bh_handles_underflowed_pvalues():
    p = np.array([0.0, 0.5])  # an exactly-zero p-value must still invert
    result = bh_reject(p, 0.05)
    assert result.rejected[0]
    assert math.isfinite(float(result.realized_threshold_sq))


def test_bh_domain():
    with pytest.raises(ParameterError):
        bh_reject(np.array([0.5, 1.2]), 0.1)
    with pytest.raises(ParameterError):
        bh_reject(np.array([]), 0.1)
    with pytest.raises(ParameterError):
        bh_reject(np.array([0.5]), 1.0)


# -----------------------------------------------------------------------
# Fixed-threshold rule on data.


def test_fixed_threshold_reject_all_and_none():
    x = np.array([0.3, -2.0, 1.0])
    assert fixed_threshold_reject(x, 1.0, 0.0).num_rejected == 3
    assert fixed_threshold_reject(x, 1.0, math.inf).num_rejected == 0


def test_fixed_threshold_hand_example():
    result = fixed_threshold_reject(np.array([3.0, -1.0]), 1.0, 4.0)
    np.testing.assert_array_equal(result.rejected, [True, False])


def test_fixed_threshold_boundary_tie_rejected():
    result = fixed_threshold_reject(np.array([2.0]), 1.0, 4.0)
    assert result.num_rejected == 1


def test_rejection_result_count_check():
    """The count is read off the mask, so a wrong one cannot be passed in."""
    with pytest.raises(TypeError):
        RejectionResult(
            rejected=np.array([True, False]),
            num_rejected=2,
            realized_threshold_sq=ThresholdSq(1.0),
        )
    result = RejectionResult(rejected=[1, 0, 2, 0], realized_threshold_sq=ThresholdSq(1.0))
    assert result.rejected.dtype == bool
    assert result.num_rejected == int(result.rejected.sum()) == 2
    assert type(result.num_rejected) is int


def test_rejection_count_is_taken_from_the_mask_once():
    rejected = np.array([True, False, True])
    result = RejectionResult(rejected=rejected, realized_threshold_sq=ThresholdSq(1.0))
    assert "num_rejected" not in vars(result)
    assert result.num_rejected == 2
    result.rejected[:] = False  # the count is not taken again
    assert result.num_rejected == 2


# -----------------------------------------------------------------------
# Threshold families.


def test_bonferroni_hand_values():
    assert float(bonferroni_threshold(1, 0.05)) == pytest.approx(3.841459, abs=1e-5)
    assert bonferroni_threshold(20, 0.05).z == pytest.approx(3.023341, abs=1e-4)


def test_bonferroni_where_the_tail_underflows():
    """alpha/(2m) below the smallest double: the quantile is taken from
    log alpha - log 2m.  The references are 50-digit mpmath roots of the
    upper tail."""
    assert float(bonferroni_threshold(1e300, 1e-30)) == 1511.932114382412  # exact
    assert float(bonferroni_threshold(10, 5e-324)) == 1485.7287267843553  # 2.8e-16 relative
    # 2m overflows here; log m + log 2 does not.
    assert float(bonferroni_threshold(1.7e308, 1e-300)) == pytest.approx(2792.6176966661891, rel=1e-15)
    result = bh_reject([0.001, 0.3, 0.9], 5e-324)
    assert result.num_rejected == 0
    assert float(result.realized_threshold_sq) == float(bonferroni_threshold(3, 5e-324))


def test_bonferroni_degenerate_level():
    assert float(bonferroni_threshold(1, 0.9999999)) == pytest.approx(0.0, abs=1e-6)


def test_bonferroni_monotone_in_m():
    values = [float(bonferroni_threshold(m, 0.05)) for m in (1, 10, 100, 1000)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bonferroni_asymptotic_hand_value():
    c_sq = bonferroni_threshold_asymptotic(10**6, 0.05)
    want = 2.0 * math.log(10**6 / 0.05)
    want = want - math.log(want) + math.log(2.0 / math.pi)
    assert float(c_sq) == pytest.approx(want, rel=1e-14)
    assert float(c_sq) == pytest.approx(29.6556, abs=2e-4)


def test_bonferroni_asymptotic_tracks_exact():
    """exact - expansion -> 0, monotone, over m = 1e3 ... 1e12."""
    gaps = []
    for k in range(3, 13):
        m = 10.0**k
        gaps.append(abs(float(bonferroni_threshold(m, 0.05)) - float(bonferroni_threshold_asymptotic(m, 0.05))))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05  # observed 0.043 at m = 1e12; shrinks like loglog/log


def test_bonferroni_asymptotic_monotone_in_m():
    values = [float(bonferroni_threshold_asymptotic(m, 0.05)) for m in (1e3, 1e6, 1e9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bonferroni_asymptotic_domain():
    with pytest.raises(ParameterError):
        bonferroni_threshold_asymptotic(1.0, 0.5)  # m/alpha = 2 < e


def test_universal_threshold_values():
    assert float(universal_threshold(100)) == pytest.approx(9.21034, abs=1e-5)
    assert float(universal_threshold(1)) == 0.0
    assert float(universal_threshold(10, d=-20.0)) == 0.0  # floored


def test_replicate_threshold_values():
    assert float(replicate_threshold(100, 100)) == pytest.approx(13.8155, abs=1e-4)
    assert float(replicate_threshold(100, 1)) == float(universal_threshold(100))


def test_replicate_threshold_monotone():
    assert float(replicate_threshold(100, 8)) > float(replicate_threshold(100, 4))
    assert float(replicate_threshold(200, 8)) > float(replicate_threshold(100, 8))


def test_threshold_domains():
    with pytest.raises(ParameterError):
        bonferroni_threshold(0.5, 0.05)
    with pytest.raises(ParameterError):
        universal_threshold(100, d=math.nan)
    with pytest.raises(ParameterError):
        replicate_threshold(100, 0.5)


# -----------------------------------------------------------------------
# Confusion counts.


def test_confusion_nothing_happens():
    result = fixed_threshold_reject(np.zeros(3), 1.0, 4.0)
    counts = confusion(result, np.zeros(3, dtype=bool))
    assert (counts.V, counts.S, counts.K, counts.FN) == (0, 0, 0, 0)


def test_confusion_hand_example():
    result = RejectionResult(
        rejected=np.array([True, True, False]),
        realized_threshold_sq=ThresholdSq(1.0),
    )
    counts = confusion(result, np.array([True, False, False]))
    assert (counts.V, counts.S, counts.K, counts.FN) == (1, 1, 1, 0)
    assert counts.num_rejected == 2


def test_confusion_all_rejected_all_true():
    m = 5
    result = fixed_threshold_reject(np.ones(m), 1.0, 0.0)
    counts = confusion(result, np.ones(m, dtype=bool))
    assert (counts.V, counts.FN) == (0, 0)
    assert counts.S == counts.K == m


def test_confusion_loss():
    counts = ConfusionCounts(V=3, S=2, K=6)
    assert counts.FN == 4
    assert counts.loss(Losses(delta0=2.0, deltaA=0.5)) == pytest.approx(3 * 2.0 + 4 * 0.5)


def test_confusion_counts_validation():
    with pytest.raises(ParameterError):
        ConfusionCounts(V=0, S=2, K=1)  # more true rejections than signals
    with pytest.raises(TypeError):
        ConfusionCounts(V=0, S=1, K=2, FN=0)  # FN is K - S, not an input
    with pytest.raises(ParameterError):
        ConfusionCounts(V=-1, S=0, K=0)
    with pytest.raises(ParameterError):
        ConfusionCounts(V=0, S=0.5, K=1)


def test_confusion_shape_mismatch():
    result = fixed_threshold_reject(np.zeros(3), 1.0, 4.0)
    with pytest.raises(ParameterError):
        confusion(result, np.zeros(4, dtype=bool))


def test_confusion_random_sweep_consistency():
    """V + S = rejections, S <= K, FN = K - S on random masks."""
    rng = np.random.default_rng(61)
    for _ in range(200):
        m = rng.integers(1, 50)
        rejected = rng.random(m) < 0.3
        truth = rng.random(m) < 0.4
        result = RejectionResult(rejected=rejected, realized_threshold_sq=ThresholdSq(1.0))
        counts = confusion(result, truth)
        assert counts.V + counts.S == result.num_rejected
        assert counts.S <= counts.K
        assert counts.FN == counts.K - counts.S
        assert counts.K == int(truth.sum())
