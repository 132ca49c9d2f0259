"""pvalues and the step-up rule against straightforward references.

The library sorts only the p-values that can reach a critical value and
validates each array in one pass; the references below sort everything
and check with separate passes.  Both must agree exactly: the same mask,
count and realized threshold, and the same errors.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from sparsemix import ParameterError, bh_reject, bonferroni_threshold, pvalues
from sparsemix.normal import Phi_inv_upper


def reference_pvalues(x, sigma):
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParameterError("x must be finite")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ParameterError("sigma must be a finite positive real")
    return special.erfc(np.abs(arr) / (sigma * math.sqrt(2.0)))


def reference_bh(pvals, alpha):
    """Full sort, every critical value, three validation passes."""
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0,1), got {alpha!r}")
    arr = np.asarray(pvals, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("pvals must be a nonempty 1-d array")
    if np.any(np.isnan(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ParameterError("p-values must lie in [0, 1]")
    m = arr.size
    ordered = np.sort(arr)
    hits = np.nonzero(ordered <= alpha * np.arange(1, m + 1) / m)[0]
    if hits.size == 0:
        return np.zeros(m, dtype=bool), float(bonferroni_threshold(m, alpha))
    rejected = arr <= ordered[hits[-1]]
    z = Phi_inv_upper(max(ordered[hits[-1]] / 2.0, 5e-324))
    return rejected, z * z


def outcome(fn, *args):
    """("ok", result) or ("error", the ParameterError message)."""
    try:
        return "ok", fn(*args)
    except ParameterError as exc:
        return "error", str(exc)


def assert_same_step_up(pvals, alpha):
    kind, expected = outcome(reference_bh, pvals, alpha)
    if kind == "error":
        assert outcome(bh_reject, pvals, alpha) == (kind, expected)
        return
    got = bh_reject(pvals, alpha)
    mask, threshold_sq = expected
    np.testing.assert_array_equal(got.rejected, mask)
    assert got.rejected.dtype == bool and got.rejected.shape == mask.shape
    assert got.num_rejected == int(mask.sum())
    assert float(got.realized_threshold_sq) == threshold_sq


@st.composite
def step_up_inputs(draw):
    """p-values drawn mostly from the values where the rule can go wrong:
    the critical values i alpha / m, alpha and its neighbours, exact zeros,
    the smallest subnormal and 1, with repeats for ties."""
    m = draw(st.integers(1, 40))
    alpha = draw(
        st.one_of(
            st.floats(1e-6, 1.0 - 1e-9),
            st.sampled_from([0.05, 0.1, 0.5, 0.949, 1.0 - 2.0**-30]),
        )
    )
    special_values = [alpha * k / m for k in range(1, m + 1)] + [
        alpha,
        float(np.nextafter(alpha, 0.0)),
        float(np.nextafter(alpha, 1.0)),
        float(np.nextafter(alpha * m / m, 1.0)),
        0.0,
        5e-324,
        1.0,
    ]
    value = st.one_of(st.sampled_from(special_values), st.floats(0.0, 1.0))
    pvals = draw(st.lists(value, min_size=m, max_size=m))
    return np.array(pvals), alpha


@settings(max_examples=400, deadline=None)
@given(step_up_inputs())
def test_bh_matches_full_sort_reference(case):
    assert_same_step_up(*case)


@pytest.mark.parametrize(
    "pvals, alpha",
    [
        ([0.3], 0.1),  # m = 1, nothing rejected
        ([0.1], 0.1),  # m = 1, p == alpha
        ([0.2, 0.3, 0.9, 0.11], 0.1),  # every p > alpha
        ([0.0, 0.0, 0.7], 0.05),  # exact zeros
        ([0.05, 0.05, 0.05, 0.5], 0.1),  # ties at the critical value
        ([0.1 * 2 / 4, 0.1 * 2 / 4, 0.1 * 4 / 4, 0.3], 0.1),  # p == k alpha / m
        ([0.1] * 7, 0.1),  # all equal to alpha
    ],
)
def test_bh_matches_reference_on_boundary_cases(pvals, alpha):
    assert_same_step_up(np.array(pvals), alpha)


def test_bh_last_critical_value_above_alpha():
    """0.949 * 10 / 10 rounds one ulp above 0.949, so a p-value there is
    rejected by the full rule although it exceeds alpha."""
    alpha, m = 0.949, 10
    p_up = float(np.nextafter(alpha, 1.0))
    assert alpha * m / m == p_up
    result = bh_reject(np.full(m, p_up), alpha)
    assert result.num_rejected == m
    assert_same_step_up(np.full(m, p_up), alpha)


@pytest.mark.parametrize(
    "pvals, alpha",
    [
        ([0.5, np.nan], 0.1),
        ([np.nan], 0.1),
        ([0.5, np.inf], 0.1),
        ([-np.inf, 0.5], 0.1),
        ([0.5, 1.2], 0.1),
        ([-1e-300, 0.5], 0.1),
        ([-0.0, 0.5], 0.1),
        ([], 0.1),
        (0.5, 0.1),
        ([[0.1, 0.2]], 0.1),
        ([0.5], 1.0),
        ([0.5], 0.0),
        ([0.5], np.nan),
        ([np.nan], np.inf),
    ],
)
def test_bh_bad_inputs_match_reference(pvals, alpha):
    assert_same_step_up(np.asarray(pvals, dtype=float), alpha)


def assert_same_pvalues(x, sigma):
    with np.errstate(over="ignore"):  # |x| / sigma past the largest double
        kind, expected = outcome(reference_pvalues, x, sigma)
        if kind == "error":
            assert outcome(pvalues, x, sigma) == (kind, expected)
            return
        got = pvalues(x, sigma)
    assert type(got) is type(expected)
    assert got.dtype == expected.dtype and np.shape(got) == np.shape(expected)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
        elements=st.floats(allow_nan=True, allow_infinity=True),
    ),
    st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, -1.0, np.nan, np.inf])),
)
@example(np.asarray(3.0), 1.0)
@example(np.array([]), 1.0)
@example(np.array([]), 0.0)
@example(np.array([np.nan]), 0.0)
@example(3.0, 1.7)  # plain Python inputs, not arrays
@example(-0.0, 1.7)
@example([0.5, -2.0], 1.7)
@example([[1.0], [-np.inf]], 1.7)
def test_pvalues_match_reference(x, sigma):
    assert_same_pvalues(x, sigma)
