"""pvalues, the step-up rule and the fixed-threshold rule against
straightforward references.

The library sorts only the p-values that can reach a critical value,
validates each array with a min and a max, and builds the critical values
a chunk at a time; the references below sort everything, check with
separate passes and allocate freely.  Both must agree exactly: the same
mask, count and realized threshold, and the same errors.  The step-up rule
is checked at its own chunk size and at a chunk of three elements, so
small inputs cross chunk boundaries too.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from sparsemix import (
    ParameterError,
    bh_reject,
    bonferroni_threshold,
    fixed_threshold_reject,
    pvalues,
)
from sparsemix import procedures
from sparsemix.normal import Phi_inv_upper

CHUNK_SIZES = (procedures._CHUNK, 3)


@contextlib.contextmanager
def chunks_of(size):
    """The step-up search builds `size` critical values at a time."""
    saved = procedures._CHUNK
    procedures._CHUNK = size
    try:
        yield
    finally:
        procedures._CHUNK = saved


def reference_pvalues(x, sigma):
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParameterError("x must be finite")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ParameterError(f"sigma must be a finite positive real, got {sigma!r}")
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


def assert_same_result(got, expected):
    mask, threshold_sq = expected
    np.testing.assert_array_equal(got.rejected, mask)
    assert got.rejected.dtype == bool and got.rejected.shape == mask.shape
    assert got.num_rejected == int(mask.sum())
    assert float(got.realized_threshold_sq) == threshold_sq


def assert_same_step_up(pvals, alpha):
    kind, expected = outcome(reference_bh, pvals, alpha)
    for size in CHUNK_SIZES:
        with chunks_of(size):
            if kind == "error":
                assert outcome(bh_reject, pvals, alpha) == (kind, expected)
            else:
                assert_same_result(bh_reject(pvals, alpha), expected)


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


@pytest.mark.parametrize("place", [16, 17])
def test_bh_finds_a_crossing_at_and_below_the_first_window(place):
    """The search looks at the top 16 sorted p-values first.  Here 40 are
    sorted (ten more lie at or below alpha but above 50 alpha / m), and the
    crossing is the 16th from the top, the first window's bottom, or the
    17th, just below it."""
    alpha, m = 0.5, 60
    k = 40 - place + 1
    pvals = np.array([alpha * i / m for i in range(1, k + 1)] + [0.4] * (40 - k) + [0.45] * 10 + [0.9] * 10)
    assert bh_reject(pvals, alpha).num_rejected == k
    assert_same_step_up(pvals, alpha)


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


@st.composite
def tail_and_padding(draw):
    """The p-values at or below a = alpha * m / m that a tail draw makes, and
    m - n more in (a, 1]: critical values and their ties, exact zeros, a
    itself and one ulp above it (a rounded p-value in the tail)."""
    m = draw(st.integers(1, 40))
    alpha = draw(
        st.one_of(
            st.floats(1e-6, 1.0 - 1e-9),
            st.sampled_from([0.05, 0.1, 0.5, 0.949, 0.97, 1.0 - 2.0**-30]),
        )
    )
    a = alpha * m / m
    n = draw(st.one_of(st.integers(0, m), st.sampled_from([0, m])))
    special_values = [alpha * k / m for k in range(1, m + 1)] + [0.0, 5e-324, a, float(np.nextafter(a, 1.0))]
    tail = draw(st.lists(st.one_of(st.sampled_from(special_values), st.floats(0.0, a)), min_size=n, max_size=n))
    above = st.one_of(st.sampled_from([float(np.nextafter(a, 1.0)), 1.0]), st.floats(a, 1.0, exclude_min=True))
    padding = draw(st.lists(above, min_size=m - n, max_size=m - n))
    order = draw(st.permutations(range(m)))
    return np.array(tail, dtype=float), np.array(tail + padding)[order], alpha


@settings(max_examples=400, deadline=None)
@given(tail_and_padding())
@example((np.array([]), np.array([0.7, 0.3]), 0.1))  # n = 0
@example((np.array([0.0, 0.0]), np.array([0.0, 0.0]), 0.1))  # n = m, exact zeros
@example((np.array([0.05, 0.05, 0.05]), np.array([0.05, 0.05, 0.05, 0.5]), 0.2))  # ties at a critical value
def test_critical_pvalue_of_the_tail_matches_the_padded_vector(case):
    """The helper on the tail alone gives what bh_reject gives on the padded
    vector: p_(k), the number rejected and the realized threshold."""
    tail, full, alpha = case
    m = full.size
    before = tail.copy()
    crit = procedures._critical_pvalue(tail, alpha, m)
    np.testing.assert_array_equal(tail, before)
    expected = bh_reject(full, alpha)
    if crit is None:
        assert expected.num_rejected == 0
    else:
        assert crit == full[expected.rejected].max()
        assert int(np.count_nonzero(tail <= crit)) == expected.num_rejected
    assert procedures._step_up_threshold(crit, m, alpha) == expected.realized_threshold_sq


@settings(max_examples=400, deadline=None)
@given(step_up_inputs())
@example((np.array([0.05, 0.05, 0.05, 0.5]), 0.2))  # ties at a critical value
@example((np.full(10, float(np.nextafter(0.949, 1.0))), 0.949))  # the last critical value above alpha
def test_counting_walk_stops_at_the_step_up_index(case):
    """From k = m, k <- #{p <= k alpha / m} falls to the step-up rule's k,
    which the Monte-Carlo walk relies on, and p_(k) is the largest p-value
    at or below k alpha / m."""
    pvals, alpha = case
    m = pvals.size
    k, level = m, alpha * m / m
    while True:
        below = int(np.count_nonzero(pvals <= level))
        assert below <= k
        if below == k:
            break
        k, level = below, below * alpha / m
    expected = bh_reject(pvals, alpha)
    assert k == expected.num_rejected
    if k:
        assert pvals[pvals <= level].max() == pvals[expected.rejected].max()


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


@pytest.mark.parametrize("x", [np.array([0.3, -2.5, 0.0]), np.asarray(-1.5), np.array([])])
def test_pvalues_without_out_leave_x_alone(x):
    before = x.copy()
    pvalues(x, 1.7)
    np.testing.assert_array_equal(x, before)
    assert np.signbit(x).tolist() == np.signbit(before).tolist()


def reference_fixed(x, sigma, c_sq):
    """The fixed-threshold rule as first written: an isfinite array, the
    quotient, then its square."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParameterError("x must be finite")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ParameterError(f"sigma must be a finite positive real, got {sigma!r}")
    return (arr / sigma) ** 2 >= float(c_sq)


def assert_same_fixed(x, sigma, c_sq):
    with np.errstate(over="ignore"):  # x / sigma or its square past the largest double
        kind, expected = outcome(reference_fixed, x, sigma, c_sq)
    if kind == "error":
        assert outcome(fixed_threshold_reject, x, sigma, c_sq) == (kind, expected)
        return
    want = np.asarray(expected, dtype=bool)
    with np.errstate(over="ignore"):
        got = fixed_threshold_reject(x, sigma, c_sq)
    assert got.rejected.dtype == bool and got.rejected.shape == want.shape
    np.testing.assert_array_equal(got.rejected, want)
    assert got.num_rejected == int(want.sum())
    assert float(got.realized_threshold_sq) == float(c_sq)


@st.composite
def fixed_inputs(draw):
    """Arrays of any shape, with values on the boundary x^2 / sigma^2 == c^2
    (and one ulp either side), infinities and NaN mixed in."""
    sigma = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1.0, 0.0, -1.0, np.nan, np.inf])))
    c_sq = draw(st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 4.0, math.inf])))
    edge = math.sqrt(c_sq) * sigma if math.isfinite(c_sq) and math.isfinite(sigma) and sigma > 0 else 1.0
    special_values = [edge, -edge, float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, np.inf)),
                      0.0, -0.0, np.inf, -np.inf, np.nan]
    value = st.one_of(st.sampled_from(special_values), st.floats(-1e3, 1e3))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
    x = draw(hnp.arrays(np.float64, shape, elements=value))
    return x, sigma, c_sq


@settings(max_examples=400, deadline=None)
@given(fixed_inputs())
@example((np.asarray(3.0), 1.5, 4.0))  # 0-d, on the boundary
@example((np.asarray(np.nan), 1.0, 4.0))
@example((np.array([]), 1.0, 4.0))
@example((np.array([]), 0.0, 4.0))
@example((np.array([2.0, -2.0, np.nextafter(2.0, 0.0)]), 1.0, 4.0))
@example((np.array([1.0, -np.inf]), 1.0, 4.0))
@example((np.array([np.inf, 1.0]), np.nan, 4.0))
@example((np.array([1e308, -1e308]), 1e-3, 4.0))  # finite, but the square overflows
@example(([0.5, -3.0], 1.0, math.inf))  # a plain list
def test_fixed_threshold_matches_reference(case):
    assert_same_fixed(*case)


def statistics_step_up(x, sigma, alpha):
    """The step-up rule on statistics, as apply_rule decides a BhRule."""
    return bh_reject(pvalues(x, sigma), alpha)


def reference_statistics_step_up(x, sigma, alpha):
    return reference_bh(reference_pvalues(x, sigma), alpha)


def assert_same_statistics_step_up(x, sigma, alpha, chunk_sizes=CHUNK_SIZES):
    before = np.array(x, dtype=float)
    with np.errstate(over="ignore"):  # |x| / sigma past the largest double
        kind, expected = outcome(reference_statistics_step_up, x, sigma, alpha)
        for size in chunk_sizes:
            with chunks_of(size):
                got_kind, got = outcome(statistics_step_up, x, sigma, alpha)
            if kind == "error":
                assert (got_kind, got) == (kind, expected)
                continue
            assert got_kind == "ok"
            assert_same_result(got, expected)
    after = np.asarray(x, dtype=float)
    np.testing.assert_array_equal(after, before)
    assert np.signbit(after).tolist() == np.signbit(before).tolist()


def _ulps_from(value, n):
    """value moved n ulps away from zero (n > 0) or towards it (n < 0)."""
    away = math.copysign(math.inf, value) if value else math.inf
    for _ in range(abs(n)):
        value = float(np.nextafter(value, away if n > 0 else 0.0))
    return value


@st.composite
def statistics_step_up_inputs(draw):
    """Statistics drawn mostly from where the decision can go wrong: |x|
    whose p-value is a critical value k alpha / m, a few ulps either side of
    it, zero, |x| whose p-value underflows to 0, with both signs and repeats
    for ties."""
    m = draw(st.integers(1, 40))
    alpha = draw(
        st.one_of(
            st.floats(1e-6, 1.0 - 1e-9),
            st.sampled_from([0.05, 0.1, 0.5, 0.949, 0.97, 1.0 - 2.0**-30]),
        )
    )
    sigma = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1.0, 2.7, 0.4])))
    levels = [sigma * Phi_inv_upper(k * alpha / m / 2.0) for k in range(1, m + 1)]
    special_values = [_ulps_from(level, n) for level in levels for n in (-3, -1, 0, 1, 3)]
    special_values += [0.0, 40.0 * sigma, 1e300]
    magnitude = st.one_of(st.sampled_from(special_values), st.floats(0.0, 8.0 * sigma))
    value = st.builds(lambda v, negative: -v if negative else v, magnitude, st.booleans())
    x = draw(st.lists(value, min_size=m, max_size=m))
    return np.array(x), sigma, alpha


@settings(max_examples=400, deadline=None)
@given(statistics_step_up_inputs())
@example((np.array([1.0]), 1.0, 0.1))  # m = 1, nothing rejected
@example((np.array([-40.0]), 1.0, 0.1))  # m = 1, the p-value underflows to 0
@example((np.array([40.0, -50.0, 0.3]), 2.7, 0.05))  # two underflowed p-values
@example((np.array([0.0, -0.0, 3.0]), 0.4, 1.0 - 2.0**-30))  # alpha one ulp-ish below 1
@example((np.full(7, 1.6448536269514722), 1.0, 0.1))  # p == alpha for every test
def test_step_up_on_statistics_matches_reference(case):
    assert_same_statistics_step_up(*case)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("alpha", [1e-4, 0.1, 0.5, 0.97])
def test_step_up_on_all_null_draws_matches_reference(seed, alpha):
    """Only nulls: for most levels no test is rejected and the realized
    threshold is the Bonferroni one."""
    x = 1.3 * np.random.default_rng(seed).standard_normal(3000)
    assert_same_statistics_step_up(x, 1.3, alpha)


@pytest.mark.parametrize("alpha", [1e-4, 0.1, 0.5, 0.97])
@pytest.mark.parametrize("sigma", [1.0, 2.7, 0.4])
def test_step_up_on_mixture_draws_matches_reference(sigma, alpha):
    """Several chunks at the library's own chunk size: at alpha = 0.97 the
    step-up search crosses their boundaries."""
    rng = np.random.default_rng(17)
    m = 2 * procedures._CHUNK + 5
    x = sigma * rng.standard_normal(m)
    x[:400] *= 6.0
    assert_same_statistics_step_up(x, sigma, alpha, chunk_sizes=(procedures._CHUNK,))


@pytest.mark.parametrize(
    "x, sigma, alpha",
    [
        ([0.5, np.nan], 1.0, 0.1),
        ([np.inf, 0.5], 1.0, 0.1),
        ([-np.inf], 1.0, 0.1),
        ([0.5, np.nan], 0.0, 0.1),  # x is checked before sigma
        ([0.5, np.nan], 1.0, 1.0),  # x before alpha
        ([[np.nan]], 1.0, 0.1),  # x before the shape
        ([0.5], 0.0, 1.0),  # sigma before alpha
        ([0.5], -1.0, 0.1),
        ([0.5], np.nan, 0.1),
        ([0.5], np.inf, 0.1),
        ([], 0.0, 0.1),  # sigma before the shape
        ([], 1.0, 0.0),  # alpha before the shape
        ([], 1.0, 0.1),
        (0.5, 1.0, 0.1),
        ([[0.1, 0.2]], 1.0, 0.1),
        ([0.5], 1.0, 0.0),
        ([0.5], 1.0, np.nan),
        ([0.5], 1.0, np.inf),
    ],
)
def test_step_up_on_statistics_bad_inputs_match_reference(x, sigma, alpha):
    assert_same_statistics_step_up(np.asarray(x, dtype=float), sigma, alpha)


@pytest.mark.parametrize(
    "x, sigma",
    [
        ([1e-323], 5e-324),  # a subnormal sigma: the p-value is erfc(2) after roundings
        ([1.96e-320, 1.96e-320], 1e-320),
        ([1e-305, 3e-310, -1.7e308], 1e-310),
        ([3e300, -2e301, 1.7e308], 1e300),  # levels near the largest double
    ],
)
def test_step_up_on_statistics_at_extreme_scales(x, sigma):
    assert_same_statistics_step_up(np.array(x), sigma, 0.1)
