"""Multiple-testing procedures on data: BH, Bonferroni, and fixed thresholds.

Everything here operates on a realized sample.  Two-sided p-values for
H_i: mu_i = 0 come from the null scale sigma; the step-up procedure is the
usual "largest i with p_(i) <= i alpha / m" rule, rejecting every p-value
at or below p_(k) (so exact ties with the critical one are rejected too).

Each procedure reports the squared |Z|-scale threshold it effectively
applied, which is what lets simulated procedures be compared against
analytic thresholds on a common scale.  For the step-up rule with no
rejections that realized threshold is the Bonferroni one — the first
critical value it failed to clear.

The step-up rule comes in two forms with the same outcome: ``bh_reject``
takes the p-values, and ``step_up_reject`` takes the statistics and
decides on their |x| tail.  Its critical index k is at most the number of
p-values at or below alpha, and p_(k) <= k alpha / m, so only the tests
with |x| above the level of the last critical value can be rejected.
``step_up_reject`` counts those, tightens the level once to the critical
value of that count, and computes p-values only for the tests above it.
Both forms, and the Monte-Carlo runner, find p_(k) through one helper,
``_critical_pvalue``, which sorts only the candidates that can still be
p_(k).  The statistics-level rules read x in chunks of ``_CHUNK``
elements, checking each chunk as they go, so beyond x they hold a
byte-per-test mask and, for the step-up rule, 8 to 17 bytes per test above
the first level (17 where nearly all of them are sorted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .errors import ParameterError
from .model import Losses, ThresholdSq
from .normal import Phi_inv_upper

__all__ = [
    "RejectionResult",
    "ConfusionCounts",
    "pvalues",
    "bh_reject",
    "step_up_reject",
    "fixed_threshold_reject",
    "bonferroni_threshold",
    "bonferroni_threshold_asymptotic",
    "universal_threshold",
    "replicate_threshold",
    "confusion",
]

_SQRT2 = math.sqrt(2.0)
# Elements a statistics-level rule reads at a time: its temporaries stay
# small whatever m is.
_CHUNK = 1 << 15
# Relative margin on the tail probability by which a screening level on
# |x| undercuts the exact one.
_SLACK = 2.0**-20
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class RejectionResult:
    """Outcome of applying a procedure to one sample.

    realized_threshold_sq is a c^2 such that re-running the fixed-threshold
    rule "reject when X^2/sigma^2 >= c^2" reproduces the same rejection set
    (up to exact boundary ties).
    """

    rejected: np.ndarray
    realized_threshold_sq: ThresholdSq

    def __post_init__(self):
        object.__setattr__(self, "rejected", np.asarray(self.rejected, dtype=bool))

    @cached_property
    def num_rejected(self) -> int:
        """Counted from the mask on first use, once."""
        return int(np.count_nonzero(self.rejected))


@dataclass(frozen=True)
class ConfusionCounts:
    """V false rejections, S true rejections, K true signals, FN = K - S misses."""

    V: int
    S: int
    K: int

    def __post_init__(self):
        for name in ("V", "S", "K"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ParameterError(f"{name} must be a nonnegative integer")
        if self.S > self.K:
            raise ParameterError("need S <= K")

    @property
    def FN(self) -> int:
        return self.K - self.S

    @property
    def num_rejected(self) -> int:
        return self.V + self.S

    def loss(self, losses: Losses) -> float:
        """Additive loss delta0 * V + deltaA * FN."""
        return losses.delta0 * self.V + losses.deltaA * self.FN


def pvalues(x, sigma: float, out=None) -> np.ndarray:
    """Two-sided p-values P(|N(0, sigma^2)| >= |x_i|), computed via erfc so
    the extreme tail keeps full relative accuracy.

    As with a numpy ufunc, ``out`` (an array of x's shape, x itself allowed)
    receives the p-values and is returned; on an error it may hold |x|.
    """
    mag = np.abs(np.asarray(x, dtype=float), out=out)
    # NaN and inf both make the max non-finite; an empty array has no max.
    if mag.size and not np.isfinite(mag.max()):
        raise ParameterError("x must be finite")
    _check_sigma(sigma)
    if out is None and mag.ndim == 0:
        # np.abs of a 0-d array is a numpy scalar, which has no buffer for out=.
        return special.erfc(mag / (sigma * _SQRT2))
    return _tail_pvalues(mag, sigma)


def _tail_pvalues(mag: np.ndarray, sigma: float) -> np.ndarray:
    """erfc(|x| / (sigma sqrt 2)) from |x|, in place: the one formula every
    p-value here comes from."""
    np.divide(mag, sigma * _SQRT2, out=mag)
    return special.erfc(mag, out=mag)


def _check_finite(arr: np.ndarray) -> None:
    # min and max propagate NaN, and an infinity is one of them.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ParameterError("x must be finite")


def _check_sigma(sigma: float) -> None:
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ParameterError("sigma must be a finite positive real")


def _chunks(n: int):
    return ((lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


def _check_level(alpha: float) -> float:
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0,1), got {alpha!r}")
    return float(alpha)


def _check_m(m, name: str = "m") -> float:
    mf = float(m)
    if not (math.isfinite(mf) and mf >= 1.0):
        raise ParameterError(f"{name} must be a real >= 1")
    return mf


def _last_crossing(ordered: np.ndarray, alpha: float, m: int) -> float | None:
    """p_(k) for the largest k with p_(k) <= k alpha / m, given the smallest
    p-values in ascending order (every one at or below the level it was cut
    at), or None if no k qualifies.

    The critical values keep the roundings of alpha * np.arange(1, n + 1) / m.
    They are built a chunk at a time from the top, where the search ends
    when most tests qualify.
    """
    for hi in range(ordered.size, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        crit_values = np.arange(lo + 1, hi + 1, dtype=float)
        crit_values *= alpha
        crit_values /= m
        hits = np.flatnonzero(ordered[lo:hi] <= crit_values)
        if hits.size:
            return float(ordered[lo + hits[-1]])
    return None


def _critical_pvalue(candidates: np.ndarray, alpha: float, m: int) -> float | None:
    """p_(k) of the step-up rule at level alpha over m tests, or None when
    it rejects nothing, from the candidate p-values (left unmodified).

    The candidates must hold every p-value at or below t = N alpha / m, for
    some N >= k (the number at or below alpha * m / m is one such N); others
    above t may be among them.  Then p_(k) <= k alpha / m <= t, so
    k <= #{p <= p_(k)} <= n, the number of candidates, and
    p_(k) <= n alpha / m.  Only the candidates at
    or below that level are sorted: they hold every p-value there, so their
    ranks are their ranks among all m.
    """
    ordered = candidates[candidates <= candidates.size * alpha / m]
    ordered.sort()
    return _last_crossing(ordered, alpha, m)


def _step_up_threshold(crit: float | None, m: int, alpha: float) -> ThresholdSq:
    """The realized c^2 of a step-up decision with critical p-value crit."""
    if crit is None:
        return bonferroni_threshold(m, alpha)
    # Map the critical p-value back to the |Z| scale; a p-value that
    # underflowed to exactly 0 is treated as the smallest positive double.
    z = Phi_inv_upper(max(crit / 2.0, 5e-324))
    return ThresholdSq(z * z)


def bh_reject(pvals, alpha: float) -> RejectionResult:
    """Step-up procedure at level alpha.

    Rejects every hypothesis with p-value <= p_(k) where k is the largest
    index with p_(i) <= i alpha / m; rejects nothing when no index
    qualifies.
    """
    alpha = _check_level(alpha)
    arr = np.asarray(pvals, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("pvals must be a nonempty 1-d array")
    # NaN fails both comparisons, since min and max propagate it.
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ParameterError("p-values must lie in [0, 1]")
    m = arr.size
    # Only p-values at or below the last critical value alpha * m / m (which
    # rounding can put one ulp above alpha) can satisfy p_(i) <= i alpha / m.
    candidates = arr[arr <= alpha * m / m]
    crit = _critical_pvalue(candidates, alpha, m)
    del candidates  # freed before the m-length mask is built
    rejected = np.zeros(m, dtype=bool) if crit is None else arr <= crit
    return RejectionResult(rejected=rejected, realized_threshold_sq=_step_up_threshold(crit, m, alpha))


def _screen_cut(t: float, sigma: float) -> float:
    """A level on |x| that every test with p-value <= t reaches.

    It is the level for a tail probability a relative 2^-20 and a few
    subnormals above t, a margin far wider than the roundings of erfc, of
    the quantile and of the scaling, so none of them can leave such a test
    out.  The few tests it lets in beyond those have p > t; callers decide
    on exact p-values.
    """
    q = 0.5 * t * (1.0 + _SLACK) + 1e-322
    # A subnormal sigma rounds the p-values' scale by more than the margin.
    if q >= 0.5 or sigma < _TINY:
        return 0.0
    return sigma * float(-special.ndtri(q))


def _screen(arr: np.ndarray, cut: float, out: np.ndarray | None = None):
    """(lo, |x| >= cut) for each chunk of the 1-d x starting at lo, as
    x >= cut or x <= -cut: no float temporary.  The chunk masks are views of
    out when it is given (an m-length bool array), else of one reused buffer.
    """
    below = np.empty(min(_CHUNK, arr.size), dtype=bool)
    above = np.empty_like(below) if out is None else None
    for lo, hi in _chunks(arr.size):
        chunk = arr[lo:hi]
        mask = np.greater_equal(chunk, cut, out=above[:hi - lo] if out is None else out[lo:hi])
        yield lo, np.logical_or(mask, np.less_equal(chunk, -cut, out=below[:hi - lo]), out=mask)


def step_up_reject(x, sigma: float, alpha: float) -> RejectionResult:
    """The step-up procedure at level alpha on statistics x with null scale
    sigma: the outcome of bh_reject(pvalues(x, sigma), alpha), with the same
    errors, decided on the |x| tail.

    Three passes read x a chunk at a time:
    1. count n, the tests at the |x| level of the last critical value
       alpha * m / m, checking each chunk.  The critical index k is at most n.
    2. keep the tests at the |x| level of t = n alpha / m, the critical value
       of n; compute their p-values and find p_(k) among them.
    3. mark the tests with p <= p_(k), computing p-values only for the tests
       at its |x| level.
    x is left unmodified.
    """
    arr = np.asarray(x, dtype=float)
    # x is checked a chunk at a time in pass 1; when another argument is
    # bad, all of x is checked first, so the errors keep their order.
    try:
        _check_sigma(sigma)
        alpha = _check_level(alpha)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("pvals must be a nonempty 1-d array")
    except ParameterError:
        _check_finite(arr)
        raise
    m = arr.size
    first_cut = _screen_cut(alpha * m / m, sigma)
    n_screened = 0
    for lo, mask in _screen(arr, first_cut):
        # max propagates NaN, and reads the chunk while it is in cache.  -inf
        # passes every screen, so pvalues' own check raises on it below.
        if not np.isfinite(arr[lo:lo + mask.size].max()):
            raise ParameterError("x must be finite")
        n_screened += np.count_nonzero(mask)
    crit = None
    if n_screened:
        t = n_screened * alpha / m
        # Capped by the first level, the kept tests are at most n_screened.
        kept = np.empty(n_screened)
        size = 0
        for lo, mask in _screen(arr, max(_screen_cut(t, sigma), first_cut)):
            picked = arr[lo:lo + mask.size][mask]
            kept[size:size + picked.size] = picked
            size += picked.size
        # The kept tests hold every p-value at or below t.
        crit = _critical_pvalue(pvalues(kept[:size], sigma, out=kept[:size]), alpha, m)
        del kept  # freed before the m-length mask is built
    if crit is None:
        rejected = np.zeros(m, dtype=bool)
    else:
        rejected = np.empty(m, dtype=bool)
        for lo, mask in _screen(arr, _screen_cut(crit, sigma), out=rejected):
            hits = np.flatnonzero(mask)
            if hits.size:
                mag = np.abs(arr[lo + hits])
                mask[hits[_tail_pvalues(mag, sigma) > crit]] = False
    return RejectionResult(rejected=rejected, realized_threshold_sq=_step_up_threshold(crit, m, alpha))


def fixed_threshold_reject(x, sigma: float, c_sq) -> RejectionResult:
    """Reject H_i exactly when x_i^2 / sigma^2 >= c^2 (ties rejected).

    x is read and checked a chunk at a time, so the only m-length array
    made is the mask.
    """
    arr = np.asarray(x, dtype=float)
    # As in step_up_reject: all of x is checked first when another argument is bad.
    try:
        _check_sigma(sigma)
        c_sq = c_sq if isinstance(c_sq, ThresholdSq) else ThresholdSq(float(c_sq))
    except (ParameterError, TypeError, ValueError):
        _check_finite(arr)
        raise
    bound = float(c_sq)
    flat = arr.reshape(-1)
    rejected = np.empty(flat.size, dtype=bool)
    z = np.empty(min(_CHUNK, flat.size))
    for lo, hi in _chunks(flat.size):
        chunk = np.square(np.divide(flat[lo:hi], sigma, out=z[:hi - lo]), out=z[:hi - lo])
        # The square is NaN for NaN, and inf for +-inf or a finite x whose
        # square overflows; the chunk of x itself tells those apart.
        if not np.isfinite(chunk.max()):
            _check_finite(flat[lo:hi])
        np.greater_equal(chunk, bound, out=rejected[lo:hi])
    return RejectionResult(rejected=rejected.reshape(arr.shape), realized_threshold_sq=c_sq)


def bonferroni_threshold(m, alpha: float) -> ThresholdSq:
    """c^2 = (Phi^{-1}(1 - alpha/(2m)))^2, or 0 when alpha/(2m) >= 1/2."""
    mf = _check_m(m)
    alpha = _check_level(alpha)
    q = alpha / (2.0 * mf)
    if q >= 0.5:
        return ThresholdSq(0.0)
    z = Phi_inv_upper(q)
    return ThresholdSq(z * z)


def bonferroni_threshold_asymptotic(m, alpha: float) -> ThresholdSq:
    """Expansion 2 log(m/alpha) - log(2 log(m/alpha)) + log(2/pi) of the
    Bonferroni threshold for m/alpha -> inf; requires m/alpha > e."""
    mf = _check_m(m)
    alpha = _check_level(alpha)
    big_l = math.log(mf) - math.log(alpha)
    if big_l <= 1.0:
        raise ParameterError("asymptotic Bonferroni threshold requires m/alpha > e")
    return ThresholdSq(2.0 * big_l - math.log(2.0 * big_l) + math.log(2.0 / math.pi))


def universal_threshold(m, d: float = 0.0) -> ThresholdSq:
    """c^2 = 2 log m + d, floored at 0."""
    mf = _check_m(m)
    if not np.isfinite(d):
        raise ParameterError("d must be finite")
    return ThresholdSq(max(2.0 * math.log(mf) + d, 0.0))


def replicate_threshold(m, n, d: float = 0.0) -> ThresholdSq:
    """c^2 = log n + 2 log m + d for n-replicate designs, floored at 0."""
    mf = _check_m(m)
    nf = _check_m(n, name="n")
    if not np.isfinite(d):
        raise ParameterError("d must be finite")
    return ThresholdSq(max(math.log(nf) + 2.0 * math.log(mf) + d, 0.0))


def confusion(result: RejectionResult, truth) -> ConfusionCounts:
    """Cross-tabulate a rejection mask against the true signal indicators."""
    truth_arr = np.asarray(truth, dtype=bool)
    rej = result.rejected
    if truth_arr.shape != rej.shape:
        raise ParameterError("truth and rejection mask must have the same shape")
    k = int(np.count_nonzero(truth_arr))
    s = int(np.count_nonzero(truth_arr[rej]))
    v = result.num_rejected - s
    return ConfusionCounts(V=v, S=s, K=k)
