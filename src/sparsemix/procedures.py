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

``bh_reject`` and the Monte-Carlo runner find p_(k) through one helper,
``_critical_pvalue``, which sorts only the p-values that can still be
p_(k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .errors import (ParameterError, _at_least_one, _count, _finite, _finite_array, _float_array,
                     _level, _positive)
from .model import Losses, ThresholdSq
from .normal import _SQRT2, Phi_inv_upper, _z_of_pvalue

__all__ = [
    "RejectionResult",
    "ConfusionCounts",
    "pvalues",
    "bh_reject",
    "fixed_threshold_reject",
    "bonferroni_threshold",
    "bonferroni_threshold_asymptotic",
    "universal_threshold",
    "replicate_threshold",
    "confusion",
]

# The most critical values the step-up search builds at a time: its
# temporaries stay small however many p-values are sorted.
_CHUNK = 1 << 15


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
            _count(getattr(self, name), name)
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


def pvalues(x, sigma: float) -> np.ndarray:
    """Two-sided p-values P(|N(0, sigma^2)| >= |x_i|), computed via erfc so
    the extreme tail keeps full relative accuracy."""
    mag = np.abs(_finite_array(x, "x"))
    _positive(sigma, "sigma")
    # In place for an array; a 0-d x gives a numpy scalar, divided anew.
    mag /= sigma * _SQRT2
    return special.erfc(mag)


def _last_crossing(ordered: np.ndarray, alpha: float, m: int) -> float | None:
    """p_(k) for the largest k with p_(k) <= k alpha / m, given the smallest
    p-values in ascending order (every one at or below the level it was cut
    at), or None if no k qualifies.

    The critical values keep the roundings of alpha * np.arange(1, n + 1) / m.
    They are built from the top, where the crossing usually sits within a
    few places, in windows of 16 that grow 4-fold after each miss, up to
    _CHUNK.
    """
    hi, width = ordered.size, min(16, _CHUNK)
    while hi > 0:
        lo = max(hi - width, 0)
        crit_values = np.arange(lo + 1, hi + 1, dtype=float)
        crit_values *= alpha
        crit_values /= m
        hits = np.flatnonzero(ordered[lo:hi] <= crit_values)
        if hits.size:
            return float(ordered[lo + hits[-1]])
        hi, width = lo, min(4 * width, _CHUNK)
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
    z = _z_of_pvalue(crit)
    return ThresholdSq(z * z)


def bh_reject(pvals, alpha: float) -> RejectionResult:
    """Step-up procedure at level alpha.

    Rejects every hypothesis with p-value <= p_(k) where k is the largest
    index with p_(i) <= i alpha / m; rejects nothing when no index
    qualifies.
    """
    alpha = _level(alpha)
    arr = _float_array(pvals, "p-values must lie in [0, 1]")
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


def fixed_threshold_reject(x, sigma: float, c_sq) -> RejectionResult:
    """Reject H_i exactly when x_i^2 / sigma^2 >= c^2 (ties rejected)."""
    arr = _finite_array(x, "x")
    _positive(sigma, "sigma")
    c_sq = c_sq if isinstance(c_sq, ThresholdSq) else ThresholdSq(c_sq)
    return RejectionResult(rejected=np.square(arr / sigma) >= float(c_sq), realized_threshold_sq=c_sq)


def bonferroni_threshold(m, alpha: float) -> ThresholdSq:
    """c^2 = (Phi^{-1}(1 - alpha/(2m)))^2.  The checks give alpha < 1 and
    m >= 1, so alpha/(2m) < 1/2 and the quantile lies above the median."""
    mf = _at_least_one(m)
    alpha = _level(alpha)
    q = alpha / (2.0 * mf)
    if q == 0.0:  # underflowed: take the quantile from log q
        z = -float(special.ndtri_exp(math.log(alpha) - (math.log(mf) + math.log(2.0))))
    else:
        z = Phi_inv_upper(q)
    return ThresholdSq(z * z)


def bonferroni_threshold_asymptotic(m, alpha: float) -> ThresholdSq:
    """Expansion 2 log(m/alpha) - log(2 log(m/alpha)) + log(2/pi) of the
    Bonferroni threshold for m/alpha -> inf; requires m/alpha > e."""
    mf = _at_least_one(m)
    alpha = _level(alpha)
    big_l = math.log(mf) - math.log(alpha)
    if big_l <= 1.0:
        raise ParameterError("asymptotic Bonferroni threshold requires m/alpha > e")
    return ThresholdSq(2.0 * big_l - math.log(2.0 * big_l) + math.log(2.0 / math.pi))


def universal_threshold(m, d: float = 0.0) -> ThresholdSq:
    """c^2 = 2 log m + d, floored at 0."""
    mf = _at_least_one(m)
    _finite(d, "d")
    return ThresholdSq(max(2.0 * math.log(mf) + d, 0.0))


def replicate_threshold(m, n, d: float = 0.0) -> ThresholdSq:
    """c^2 = log n + 2 log m + d for n-replicate designs, floored at 0."""
    mf = _at_least_one(m)
    nf = _at_least_one(n, "n")
    _finite(d, "d")
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
