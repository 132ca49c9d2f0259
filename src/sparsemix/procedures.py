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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "fixed_threshold_reject",
    "bonferroni_threshold",
    "bonferroni_threshold_asymptotic",
    "universal_threshold",
    "replicate_threshold",
    "confusion",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RejectionResult:
    """Outcome of applying a procedure to one sample.

    realized_threshold_sq is a c^2 such that re-running the fixed-threshold
    rule "reject when X^2/sigma^2 >= c^2" reproduces the same rejection set
    (up to exact boundary ties).
    """

    rejected: np.ndarray
    num_rejected: int
    realized_threshold_sq: ThresholdSq

    def __post_init__(self):
        rej = np.asarray(self.rejected, dtype=bool)
        object.__setattr__(self, "rejected", rej)
        if self.num_rejected != int(rej.sum()):
            raise ParameterError("num_rejected does not match the rejection mask")


@dataclass(frozen=True)
class ConfusionCounts:
    """V false rejections, S true rejections, K true signals, FN = K - S misses."""

    V: int
    S: int
    K: int
    FN: int

    def __post_init__(self):
        for name in ("V", "S", "K", "FN"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ParameterError(f"{name} must be a nonnegative integer")
        if self.S > self.K or self.FN != self.K - self.S:
            raise ParameterError("need S <= K and FN = K - S")

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
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ParameterError("sigma must be a finite positive real")
    if out is None and mag.ndim == 0:
        # np.abs of a 0-d array is a numpy scalar, which has no buffer for out=.
        return special.erfc(mag / (sigma * _SQRT2))
    np.divide(mag, sigma * _SQRT2, out=mag)
    return special.erfc(mag, out=mag)


def _check_level(alpha: float) -> float:
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0,1), got {alpha!r}")
    return float(alpha)


def _check_m(m, name: str = "m") -> float:
    mf = float(m)
    if not (math.isfinite(mf) and mf >= 1.0):
        raise ParameterError(f"{name} must be a real >= 1")
    return mf


def _critical_pvalue(arr: np.ndarray, alpha: float) -> float | None:
    """p_(k) for the largest k with p_(k) <= k alpha / m, or None if no k
    qualifies.  Its sorted copy is freed on return, before the caller builds
    the m-length rejection mask."""
    m = arr.size
    # Only p-values at or below the last critical value alpha * m / m (which
    # rounding can put one ulp above alpha) can satisfy p_(i) <= i alpha / m.
    # They are the smallest ones, so sorting just them keeps their ranks.
    ordered = arr[arr <= alpha * m / m]
    ordered.sort()
    # The critical values i alpha / m, with the same roundings as
    # alpha * np.arange(1, n + 1) / m, built without further temporaries.
    crit_values = np.arange(1, ordered.size + 1, dtype=float)
    crit_values *= alpha
    crit_values /= m
    hits = np.nonzero(ordered <= crit_values)[0]
    return ordered[hits[-1]] if hits.size else None


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
    crit = _critical_pvalue(arr, alpha)
    if crit is None:
        return RejectionResult(
            rejected=np.zeros(m, dtype=bool),
            num_rejected=0,
            realized_threshold_sq=bonferroni_threshold(m, alpha),
        )
    rejected = arr <= crit
    # Map the critical p-value back to the |Z| scale; a p-value that
    # underflowed to exactly 0 is treated as the smallest positive double.
    z = Phi_inv_upper(max(crit / 2.0, 5e-324))
    return RejectionResult(
        rejected=rejected,
        num_rejected=int(rejected.sum()),
        realized_threshold_sq=ThresholdSq(z * z),
    )


def fixed_threshold_reject(x, sigma: float, c_sq) -> RejectionResult:
    """Reject H_i exactly when x_i^2 / sigma^2 >= c^2 (ties rejected)."""
    arr = np.asarray(x, dtype=float)
    # min and max propagate NaN, and an infinity is one of them.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ParameterError("x must be finite")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ParameterError("sigma must be a finite positive real")
    c_sq = c_sq if isinstance(c_sq, ThresholdSq) else ThresholdSq(float(c_sq))
    z = np.asarray(arr / sigma)  # a numpy scalar for 0-d input; square needs a buffer
    rejected = np.square(z, out=z) >= float(c_sq)
    return RejectionResult(
        rejected=rejected,
        num_rejected=int(rejected.sum()),
        realized_threshold_sq=c_sq,
    )


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
    return ConfusionCounts(V=v, S=s, K=k, FN=k - s)
