"""Standard normal primitives with tail-accurate evaluation.

Everything downstream lives or dies by the quality of the normal tail:
the two-sided error rates reach the 1e-15 scale in the regimes of
interest, so the CDF is always evaluated through the complementary
error function and never as ``1 - (left CDF)``.  ``Phi_tail`` is the
preferred entry point whenever the upper tail itself is the quantity of
interest; subtracting ``Phi`` from 1 throws the tail away.

All functions accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import _MAX, ParameterError, _finite_array, _float_array, _positive

__all__ = [
    "phi",
    "Phi",
    "Phi_tail",
    "Phi_inv",
    "Phi_inv_upper",
    "TailApprox",
    "normal_tail_approx",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _like(value: np.ndarray, template) -> float | np.ndarray:
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(value)
    return value


def phi(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi)."""
    arr = _finite_array(x, "x")
    return _like(np.exp(-0.5 * arr * arr) * _INV_SQRT_2PI, x)


def Phi(x):
    """Standard normal CDF via erfc; left tail keeps full relative accuracy."""
    arr = _finite_array(x, "x")
    return _like(0.5 * special.erfc(-arr / _SQRT2), x)


def Phi_tail(x):
    """Upper tail 1 - Phi(x), evaluated directly (no cancellation).

    A finite Python float takes a scalar path: the same ufunc on the same
    double as the array path, so the same bits, without the array machinery.
    """
    if type(x) is float and -_MAX <= x <= _MAX:
        return _phi_tail_float(x)
    arr = _finite_array(x, "x")
    return _like(0.5 * special.erfc(arr / _SQRT2), x)


def _phi_tail_float(x: float) -> float:
    """Phi_tail of a Python float, unchecked.  scipy's result becomes a
    Python float at once, so the IEEE operations that follow (every step of
    a bisection, say) run without numpy-scalar dispatch."""
    return 0.5 * float(special.erfc(x / _SQRT2))


def Phi_inv(q):
    """Standard normal quantile.

    A library-grade rational approximation supplies the starting point and
    one Newton step through the tail-accurate CDF pins the round-trip
    contract |Phi(Phi_inv(q)) - q| <= 1e-12.  The residual is formed on
    whichever side of 1/2 the input sits, so no accuracy is lost to
    cancellation before the correction is applied.
    """
    if type(q) is float:
        return _phi_inv_float(q)
    arr = _float_array(q, "q must be finite")
    # One pass for each end of the range; nan propagates to both.
    lo, hi = arr.min(initial=math.inf), arr.max(initial=-math.inf)
    if not (0.0 < lo and hi < 1.0):
        _finite_array(arr, "q")
        raise ParameterError("q must lie strictly inside (0, 1)")
    # A 0-d q goes through as one element: the kernels write in place, and
    # a ufunc gives a 0-d result as a scalar.
    shape, arr = arr.shape, np.atleast_1d(arr)
    x = special.ndtri(arr)
    upper = (1.0 - arr) - 0.5 * special.erfc(x / _SQRT2)
    x = _newton_step(x, np.where(arr <= 0.5, _resid_lower(x, arr), upper))
    return _like(x.reshape(shape), q)


def _phi_inv_lower(q: np.ndarray) -> np.ndarray:
    """Phi_inv of a float array with every q in (0, 1/2], unchecked, as a
    new array; its temporaries are written in place."""
    x = special.ndtri(q)
    return _newton_step(x, _resid_lower(x, q))


def _resid_lower(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Phi(x) - q for q <= 1/2, as a new array."""
    resid = np.divide(x, -_SQRT2)
    special.erfc(resid, out=resid)
    resid *= 0.5
    resid -= q
    return resid


def _newton_step(x: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """x - resid / phi(x), in place in x (resid is overwritten), where
    resid = Phi(x) - q was formed on the side of 1/2 where q sits.  The step
    is skipped where the density has underflowed (ndtri is already exact to
    working precision there)."""
    dens = np.multiply(x, -0.5)
    dens *= x
    np.exp(dens, out=dens)
    dens *= _INV_SQRT_2PI
    if dens.min(initial=math.inf) > 1e-300:
        resid /= dens
    else:
        live = dens > 1e-300
        np.divide(resid, dens, out=resid, where=live)
        resid[~live] = 0.0
    x -= resid
    return x


def _phi_inv_float(q: float) -> float:
    """Phi_inv of a Python float: the same ufuncs on the same doubles as the
    array path, so the same bits, without the array machinery."""
    if not math.isfinite(q):
        raise ParameterError("q must be finite")
    if not 0.0 < q < 1.0:
        raise ParameterError("q must lie strictly inside (0, 1)")
    x = float(special.ndtri(q))
    dens = float(np.exp(-0.5 * x * x)) * _INV_SQRT_2PI
    if q <= 0.5:
        resid = 0.5 * float(special.erfc(-x / _SQRT2)) - q
    else:
        resid = (1.0 - q) - 0.5 * float(special.erfc(x / _SQRT2))
    return x - (resid / dens if dens > 1e-300 else 0.0)


def Phi_inv_upper(q):
    """Quantile of the upper tail: the x with Phi_tail(x) = q.

    Equivalent to Phi_inv(1 - q) but safe for q far below machine epsilon,
    where forming 1 - q would destroy the input.
    """
    return -Phi_inv(q)


def _z_of_pvalue(p: float) -> float:
    """The |Z| whose two-sided p-value is p: Phi_inv_upper(p / 2).  A p-value
    below twice the smallest double (one that underflowed to 0 included) is
    treated as that double."""
    return Phi_inv_upper(max(p / 2.0, 5e-324))


@dataclass(frozen=True)
class TailApprox:
    """Leading-order two-sided tail P(|Z| > c) ~ 2 phi(c)/c.

    ``correction_bound`` bounds |z1(c)| * c^2 where the exact tail equals
    approx * (1 - z1(c)).  The bound c^2/(c^2+1) follows from the two-sided
    Mills inequality c/(c^2+1) < (1-Phi(c))/phi(c) < 1/c, so z1(c) lies in
    (0, 1/(c^2+1)); in particular the approximation always overshoots.
    """

    approx: float
    correction_bound: float


def normal_tail_approx(c: float) -> TailApprox:
    """Mills-ratio approximation of the two-sided tail at c > 0."""
    cf = _positive(c, "c")
    return TailApprox(
        approx=2.0 * float(phi(cf)) / cf,
        correction_bound=cf * cf / (cf * cf + 1.0),
    )
