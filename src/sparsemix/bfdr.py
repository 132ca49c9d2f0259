"""Bayesian FDR of fixed-threshold rules: evaluation, inversion, asymptotics.

For the two-group scale mixture, the BFDR of "reject when X^2/sigma^2 >= c^2"
is

    BFDR(c) = (1-p) t1 / ((1-p) t1 + p (1-t2)),

a strictly decreasing function of c that starts at 1-p and vanishes as
c -> inf, so every level alpha in (0, 1-p) has a unique threshold.
Inversion is done by bisection on the |Z| scale: the map is provably
monotone and bisection cannot be fooled.  A few Newton steps on the
log-odds scale first estimate the root, and a bracket around the estimate,
certified with the function itself, decides the side of the level for
most of the ~48 halvings without evaluating there.  The halvings, and so
every returned threshold and every error, are those of the plain
bisection; a solve evaluates the function about 9 times instead of 48.

The threshold matched to the false-discovery-rate procedure ("GW" here,
after the fixed-point equation it solves) is computed by an independent
bisection on its own defining equation; that it coincides with the BFDR
threshold at level alpha(1-p) is a theorem, and the test suite checks the
two solvers against each other rather than wiring the identity in.  The
two share the starting bracket and the root estimate, which decide where to
evaluate; each threshold comes from bisecting its own function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special

from .errors import _MAX, LevelError, ParameterError, _c_sq, _level, _positive
from .model import (
    AsymptoticConstants,
    DerivedParams,
    MixtureModel,
    ThresholdSq,
    type1_exact,
    type2_exact,
)
from .normal import _INV_SQRT_2PI, _SQRT2, _phi_tail_float

__all__ = [
    "BfdrLevel",
    "BfdrDiagnostics",
    "bfdr_of_threshold",
    "bfdr_threshold",
    "gw_threshold",
    "bfdr_threshold_asymptotic",
    "oracle_bfdr_asymptotic",
    "oracle_bfdr_asymptotic_finite",
    "bfdr_optimality_diagnostics",
    "bfdr_identity_residual",
]

@dataclass(frozen=True)
class BfdrLevel:
    """A target level alpha and its odds r_alpha = alpha/(1-alpha)."""

    alpha: float

    def __post_init__(self):
        _level(self.alpha)

    @property
    def r_alpha(self) -> float:
        return self.alpha / (1.0 - self.alpha)


@dataclass(frozen=True)
class BfdrDiagnostics:
    """Per-point values of the BFDR-rule optimality conditions.

    s_t measures how far the level sits from the scale-matched choice
    r_alpha ~ 1/(delta sqrt(u)); optimality along a regime needs s_t -> 0
    and cond_w2 -> -inf.  t_uvd = delta sqrt(u log v) is the rate scale of
    the oracle's own BFDR.
    """

    s_t: float
    cond_w2: float
    t_uvd: float


def bfdr_of_threshold(model: MixtureModel, c_sq) -> float:
    """BFDR of the fixed-threshold rule at c^2; 1-p at c^2 = 0, -> 0 as c^2 -> inf."""
    c_sq_f = _c_sq(c_sq)
    p = model.p
    if math.isinf(c_sq_f):
        return 0.0
    c = math.sqrt(c_sq_f)
    s = math.sqrt(model.u + 1.0)
    t1 = 2.0 * _phi_tail_float(c)
    alt_tail = 2.0 * _phi_tail_float(c / s)  # = 1 - t2
    if t1 > 0.0:
        num = (1.0 - p) * t1
        return num / (num + p * alt_tail)
    # Deep tail: both tails underflow; work with the log of the tail ratio
    # h = (1 - Phi(c/s)) / (1 - Phi(c)), so BFDR = 1 / (1 + (p/(1-p)) h).
    log_ratio = math.log(p / (1.0 - p)) + float(special.log_ndtr(-c / s)) - float(special.log_ndtr(-c))
    if log_ratio > 36.0:
        # 1/(1+e^x) = e^{-x} to double precision; underflows harmlessly to 0.
        return math.exp(-log_ratio)
    return 1.0 / (1.0 + math.exp(log_ratio))


# A certified bracket [a, b] around the root lets the bisection skip every
# midpoint outside it: fn(a) > target (1 + _MARGIN) and fn(b) < target (1 -
# _MARGIN).  On [0, _Z_ACCURATE] both tails are normal doubles (down to
# about 1e-299), both evaluators take their direct branch, and their
# relative rounding error e stays below _MARGIN / 20 (about 2e-13 at the
# top; a test checks it against mpmath).  The exact function decreases, so
# for z <= a the computed fn(z) >= fn(a) (1 - e)/(1 + e) > target, and for
# b <= z <= _Z_ACCURATE fn(z) < target: each skipped evaluation would have
# moved the bracket the same way.  The root estimate uses math.erfc, whose
# bits reach no result: only the certified bracket does.
_MARGIN = 1e-11
_Z_ACCURATE = 37.0
_NEWTON_STEPS = 12


def _log_tail_and_hazard(x: float) -> tuple[float, float]:
    """log(1 - Phi(x)) and the normal hazard phi(x) / (1 - Phi(x)), from one
    erfc; both finite for the 0 <= x <= _Z_ACCURATE they are used at."""
    tail = 0.5 * math.erfc(x / _SQRT2)
    return math.log(tail), math.exp(-0.5 * x * x) * _INV_SQRT_2PI / tail


def _root_bracket(s: float, log_odds: float, scale: float) -> tuple[float, float] | None:
    """A candidate bracket around the z > 0 with
    log(1-Phi(z)) - log(1-Phi(z/s)) = log_odds, or None.

    Both solvers' equations reduce to this one, and on this log-odds scale
    the left side is concave and decreasing, with the closed-form slope
    h(z/s)/s - h(z) (h the normal hazard).  Newton steps from the large-z
    expansion converge from above after at most one overshoot.  The
    solver's function moves by a relative scale * slope * dz; the bracket
    is the estimate +- twice the margin over that rate, so its ends clear
    the level by about 2 * _MARGIN.  None where a step fails (no slope left
    in the difference, a non-finite value, z leaving (0, _Z_ACCURATE]) or
    no step gets within a quarter of the margin.  The solver certifies the
    bracket with its own function before using it.
    """
    w = 1.0 - 1.0 / (s * s)
    if not (log_odds < 0.0 and w > 0.0):
        return None
    z = min(math.sqrt(max(-2.0 * (log_odds + math.log(s)) / w, 0.0)), _Z_ACCURATE)
    for _ in range(_NEWTON_STEPS):
        log_tail, hazard = _log_tail_and_hazard(z)
        log_tail_s, hazard_s = _log_tail_and_hazard(z / s)
        slope = hazard_s / s - hazard
        if not slope < 0.0:
            return None
        residual = log_tail - log_tail_s - log_odds
        z -= residual / slope
        if not 0.0 < z <= _Z_ACCURATE:
            return None
        if abs(residual) <= 0.25 * _MARGIN:
            half = 2.0 * _MARGIN / (scale * -slope)
            return z - half, z + half
    return None


def _bisect_decreasing(fn, target: float, hi_start: float, near=None) -> float:
    """Root of fn(c) = target for strictly decreasing fn with fn(0) > target.

    Grows the bracket geometrically from hi_start until fn(hi) < target,
    then bisects the |Z|-scale bracket.  It returns a midpoint once the
    bracket is down to ~1e-13 relative width and |fn(mid) - target| <= 1e-11,
    and raises if no midpoint gets there: where fn is steep, a narrow
    bracket alone does not put fn within the tolerance.  Once the bracket
    is two adjacent doubles the midpoint rounds to one of them; the other is
    then the last candidate, returned if it meets the level.

    near is an optional candidate bracket (a, b).  It is certified with fn
    itself (two evaluations); if it holds, every test of fn whose outcome it
    decides is skipped: a point at or below a is known to lie above the
    level, and one in [b, _Z_ACCURATE] below it (see _MARGIN).  The
    arithmetic, the sequence of midpoints, the stopping rule and the errors
    stay those of the plain bisection, and fn is still evaluated once the
    bracket is narrow, at a stall, between a and b, above _Z_ACCURATE and
    everywhere when the candidate fails.  So the result is the same double,
    or the same error, with or without near; only the evaluations differ
    (about 48 per solve without, under 15 with).
    """
    a, b = -math.inf, math.inf
    if near is not None:
        za, zb = near
        if (0.0 < za < zb <= _Z_ACCURATE and fn(za) > target * (1.0 + _MARGIN)
                and fn(zb) < target * (1.0 - _MARGIN)):
            a, b = za, zb

    hi = max(hi_start, 1.0)
    for _ in range(200):
        if hi > a and (b <= hi <= _Z_ACCURATE or fn(hi) < target):
            break
        hi *= 2.0
    else:
        raise ParameterError("failed to bracket the threshold")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        narrow = hi - lo <= 1e-13 * (hi if hi > 1.0 else 1.0)
        if not narrow:  # only the side of the level matters
            if mid <= a:
                lo = mid
                continue
            if b <= mid <= _Z_ACCURATE:
                hi = mid
                continue
        value = fn(mid)
        if narrow and abs(value - target) <= 1e-11:
            return mid
        if mid in (lo, hi):
            other = hi if mid == lo else lo
            if abs(fn(other) - target) <= 1e-11:
                return other
            break
        if value > target:
            lo = mid
        else:
            hi = mid
    raise ParameterError("bisection failed to reach the 1e-11 level tolerance")


def _hi_start(model: MixtureModel) -> float:
    """The bisection's first upper end on the |Z| scale, sized from the
    delta-free composite u f^2: generous by construction, and grown
    geometrically if even that is too small."""
    u = model.u
    log_v1 = math.log(u) + 2.0 * math.log(model.f)
    return math.sqrt(4.0 * (max(log_v1, 0.0) + math.log(u + 2.0) + 50.0))


def bfdr_threshold(model: MixtureModel, level: BfdrLevel) -> ThresholdSq:
    """The unique c^2 with BFDR(c^2) = alpha, for alpha in (0, 1-p).

    Bisection on the monotone map; the returned threshold satisfies
    |BFDR(c^2) - alpha| <= 1e-11; ParameterError when the bisection finds
    no such threshold.
    """
    supremum = 1.0 - model.p
    if level.alpha >= supremum:
        raise LevelError(
            f"alpha={level.alpha!r} is not attainable; BFDR ranges in (0, 1-p] "
            f"with supremum 1-p = {supremum!r} at c^2 = 0",
            supremum=supremum,
        )
    u = model.u
    alpha, p = level.alpha, model.p
    # BFDR odds alpha/(1-alpha) = ((1-p)/p) (1-Phi(c)) / (1-Phi(c/s)).
    near = _root_bracket(
        math.sqrt(u + 1.0),
        math.log(alpha) - math.log1p(-alpha) + math.log(p) - math.log1p(-p),
        1.0 - alpha,
    )
    c = _bisect_decreasing(lambda z: bfdr_of_threshold(model, z * z), alpha, _hi_start(model), near)
    return ThresholdSq(c * c)


def _gw_value(model: MixtureModel, c: float) -> float:
    """Left side of the fixed-point equation the GW threshold solves:
    (1-Phi(c)) / ((1-p)(1-Phi(c)) + p(1-Phi(c/sqrt(u+1))))."""
    p = model.p
    s = math.sqrt(model.u + 1.0)
    t0 = _phi_tail_float(c)
    ta = _phi_tail_float(c / s)
    den = (1.0 - p) * t0 + p * ta
    if den > 0.0 and t0 > 0.0:
        return t0 / den
    log_ratio = math.log(p) + float(special.log_ndtr(-c / s)) - float(special.log_ndtr(-c))
    if log_ratio > 36.0:
        # (1-p) is negligible next to e^{log_ratio}.
        return math.exp(-log_ratio)
    return 1.0 / ((1.0 - p) + math.exp(log_ratio))


def gw_threshold(model: MixtureModel, level: BfdrLevel) -> ThresholdSq:
    """Nonrandom stand-in for the BH threshold: solves the GW equation at alpha.

    Solved by direct bisection on its own equation — not routed through
    bfdr_threshold — so the alpha' = alpha(1-p) equivalence stays a testable
    fact rather than an implementation artifact.
    """
    u = model.u
    alpha, p = level.alpha, model.p
    # (1-Phi(c)) / ((1-p)(1-Phi(c)) + p(1-Phi(c/s))) = alpha, solved for the tail ratio.
    near = _root_bracket(
        math.sqrt(u + 1.0),
        math.log(alpha) + math.log(p) - math.log1p(-alpha * (1.0 - p)),
        1.0 - alpha * (1.0 - p),
    )
    c = _bisect_decreasing(lambda z: _gw_value(model, z), alpha, _hi_start(model), near)
    return ThresholdSq(c * c)


def bfdr_threshold_asymptotic(f: float, level: BfdrLevel, consts: AsymptoticConstants) -> ThresholdSq:
    """Expansion of the BFDR threshold for f/r_alpha -> inf:
    2 log(f/r_alpha) - log(2 log(f/r_alpha)) + log(2/(pi D^2))."""
    big_l = math.log(_positive(f, "f")) - math.log(level.r_alpha)
    if big_l <= 1.0:
        raise ParameterError("asymptotic BFDR threshold requires f/r_alpha > e")
    c_sq = 2.0 * big_l - math.log(2.0 * big_l) + math.log(2.0 / (math.pi * consts.D * consts.D))
    return ThresholdSq(c_sq)


def oracle_bfdr_asymptotic(derived: DerivedParams, consts: AsymptoticConstants) -> float:
    """Leading term of the Bayes oracle's own BFDR along a regime where
    t_uvd = delta sqrt(u log v) diverges: sqrt(2/pi) e^{-C/2} / (D t_uvd)."""
    if derived.log_v <= 0.0:
        raise ParameterError("oracle_bfdr_asymptotic requires v > 1")
    return math.sqrt(2.0 / math.pi) * math.exp(-consts.C / 2.0) / (consts.D * derived.t_uvd)


def oracle_bfdr_asymptotic_finite(consts: AsymptoticConstants, c1: float) -> float:
    """Limit of the oracle's BFDR when t_uvd -> C1 finite:
    1 / (1 + sqrt(pi/2) e^{C/2} D C1).  The regime (diverging vs finite
    t_uvd) is the caller's knowledge, hence the explicit C1 argument."""
    if not 0.0 <= c1 <= _MAX:
        raise ParameterError("C1 must be finite and >= 0")
    return 1.0 / (1.0 + math.sqrt(math.pi / 2.0) * math.exp(consts.C / 2.0) * consts.D * c1)


def bfdr_optimality_diagnostics(derived: DerivedParams, level: BfdrLevel) -> BfdrDiagnostics:
    """s_t, the mixed condition value, and t_uvd at one regime point."""
    log_f = math.log(derived.f)
    big_l = log_f - math.log(level.r_alpha)
    if big_l <= 0.0:
        raise ParameterError("diagnostics require f/r_alpha > 1")
    num = log_f + math.log(derived.delta) + 0.5 * math.log(derived.u)
    if num <= 0.0:
        raise ParameterError("diagnostics require f * delta * sqrt(u) > 1")
    s_t = num / big_l - 1.0
    return BfdrDiagnostics(
        s_t=s_t,
        cond_w2=2.0 * s_t * big_l - math.log(big_l),
        t_uvd=derived.t_uvd,
    )


def bfdr_identity_residual(model: MixtureModel, c_sq) -> float:
    """Residual of the defining identity (1-alpha)(1-p) t1 + alpha p t2 - alpha p
    at alpha = BFDR(c^2); zero up to rounding for every (model, c^2)."""
    alpha = bfdr_of_threshold(model, c_sq)
    p = model.p
    t1 = type1_exact(c_sq)
    t2 = type2_exact(c_sq, model.u)
    return (1.0 - alpha) * (1.0 - p) * t1 + alpha * p * t2 - alpha * p
