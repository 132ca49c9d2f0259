"""Two-group normal scale mixture: parameters, oracle threshold, error rates.

The observation model: with probability 1-p the statistic is null,
X ~ N(0, sigma^2); with probability p it carries a signal and
X ~ N(0, sigma^2 + tau^2).  Decisions are carried on the squared scale
c^2 = threshold for X^2/sigma^2 throughout the package; conversion to the
|Z| scale happens only at the edges (display, p-values).

Parametrization used everywhere downstream:

    u = tau^2 / sigma^2      signal strength
    f = (1 - p) / p          odds of a null
    delta = delta0 / deltaA  loss ratio (type I over type II)
    v = u * f^2 * delta^2    the composite that drives every threshold

The paper writes an observation as X = mu + eps, a latent effect mu with
null variance sigma0^2 plus noise of variance sigma_eps^2.  Every risk,
threshold and procedure here depends only on the X-marginal, which is the
same scale mixture with sigma^2 = sigma0^2 + sigma_eps^2, so the model
carries sigma^2 alone and the split never enters a computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import _MAX, ParameterError, _at_least_one, _c_sq, _c_sq_array, _finite, _level, _positive
from .normal import Phi_tail, _like

__all__ = [
    "ThresholdSq",
    "MixtureModel",
    "Losses",
    "TestingSetting",
    "DerivedParams",
    "ErrorRates",
    "AsymptoticConstants",
    "derive",
    "oracle_threshold_sq",
    "oracle_threshold_sq_raw",
    "error_rates",
    "type1_exact",
    "type2_exact",
    "type1_asymptotic",
    "type2_asymptotic",
    "sample",
]


class ThresholdSq(float):
    """A squared rejection threshold (the c^2 in "reject when X^2/sigma^2 >= c^2").

    Behaves as a plain float so it can flow through arithmetic unchanged.
    ``degenerate`` marks the reject-everything case where the unconstrained
    Bayes cutoff fell below zero and was clamped to c^2 = 0.  math.inf is a
    valid value and means "reject nothing".
    """

    __slots__ = ("degenerate",)

    def __new__(cls, value: float, degenerate: bool = False):
        obj = super().__new__(cls, _c_sq(value, "threshold c^2"))
        obj.degenerate = bool(degenerate)
        return obj

    @property
    def z(self) -> float:
        """The threshold on the |Z| = |X|/sigma scale."""
        return math.sqrt(self)

    def __repr__(self) -> str:
        if self.degenerate:
            return f"ThresholdSq({float(self)!r}, degenerate=True)"
        return f"ThresholdSq({float(self)!r})"


def _require(cond: bool, message: str) -> None:
    """Raise ParameterError(message) unless cond.  The caller builds message
    before the call, so a check whose message formats a value raises
    directly instead, and formats only when it fails."""
    if not cond:
        raise ParameterError(message)


@dataclass(frozen=True)
class MixtureModel:
    """Mixture parameters: signal weight p, null variance sigma^2 and the
    alternative's variance excess tau^2."""

    p: float
    sigma_sq: float
    tau_sq: float

    def __post_init__(self):
        _level(self.p, "p")
        _positive(self.sigma_sq, "sigma_sq")
        _positive(self.tau_sq, "tau_sq")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma_sq)

    @property
    def u(self) -> float:
        return self.tau_sq / self.sigma_sq

    @property
    def f(self) -> float:
        return (1.0 - self.p) / self.p


@dataclass(frozen=True)
class Losses:
    """Additive loss weights: delta0 per false rejection, deltaA per miss."""

    delta0: float
    deltaA: float

    def __post_init__(self):
        _positive(self.delta0, "delta0")
        _positive(self.deltaA, "deltaA")

    @property
    def delta(self) -> float:
        return self.delta0 / self.deltaA


@dataclass(frozen=True)
class TestingSetting:
    """A mixture model, losses, and the number of tests m.

    m may be a non-integer real: closed-form risks only ever see log m.
    Sampling and Monte Carlo require integral m and check for it.
    """

    model: MixtureModel
    losses: Losses
    m: float

    def __post_init__(self):
        _at_least_one(self.m)

    def int_m(self) -> int:
        mf = float(self.m)
        if mf != int(mf):
            raise ParameterError(f"this operation requires an integer m, got {self.m!r}")
        return int(mf)


@dataclass(frozen=True)
class DerivedParams:
    """u, f and delta, and the composite computed from them at construction:
    v, which may overflow to inf, and log v from the factors, which never
    overflows for huge f."""

    u: float
    f: float
    delta: float
    v: float = field(init=False, repr=False, compare=False)
    log_v: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _positive(self.u, "u")
        _positive(self.f, "f")
        _positive(self.delta, "delta")
        v = self.u * self.f * self.f * self.delta * self.delta
        _require(v > 0.0, "v = u * f^2 * delta^2 underflows to 0")
        object.__setattr__(self, "v", v)
        object.__setattr__(
            self, "log_v", math.log(self.u) + 2.0 * math.log(self.f) + 2.0 * math.log(self.delta)
        )

    @property
    def t_uvd(self) -> float:
        """delta * sqrt(u * log v), the rate scale of the oracle's BFDR decay."""
        lv = self.log_v
        _require(lv > 0.0, "t_uvd requires v > 1")
        return self.delta * math.sqrt(self.u * lv)


@dataclass(frozen=True)
class ErrorRates:
    t1: float
    t2: float

    def __post_init__(self):
        _require(0.0 <= self.t1 <= 1.0, "t1 must lie in [0,1]")
        _require(0.0 <= self.t2 <= 1.0, "t2 must lie in [0,1]")


@dataclass(frozen=True)
class AsymptoticConstants:
    """The limit C of log v / u along a regime, and the asymptotic power
    D = 2(1 - Phi(sqrt(C))) of the oracle there."""

    C: float

    def __post_init__(self):
        _require(0.0 <= self.C <= _MAX, "C must be finite and >= 0")
        object.__setattr__(self, "C", float(self.C))
        _require(self.D > 0.0, "D = 2(1 - Phi(sqrt(C))) underflows to 0")

    @property
    def D(self) -> float:
        return 2.0 * Phi_tail(math.sqrt(self.C))


def derive(setting: TestingSetting) -> DerivedParams:
    """Collapse a setting to the four numbers the theory runs on."""
    return DerivedParams(u=setting.model.u, f=setting.model.f, delta=setting.losses.delta)


def oracle_threshold_sq(u: float, v: float | None = None, *, log_v: float | None = None) -> ThresholdSq:
    """Bayes-optimal squared threshold c^2 = (1 + 1/u)(log v + log(1 + 1/u)).

    If the expression is negative the likelihood-ratio cutoff lies below 1
    for every observation and rejecting everything is the Bayes rule: the
    threshold clamps to 0 and is flagged degenerate.

    ``log_v`` may be supplied instead of v when v itself would overflow
    (extreme sparsity); exactly one of the two must be given.
    """
    uf = _positive(u, "u")
    if (v is None) == (log_v is None):
        raise ParameterError("supply exactly one of v or log_v")
    lv = math.log(_positive(v, "v")) if log_v is None else _finite(log_v, "log_v")
    c_sq = _oracle_c_sq(uf, lv)
    if c_sq < 0.0:
        return ThresholdSq(0.0, degenerate=True)
    return ThresholdSq(c_sq)


def _oracle_c_sq(u: float, log_v: float) -> float:
    """The oracle's c^2 for a checked u and finite log v, before the clamp:
    negative where rejecting everything is the Bayes rule."""
    a = 1.0 + 1.0 / u
    return a * (log_v + math.log(a))


def oracle_threshold_sq_raw(model: MixtureModel, losses: Losses) -> ThresholdSq:
    """The same threshold straight from the raw parameters:
    c^2 = ((sigma^2 + tau^2)/tau^2) (log(tau^2/sigma^2 + 1) + 2 log(f * delta))."""
    ratio = (model.sigma_sq + model.tau_sq) / model.tau_sq
    c_sq = ratio * (math.log(model.tau_sq / model.sigma_sq + 1.0) + 2.0 * math.log(model.f * losses.delta))
    if c_sq < 0.0:
        return ThresholdSq(0.0, degenerate=True)
    return ThresholdSq(c_sq)


def type1_exact(c_sq) -> float:
    """Probability of a false rejection at threshold c^2:
    P(Z^2 >= c^2) = 2(1 - Phi(c)) = erfc(sqrt(c^2/2)).

    The erfc form is tail-accurate and handles the +inf marker (-> 0)
    without a special case.

    A float is computed with math.erfc and an array with scipy.special.erfc,
    and the two differ in the last bits: over 2000 log-uniform c^2 in
    [1e-3, 1e3], 1056 values differ, by at most 2.9e-14 relative.  Results
    that must keep their bits stay on one path.
    """
    if isinstance(c_sq, (float, int, ThresholdSq)):
        return _type1(_c_sq(c_sq))
    arr = _c_sq_array(c_sq)
    return _like(special.erfc(np.sqrt(arr / 2.0)), c_sq)


def _type1(c_sq: float) -> float:
    """type1_exact of a checked float c^2."""
    return math.erfc(math.sqrt(c_sq / 2.0))


def type2_exact(c_sq, u: float) -> float:
    """Probability of a miss at threshold c^2 under signal strength u:
    P(Z^2 < c^2/(u+1)) = 2 Phi(sqrt(c^2/(u+1))) - 1 = erf(sqrt(c^2/(2(u+1)))).

    As in type1_exact, a float goes through math.erf and an array through
    scipy.special.erf, which differ in the last bits (609 of the same 2000
    c^2 at u = 4, by at most 3.9e-16 relative).
    """
    uf = _positive(u, "u")
    if isinstance(c_sq, (float, int, ThresholdSq)):
        return _type2(_c_sq(c_sq), uf)
    arr = _c_sq_array(c_sq)
    return _like(special.erf(np.sqrt(arr / (2.0 * (uf + 1.0)))), c_sq)


def _type2(c_sq: float, u: float) -> float:
    """type2_exact of a checked float c^2 and u."""
    return math.erf(math.sqrt(c_sq / (2.0 * (u + 1.0))))


def error_rates(c_sq, u: float) -> ErrorRates:
    """Both exact error rates of the fixed-threshold rule at c^2."""
    return ErrorRates(t1=type1_exact(c_sq), t2=type2_exact(c_sq, u))


def type1_asymptotic(v: float, consts: AsymptoticConstants) -> float:
    """Leading term of the type I error at the oracle threshold:
    e^{-C/2} sqrt(2 / (pi v log v)).  Requires v > 1."""
    vf = _positive(v, "v")
    _require(vf > 1.0, "type1_asymptotic requires v > 1")
    return math.exp(-consts.C / 2.0) * math.sqrt(2.0 / (math.pi * vf * math.log(vf)))


def type2_asymptotic(u: float, v: float, consts: AsymptoticConstants) -> float:
    """Limit (C > 0) or leading term (C = 0) of the type II error at the oracle.

    C > 0: the constant 2 Phi(sqrt(C)) - 1.  C = 0: sqrt(2 log v / (pi u)),
    which requires v > 1.
    """
    uf = _positive(u, "u")
    if consts.C > 0.0:
        return float(special.erf(math.sqrt(consts.C) / math.sqrt(2.0)))
    vf = _positive(v, "v")
    _require(vf > 1.0, "type2_asymptotic with C = 0 requires v > 1")
    return math.sqrt(2.0 * math.log(vf) / (math.pi * uf))


def sample(setting: TestingSetting, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw (truth, X) for all m tests.

    truth_i ~ Bernoulli(p); X_i ~ N(0, sigma^2) under the null and
    N(0, sigma^2 + tau^2) under the alternative (the mean mu_i is
    marginalized out — the risk only depends on this X-marginal).

    Fully determined by the seed; the draw order is fixed (one uniform
    block for truth, one normal block for X) so results are reproducible
    across versions of the calling code.
    """
    m = setting.int_m()
    model = setting.model
    rng = np.random.default_rng(seed)
    buf = rng.random(m)
    truth = buf < model.p
    # The normals go into the uniforms' block, which truth no longer needs.
    # Each is scaled by its component's sd without building a scale array:
    # every element gets the same product as against one.
    x = rng.standard_normal(m, out=buf)
    alt = x[truth] * math.sqrt(model.sigma_sq + model.tau_sq)
    x *= model.sigma
    x[truth] = alt
    return truth, x
