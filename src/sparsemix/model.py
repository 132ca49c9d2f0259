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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterError
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
    "sample_with_means",
]

_REL_TOL = 1e-12


class ThresholdSq(float):
    """A squared rejection threshold (the c^2 in "reject when X^2/sigma^2 >= c^2").

    Behaves as a plain float so it can flow through arithmetic unchanged.
    ``degenerate`` marks the reject-everything case where the unconstrained
    Bayes cutoff fell below zero and was clamped to c^2 = 0.  math.inf is a
    valid value and means "reject nothing".
    """

    __slots__ = ("degenerate",)

    def __new__(cls, value: float, degenerate: bool = False):
        val = float(value)
        if math.isnan(val) or val < 0.0:
            raise ParameterError(f"threshold c^2 must be >= 0, got {value!r}")
        obj = super().__new__(cls, val)
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
    if not cond:
        raise ParameterError(message)


def _finite_pos(value: float, name: str) -> float:
    val = float(value)
    _require(math.isfinite(val) and val > 0.0, f"{name} must be a finite positive real, got {value!r}")
    return val


@dataclass(frozen=True)
class MixtureModel:
    """Mixture parameters; the optional decomposition splits the null variance
    sigma^2 = sigma0^2 + sigma_eps^2 into effect and noise parts (only used by
    the mean-level sampler)."""

    p: float
    sigma_sq: float
    tau_sq: float
    sigma0_sq: float | None = None
    sigma_eps_sq: float | None = None

    def __post_init__(self):
        _require(0.0 < self.p < 1.0, f"p must lie in (0,1), got {self.p!r}")
        _finite_pos(self.sigma_sq, "sigma_sq")
        _finite_pos(self.tau_sq, "tau_sq")
        if (self.sigma0_sq is None) != (self.sigma_eps_sq is None):
            raise ParameterError("sigma0_sq and sigma_eps_sq must be given together")
        if self.sigma0_sq is not None:
            _require(self.sigma0_sq >= 0.0, "sigma0_sq must be >= 0")
            _finite_pos(self.sigma_eps_sq, "sigma_eps_sq")
            total = self.sigma0_sq + self.sigma_eps_sq
            _require(
                abs(total - self.sigma_sq) <= _REL_TOL * self.sigma_sq,
                "sigma0_sq + sigma_eps_sq must equal sigma_sq",
            )

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
        _finite_pos(self.delta0, "delta0")
        _finite_pos(self.deltaA, "deltaA")

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
        _require(
            math.isfinite(float(self.m)) and float(self.m) >= 1.0,
            f"m must be >= 1, got {self.m!r}",
        )

    def int_m(self) -> int:
        mf = float(self.m)
        if mf != int(mf):
            raise ParameterError(f"this operation requires an integer m, got {self.m!r}")
        return int(mf)


@dataclass(frozen=True)
class DerivedParams:
    u: float
    f: float
    delta: float
    v: float

    def __post_init__(self):
        _finite_pos(self.u, "u")
        _finite_pos(self.f, "f")
        _finite_pos(self.delta, "delta")
        _require(self.v > 0.0, "v must be > 0")
        if math.isfinite(self.v):
            expected = self.u * self.f * self.f * self.delta * self.delta
            _require(
                math.isfinite(expected) and abs(self.v - expected) <= _REL_TOL * expected,
                "v must equal u * f^2 * delta^2",
            )

    @property
    def log_v(self) -> float:
        """log v computed from the factors; never overflows for huge f."""
        return math.log(self.u) + 2.0 * math.log(self.f) + 2.0 * math.log(self.delta)

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
    D: float

    def __post_init__(self):
        _require(math.isfinite(self.C) and self.C >= 0.0, "C must be finite and >= 0")
        _require(0.0 < self.D <= 1.0, "D must lie in (0,1]")
        _require(
            abs(self.D - 2.0 * Phi_tail(math.sqrt(self.C))) <= 1e-12,
            "D must equal 2(1 - Phi(sqrt(C)))",
        )

    @classmethod
    def from_limit(cls, C: float) -> "AsymptoticConstants":
        Cf = float(C)
        _require(math.isfinite(Cf) and Cf >= 0.0, "C must be finite and >= 0")
        return cls(C=Cf, D=2.0 * Phi_tail(math.sqrt(Cf)))


def derive(setting: TestingSetting) -> DerivedParams:
    """Collapse a setting to the four numbers the theory runs on."""
    u = setting.model.u
    f = setting.model.f
    delta = setting.losses.delta
    return DerivedParams(u=u, f=f, delta=delta, v=u * f * f * delta * delta)


def oracle_threshold_sq(u: float, v: float | None = None, *, log_v: float | None = None) -> ThresholdSq:
    """Bayes-optimal squared threshold c^2 = (1 + 1/u)(log v + log(1 + 1/u)).

    If the expression is negative the likelihood-ratio cutoff lies below 1
    for every observation and rejecting everything is the Bayes rule: the
    threshold clamps to 0 and is flagged degenerate.

    ``log_v`` may be supplied instead of v when v itself would overflow
    (extreme sparsity); exactly one of the two must be given.
    """
    uf = _finite_pos(u, "u")
    if (v is None) == (log_v is None):
        raise ParameterError("supply exactly one of v or log_v")
    if log_v is None:
        vf = _finite_pos(v, "v")
        lv = math.log(vf)
    else:
        lv = float(log_v)
        _require(math.isfinite(lv), "log_v must be finite")
    a = 1.0 + 1.0 / uf
    c_sq = a * (lv + math.log(a))
    if c_sq < 0.0:
        return ThresholdSq(0.0, degenerate=True)
    return ThresholdSq(c_sq)


def oracle_threshold_sq_raw(model: MixtureModel, losses: Losses) -> ThresholdSq:
    """The same threshold straight from the raw parameters:
    c^2 = ((sigma^2 + tau^2)/tau^2) (log(tau^2/sigma^2 + 1) + 2 log(f * delta))."""
    ratio = (model.sigma_sq + model.tau_sq) / model.tau_sq
    c_sq = ratio * (math.log(model.tau_sq / model.sigma_sq + 1.0) + 2.0 * math.log(model.f * losses.delta))
    if c_sq < 0.0:
        return ThresholdSq(0.0, degenerate=True)
    return ThresholdSq(c_sq)


def _checked_c_sq(c_sq) -> np.ndarray:
    arr = np.asarray(c_sq, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ParameterError("c_sq must be >= 0")
    return arr


def type1_exact(c_sq) -> float:
    """Probability of a false rejection at threshold c^2:
    P(Z^2 >= c^2) = 2(1 - Phi(c)) = erfc(sqrt(c^2/2)).

    The erfc form is tail-accurate and handles the +inf marker (-> 0)
    without a special case.
    """
    if isinstance(c_sq, (float, int, ThresholdSq)):
        value = float(c_sq)
        if math.isnan(value) or value < 0.0:
            raise ParameterError("c_sq must be >= 0")
        return math.erfc(math.sqrt(value / 2.0))
    arr = _checked_c_sq(c_sq)
    return _like(special.erfc(np.sqrt(arr / 2.0)), c_sq)


def type2_exact(c_sq, u: float) -> float:
    """Probability of a miss at threshold c^2 under signal strength u:
    P(Z^2 < c^2/(u+1)) = 2 Phi(sqrt(c^2/(u+1))) - 1 = erf(sqrt(c^2/(2(u+1))))."""
    uf = _finite_pos(u, "u")
    if isinstance(c_sq, (float, int, ThresholdSq)):
        value = float(c_sq)
        if math.isnan(value) or value < 0.0:
            raise ParameterError("c_sq must be >= 0")
        return math.erf(math.sqrt(value / (2.0 * (uf + 1.0))))
    arr = _checked_c_sq(c_sq)
    return _like(special.erf(np.sqrt(arr / (2.0 * (uf + 1.0)))), c_sq)


def error_rates(c_sq, u: float) -> ErrorRates:
    """Both exact error rates of the fixed-threshold rule at c^2."""
    return ErrorRates(t1=type1_exact(c_sq), t2=type2_exact(c_sq, u))


def type1_asymptotic(v: float, consts: AsymptoticConstants) -> float:
    """Leading term of the type I error at the oracle threshold:
    e^{-C/2} sqrt(2 / (pi v log v)).  Requires v > 1."""
    vf = _finite_pos(v, "v")
    _require(vf > 1.0, "type1_asymptotic requires v > 1")
    return math.exp(-consts.C / 2.0) * math.sqrt(2.0 / (math.pi * vf * math.log(vf)))


def type2_asymptotic(u: float, v: float, consts: AsymptoticConstants) -> float:
    """Limit (C > 0) or leading term (C = 0) of the type II error at the oracle.

    C > 0: the constant 2 Phi(sqrt(C)) - 1.  C = 0: sqrt(2 log v / (pi u)),
    which requires v > 1.
    """
    uf = _finite_pos(u, "u")
    if consts.C > 0.0:
        return float(special.erf(math.sqrt(consts.C) / math.sqrt(2.0)))
    vf = _finite_pos(v, "v")
    _require(vf > 1.0, "type2_asymptotic with C = 0 requires v > 1")
    return math.sqrt(2.0 * math.log(vf) / (math.pi * uf))


def sample(setting: TestingSetting, seed, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (truth, X) for all m tests.

    truth_i ~ Bernoulli(p); X_i ~ N(0, sigma^2) under the null and
    N(0, sigma^2 + tau^2) under the alternative (the mean mu_i is
    marginalized out — the risk only depends on this X-marginal).

    Fully determined by the seed; the draw order is fixed (one uniform
    block for truth, one normal block for X) so results are reproducible
    across versions of the calling code.  ``out`` (a float64 array of m
    elements) receives X, with the same values as without it.
    """
    m = setting.int_m()
    model = setting.model
    rng = np.random.default_rng(seed)
    buf = rng.random(m, out=out)
    truth = buf < model.p
    # The normals go into the uniforms' block, which truth no longer needs.
    return truth, _component_normals(rng, truth, model, out=buf)


def _component_normals(
    rng: np.random.Generator, truth: np.ndarray, model: MixtureModel, out: np.ndarray | None = None
) -> np.ndarray:
    """One block of len(truth) standard normals, each times its component's
    scale: sqrt(sigma^2 + tau^2) where truth, sigma elsewhere.  Every element
    gets the same product as against a full scale array, without building one.
    The block is drawn into ``out`` when given (a float array of truth's size)."""
    x = rng.standard_normal(truth.size, out=out)
    alt = x[truth] * math.sqrt(model.sigma_sq + model.tau_sq)
    x *= model.sigma
    x[truth] = alt
    return x


def sample_with_means(setting: TestingSetting, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (truth, mu, X) keeping the latent means.

    Uses the sigma0/sigma_eps decomposition when present, otherwise a pure
    noise model (sigma0^2 = 0): mu_i ~ N(0, sigma0^2) under the null,
    N(0, sigma0^2 + tau^2) under the alternative, and X = mu + noise with
    noise ~ N(0, sigma_eps^2).  The X-marginal matches ``sample``.
    """
    m = setting.int_m()
    model = setting.model
    sigma0_sq = model.sigma0_sq if model.sigma0_sq is not None else 0.0
    sigma_eps_sq = model.sigma_eps_sq if model.sigma_eps_sq is not None else model.sigma_sq
    rng = np.random.default_rng(seed)
    truth = rng.random(m) < model.p
    mu_scale = np.where(truth, math.sqrt(sigma0_sq + model.tau_sq), math.sqrt(sigma0_sq))
    mu = rng.standard_normal(m) * mu_scale
    x = mu + rng.standard_normal(m) * math.sqrt(sigma_eps_sq)
    return truth, mu, x
