"""Regimes on the verge of detectability and preset convergence studies.

A regime is a path t -> (m, p, u, delta, ...) along which u and v diverge
with log v / u -> C finite.  The generators here all take u = beta log m and
one of two sparsity families — power (p = a m^{-kappa}) or extreme
(p = z_m / m with log z_m = o(log m)) — optionally with a decaying loss
ratio delta_m = (log m)^{-g} and a level schedule alpha_m.  The declared
limit C follows from the family: 2 kappa / beta for power sparsity,
2 / beta for extreme.

run_convergence turns (regime, rule) into one row per grid point: the
rule's risk (closed form, or Monte-Carlo for the step-up procedure), the
exact optimal risk, their ratio, and the threshold/level diagnostics whose
trends the optimality conditions are stated in.  Exact mode defaults to a
wide geometric grid m = 1e2 ... 1e16, because the log-rate convergence
would be invisible on anything narrower.  The closed forms make that cheap,
not free: on a 2-CPU x86 host a 15-point table takes about 0.2 ms where the
rule's threshold is closed-form, and about 0.6 ms where each point solves
for a BFDR or GW threshold (about 20 us a solve).  A row is a tuple of
floats, so the CLI formats it in one call, at about 0.45 us for each of the
table's 270 cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

from .bfdr import BfdrDiagnostics, BfdrLevel, bfdr_optimality_diagnostics
from .errors import _MAX, ConfigError, ParameterError, _finite, _level, _positive, call_with_fields
from .model import (AsymptoticConstants, DerivedParams, Losses, MixtureModel, TestingSetting,
                    _type1, _type2, derive)
from .montecarlo import McEstimate, mc_run
from .risk import _diagnostics, _oracle_parts, _risk_parts
from .rules import (
    BfdrRule,
    BhRule,
    BonferroniRule,
    GwRule,
    LogVRule,
    ReplicateRule,
    Rule,
    UniversalRule,
    fill_rule,
    is_fixed_threshold,
    threshold_sq,
)

__all__ = [
    "PowerSparsity",
    "ExtremeSparsity",
    "ConstantDelta",
    "DecayingDelta",
    "RegimePoint",
    "Regime",
    "ConvergenceRow",
    "McOptions",
    "DEFAULT_EXACT_GRID",
    "DEFAULT_MC_GRID",
    "PRESET_NAMES",
    "regime_verge",
    "preset",
    "point_setting",
    "run_convergence",
    "CONVERGENCE_COLUMNS",
]

DEFAULT_EXACT_GRID: tuple[float, ...] = tuple(10.0**k for k in range(2, 17))
DEFAULT_MC_GRID: tuple[float, ...] = (1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class PowerSparsity:
    """p_m = a m^{-kappa} with kappa in (0, 1]."""

    kappa: float
    a: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ParameterError("kappa must lie in (0, 1]")
        _positive(self.a, "a")

    def p(self, m: float) -> float:
        return self.a * m**-self.kappa

    @property
    def c_numerator(self) -> float:
        return 2.0 * self.kappa


@dataclass(frozen=True)
class ExtremeSparsity:
    """p_m = s (log m)^log_exponent / m — on the 1/m scale up to slowly
    varying factors, so log z_m = o(log m) automatically."""

    s: float = 1.0
    log_exponent: float = 0.0

    def __post_init__(self):
        _positive(self.s, "s")
        if not 0.0 <= self.log_exponent <= _MAX:
            raise ParameterError("log_exponent must be >= 0")

    def p(self, m: float) -> float:
        return self.s * math.log(m) ** self.log_exponent / m

    @property
    def c_numerator(self) -> float:
        return 2.0


@dataclass(frozen=True)
class ConstantDelta:
    value: float = 1.0

    def __post_init__(self):
        _positive(self.value, "delta")

    def delta(self, m: float) -> float:
        return self.value


@dataclass(frozen=True)
class DecayingDelta:
    """delta_m = (log m)^{-g}, g > 0: vanishing, but log delta_m = o(log m)."""

    g: float = 1.0

    def __post_init__(self):
        _positive(self.g, "g")

    def delta(self, m: float) -> float:
        return math.log(m) ** -self.g


# The families, by the name a config object gives them.
_SPARSITIES = {"power": PowerSparsity, "extreme": ExtremeSparsity}
_DELTA_RULES = {"constant": ConstantDelta, "decaying": DecayingDelta}


@dataclass(frozen=True)
class RegimePoint:
    """One grid point of a regime: m, p, u and delta, the regime's constants,
    and the level alpha and replicate count n of rules that take them from it.

    The point builds its testing setting (sigma^2 = 1, tau^2 = u,
    delta0 = delta, deltaA = 1) and derived = derive(setting) once, at
    construction, so the setting's checks (p in (0,1), u and delta finite
    positive reals, m >= 1) and derive's (f and v representable) reject a bad
    point; a given alpha must lie in (0,1).  c_finite is log v / u at this
    point — the finite-m value of the quantity whose declared limit is consts.C.
    """

    m: float
    p: float
    u: float
    delta: float
    consts: AsymptoticConstants
    alpha: float | None = None
    n: float | None = None
    setting: TestingSetting = field(init=False, repr=False, compare=False)
    derived: DerivedParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        model = MixtureModel(p=self.p, sigma_sq=1.0, tau_sq=self.u)
        setting = TestingSetting(model, Losses(delta0=self.delta, deltaA=1.0), m=self.m)
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "derived", derive(setting))
        if self.alpha is not None:
            _level(self.alpha)

    @property
    def c_finite(self) -> float:
        return self.derived.log_v / self.u


@dataclass(frozen=True)
class Regime:
    name: str
    generator: Callable[[float], RegimePoint]
    t_grid: tuple[float, ...]

    def __post_init__(self):
        try:
            grid = tuple(float(t) for t in self.t_grid)
        except OverflowError:  # an integer beyond the float range
            raise ParameterError("t_grid must hold numbers within the float range") from None
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("t_grid must be strictly increasing")
        object.__setattr__(self, "t_grid", grid)

    def points(self) -> list[RegimePoint]:
        return [self.generator(t) for t in self.t_grid]


def _schedule(rule, name: str) -> Callable[[float], float] | None:
    """Normalize a constant-or-callable per-m schedule."""
    if rule is None:
        return None
    if callable(rule):
        return rule
    value = _finite(rule, name)
    return lambda m: value


def regime_verge(
    beta: float,
    sparsity,
    delta_rule,
    *,
    alpha_rule=None,
    n_rule=None,
    t_grid: Sequence[float] | None = None,
    name: str | None = None,
) -> Regime:
    """Verge-of-detectability regime: u = beta log m over a sparsity family.

    alpha_rule / n_rule may be constants or callables of m; their values are
    attached to each point for rules that take their level or replicate
    count from the regime.
    """
    _positive(beta, "beta")
    if not isinstance(sparsity, tuple(_SPARSITIES.values())):
        raise ParameterError(
            "sparsity must be PowerSparsity or ExtremeSparsity, "
            f"got {type(sparsity).__name__}"
        )
    if not isinstance(delta_rule, tuple(_DELTA_RULES.values())):
        raise ParameterError(
            "delta_rule must be ConstantDelta or DecayingDelta, "
            f"got {type(delta_rule).__name__}"
        )
    alpha_fn = _schedule(alpha_rule, "alpha_rule")
    n_fn = _schedule(n_rule, "n_rule")
    consts = AsymptoticConstants(sparsity.c_numerator / beta)

    def generator(t: float) -> RegimePoint:
        if not 1.0 < t <= _MAX:
            raise ParameterError("regime points need m > 1")
        m = float(t)
        try:  # a power of log m, e.g. (log m)^log_exponent, can overflow
            p, delta = sparsity.p(m), delta_rule.delta(m)
        except OverflowError:
            raise ParameterError(f"the regime's sparsity or delta overflows at m = {m!r}") from None
        if not 0.0 < p < 1.0:
            raise ParameterError(f"sparsity gives p = {p!r} at m = {m!r}, outside (0, 1)")
        return RegimePoint(
            m=m,
            p=p,
            u=beta * math.log(m),
            delta=delta,
            consts=consts,
            alpha=alpha_fn(m) if alpha_fn is not None else None,
            n=n_fn(m) if n_fn is not None else None,
        )

    return Regime(name=name or "verge", generator=generator,
                  t_grid=DEFAULT_EXACT_GRID if t_grid is None else t_grid)


def point_setting(point: RegimePoint) -> TestingSetting:
    """point.setting, kept public while the benchmark's per-layer metrics name it."""
    return point.setting


# ---------------------------------------------------------------------------
# Presets: one named (regime, rule) pair per optimality statement family.


def _inverse_log_level(s1):
    """The level schedule alpha_m = min(s1 / log m, 1/2)."""
    return lambda m: min(s1 / math.log(m), 0.5)


def _preset_universal(s=1.0, beta=2.0, d=0.0):
    regime = regime_verge(
        beta, ExtremeSparsity(s=s), ConstantDelta(), name="lemma_universal"
    )
    return regime, UniversalRule(d=d)


def _preset_replicate(s=1.0, beta=1.0, d=0.0):
    # Replicate designs: n observations averaged per test, scaled so u = n.
    regime = regime_verge(
        beta,
        ExtremeSparsity(s=s),
        ConstantDelta(),
        n_rule=lambda m: beta * math.log(m),
        name="replicate_verge",
    )
    return regime, ReplicateRule(d=d)


def _preset_bfdr_sqrt_level(s=1.0, beta=1.0, s1=1.0):
    # Level schedule alpha = s1/sqrt(n) with n = log(m)/s replicates.
    def n_of(m):
        return math.log(m) / s

    regime = regime_verge(
        beta,
        ExtremeSparsity(s=s),
        ConstantDelta(),
        alpha_rule=lambda m: min(s1 / math.sqrt(n_of(m)), 0.5),
        n_rule=n_of,
        name="bfdr_sqrt_level",
    )
    return regime, BfdrRule()


def _preset_bfdr_fixed_alpha(alpha=0.1, kappa=0.5, beta=2.0, g=1.0):
    regime = regime_verge(
        beta,
        PowerSparsity(kappa=kappa),
        DecayingDelta(g=g),
        alpha_rule=alpha,
        name="bfdr_fixed_alpha",
    )
    return regime, BfdrRule()


def _preset_bfdr_fixed_delta(s1=1.0, kappa=0.5, beta=2.0):
    regime = regime_verge(
        beta,
        PowerSparsity(kappa=kappa),
        ConstantDelta(),
        alpha_rule=_inverse_log_level(s1),
        name="bfdr_fixed_delta",
    )
    return regime, BfdrRule()


def _preset_gw_fixed_alpha(alpha=0.1, kappa=0.5, beta=2.0, g=1.0):
    regime, _ = _preset_bfdr_fixed_alpha(alpha=alpha, kappa=kappa, beta=beta, g=g)
    return replace(regime, name="gw_fixed_alpha"), GwRule()


def _preset_bonferroni_extreme(s=1.0, beta=2.0, s1=1.0):
    regime = regime_verge(
        beta,
        ExtremeSparsity(s=s),
        ConstantDelta(),
        alpha_rule=_inverse_log_level(s1),
        name="bonferroni_extreme",
    )
    return regime, BonferroniRule()


def _preset_bh_fixed_alpha(alpha=0.1, kappa=0.5, beta=2.0, g=1.0):
    regime, _ = _preset_bfdr_fixed_alpha(alpha=alpha, kappa=kappa, beta=beta, g=g)
    return replace(regime, t_grid=DEFAULT_MC_GRID, name="bh_fixed_alpha"), BhRule()


def _preset_bh_fixed_delta(s1=1.0, kappa=0.5, beta=2.0):
    regime, _ = _preset_bfdr_fixed_delta(s1=s1, kappa=kappa, beta=beta)
    return replace(regime, t_grid=DEFAULT_MC_GRID, name="bh_fixed_delta"), BhRule()


def _preset_nonconforming_sublog(s=1.0, beta=2.0, coeff=-3.0):
    # Threshold c^2 = log v - 3 log log v: violates the second optimality
    # condition, so the ratio must stay bounded away from 1.
    regime = regime_verge(
        beta, ExtremeSparsity(s=s), ConstantDelta(), name="nonconforming_sublog"
    )
    return regime, LogVRule(loglog_coeff=coeff)


_PRESETS: dict[str, Callable[..., tuple[Regime, Rule]]] = {
    "lemma_universal": _preset_universal,
    "replicate_verge": _preset_replicate,
    "bfdr_sqrt_level": _preset_bfdr_sqrt_level,
    "bfdr_fixed_alpha": _preset_bfdr_fixed_alpha,
    "bfdr_fixed_delta": _preset_bfdr_fixed_delta,
    "gw_fixed_alpha": _preset_gw_fixed_alpha,
    "bonferroni_extreme": _preset_bonferroni_extreme,
    "bh_fixed_alpha": _preset_bh_fixed_alpha,
    "bh_fixed_delta": _preset_bh_fixed_delta,
    "nonconforming_sublog": _preset_nonconforming_sublog,
}

PRESET_NAMES: tuple[str, ...] = tuple(sorted(_PRESETS))


def preset(name: str, **overrides) -> tuple[Regime, Rule]:
    """Named (regime, rule) pair; overrides tune the family parameters.
    An unknown name or a bad override raises ConfigError."""
    factory = _PRESETS.get(name)
    if factory is None:
        raise ConfigError("preset", f"unknown preset {name!r}; expected one of {list(PRESET_NAMES)}")
    return call_with_fields(factory, overrides, "overrides.")


# ---------------------------------------------------------------------------
# Convergence studies.


@dataclass(frozen=True)
class McOptions:
    reps: int = 400
    seed: int = 0


class ConvergenceRow(NamedTuple):
    """One grid point of a convergence study, a tuple of floats in column
    order; nan marks a diagnostic that is undefined for the rule or regime
    at hand (e.g. z_t for the data-dependent step-up threshold, or bfdr
    diagnostics without a level)."""

    m: float
    p: float
    u: float
    v: float
    c_sq: float
    risk: float
    risk_opt: float
    ratio: float
    z_t: float
    crit2: float
    ratio1: float
    s_t: float
    cond_w2: float
    t_uvd: float
    etr: float
    efr: float
    bo_bh_gap: float
    risk_se: float


CONVERGENCE_COLUMNS: tuple[str, ...] = ConvergenceRow._fields


# The stand-in for level diagnostics that are undefined at a point.
_NO_BFDR_DIAGNOSTICS = BfdrDiagnostics(s_t=math.nan, cond_w2=math.nan, t_uvd=math.nan)


def _bfdr_diag(point: RegimePoint) -> BfdrDiagnostics:
    if point.alpha is None:
        return _NO_BFDR_DIAGNOSTICS
    try:
        return bfdr_optimality_diagnostics(point.derived, BfdrLevel(point.alpha))
    except ParameterError:
        return _NO_BFDR_DIAGNOSTICS


def _bo_bh_gap(point: RegimePoint) -> float:
    """Trend of c^2_oracle - c^2_BH up to an m-independent constant:
    2 log log(1/p) + 2 log alpha.  Sign analysis only; the constant depends
    on the regime."""
    if point.alpha is None or point.p >= math.exp(-1.0):
        return math.nan
    return 2.0 * math.log(math.log(1.0 / point.p)) + 2.0 * math.log(point.alpha)


def _row(point: RegimePoint, c_sq: float, estimate: McEstimate | None = None) -> ConvergenceRow:
    """The table row at one point.  The rule's risk is exact at c_sq unless a
    Monte-Carlo estimate is given; c_sq is nan for a rule without a fixed
    threshold.  The error rates at c_sq feed both the risk and etr/efr.

    The point and its setting are already checked, so every cell comes from
    the float kernels behind risk_from_rates, optimal_risk_exact and
    optimality_diagnostics, with the bits those functions give."""
    setting, d = point.setting, point.derived
    u, log_v = d.u, d.log_v
    if math.isnan(c_sq):
        t1 = t2 = math.nan
    else:
        t1, t2 = _type1(c_sq), _type2(c_sq, u)
    if estimate is None:
        r1, r2 = _risk_parts(setting, t1, t2)
        risk, risk_se = r1 + r2, math.nan
    else:
        risk, risk_se = estimate.mean, estimate.std_error
    r1, r2 = _oracle_parts(setting, u, log_v)
    opt = r1 + r2
    if math.isfinite(c_sq) and log_v > 0.0:
        z_t, ratio1, crit2 = _diagnostics(c_sq, log_v)
        etr = point.m * point.p * (1.0 - t2)
        efr = point.m * (1.0 - point.p) * t1
    else:
        z_t = ratio1 = crit2 = etr = efr = math.nan
    bfdr_diag = _bfdr_diag(point)
    return ConvergenceRow(
        point.m, point.p, point.u, d.v, c_sq, risk, opt, risk / opt, z_t, crit2, ratio1,
        bfdr_diag.s_t, bfdr_diag.cond_w2, bfdr_diag.t_uvd, etr, efr, _bo_bh_gap(point), risk_se,
    )


def run_convergence(
    regime: Regime,
    rule: Rule,
    mode: str = "exact",
    mc_opts: McOptions | None = None,
) -> list[ConvergenceRow]:
    """Evaluate a rule along a regime; one row per grid point, grid order.

    Exact mode covers every fixed-threshold rule via closed forms; the
    step-up procedure has no fixed threshold and requires mc mode, where
    risk is estimated with McOptions replication (per-point streams derived
    from (seed, grid index)).
    """
    if mode not in ("exact", "mc"):
        raise ParameterError(f"mode must be 'exact' or 'mc', got {mode!r}")
    opts = mc_opts or McOptions()
    rows: list[ConvergenceRow] = []
    for index, point in enumerate(regime.points()):
        concrete = fill_rule(rule, alpha=point.alpha, n=point.n)
        if mode == "exact":
            if not is_fixed_threshold(concrete):
                raise ParameterError(
                    "exact mode requires a fixed-threshold rule; "
                    "the step-up procedure needs mode='mc'"
                )
            rows.append(_row(point, float(threshold_sq(concrete, point.setting))))
        else:
            report = mc_run(point.setting, concrete, opts.reps, seed=(int(opts.seed), index))
            fixed = is_fixed_threshold(concrete)
            c_sq = float(threshold_sq(concrete, point.setting)) if fixed else math.nan
            rows.append(_row(point, c_sq, report.risk))
    return rows
