"""Reproducible Monte-Carlo verification of procedures under the mixture.

Determinism contract: every replicate i draws from its own generator seeded
by SeedSequence(master_seed, spawn_key=(i,)), writes its statistics into
column i of one preallocated table with a row per statistic, and the final
reduction runs along the rows of that table, each in index order.  Worker
threads only choose *which* columns they fill, never the stream or the
order of the reduction, so reports are bit-identical for any worker count.
The worker count is workers= of mc_run and mc_conditional_k, else the
SPARSEMIX_WORKERS environment variable, else 1; the CLI and
threshold_gap_study have only the environment variable.  A replicate is a
few scalar draws in Python and holds the GIL, so more threads mostly add
their start-up cost.  At most one thread per usable CPU and per replicate
is started, whatever the count asked for.

Stream 3: a replicate draws only the tail that a rule can reject.  Every
rule here sees the data through its p-values, which are i.i.d. U(0,1)
under the null and erfc(s |Z| / sqrt 2) under the alternative, with
s = sqrt(1 + tau^2/sigma^2) and Z standard normal.  A signal's p-value is
at or below t with chance G(t) = erfc(z_t / (s sqrt 2)), where
z_t = Phi_inv_upper(t / 2).  A fixed threshold c^2 rejects exactly the
p-values at or below a = erfc(c / sqrt 2).  The step-up rule's critical
index k is at most the number of p-values at or below a = alpha * m / m
(Benjamini & Hochberg 1995), so it too rejects only there.  With
q1 = G(a), one replicate draws in this order:

1. K ~ Bin(m, p), the signals (K = k in mc_conditional_k);
2. N0 ~ Bin(m - K, a), the nulls in the tail;
3. N1 ~ Bin(K, q1), the signals in the tail.

A fixed threshold rejects V = N0 nulls and S = N1 signals, with no array at
all; its replicates are the same as under stream 2.

The step-up rule then walks down to its critical index with counts alone.
With N(j) = #{p <= j alpha / m}, the walk j <- N(j) from j = m never rises
and stops at the largest fixed point of N, which is BH's k (the largest j
with N(j) >= j).  Its state is the level t = idx alpha / m of the current
index and the counts N0, N1 at or below it, with idx = m and t = a at the
start.  Given those counts, the null p-values at or below t are i.i.d.
uniform on [0, t] and the signal ones i.i.d. from the signal's law cut at
t, whatever the levels visited before.  So while 0 < n = N0 + N1 < idx a
step sets t' = n alpha / m, draws N0 ~ Bin(N0, t'/t) and
N1 ~ Bin(N1, G(t')/G(t)), and sets idx = n: exact in distribution.  It
ends one of three ways:

- n = 0: nothing is rejected;
- n = idx, the fixed point: k = n, V = N0, S = N1, and p_(k) is the larger
  of the two groups' maxima, t U^(1/N0) and G^-1(G(t) W^(1/N1)) with U, W
  uniform on [0, 1) and (0, 1];
- budget: after `steps` steps, once steps * B > n, the n p-values are drawn
  (the null ones t U, the signal ones erfc(s Phi_inv_upper(W G(t) / 2) /
  sqrt 2)) and p_(k) comes from the helper bh_reject uses, with V and S
  counted at or below it.

B = _STEP_COST = 128 is about what one step costs in p-values drawn, so
the draw that ends a slow walk (at a level near 1) costs no more than the
steps before it, and it holds fewer than B * steps p-values.  V, S, K and
the realized threshold have exactly the law of a draw of all m tests
(sample, then apply_rule), but a seed gives other numbers than that full
draw (stream 1) or the tail draw at level a (stream 2) did.  A step-up
replicate holds at most that small draw: at m = 2e5 and p = 1e-3 its peak
is about 0.06 bytes per test at alpha = 0.1 and 2 at alpha = 0.97, and at
m = 1e9 it ends at the fixed point with no array.  A fixed-threshold one
holds nothing per test.

Statistic conventions: FDP is V/R with 0/0 := 0; power is the discovered
proportion S/K among the K true signals (0 when the sample has none); loss
is delta0 * V + deltaA * FN.  Standard errors are sample standard
deviations divided by sqrt(reps).  The tail draw changes what a replicate
costs, not its law, so they are the full draw's: no variance reduction.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .bfdr import BfdrLevel, gw_threshold
from .errors import _MAX, ParameterError, _count, _level
from .model import TestingSetting
from .normal import _SQRT2, Phi_inv_upper, _z_of_pvalue
from .procedures import _critical_pvalue, _step_up_threshold, bonferroni_threshold
from .rules import BhRule, Rule, _need_alpha, threshold_sq

__all__ = [
    "McEstimate",
    "McReport",
    "GapStudy",
    "mc_run",
    "mc_conditional_k",
    "threshold_gap_study",
    "bh_conditional_ev_bound",
    "bh_ev_constant",
    "default_workers",
]

# Version of the replicate draw above, recorded in the CLI's sidecars: the
# same seed gives other numbers under another stream.
STREAM = 3

# About what one thinning step of the step-up walk costs, in explicit tail
# p-values.  It decides where the walk stops (module docstring), so it is
# part of stream 3's definition, not a knob.
_STEP_COST = 128


# Values per np.std call in McEstimate.from_rows (512 kB of temporary).
_STD_BLOCK = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    reps: int

    def __post_init__(self):
        _count(self.reps, "reps", 1)
        if not 0.0 <= self.std_error <= _MAX:
            raise ParameterError("std_error must be >= 0")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        return cls.from_rows(np.reshape(samples, (1, -1)))[0]

    @classmethod
    def from_rows(cls, table: np.ndarray) -> list["McEstimate"]:
        """One estimate per row of a 2-D table, with the bits its row would
        get alone.  The means take one pass along the rows; the standard
        deviations take blocks of rows, whose temporary copy holds at most
        _STD_BLOCK values or one row."""
        n = table.shape[1]
        if n < 2:
            raise ParameterError("need at least 2 samples for a standard error")
        step = max(1, _STD_BLOCK // n)
        stds = [s for i in range(0, len(table), step) for s in np.std(table[i : i + step], axis=1, ddof=1)]
        return [
            cls(mean=float(mean), std_error=float(std / math.sqrt(n)), reps=n)
            for mean, std in zip(np.mean(table, axis=1), stds)
        ]


@dataclass(frozen=True)
class McReport:
    """Estimates sharing one replicate stream; threshold_gap only for rules
    with a realized data-dependent threshold (the step-up procedure)."""

    risk: McEstimate
    fdr: McEstimate
    fwer: McEstimate
    ev: McEstimate
    power: McEstimate
    threshold_gap: McEstimate | None = None


@dataclass(frozen=True)
class GapStudy:
    """Distribution summary of |c_BH - c_GW| on the |Z| scale."""

    gap: McEstimate
    exceed_frac: float
    median_gap: float


def default_workers() -> int:
    """SPARSEMIX_WORKERS when set, else 1: a replicate holds the GIL, so
    more threads only add their start-up cost."""
    raw = os.environ.get("SPARSEMIX_WORKERS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = raw  # not a count: _count names it
    return _count(workers, "SPARSEMIX_WORKERS", 1)


def _replicate_rng(seed, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parallel_fill(fill, reps: int, workers: int | None) -> None:
    """fill(lo, hi) over spans of the replicates."""
    w = default_workers() if workers is None else _count(workers, "workers", 1)
    # More threads than CPUs or than replicates only add overhead; the
    # reports do not depend on the count.
    w = min(w, _usable_cpus(), reps)
    if w <= 1:
        fill(0, reps)
        return
    step = -(-reps // w)
    with ThreadPoolExecutor(max_workers=w) as pool:
        for future in [pool.submit(fill, lo, min(lo + step, reps)) for lo in range(0, reps, step)]:
            future.result()


@dataclass(frozen=True)
class _Tail:
    """A rule resolved, once, to the tail of p-values it can reject.

    a is the tail level, q1 the chance that a signal's p-value is in the
    tail and s the alternative's scale over the null's.  alpha is the
    step-up level, and gw_z and bon_z are its GW and Bonferroni thresholds
    on the |Z| scale, which the realized threshold is compared against; all
    three are None for a fixed threshold.
    """

    m: int
    p: float
    a: float
    q1: float
    s: float
    alpha: float | None
    gw_z: float | None
    bon_z: float | None


def _alt_tail(t: float, s: float) -> float:
    """G(t) = erfc(z_t / (s sqrt 2)) with z_t = Phi_inv_upper(t / 2): the
    chance that a signal's p-value is at or below t."""
    return math.erfc(_z_of_pvalue(t) / (s * _SQRT2))


def _tail(setting: TestingSetting, rule: Rule) -> _Tail:
    m = setting.int_m()
    s = math.sqrt(1.0 + setting.model.u)
    if isinstance(rule, BhRule):
        alpha = _need_alpha(rule)
        gw_z = math.sqrt(float(gw_threshold(setting.model, BfdrLevel(alpha))))
        bon_z = math.sqrt(float(bonferroni_threshold(m, alpha)))
        a = alpha * m / m
        q1 = _alt_tail(a, s)
    else:
        alpha = gw_z = bon_z = None
        z = math.sqrt(threshold_sq(rule, setting))
        a = math.erfc(z / _SQRT2)
        q1 = math.erfc(z / (s * _SQRT2))
    return _Tail(m=m, p=setting.model.p, a=a, q1=q1, s=s, alpha=alpha, gw_z=gw_z, bon_z=bon_z)


def _tail_pvalues(rng: np.random.Generator, n0: int, n1: int, t: float, g: float, s: float):
    """(all, nulls, alts): n0 null p-values uniform on [0, t] and n1 signal
    p-values from the signal's law cut at t, where G(t) = g, in one array."""
    tail_p = np.empty(n0 + n1)
    nulls = rng.random(out=tail_p[:n0])
    nulls *= t
    # W on (0, 1] gives |Z| = Phi_inv_upper(W g / 2) >= z_t / s, then the
    # p-value erfc(s |Z| / sqrt 2), in place.
    alts = rng.random(out=tail_p[n0:])
    np.subtract(1.0, alts, out=alts)
    alts *= g / 2.0
    # Where g is subnormal the product can round to 0, outside the quantile's domain.
    np.maximum(alts, 5e-324, out=alts)
    z = Phi_inv_upper(alts)
    z *= s / _SQRT2
    special.erfc(z, out=alts)
    return tail_p, nulls, alts


def _replicate_counts(tail: _Tail, rng: np.random.Generator, k: int | None = None):
    """(V, S, K, p_(k)) of one replicate drawn from rng, in the order of the
    module docstring; p_(k) is None for a fixed threshold and when the
    step-up rule rejects nothing.  K = k when k is given."""
    K = int(rng.binomial(tail.m, tail.p)) if k is None else k
    n0 = int(rng.binomial(tail.m - K, tail.a))
    n1 = int(rng.binomial(K, tail.q1))
    alpha = tail.alpha
    if alpha is None:
        return n0, n1, K, None
    # n0 + n1 = #{p <= t} with t = idx alpha / m; walk idx down to BH's k.
    idx, t, g, steps = tail.m, tail.a, tail.q1, 0
    while 0 < n0 + n1 < idx:
        n = n0 + n1
        if steps * _STEP_COST > n:
            tail_p, nulls, alts = _tail_pvalues(rng, n0, n1, t, g, tail.s)
            crit = _critical_pvalue(tail_p, alpha, tail.m)
            if crit is None:
                return 0, 0, K, None
            return int(np.count_nonzero(nulls <= crit)), int(np.count_nonzero(alts <= crit)), K, crit
        t_next = n * alpha / tail.m
        g_next = _alt_tail(t_next, tail.s)
        if n0:
            n0 = int(rng.binomial(n0, t_next / t))
        if n1:
            n1 = int(rng.binomial(n1, min(1.0, g_next / g)))
        idx, t, g, steps = n, t_next, g_next, steps + 1
    if n0 + n1 == 0:
        return 0, 0, K, None
    # A fixed point: all n0 + n1 p-values at or below t are rejected, and
    # p_(k) is the largest, the larger of the two groups' maxima.
    crit = t * rng.random() ** (1.0 / n0) if n0 else 0.0
    if n1:
        w = g * (1.0 - rng.random()) ** (1.0 / n1)
        crit = max(crit, math.erfc(tail.s * _z_of_pvalue(w) / _SQRT2))
    return n0, n1, K, crit


# McReport's fields in the row order of the replicate table; the last is
# kept only for the step-up rule.
_STATS = ("risk", "fdr", "fwer", "ev", "power", "threshold_gap")


def _replicates(setting: TestingSetting, rule: Rule, reps: int, seed, workers, k: int | None = None) -> np.ndarray:
    """Shared replicate loop; every replicate has K = k signals when k is given.

    Returns the per-replicate statistics as one C-contiguous table with a
    row per name in _STATS, replicates in index order along each row; the
    threshold_gap row is there only for the step-up rule.
    """
    reps = _count(reps, "reps", 2)
    delta0, deltaA = setting.losses.delta0, setting.losses.deltaA
    # Resolve once: a fixed threshold is the same for every replicate, and
    # resolving may itself be expensive (bisection).
    tail = _tail(setting, rule)
    m, alpha, gw_z, bon_z = tail.m, tail.alpha, tail.gw_z, tail.bon_z
    names = _STATS if alpha is not None else _STATS[:-1]
    table = np.empty((len(names), reps))
    loss, fdp, any_false, v_count, tdp, *gap_row = table  # row views
    gaps = gap_row[0] if gap_row else None

    def fill(lo: int, hi: int) -> None:
        # V, S and K are counts by construction (0 <= S <= K, 0 <= V <= m - K).
        for i in range(lo, hi):
            v, s, signals, crit = _replicate_counts(tail, _replicate_rng(seed, i), k)
            rejected = v + s
            loss[i] = delta0 * v + deltaA * (signals - s)
            fdp[i] = v / rejected if rejected > 0 else 0.0
            any_false[i] = 1.0 if v > 0 else 0.0
            v_count[i] = v
            tdp[i] = s / signals if signals > 0 else 0.0
            if gaps is not None:
                bh_z = min(bon_z, math.sqrt(float(_step_up_threshold(crit, m, alpha))))
                gaps[i] = abs(bh_z - gw_z)

    _parallel_fill(fill, reps, workers)
    return table


def _report(table: np.ndarray) -> McReport:
    return McReport(**dict(zip(_STATS, McEstimate.from_rows(table))))


def mc_run(setting: TestingSetting, rule: Rule, reps, seed, workers: int | None = None) -> McReport:
    """Estimate risk, FDR, FWER, E(V) and the true-discovery proportion of a
    rule by simulation from the mixture."""
    return _report(_replicates(setting, rule, reps, seed, workers))


def mc_conditional_k(
    setting: TestingSetting, rule: Rule, k, reps, seed, workers: int | None = None
) -> McReport:
    """Same report, conditioned on exactly k signals per replicate, so
    ev.mean estimates E(V | K = k)."""
    m = setting.int_m()
    k = _count(k, "k")
    if k > m:
        raise ParameterError(f"k={k} exceeds m={m}")
    return _report(_replicates(setting, rule, reps, seed, workers, k))


def threshold_gap_study(setting: TestingSetting, alpha: float, reps, seed, epsilon: float) -> GapStudy:
    """Concentration of the realized step-up threshold c_BH around the fixed
    c_GW at the same level: mean/median gap and P(gap > epsilon).

    epsilon = +inf is an allowed marker and forces exceed_frac = 0.
    It draws the same replicates as mc_run with BhRule(alpha), on the
    worker threads that SPARSEMIX_WORKERS asks for.
    """
    reps = _count(reps, "reps", 2)
    if not (0.0 < epsilon <= _MAX or epsilon == math.inf):
        raise ParameterError("epsilon must be a positive real (inf allowed)")
    rule = BhRule(BfdrLevel(alpha).alpha)  # BhRule alone would accept alpha=None
    gaps = _replicates(setting, rule, reps, seed, None)[-1]
    return GapStudy(
        gap=McEstimate.from_samples(gaps),
        exceed_frac=float(np.mean(gaps > epsilon)),
        median_gap=float(np.median(gaps)),
    )


def bh_conditional_ev_bound(alpha: float, k) -> float:
    """Upper bound alpha (k/(1-alpha) + 1/(1-alpha)^2) on E(V | K = k) for the
    step-up procedure under independence; valid for k < m (1/alpha_0 - 1)."""
    _level(alpha)
    k = _count(k, "k")
    return alpha * (k / (1.0 - alpha) + 1.0 / (1.0 - alpha) ** 2)


def bh_ev_constant(s: float, alpha_inf: float) -> float:
    """Infimum of constants C1 with E(V) < C1 alpha m p along regimes where
    m p -> s and the level converges to alpha_inf; any strictly larger
    constant eventually bounds E(V).  s = +inf drops the additive term."""
    if not (0.0 <= alpha_inf < 1.0):
        raise ParameterError("alpha_inf must lie in [0,1)")
    if not (0.0 < s <= _MAX or s == math.inf):
        raise ParameterError("s must be positive (inf allowed)")
    base = (2.0 - alpha_inf) / (1.0 - alpha_inf) ** 2
    if math.isinf(s):
        return base
    return base + math.exp(-s) / (s * (1.0 - alpha_inf))
