"""Reproducible Monte-Carlo verification of procedures under the mixture.

Determinism contract: every replicate i draws from its own generator seeded
by SeedSequence(master_seed, spawn_key=(i,)), writes its statistics into
preallocated slot i, and the final reduction runs over the arrays in index
order.  Worker threads only choose *which* slots they fill, never the
stream or the order of the reduction, so reports are bit-identical for any
worker count.  The default worker count comes from the SPARSEMIX_WORKERS
environment variable (fallback: the usable CPUs); numpy releases the GIL
inside the large per-replicate kernels, so threads give real speedup at
large m.  At most one thread per usable CPU and per replicate is started,
whatever the count asked for.  Each thread draws its replicates into one
float block that the calling thread allocated.  A replicate keeps only the
indices of its signals once drawn, and the step-up rule turns the
replicate's own X into its p-values in place, so each replicate in flight
holds about 9 bytes per test (about 18 for a fixed threshold).

Statistic conventions: FDP is V/R with 0/0 := 0; power is the discovered
proportion S/K among the K true signals (0 when the sample has none); loss
is delta0 * V + deltaA * FN.  Standard errors are sample standard
deviations divided by sqrt(reps) — no variance reduction, by design.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bfdr import BfdrLevel, gw_threshold
from .errors import ParameterError
from .model import TestingSetting, _component_normals, sample
from .procedures import ConfusionCounts, bonferroni_threshold
from .rules import BhRule, Rule, _decision

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


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    reps: int

    def __post_init__(self):
        if not (isinstance(self.reps, (int, np.integer)) and self.reps >= 1):
            raise ParameterError("reps must be a positive integer")
        if not (np.isfinite(self.std_error) and self.std_error >= 0.0):
            raise ParameterError("std_error must be >= 0")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        n = samples.size
        if n < 2:
            raise ParameterError("need at least 2 samples for a standard error")
        return cls(
            mean=float(np.mean(samples)),
            std_error=float(np.std(samples, ddof=1) / math.sqrt(n)),
            reps=n,
        )


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
    """SPARSEMIX_WORKERS when set, else the CPUs this process may run on."""
    raw = os.environ.get("SPARSEMIX_WORKERS")
    if raw is None:
        return _usable_cpus()
    try:
        workers = int(raw)
    except ValueError:
        raise ParameterError(f"SPARSEMIX_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ParameterError("worker count must be >= 1")
    return workers


def _check_reps(reps) -> int:
    if not (isinstance(reps, (int, np.integer)) and reps >= 2):
        raise ParameterError("reps must be an integer >= 2")
    return int(reps)


def _replicate_rng(seed, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parallel_fill(fill, reps: int, workers: int | None, m: int) -> None:
    """fill(lo, hi, buf) over spans of the replicates, each span with its own
    float block buf of m elements."""
    w = default_workers() if workers is None else int(workers)
    if w < 1:
        raise ParameterError("worker count must be >= 1")
    # More threads than CPUs or than replicates only add overhead; the
    # reports do not depend on the count.
    w = min(w, _usable_cpus(), reps)
    if w <= 1:
        fill(0, reps, np.empty(m))
        return
    step = -(-reps // w)
    spans = [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]
    # The blocks are allocated here, in the calling thread.  A block that a
    # worker allocates and frees stays in that thread's malloc arena, and
    # how the arenas fragment depends on how the threads interleave, so the
    # process's peak memory would differ from run to run by up to a block.
    with ThreadPoolExecutor(max_workers=w) as pool:
        for future in [pool.submit(fill, lo, hi, np.empty(m)) for lo, hi in spans]:
            future.result()


def _gap_reference(setting: TestingSetting, rule: Rule) -> float | None:
    """|Z|-scale GW threshold to compare realized step-up thresholds against."""
    if isinstance(rule, BhRule) and rule.alpha is not None:
        return math.sqrt(float(gw_threshold(setting.model, BfdrLevel(rule.alpha))))
    return None


def _replicates(setting: TestingSetting, rule: Rule, reps: int, seed, workers, draw) -> dict:
    """Shared replicate loop; `draw(rng, buf)` yields (truth, x) for one
    replicate, with x drawn into buf, a float block of m elements.

    Returns the per-replicate statistics under their McReport field names,
    each an array in index order; "threshold_gap" is present only for the
    step-up rule with a level.
    """
    reps = _check_reps(reps)
    m = setting.int_m()
    losses = setting.losses
    gw_z = _gap_reference(setting, rule)
    bon_z = math.sqrt(float(bonferroni_threshold(m, rule.alpha))) if gw_z is not None else None
    # Resolve once: a fixed threshold is the same for every replicate, and
    # resolving may itself be expensive (bisection).  Each x is the
    # replicate's own, so the step-up rule may overwrite it.
    decide = _decision(rule, setting, overwrite=True)
    loss = np.empty(reps)
    fdp = np.empty(reps)
    any_false = np.empty(reps)
    v_count = np.empty(reps)
    tdp = np.empty(reps)
    gaps = np.empty(reps) if gw_z is not None else None

    def replicate(i: int, buf: np.ndarray) -> None:
        # Its other arrays are freed on return, before the next replicate
        # draws into the same block.
        truth, x = draw(_replicate_rng(seed, i), buf)
        signals = np.flatnonzero(truth)
        del truth  # the few signal indices are all the counts need
        result = decide(x)
        s = int(np.count_nonzero(result.rejected[signals]))
        counts = ConfusionCounts(V=result.num_rejected - s, S=s, K=signals.size, FN=signals.size - s)
        rejected = counts.num_rejected
        loss[i] = counts.loss(losses)
        fdp[i] = counts.V / rejected if rejected > 0 else 0.0
        any_false[i] = 1.0 if counts.V > 0 else 0.0
        v_count[i] = counts.V
        tdp[i] = counts.S / counts.K if counts.K > 0 else 0.0
        if gaps is not None:
            bh_z = min(bon_z, math.sqrt(float(result.realized_threshold_sq)))
            gaps[i] = abs(bh_z - gw_z)

    def fill(lo: int, hi: int, buf: np.ndarray) -> None:
        for i in range(lo, hi):
            replicate(i, buf)

    _parallel_fill(fill, reps, workers, m)
    stats = {"risk": loss, "fdr": fdp, "fwer": any_false, "ev": v_count, "power": tdp}
    if gaps is not None:
        stats["threshold_gap"] = gaps
    return stats


def _report(stats: dict) -> McReport:
    return McReport(**{name: McEstimate.from_samples(values) for name, values in stats.items()})


def mc_run(setting: TestingSetting, rule: Rule, reps, seed, workers: int | None = None) -> McReport:
    """Estimate risk, FDR, FWER, E(V) and the true-discovery proportion of a
    rule by simulation from the mixture."""
    return _report(_replicates(setting, rule, reps, seed, workers, partial(sample, setting)))


def mc_conditional_k(
    setting: TestingSetting, rule: Rule, k, reps, seed, workers: int | None = None
) -> McReport:
    """Same report, conditioned on exactly k signals per replicate.

    Each replicate places k signals at uniformly chosen positions (drawn
    first, then one block of normals), so ev.mean estimates E(V | K = k).
    """
    m = setting.int_m()
    if not (isinstance(k, (int, np.integer)) and 0 <= k):
        raise ParameterError("k must be a nonnegative integer")
    if k > m:
        raise ParameterError(f"k={k} exceeds m={m}")
    k = int(k)

    def draw(rng, buf):
        truth = np.zeros(m, dtype=bool)
        if k:
            truth[rng.choice(m, size=k, replace=False)] = True
        return truth, _component_normals(rng, truth, setting.model, out=buf)

    return _report(_replicates(setting, rule, reps, seed, workers, draw))


def threshold_gap_study(
    setting: TestingSetting,
    alpha: float,
    reps,
    seed,
    epsilon: float,
    workers: int | None = None,
) -> GapStudy:
    """Concentration of the realized step-up threshold c_BH around the fixed
    c_GW at the same level: mean/median gap and P(gap > epsilon).

    epsilon = +inf is an allowed marker and forces exceed_frac = 0.
    It draws the same replicates as mc_run with BhRule(alpha).
    """
    reps = _check_reps(reps)
    if not (epsilon > 0.0) or math.isnan(epsilon):
        raise ParameterError("epsilon must be a positive real (inf allowed)")
    rule = BhRule(BfdrLevel(alpha).alpha)  # BhRule alone would accept alpha=None
    gaps = _replicates(setting, rule, reps, seed, workers, partial(sample, setting))["threshold_gap"]
    return GapStudy(
        gap=McEstimate.from_samples(gaps),
        exceed_frac=float(np.mean(gaps > epsilon)),
        median_gap=float(np.median(gaps)),
    )


def bh_conditional_ev_bound(alpha: float, k) -> float:
    """Upper bound alpha (k/(1-alpha) + 1/(1-alpha)^2) on E(V | K = k) for the
    step-up procedure under independence; valid for k < m (1/alpha_0 - 1)."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError("alpha must lie in (0,1)")
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ParameterError("k must be a nonnegative integer")
    return alpha * (k / (1.0 - alpha) + 1.0 / (1.0 - alpha) ** 2)


def bh_ev_constant(s: float, alpha_inf: float) -> float:
    """Infimum of constants C1 with E(V) < C1 alpha m p along regimes where
    m p -> s and the level converges to alpha_inf; any strictly larger
    constant eventually bounds E(V).  s = +inf drops the additive term."""
    if not (0.0 <= alpha_inf < 1.0):
        raise ParameterError("alpha_inf must lie in [0,1)")
    if math.isnan(s) or s <= 0.0:
        raise ParameterError("s must be positive (inf allowed)")
    base = (2.0 - alpha_inf) / (1.0 - alpha_inf) ** 2
    if math.isinf(s):
        return base
    return base + math.exp(-s) / (s * (1.0 - alpha_inf))
