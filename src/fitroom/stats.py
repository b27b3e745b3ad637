"""Per-run metrics, sample summaries, and the rank-sum test used to compare
experiments.

The two-sample test is Mann-Whitney U, two-sided.  Small tie-free samples
get an exact p-value from the counting recurrence; anything else falls back
to the normal approximation with continuity and tie corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import fmean, median, stdev
from typing import Sequence


@dataclass(frozen=True)
class RunMetrics:
    """What one replication of either model reports."""

    mean_wait: float
    staff_util: float
    cubicle_util: float
    served: int
    not_served: int
    service_time_changes: int


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    sd: float
    median: float


def summarize(sample: Sequence[float]) -> SummaryStats:
    if len(sample) == 0:
        raise ValueError("cannot summarize an empty sample")
    xs = [float(x) for x in sample]
    return SummaryStats(
        n=len(xs),
        mean=fmean(xs),
        sd=stdev(xs) if len(xs) > 1 else 0.0,
        median=float(median(xs)),
    )


@dataclass(frozen=True)
class MannWhitneyResult:
    u: float
    p_value: float
    method: str  # "exact" or "approx"
    tie_corrected: bool


@dataclass(frozen=True)
class HypothesisOutcome:
    label: str
    p_value: float
    alpha: float
    decision: str  # "reject" or "fail-to-reject"


def _ranks(pooled: Sequence[float]) -> tuple[list[float], float]:
    """1-based average ranks plus the tie term sum(t^3 - t) over tie groups."""
    n = len(pooled)
    order = sorted(range(n), key=pooled.__getitem__)
    ranks = [0.0] * n
    tie_term = 0.0
    i = 0
    while i < n:
        j = i
        v = pooled[order[i]]
        while j + 1 < n and pooled[order[j + 1]] == v:
            j += 1
        avg = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        t = j - i + 1
        if t > 1:
            tie_term += t * t * t - t
        i = j + 1
    return ranks, tie_term


@lru_cache(maxsize=None)
def _count_u(n: int, m: int, u: int) -> int:
    """Number of n-vs-m rank assignments whose U statistic equals u."""
    if u < 0 or u > n * m:
        return 0
    if n == 0 or m == 0:
        return 1  # u must be 0 here, the range check above did the rest
    return _count_u(n - 1, m, u - m) + _count_u(n, m - 1, u)


def _exact_two_sided(u_min: int, n: int, m: int) -> float:
    total = math.comb(n + m, n)
    below = sum(_count_u(n, m, k) for k in range(u_min + 1))
    return min(1.0, 2.0 * below / total)


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mann_whitney_u(a: Sequence[float], b: Sequence[float],
                   method: str = "auto") -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test.

    ``method`` is normally left at "auto": exact when min(n, m) <= 8 and the
    pooled sample is tie-free, the corrected normal approximation otherwise.
    Forcing "exact" on larger tie-free samples is supported (it is how the
    approximation gets validated) but slow.
    """
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    n, m = len(xs), len(ys)
    ranks, tie_term = _ranks(xs + ys)
    ties = tie_term > 0.0
    r_a = sum(ranks[:n])
    u_a = r_a - n * (n + 1) / 2.0
    u_b = n * m - u_a
    u_min = min(u_a, u_b)

    if method == "auto":
        use_exact = min(n, m) <= 8 and not ties
    elif method == "exact":
        if ties:
            raise ValueError("exact method requires tie-free samples")
        use_exact = True
    elif method == "approx":
        use_exact = False
    else:
        raise ValueError(f"unknown method {method!r}")

    if use_exact:
        p = _exact_two_sided(int(round(u_min)), n, m)
        return MannWhitneyResult(u=u_min, p_value=p, method="exact",
                                 tie_corrected=False)

    big_n = n + m
    mu = n * m / 2.0
    var = n * m / 12.0 * ((big_n + 1.0) - tie_term / (big_n * (big_n - 1.0)))
    if var <= 0.0:
        p = 1.0  # pooled sample is one big tie group; no evidence either way
    else:
        z = (u_min - mu + 0.5) / math.sqrt(var)
        p = min(1.0, 2.0 * _normal_cdf(z))
    return MannWhitneyResult(u=u_min, p_value=p, method="approx",
                             tie_corrected=ties)


def decide(label: str, p_value: float, alpha: float = 0.05) -> HypothesisOutcome:
    """Reject the named null hypothesis iff p < alpha (strict)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    decision = "reject" if p_value < alpha else "fail-to-reject"
    return HypothesisOutcome(label=label, p_value=p_value, alpha=alpha,
                             decision=decision)
