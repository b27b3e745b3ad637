"""Per-run metrics, sample summaries, and the rank-sum test used to compare
experiments.

The two-sample test is Mann-Whitney U, two-sided.  Small tie-free samples
get an exact p-value from the null distribution of U; anything else falls
back to the normal approximation with continuity and tie corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _u_counts(n: int, m: int) -> list[int]:
    """How many of the C(n+m, n) equally likely orderings of an n- and an
    m-sample give each U = 0..n*m: the coefficients of the Gaussian binomial
    [n+m, n] in q, built as the product over k = 1..min(n, m) of
    (1 - q^(max(n, m) + k)) / (1 - q^k).  Terms past q^(n*m) are dropped
    along the way; the product is a polynomial of that degree, so none of
    them counts."""
    size = n * m + 1
    counts = [1] + [0] * (size - 1)
    for k in range(1, min(n, m) + 1):
        j = max(n, m) + k
        for i in range(size - 1, j - 1, -1):  # times (1 - q^j)
            counts[i] -= counts[i - j]
        for i in range(k, size):  # divided by (1 - q^k)
            counts[i] += counts[i - k]
    return counts


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided p-value of the Mann-Whitney U test: exact when
    min(n, m) <= 8 and the pooled sample is tie-free, the corrected normal
    approximation otherwise."""
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    n, m = len(xs), len(ys)
    ranks, tie_term = _ranks(xs + ys)
    r_a = sum(ranks[:n])
    u_a = r_a - n * (n + 1) / 2.0
    u_b = n * m - u_a
    u_min = min(u_a, u_b)

    if min(n, m) <= 8 and tie_term == 0.0:
        below = sum(_u_counts(n, m)[:int(round(u_min)) + 1])
        return min(1.0, 2.0 * below / math.comb(n + m, n))

    big_n = n + m
    mu = n * m / 2.0
    var = n * m / 12.0 * ((big_n + 1.0) - tie_term / (big_n * (big_n - 1.0)))
    if var <= 0.0:
        return 1.0  # pooled sample is one big tie group; no evidence either way
    z = (u_min - mu + 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * _normal_cdf(z))


# every hypothesis is decided at this significance level
ALPHA = 0.05


def decide(label: str, p_value: float) -> HypothesisOutcome:
    """Reject the named null hypothesis iff p < ALPHA (strict)."""
    decision = "reject" if p_value < ALPHA else "fail-to-reject"
    return HypothesisOutcome(label=label, p_value=p_value, alpha=ALPHA,
                             decision=decision)
