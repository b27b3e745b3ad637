"""Per-run metrics, sample summaries, and the rank-sum test used to compare
experiments.

Summaries are exact: the mean is a correctly rounded sum over n, the median
comes from the sorted sample, and the standard deviation is the correctly
rounded square root of the exact sample variance, as ``statistics.stdev``
gives from Python 3.11 on.  So the module needs nothing beyond ``math``.

The two-sample test is Mann-Whitney U, two-sided.  Small tie-free samples
get an exact p-value from the null distribution of U; anything else falls
back to the normal approximation with continuity and tie corrections.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence


def record(cls: type) -> type:
    """The named tuple a class body declares: its annotated fields, their
    defaults, its docstring, and its annotations, which stay strings.  It is
    built far faster than a dataclass, which ``exec``s its methods."""
    names = tuple(cls.__annotations__)
    nt = namedtuple(cls.__name__, names, module=cls.__module__,
                    defaults=[vars(cls)[n] for n in names if n in vars(cls)])
    nt.__annotations__ = cls.__annotations__
    nt.__doc__ = cls.__doc__ or nt.__doc__
    return nt


@record
class RunMetrics:
    """What one replication of either model reports."""

    mean_wait: float
    staff_util: float
    cubicle_util: float
    served: int
    not_served: int
    service_time_changes: int


@record
class SummaryStats:
    n: int
    mean: float
    sd: float
    median: float


def summarize(sample: Sequence[float]) -> SummaryStats:
    if len(sample) == 0:
        raise ValueError("cannot summarize an empty sample")
    xs = sorted(map(float, sample))
    n = len(xs)
    half = n // 2
    return SummaryStats(
        n=n,
        mean=math.fsum(xs) / n,
        sd=_stdev(xs) if n > 1 else 0.0,
        median=xs[half] if n % 2 else (xs[half - 1] + xs[half]) / 2,
    )


# bits of the radicand, so its square root keeps two bits past a float's 53
_SQRT_BITS = 2 * 53 + 3


def _stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation of two or more finite floats, correctly
    rounded.

    Every finite float is an integer over a power of two, so over the
    largest denominator D the sample is the integers X, and its variance is
    exactly (n*sum(X^2) - sum(X)^2) / (n*(n-1)*D^2).  Its square root is
    taken by ``math.isqrt`` to _SQRT_BITS of radicand."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = max(den for _, den in ratios)
    ints = [num * (d // den) for num, den in ratios]
    n = len(ints)
    s = sum(ints)
    num = n * sum(x * x for x in ints) - s * s
    den = n * (n - 1) * d * d
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    # the floor of the root, its last bit set when that is inexact (round
    # to odd), so the one rounding of the true division rounds the true root
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


@record
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
