"""Reference computations the tests check the package against.  Each is
written independently of the code it checks, plainly rather than fast."""

import itertools
from typing import Sequence


def exact_mw_oracle(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided exact p-value by enumerating every rank assignment.

    Deliberately independent of mann_whitney_u's exact count: it walks all
    C(n+m, n) splits with itertools and counts directly.  Only usable on
    tiny tie-free samples (n + m <= 12).
    """
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    n, m = len(xs), len(ys)
    big_n = n + m
    if big_n > 12:
        raise ValueError("oracle limited to n + m <= 12")
    pooled = xs + ys
    if len(set(pooled)) != big_n:
        raise ValueError("oracle requires tie-free samples")

    order = sorted(range(big_n), key=pooled.__getitem__)
    pos_of = [0] * big_n
    for rank0, idx in enumerate(order):
        pos_of[idx] = rank0
    base = n * (n - 1) // 2
    obs_ua = sum(pos_of[:n]) - base
    obs_u = min(obs_ua, n * m - obs_ua)

    count = 0
    total = 0
    for combo in itertools.combinations(range(big_n), n):
        total += 1
        if sum(combo) - base <= obs_u:
            count += 1
    return min(1.0, 2.0 * count / total)
