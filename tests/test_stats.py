"""Sample summaries and the rank-sum machinery, checked against hand
values and the enumeration oracle, and the records ``stats.record`` makes."""

import copy
import math
import pickle
import random
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fitroom.engine import ArrivalProfile, DistributionSpec
from fitroom.harness import SweepSpec
from fitroom.stats import (
    HypothesisOutcome,
    RunMetrics,
    _u_counts,
    decide,
    mann_whitney_u,
    summarize,
)
from oracles import exact_mw_oracle


# --- summarize ---------------------------------------------------------------


def test_summarize_hand_values():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == 2.5
    assert s.median == 2.5
    assert s.sd == pytest.approx(math.sqrt(5.0 / 3.0))


def test_summarize_odd_median_and_int_input():
    s = summarize([5, 1, 3])
    assert s.median == 3.0 and s.mean == 3.0


def test_summarize_single_value_has_zero_sd():
    s = summarize([7.0])
    assert (s.n, s.mean, s.sd, s.median) == (1, 7.0, 0.0, 7.0)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


# ints, and floats from subnormal to 1e150, where a 120-value sample's
# variance still fits a float; half the samples repeat a few values
_values = st.integers(-10**6, 10**6) | st.floats(-1e150, 1e150)
_samples = (st.lists(_values, min_size=1, max_size=120)
            | st.lists(_values, min_size=1, max_size=4).flatmap(
                lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=120)))


@settings(max_examples=300, deadline=None)
@given(_samples)
def test_summarize_is_the_exact_summary(sample):
    s = summarize(sample)
    assert s.n == len(sample)
    assert s.mean == statistics.fmean(sample)
    assert s.median == statistics.median(sample)
    if len(sample) == 1:
        assert s.sd == 0.0
        return
    sd = statistics.stdev(sample)
    if sys.version_info >= (3, 11):
        assert s.sd == sd
    else:
        # 3.10's stdev rounds the variance to a float before its root
        assert abs(s.sd - sd) <= math.ulp(sd)


# --- mann-whitney ------------------------------------------------------------


def pairwise_u(a, b):
    """min(Ua, Ub), with Ua counted pair by pair (tie-free samples)."""
    u_a = sum(x > y for x in a for y in b)
    return min(u_a, len(a) * len(b) - u_a)


def subset_sum_p(a, b):
    """Exact two-sided p-value of a tie-free pair of samples: count the
    n-subsets of the ranks 0..n+m-1 whose U is at most the observed one,
    by a table over (subset size, rank sum)."""
    n, m = len(a), len(b)
    ways = [[0] * (n * (n + m) + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for rank in range(n + m):
        for size in range(min(rank + 1, n), 0, -1):
            for total in range(rank, len(ways[size])):
                ways[size][total] += ways[size - 1][total - rank]
    base = n * (n - 1) // 2
    below = sum(ways[n][base:base + pairwise_u(a, b) + 1])
    return min(1.0, 2.0 * below / math.comb(n + m, n))


def normal_p(a, b, tie_term=0.0):
    """The tie- and continuity-corrected normal approximation, written out."""
    n, m = len(a), len(b)
    pooled = sorted(a + b)
    r_a = sum((2 * pooled.index(x) + pooled.count(x) + 1) / 2.0 for x in a)
    u_a = r_a - n * (n + 1) / 2.0
    u = min(u_a, n * m - u_a)
    big_n = n + m
    var = n * m / 12.0 * (big_n + 1.0 - tie_term / (big_n * (big_n - 1.0)))
    z = (u - n * m / 2.0 + 0.5) / math.sqrt(var)
    return min(1.0, 1.0 + math.erf(z / math.sqrt(2.0)))


def test_separated_samples_hand_computed():
    # complete separation of 3 vs 3: U = 0 and the exact two-sided
    # p-value is 2 * 1/C(6,3) = 0.1
    assert mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == pytest.approx(0.1, abs=1e-15)


def test_one_vs_one_is_uninformative():
    assert mann_whitney_u([1.0], [2.0]) == 1.0


def test_statistic_is_symmetric_in_sample_order():
    a = [3.1, 0.4, 5.9, 2.6]
    b = [5.3, 5.8, 9.7]
    assert mann_whitney_u(a, b) == mann_whitney_u(b, a)


def test_u_statistic_stays_in_range():
    # U itself is not reported; the p-value it gives must lie in (0, 1]
    rng = random.Random(4)
    for _ in range(50):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(m)]
        assert 0.0 < mann_whitney_u(a, b) <= 1.0


def test_p_value_invariant_under_monotone_transform():
    # rank methods only see order, so exp() must change nothing
    rng = random.Random(9)
    a = [rng.gauss(0.0, 1.0) for _ in range(7)]
    b = [rng.gauss(0.6, 1.0) for _ in range(5)]
    warped = mann_whitney_u([math.exp(x) for x in a], [math.exp(x) for x in b])
    assert mann_whitney_u(a, b) == warped


def test_auto_switches_to_approx_above_small_sample_cutoff():
    rng = random.Random(13)
    small = [rng.random() for _ in range(8)]
    large9 = [rng.random() for _ in range(9)]
    other = [rng.random() for _ in range(30)]
    for a, exact in ((small, True), (large9, False)):
        p_exact, p_normal = subset_sum_p(a, other), normal_p(a, other)
        assert abs(p_exact - p_normal) > 1e-4  # the two routes tell apart
        want = p_exact if exact else p_normal
        assert mann_whitney_u(a, other) == pytest.approx(want, rel=1e-12)


def test_ties_force_the_corrected_approximation():
    # one group of three tied values: tie term 3^3 - 3
    a, b = [1.0, 2.0, 2.0], [2.0, 3.0, 4.0]
    want = normal_p(a, b, tie_term=24.0)
    assert abs(want - normal_p(a, b)) > 1e-4  # the correction shows
    assert mann_whitney_u(a, b) == pytest.approx(want, rel=1e-12)


def test_all_ties_are_no_evidence():
    assert mann_whitney_u([5.0] * 4, [5.0] * 6) == 1.0


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [])


def test_recurrence_agrees_with_enumeration_oracle():
    # two independent routes to the same exact distribution
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(1, min(6, 12 - n))
        pool = rng.sample(range(1000), n + m)
        a = [float(v) for v in pool[:n]]
        b = [float(v) for v in pool[n:]]
        assert mann_whitney_u(a, b) == pytest.approx(exact_mw_oracle(a, b), abs=1e-15)


@pytest.mark.parametrize("n, m", [(1, 2000), (3, 600), (8, 500)])
def test_lopsided_samples_get_the_exact_p_value(n, m):
    # one sample far smaller than the other still takes the exact path
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(n * 10_007 + m)
    pool = rng.sample(range(1_000_000), n + m)
    a = [float(v) for v in pool[:n]]
    b = [float(v) + 0.5 for v in pool[n:]]
    want = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
    assert mann_whitney_u(a, b) == pytest.approx(want, abs=1e-12)


def test_approximation_quality_at_moderate_sizes():
    # at n = m = 20 the corrected normal approximation should sit within
    # 0.01 of the exact tail
    rng = random.Random(55)
    counts = _u_counts(20, 20)
    worst = 0.0
    for _ in range(10):
        pool = rng.sample(range(10_000), 40)
        a = [float(v) for v in pool[:20]]
        b = [float(v) + 400.5 for v in pool[20:]]
        exact = min(1.0, 2.0 * sum(counts[:pairwise_u(a, b) + 1]) / math.comb(40, 20))
        worst = max(worst, abs(exact - mann_whitney_u(a, b)))
    assert worst < 0.01


def test_oracle_guards_its_own_limits():
    with pytest.raises(ValueError):
        exact_mw_oracle([1.0, 2.0, 2.0], [3.0])  # ties
    with pytest.raises(ValueError):
        exact_mw_oracle(list(range(7)), [float(v) + 0.5 for v in range(6)])  # 13 values
    with pytest.raises(ValueError):
        exact_mw_oracle([], [1.0])


# --- decisions ---------------------------------------------------------------


def test_decide_rejects_small_p():
    out = decide("H03", 0.0001)
    assert out == HypothesisOutcome("H03", 0.0001, 0.05, "reject")


def test_decide_keeps_null_on_moderate_p():
    assert decide("H01", 0.1608).decision == "fail-to-reject"


def test_decide_boundary_is_strict():
    assert decide("H", 0.05).decision == "fail-to-reject"
    assert decide("H", 0.04999).decision == "reject"


def test_run_metrics_is_plain_data():
    m = RunMetrics(1.0, 0.5, 0.6, 10, 2, 3)
    assert m.mean_wait == 1.0 and m.served == 10 and m.service_time_changes == 3


# --- checked records ------------------------------------------------------------

_REFUSED = [
    (DistributionSpec.triangular(1, 2, 3), {"params": (3, 2, 1)},
     "triangular requires low <= mode <= high"),
    (ArrivalProfile((20,) * 8), {"scale": 0.0}, "arrival scale must be positive"),
    (SweepSpec(), {"levels": 0}, "levels must be an integer >= 1"),
]


@pytest.mark.parametrize("good, change, message", _REFUSED,
                         ids=["distribution", "arrival", "sweep"])
def test_a_checked_record_checks_every_record_it_makes(good, change, message):
    cls = type(good)
    fields = tuple(change.get(name, value) for name, value in zip(cls._fields, good))
    unchecked = tuple.__new__(cls, fields)   # a record no check has seen
    makers = {
        "call": lambda: cls(*fields),
        "keywords": lambda: cls(**dict(zip(cls._fields, fields))),
        "_make": lambda: cls._make(fields),
        "_replace": lambda: good._replace(**change),
        "copy": lambda: copy.copy(unchecked),
        "deepcopy": lambda: copy.deepcopy(unchecked),
        **{f"pickle {proto}": lambda proto=proto: pickle.loads(pickle.dumps(unchecked, proto))
           for proto in range(pickle.HIGHEST_PROTOCOL + 1)},
    }
    if hasattr(copy, "replace"):   # Python 3.13 on
        makers["copy.replace"] = lambda: copy.replace(good, **change)
    for how, make in makers.items():
        with pytest.raises(ValueError, match=message):
            make()
            pytest.fail(how)
    # and each way of making a good one gives it back, checked as stored
    assert cls._make(good) == good._replace() == copy.copy(good) == good
    assert all(pickle.loads(pickle.dumps(good, proto)) == good
               for proto in range(pickle.HIGHEST_PROTOCOL + 1))


def test_a_checked_record_stores_its_fields_as_the_check_returns_them():
    spec = DistributionSpec("uniform", [1, 2])
    assert spec.params == (1.0, 2.0) and type(spec.params[0]) is float
    assert spec._replace(params=[0, 1]).params == (0.0, 1.0)
    profile = ArrivalProfile([20] * 8, 2)
    assert profile.hourly_rates == (20.0,) * 8
    assert type(profile.scale) is int   # a number the check accepts is kept as given
    assert type(profile._replace(scale=1.5).hourly_rates) is tuple


def test_a_record_equals_and_hashes_as_the_plain_tuple_of_its_fields():
    # the decision: records compare and hash as tuples, by value.  The draws
    # are keyed by (seed, profile) and (seed, purpose, spec), so equal specs
    # share a stream's values, as equal dataclasses did; and no key mixes
    # record types, so one record equal to another type's cannot collide
    spec = DistributionSpec.uniform(1, 2)
    assert spec == ("uniform", (1.0, 2.0)) == DistributionSpec("uniform", [1.0, 2])
    assert hash(spec) == hash(("uniform", (1.0, 2.0)))
    assert ArrivalProfile((20,) * 8, 1) == ArrivalProfile((20.0,) * 8, 1.0)
    assert SweepSpec() == (5, 1.3) and hash(SweepSpec()) == hash((5, 1.3))
    assert spec != DistributionSpec.uniform(1, 3)


def test_the_input_records_keep_their_reprs():
    assert repr(DistributionSpec.triangular(1, 2, 3)) == (
        "DistributionSpec(family='triangular', params=(1.0, 2.0, 3.0))")
    assert repr(ArrivalProfile((20,) * 8, 2)) == (
        f"ArrivalProfile(hourly_rates={(20.0,) * 8!r}, scale=2)")
    assert repr(SweepSpec()) == "SweepSpec(levels=5, growth_factor=1.3)"
