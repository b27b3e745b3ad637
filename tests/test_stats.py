"""Sample summaries and the rank-sum machinery, checked against hand
values and the enumeration oracle."""

import math
import random

import pytest

from fitroom.stats import (
    HypothesisOutcome,
    RunMetrics,
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


# --- mann-whitney ------------------------------------------------------------


def test_separated_samples_hand_computed():
    # complete separation of 3 vs 3: U = 0 and the exact two-sided
    # p-value is 2 * 1/C(6,3) = 0.1
    res = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert res.method == "exact" and not res.tie_corrected
    assert res.u == 0.0
    assert res.p_value == pytest.approx(0.1, abs=1e-15)


def test_one_vs_one_is_uninformative():
    assert mann_whitney_u([1.0], [2.0]).p_value == 1.0


def test_statistic_is_symmetric_in_sample_order():
    a = [3.1, 0.4, 5.9, 2.6]
    b = [5.3, 5.8, 9.7]
    ra = mann_whitney_u(a, b)
    rb = mann_whitney_u(b, a)
    assert ra.u == rb.u and ra.p_value == rb.p_value


def test_u_statistic_stays_in_range():
    rng = random.Random(4)
    for _ in range(50):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(m)]
        res = mann_whitney_u(a, b)
        assert 0.0 <= res.u <= n * m / 2.0  # reported statistic is min(Ua, Ub)
        assert 0.0 < res.p_value <= 1.0


def test_p_value_invariant_under_monotone_transform():
    # rank methods only see order, so exp() must change nothing
    rng = random.Random(9)
    a = [rng.gauss(0.0, 1.0) for _ in range(7)]
    b = [rng.gauss(0.6, 1.0) for _ in range(5)]
    plain = mann_whitney_u(a, b)
    warped = mann_whitney_u([math.exp(x) for x in a], [math.exp(x) for x in b])
    assert plain.u == warped.u and plain.p_value == warped.p_value


def test_auto_switches_to_approx_above_small_sample_cutoff():
    rng = random.Random(13)
    small = [rng.random() for _ in range(8)]
    large9 = [rng.random() for _ in range(9)]
    other = [rng.random() for _ in range(30)]
    assert mann_whitney_u(small, other).method == "exact"
    assert mann_whitney_u(large9, other).method == "approx"


def test_ties_force_the_corrected_approximation():
    res = mann_whitney_u([1.0, 2.0, 2.0], [2.0, 3.0, 4.0])
    assert res.method == "approx" and res.tie_corrected


def test_all_ties_are_no_evidence():
    res = mann_whitney_u([5.0] * 4, [5.0] * 6)
    assert res.p_value == 1.0


def test_exact_method_rejects_ties():
    with pytest.raises(ValueError):
        mann_whitney_u([1.0, 1.0], [2.0], method="exact")


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [])


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [2.0], method="bogus")


def test_recurrence_agrees_with_enumeration_oracle():
    # two independent routes to the same exact distribution
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(1, min(6, 12 - n))
        pool = rng.sample(range(1000), n + m)
        a = [float(v) for v in pool[:n]]
        b = [float(v) for v in pool[n:]]
        p_fast = mann_whitney_u(a, b).p_value
        p_slow = exact_mw_oracle(a, b)
        assert p_fast == pytest.approx(p_slow, abs=1e-15)


def test_approximation_quality_at_moderate_sizes():
    # at n = m = 20 the corrected normal approximation should sit within
    # 0.01 of the exact tail; "exact" is forced past the auto cutoff
    rng = random.Random(55)
    worst = 0.0
    for _ in range(10):
        pool = rng.sample(range(10_000), 40)
        a = [float(v) for v in pool[:20]]
        b = [float(v) + 400.5 for v in pool[20:]]
        exact = mann_whitney_u(a, b, method="exact").p_value
        approx = mann_whitney_u(a, b, method="approx").p_value
        worst = max(worst, abs(exact - approx))
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
    assert decide("H", 0.05, alpha=0.05).decision == "fail-to-reject"
    assert decide("H", 0.04999, alpha=0.05).decision == "reject"


def test_decide_validates_alpha():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            decide("H", 0.5, alpha=bad)


def test_run_metrics_is_plain_data():
    m = RunMetrics(1.0, 0.5, 0.6, 10, 2, 3)
    assert m.mean_wait == 1.0 and m.served == 10 and m.service_time_changes == 3
