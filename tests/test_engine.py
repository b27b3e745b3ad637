"""Event calendar, seeded streams, distribution sampling, and the arrival
process."""

import math
import random
import statistics
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fitroom.engine import (
    BLOCK,
    HORIZON,
    ArrivalProfile,
    DistributionSpec,
    EventCalendar,
    ModelError,
    RandomStreams,
    ReplicationDraws,
    bernoulli,
)
from helpers import pop_event


def make_stream(seed=123, purpose="test", rep=0):
    return RandomStreams(seed).stream(purpose, rep)


# --- calendar ---------------------------------------------------------------


def test_calendar_orders_by_time():
    cal = EventCalendar()
    cal.schedule(5.0, "b")
    cal.schedule(1.0, "a")
    cal.schedule(3.0, "c")
    kinds = [pop_event(cal)[2] for _ in range(3)]
    assert kinds == ["a", "c", "b"]


def test_calendar_ties_break_by_insertion_order():
    cal = EventCalendar()
    for kind in ("first", "second", "third"):
        cal.schedule(2.0, kind)
    assert [pop_event(cal)[2] for _ in range(3)] == ["first", "second", "third"]


def test_calendar_entries_are_time_seq_kind_target_tuples():
    cal = EventCalendar()
    target = object()
    assert cal.stamp(1.0, "slot") == (1.0, 0, "slot", None)
    cal.schedule(4.5, "x", target)
    assert cal._heap == [(4.5, 1, "x", target)]  # stamp keeps its entry off it


def test_calendar_rejects_scheduling_into_the_past():
    cal = EventCalendar()
    cal.schedule(10.0, "x")
    pop_event(cal)
    with pytest.raises(ModelError):
        cal.schedule(9.999, "y")
    # scheduling exactly at the current instant is fine
    cal.schedule(10.0, "z")


def test_calendar_stamps_at_most_its_limit():
    # a slot's stamp and a push count alike against the limit
    cal = EventCalendar(2)
    cal.stamp(1.0, "slot")
    cal.schedule(2.0, "x")
    for stamp in (cal.stamp, cal.schedule):
        with pytest.raises(ModelError, match="^cannot schedule 'y' at t=0.0: the day has "
                                             "stamped its bound of 2 events$"):
            stamp(3.0, "y")
    assert cal._seq == 2 and len(cal._heap) == 1


def test_calendar_carries_target_through():
    cal = EventCalendar()
    payload = object()
    cal.schedule(1.0, "x", payload)
    assert pop_event(cal)[3] is payload


def test_calendar_heap_holds_each_pending_event():
    cal = EventCalendar()
    assert len(cal._heap) == 0
    cal.schedule(1.0, "a")
    cal.schedule(2.0, "b")
    assert len(cal._heap) == 2
    pop_event(cal)
    assert len(cal._heap) == 1


# --- random streams ---------------------------------------------------------


def test_stream_is_deterministic_per_purpose_and_replication():
    a = [make_stream(9, "arrivals", 3).uniform() for _ in range(5)]
    b = [make_stream(9, "arrivals", 3).uniform() for _ in range(5)]
    assert a == b


def test_streams_differ_across_purposes_and_replications():
    base = [make_stream(9, "arrivals", 3).uniform() for _ in range(20)]
    assert base != [make_stream(9, "fitting", 3).uniform() for _ in range(20)]
    assert base != [make_stream(9, "arrivals", 4).uniform() for _ in range(20)]
    assert base != [make_stream(10, "arrivals", 3).uniform() for _ in range(20)]


def test_stream_buffering_matches_raw_generator():
    # the block buffer must be invisible: draw-for-draw identical to the
    # Mersenne Twister seeded with the stream's key, across block boundaries
    s = make_stream(77, "fitting", 5)
    raw = random.Random("77/5/fitting")
    n = 2 * BLOCK + 100  # across two block boundaries
    assert [s.uniform() for _ in range(n)] == [raw.random() for _ in range(n)]


def test_streams_look_uncorrelated_across_purposes():
    n = 10_000
    s1 = make_stream(42, "arrivals", 0)
    s2 = make_stream(42, "patience", 0)
    r = statistics.correlation([s1.uniform() for _ in range(n)],
                               [s2.uniform() for _ in range(n)])
    assert abs(r) < 0.05


def test_copies_of_a_stream_deal_one_draw_when_in_step():
    # a stream's position is read off its next draw: two copies of one
    # stream deal the same next draw exactly when they are in step
    a, b = make_stream(), make_stream()
    a.uniform()
    assert a.uniform() != b.uniform()  # a is one draw ahead
    b.uniform()
    assert a.uniform() == b.uniform()  # level again


# --- bernoulli --------------------------------------------------------------


def test_bernoulli_degenerate_probabilities_consume_no_draw():
    s, untouched = make_stream(), make_stream()
    assert bernoulli(0.0, s) is False
    assert bernoulli(1.0, s) is True
    assert bernoulli(-0.2, s) is False
    assert bernoulli(1.7, s) is True
    assert s.uniform() == untouched.uniform()


def test_bernoulli_frequency():
    s = make_stream(5, "bern", 0)
    n = 20000
    hits = sum(bernoulli(0.2, s) for _ in range(n))
    # 3 sigma for Bin(20000, 0.2) is ~170
    assert abs(hits - 0.2 * n) < 200


# --- distributions -----------------------------------------------------------


def test_distribution_analytic_means_and_supports():
    # the mean is the integral of the inverse CDF over (0, 1); the midpoint
    # rule on the models' own transform must find the analytic value
    n = 200_000
    grid = [(i + 0.5) / n for i in range(n)]
    for spec, mean, support in [
        (DistributionSpec.deterministic(3.0), 3.0, (3.0, 3.0)),
        (DistributionSpec.exponential(0.5), 2.0, (0.0, math.inf)),
        (DistributionSpec.uniform(2.0, 5.0), 3.5, (2.0, 5.0)),
        (DistributionSpec.triangular(1.0, 2.0, 4.0), 7.0 / 3.0, (1.0, 4.0)),
    ]:
        assert math.fsum(spec.values(grid)) / n == pytest.approx(mean, rel=1e-4)
        assert spec.support() == support


@pytest.mark.parametrize(
    "spec, mean, sd",
    [
        (DistributionSpec.exponential(0.5), 2.0, 2.0),
        (DistributionSpec.uniform(2.0, 5.0), 3.5, 3.0 / math.sqrt(12.0)),
        (DistributionSpec.triangular(1.0, 2.0, 4.0), 7.0 / 3.0, math.sqrt(7.0 / 18.0)),
    ],
)
def test_sampling_long_run_means(spec, mean, sd):
    s = make_stream(2024, spec.family, 0)
    n = 100_000
    xs = [spec.sample(s) for _ in range(n)]
    # 5 standard errors around the analytic mean
    assert abs(sum(xs) / n - mean) < 5 * sd / math.sqrt(n)
    lo, hi = spec.support()
    assert min(xs) >= lo and max(xs) <= hi


def test_deterministic_sampling_consumes_no_randomness():
    spec = DistributionSpec.deterministic(7.25)
    s, untouched = make_stream(), make_stream()
    assert all(spec.sample(s) == 7.25 for _ in range(10))
    assert s.uniform() == untouched.uniform()


def test_degenerate_uniform_collapses_to_a_point():
    spec = DistributionSpec.uniform(2.0, 2.0)
    s, ref = make_stream(), make_stream()
    assert all(spec.sample(s) == 2.0 for _ in range(10))
    # unlike deterministic, a zero-width uniform still burns draws, one each
    [ref.uniform() for _ in range(10)]
    assert s.uniform() == ref.uniform()
    assert spec.support() == (2.0, 2.0)


def test_triangular_mode_is_densest_region():
    spec = DistributionSpec.triangular(0.0, 8.0, 10.0)
    s = make_stream(3, "tri", 0)
    xs = [spec.sample(s) for _ in range(40_000)]
    left = sum(1 for x in xs if x < 5.0)
    # P(X < 5) = 25/80 under this shape; far less than half the mass
    assert abs(left / len(xs) - 0.3125) < 0.02


@pytest.mark.parametrize(
    "family, params",
    [
        ("exponential", (0.0,)),
        ("exponential", (-1.0,)),
        ("uniform", (3.0, 2.0)),
        ("triangular", (1.0, 0.5, 2.0)),
        ("triangular", (1.0, 3.0, 2.0)),
        ("uniform", (1.0,)),
        ("gaussian", (0.0, 1.0)),
        ("exponential", (True,)),
        ("triangular", (0.0, True, 2.0)),
        ("exponential", ("2",)),
        # parameters whose values overflow a float at an extreme draw
        ("exponential", (1e-308,)),
        ("triangular", (0.0, 1e308, 1.7e308)),
    ],
)
def test_invalid_distribution_parameters_raise(family, params):
    with pytest.raises(ValueError):
        DistributionSpec(family, params)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(family=st.sampled_from(["exponential", "uniform", "triangular"]),
       raw=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=3),
       us=st.lists(st.floats(0.0, 1.0 - 2.0 ** -53), max_size=20))
def test_an_accepted_distribution_draws_only_finite_values(family, raw, us):
    # the spec checks its values at the two extreme uniforms only; between
    # them every value must be finite too
    params = sorted(raw)[:{"exponential": 1, "uniform": 2, "triangular": 3}[family]]
    if family == "exponential":
        params = [abs(params[0])]
    try:
        spec = DistributionSpec(family, tuple(params))
    except ValueError:
        return
    assert all(map(math.isfinite, spec.values(us)))


# --- arrival process ----------------------------------------------------------


def collect_arrivals(profile, seed=11, reps=1):
    times = []
    for rep in range(reps):
        s = RandomStreams(seed).stream("arrivals", rep)
        t = profile.next_arrival(0.0, s)
        day = []
        while t is not None:
            day.append(t)
            t = profile.next_arrival(t, s)
        times.append(day)
    return times


def test_arrivals_strictly_inside_opening_hours():
    profile = ArrivalProfile((20.0, 34.0, 48.0, 56.0, 56.0, 48.0, 34.0, 20.0))
    for day in collect_arrivals(profile, reps=20):
        assert all(0.0 < t < HORIZON for t in day)
        assert day == sorted(day)


def test_constant_rate_interarrival_mean():
    # 60 per hour means exponential gaps with mean one minute
    profile = ArrivalProfile((60.0,) * 8)
    gaps = []
    for day in collect_arrivals(profile, seed=21, reps=200):
        prev = 0.0
        for t in day:
            gaps.append(t - prev)
            prev = t
    assert len(gaps) > 90_000
    assert abs(sum(gaps) / len(gaps) - 1.0) < 0.02


def test_zero_rate_hour_produces_no_arrivals():
    profile = ArrivalProfile((60.0, 0.0, 60.0, 60.0, 60.0, 60.0, 60.0, 60.0))
    seen_after = False
    for day in collect_arrivals(profile, seed=31, reps=50):
        assert not any(60.0 <= t < 120.0 for t in day)
        seen_after = seen_after or any(t >= 120.0 for t in day)
    assert seen_after  # the process must survive the dead hour


def test_all_zero_profile_yields_no_arrivals():
    profile = ArrivalProfile((0.0,) * 8)
    s = make_stream(1, "arrivals", 0)
    assert profile.next_arrival(0.0, s) is None


def test_hourly_counts_track_the_rate_profile():
    rates = (20.0, 34.0, 48.0, 56.0, 56.0, 48.0, 34.0, 20.0)
    profile = ArrivalProfile(rates)
    reps = 400
    counts = [0.0] * 8
    for day in collect_arrivals(profile, seed=41, reps=reps):
        for t in day:
            counts[min(int(t // 60.0), 7)] += 1
    for h, rate in enumerate(rates):
        mean = rate * reps
        se = math.sqrt(mean)  # Poisson
        assert abs(counts[h] - mean) < 4 * se, f"hour {h}: {counts[h]} vs {mean}"


def test_scale_multiplies_volume():
    base = ArrivalProfile((20.0, 34.0, 48.0, 56.0, 56.0, 48.0, 34.0, 20.0))
    scaled = ArrivalProfile(base.hourly_rates, scale=1.3)
    reps = 1000
    total = sum(len(d) for d in collect_arrivals(scaled, seed=51, reps=reps))
    mean = 316.0 * 1.3 * reps
    assert abs(total - mean) < 3 * math.sqrt(mean)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ArrivalProfile((1.0,) * 7),
        lambda: ArrivalProfile((1.0,) * 9),
        lambda: ArrivalProfile((1.0,) * 8, scale=0.0),
        lambda: ArrivalProfile((1.0,) * 8, scale=-2.0),
        lambda: ArrivalProfile((1.0, -1.0) + (1.0,) * 6),
        lambda: ArrivalProfile((1.0,) * 8, scale=True),
        lambda: ArrivalProfile((True,) * 8),
        lambda: ArrivalProfile((1.0,) * 7 + (False,)),
        lambda: ArrivalProfile(("20",) * 8),
        lambda: ArrivalProfile((1.0,) * 8, scale="2"),
    ],
)
def test_invalid_arrival_profiles_raise(make):
    with pytest.raises(ValueError):
        make()


# --- block transforms ----------------------------------------------------------


def scalar_formula(spec, u):
    """Inverse CDF of one uniform, written out apart from DistributionSpec
    as the reference for its block transform."""
    family, p = spec
    if family == "exponential":
        return -math.log1p(-u) * (1.0 / p[0])
    if family == "uniform":
        return p[0] + (p[1] - p[0]) * u
    lo, mode, hi = p
    span = hi - lo
    cut = (mode - lo) / span if span > 0 else 1.0
    if u < cut:
        return lo + math.sqrt(u * (span * (mode - lo)))
    return hi - math.sqrt((1.0 - u) * (span * (hi - mode)))


def bits(xs):
    return array("d", xs).tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec.exponential(0.04),
        DistributionSpec.uniform(0.3, 0.7),
        DistributionSpec.triangular(4.0, 7.0, 13.0),
        DistributionSpec.triangular(0.0, 0.0, 2.0),   # mode at the low end
        DistributionSpec.triangular(1.0, 1.0, 1.0),   # a point
    ],
    ids=lambda spec: f"{spec.family}{spec.params}",
)
def test_block_transform_matches_the_scalar_formula_bit_for_bit(spec):
    rng = random.Random(2024)
    us = [rng.random() for _ in range(1_000_000)]
    us[:3] = (0.0, math.nextafter(1.0, 0.0), 0.5)
    assert bits(spec.values(us)) == bits([scalar_formula(spec, u) for u in us])


def test_deterministic_block_is_its_value():
    assert DistributionSpec.deterministic(2.5).values([0.1, 0.9]) == [2.5, 2.5]


def test_sample_is_the_block_transform_of_one_draw():
    spec = DistributionSpec.triangular(0.5, 1.0, 1.5)
    a, b = make_stream(4, "job2", 0), make_stream(4, "job2", 0)
    got = [spec.sample(a) for _ in range(2000)]
    assert got == spec.values([b.uniform() for _ in range(2000)])


# --- shared replication draws --------------------------------------------------


def private_samples(spec, seed, purpose, rep, n):
    s = RandomStreams(seed).stream(purpose, rep)
    return [spec.sample(s) for _ in range(n)]


def test_every_reader_starts_at_the_first_draw():
    # readers interleave and cross block boundaries; each must read what a
    # private stream of its own would deal
    spec = DistributionSpec.exponential(0.1)
    draws = ReplicationDraws(2)
    a = draws.values(5, "revert", spec)
    b_head = [a() for _ in range(700)]
    b = draws.values(5, "revert", spec)
    b_vals = [b() for _ in range(1500)]
    a_tail = [a() for _ in range(800)]
    want = private_samples(spec, 5, "revert", 2, 1500)
    assert b_head + a_tail == want
    assert b_vals == want


def test_raw_readers_match_a_private_stream():
    draws = ReplicationDraws(0)
    first, second = draws.uniforms(9, "help"), draws.uniforms(9, "help")
    private = make_stream(9, "help", 0)
    want = [private.uniform() for _ in range(1200)]
    assert [first.uniform() for _ in range(1200)] == want
    assert [second.uniform() for _ in range(1200)] == want
    assert second.uniform() == private.uniform()  # both 1,200 draws in


def test_streams_open_once_and_only_when_first_drawn(opened_streams):
    draws = ReplicationDraws(3)
    tri = DistributionSpec.triangular(0.2, 0.4, 0.6)
    readers = [draws.values(1, "job1", tri) for _ in range(3)]
    help_reader = draws.uniforms(1, "help")
    assert opened_streams == []  # making readers draws nothing
    for r in readers:
        [r() for _ in range(600)]
    help_reader.uniform()
    assert opened_streams == [(1, "job1", 3), (1, "help", 3)]


def test_specs_sharing_a_purpose_share_its_uniforms(opened_streams):
    tri = DistributionSpec.triangular(0.2, 0.4, 0.6)
    uni = DistributionSpec.uniform(0.2, 0.6)
    want = (private_samples(tri, 8, "job1", 0, 900),
            private_samples(uni, 8, "job1", 0, 900))
    opened_streams.clear()
    draws = ReplicationDraws(0)
    t, u = draws.values(8, "job1", tri), draws.values(8, "job1", uni)
    assert ([t() for _ in range(900)], [u() for _ in range(900)]) == want
    # each distribution opens its own generator on the purpose's key
    assert opened_streams == [(8, "job1", 0), (8, "job1", 0)]


def test_master_seeds_keep_their_own_streams(opened_streams):
    spec = DistributionSpec.exponential(0.04)
    want = (private_samples(spec, 1, "patience", 1, 10),
            private_samples(spec, 2, "patience", 1, 10))
    opened_streams.clear()
    draws = ReplicationDraws(1)
    a, b = draws.values(1, "patience", spec), draws.values(2, "patience", spec)
    assert ([a() for _ in range(10)], [b() for _ in range(10)]) == want
    assert opened_streams == [(1, "patience", 1), (2, "patience", 1)]


def test_deterministic_values_consume_no_draw(opened_streams):
    draws = ReplicationDraws(0)
    nxt = draws.values(1, "fitting", DistributionSpec.deterministic(7.0))
    assert [nxt() for _ in range(2000)] == [7.0] * 2000
    assert opened_streams == []


def test_bernoulli_on_a_shared_reader_consumes_no_certain_draw(opened_streams):
    reader = ReplicationDraws(0).uniforms(1, "help")
    assert bernoulli(0.0, reader) is False
    assert bernoulli(1.0, reader) is True
    assert opened_streams == []


def test_arrivals_are_worked_out_once_per_profile(opened_streams):
    base = ArrivalProfile((20.0, 34.0, 48.0, 56.0, 56.0, 48.0, 34.0, 20.0))
    hot = ArrivalProfile(base.hourly_rates, scale=1.3)
    want = {p: collect_arrivals(p, seed=11, reps=5)[4] for p in (base, hot)}
    opened_streams.clear()
    draws = ReplicationDraws(4)
    for profile in (base, hot, base):
        assert draws.arrivals(11, profile) == [*want[profile], None]
    assert opened_streams == [(11, "arrivals", 4)]

