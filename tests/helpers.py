"""Plain helpers shared by the test modules."""

import heapq

from hypothesis import strategies as st

from fitroom.config import ScenarioConfig
from fitroom.engine import ArrivalProfile, DistributionSpec, ReplicationDraws
from fitroom.proactive import ProactivePolicy
from oracles import check_metrics, check_trace


def pop_event(cal):
    """Take the earliest (time, seq, kind, target) entry off ``cal``'s heap
    and move its clock there, as the run loop does; None once the heap is
    empty."""
    if not cal._heap:
        return None
    ev = heapq.heappop(cal._heap)
    cal.now = ev[0]
    return ev


def traced(run, cfg, rep=0):
    """Run replication ``rep`` of ``cfg`` through ``run`` (``run_des`` or
    ``run_abs``) with a trace, assert that the trace keeps the store's rules
    and folds to the run's metrics, and return (metrics, trace)."""
    trace = []
    metrics = run(cfg, ReplicationDraws(rep), trace)
    check_trace(trace, cfg.cubicles)
    check_metrics(trace, cfg, metrics)
    return metrics, trace


def durations(lo, hi):
    """Duration distributions of every family, with parameters in [lo, hi]."""
    value = st.floats(lo, hi)
    D = DistributionSpec
    return st.one_of(
        value.map(D.deterministic),
        st.floats(max(lo, 0.05), hi).map(lambda mean: D.exponential(1.0 / mean)),
        st.tuples(value, value).map(lambda ab: D.uniform(*sorted(ab))),
        st.tuples(value, value, value).map(lambda abc: D.triangular(*sorted(abc))),
    )


@st.composite
def stochastic_scenarios(draw):
    """A random day: random durations, patience (infinite included), one to
    eight cubicles, and the policy off, event-driven or polling."""
    threshold = st.integers(1, 4)
    policy = ProactivePolicy(
        enabled=draw(st.booleans()),
        threshold_entry=draw(threshold),
        threshold_return=draw(threshold),
        threshold_help=draw(threshold),
        revert_delay=draw(durations(0.0, 15.0)),
        check_interval=draw(st.none() | durations(0.5, 10.0)),
    )
    return ScenarioConfig(
        arrival=ArrivalProfile(tuple(draw(st.lists(st.floats(0.0, 40.0),
                                                   min_size=8, max_size=8))),
                               scale=draw(st.floats(0.5, 2.0))),
        cubicles=draw(st.integers(1, 8)),
        job1=draw(durations(0.0, 1.0)),
        job2=draw(durations(0.0, 2.0)),
        job3=draw(durations(0.0, 1.0)),
        fitting=draw(durations(0.0, 12.0)),
        help_probability=draw(st.sampled_from((0.0, 0.3, 1.0))),
        help_fraction=draw(st.sampled_from((DistributionSpec.uniform(0.0, 1.0),
                                            DistributionSpec.deterministic(0.5)))),
        patience=draw(st.none() | durations(0.0, 20.0)),
        wait_estimator=draw(st.sampled_from(("served", "all"))),
        speedup_fraction=draw(st.floats(0.0, 0.9)),
        proactive=policy,
        replications=1,
        master_seed=draw(st.integers(0, 10 ** 6)),
    )
