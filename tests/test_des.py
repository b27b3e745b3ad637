"""Discrete-event model: service discipline, conservation, timing edges."""

import math
import time
from collections import Counter
from dataclasses import replace

import pytest

from fitroom.config import ScenarioConfig
from fitroom.des import DesRun, run_des
from fitroom.engine import DistributionSpec, ModelError, ReplicationDraws
from fitroom.proactive import ProactivePolicy
from fitroom.runtime import (EV_JOB_DONE, JOB1, JOB2, JOB3, RENEGED, SERVED, Customer,
                             Store, build_metrics, select_service)
from helpers import traced


def small_cfg(**over):
    base = ScenarioConfig(replications=1, master_seed=5)
    return replace(base, **over) if over else base


def scaled(cfg, scale):
    return replace(cfg, arrival=cfg.arrival._replace(scale=scale))


def test_conservation_of_customers():
    # the helper folds the served and not served from the trace's arrivals
    # and return-job ends, and checks the store's rules, on a calm and a
    # busy day
    for scale in (1.0, 2.0):
        traced(run_des, scaled(small_cfg(), scale))


def test_utilizations_are_proportions():
    for scale in (0.5, 1.0, 2.8561):
        m = run_des(scaled(small_cfg(), scale), ReplicationDraws(0))
        assert 0.0 <= m.staff_util <= 1.0
        assert 0.0 <= m.cubicle_util <= 1.0


def test_reneges_fire_exactly_at_patience_expiry():
    cfg = small_cfg(patience=DistributionSpec.deterministic(2.0))
    cfg = scaled(cfg, 2.0)  # load it up so queues form
    _, trace = traced(run_des, cfg)
    arrived_at = {cid: t for t, label, cid in trace if label == "arrival"}
    reneges = [(t, cid) for t, label, cid in trace if label == "renege"]
    assert reneges, "expected some abandonment under doubled pressure"
    for t, cid in reneges:
        assert t == arrived_at[cid] + 2.0  # exact, not approximately


def test_infinite_patience_means_no_reneges():
    _, trace = traced(run_des, scaled(small_cfg(patience=None), 2.0))
    assert not any(label == "renege" for _, label, _ in trace)


def test_a_heavy_day_costs_what_a_light_one_does_per_customer(gc_disabled):
    # a renege costs the same whatever the entry queue holds, so a day at
    # 32 times the arrivals of another costs about as much per customer;
    # a renege that scans the queue makes the heavy day's customers cost
    # several times as much.  Each day is timed at its fastest of three runs
    def seconds_per_customer(scale):
        cfg = scaled(small_cfg(), scale)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            m = run_des(cfg, ReplicationDraws(0))
            best = min(best, time.perf_counter() - start)
        return best / (m.served + m.not_served)

    assert seconds_per_customer(320.0) < 3 * seconds_per_customer(10.0)


def test_help_probability_zero_skips_the_help_flow():
    _, trace = traced(run_des, small_cfg(help_probability=0.0))
    labels = {label for _, label, _ in trace}
    assert "request_help" not in labels
    assert "start_job2" not in labels


def test_help_probability_one_routes_everyone_through_help():
    # the chart allows at most one help request per fitting; here nobody
    # leaves a cubicle without one
    _, trace = traced(run_des, small_cfg(help_probability=1.0))
    labels = Counter((cid, label) for _, label, cid in trace)
    left = [cid for cid, label in labels if label == "leave_cubicle"]
    assert left
    for cid in left:
        assert labels[cid, "request_help"] == labels[cid, "end_job2"] == 1


def test_policy_off_never_changes_pace():
    cfg = small_cfg(proactive=ProactivePolicy(enabled=False))
    metrics, trace = traced(run_des, scaled(cfg, 2.8561))
    assert metrics.service_time_changes == 0
    assert not any(label in ("speedup", "revert") for _, label, _ in trace)


def test_wait_accrues_until_renege():
    # a reneger's wait is exactly their patience when the "all" estimator
    # is in force
    cfg = small_cfg(
        patience=DistributionSpec.deterministic(1.5), wait_estimator="all"
    )
    cfg = scaled(cfg, 2.5)
    metrics, trace = traced(run_des, cfg)
    assert any(label == "renege" for _, label, _ in trace)
    assert metrics.mean_wait > 0.0


# --- service order (unit level) ----------------------------------------------


def queued(heads):
    """A store whose queue heads are ``heads``: (job, customer id, join
    time) for each non-empty queue; each head has one later customer behind
    it.  Its 8 cubicles are free."""
    store = Store(8)
    lines = {JOB1: store.entry, JOB2: store.help, JOB3: store.ret}
    for job, cid, t in heads:
        lines[job].extend([Customer(cid, t), Customer(100 + cid, t + 50.0)])
    return store, lines


@pytest.mark.parametrize("first", [JOB1, JOB2, JOB3])
def test_the_earliest_joined_head_wins_across_the_queues(first):
    # join times run against ids, so only the times can pick the winner
    later = [job for job in (JOB1, JOB2, JOB3) if job != first]
    heads = [(first, 9, 1.0), (later[0], 1, 2.0), (later[1], 0, 3.0)]
    store, lines = queued(heads)
    assert select_service(store) == (first, lines[first])


@pytest.mark.parametrize("first", [JOB1, JOB2, JOB3])
def test_equal_join_times_break_by_the_lower_customer_id(first):
    later = [job for job in (JOB1, JOB2, JOB3) if job != first]
    heads = [(later[0], 5, 4.0), (first, 3, 4.0), (later[1], 7, 4.0)]
    store, lines = queued(heads)
    assert select_service(store) == (first, lines[first])


def test_the_entry_head_waits_while_no_cubicle_is_free():
    store, lines = queued([(JOB1, 0, 1.0), (JOB2, 1, 2.0), (JOB3, 2, 3.0)])
    assert select_service(store) == (JOB1, lines[JOB1])
    store.occupied = store.capacity
    assert select_service(store) == (JOB2, lines[JOB2])
    store, lines = queued([(JOB1, 0, 1.0)])
    store.occupied = store.capacity
    assert select_service(store) is None
    assert select_service(Store(8)) is None


def test_entry_service_ending_with_every_cubicle_full_is_a_model_error():
    # entry service starts only while a cubicle is free, so one that ends
    # with the bank full is a wiring bug, refused as the agent model's
    # room refuses it
    run = DesRun(small_cfg(cubicles=1), ReplicationDraws(0))
    run.store.enter(Customer(0, 0.0), 0.5)
    c = Customer(1, 1.0)
    run.store.entry.append(c)
    run.start_job((JOB1, run.store.entry), 1.0)
    with pytest.raises(ModelError, match="none free"):
        run.handlers()[EV_JOB_DONE[JOB1]](c, 1.5)
    assert run.store.occupied == 1


# --- metric folding (unit level) ---------------------------------------------


def served_customer(cid, wait):
    c = Customer(cid, 0.0)
    c.wait = wait
    c.disposition = SERVED
    return c


def test_mean_wait_over_served_customers():
    store = Store(8)
    a, b = served_customer(0, 2.0), served_customer(1, 4.0)
    lost = Customer(2, 0.0)
    lost.wait = 10.0
    lost.disposition = RENEGED
    m = build_metrics([a, b, lost], store, 0, 480.0, "served")
    assert m.mean_wait == 3.0
    assert m.served == 2 and m.not_served == 1


def test_mean_wait_over_all_customers():
    store = Store(8)
    a, b = served_customer(0, 2.0), served_customer(1, 4.0)
    lost = Customer(2, 0.0)
    lost.wait = 12.0
    lost.disposition = RENEGED
    m = build_metrics([a, b, lost], store, 0, 480.0, "all")
    assert m.mean_wait == 6.0


def test_utilization_ratios_from_telemetry():
    store = Store(8)
    store.staff_busy = 240.0
    store.enter(Customer(0, 90.0), 100.0)   # one cubicle occupied from t=100
    visitor = Customer(1, 190.0)
    store.enter(visitor, 200.0)             # a second from t=200 ...
    store.leave(visitor, 300.0)             # ... to t=300
    store.flush(480.0)                      # the first through closing
    m = build_metrics([], store, 5, 480.0, "served")
    assert m.staff_util == 0.5
    assert m.cubicle_util == pytest.approx((380.0 + 100.0) / (8 * 480.0))
    assert m.service_time_changes == 5
