"""Discrete-event model: service discipline, conservation, timing edges."""

from collections import Counter
from dataclasses import replace

import pytest

from fitroom.config import ScenarioConfig
from fitroom.des import Customer, run_des
from fitroom.engine import ArrivalProfile, DistributionSpec, ReplicationDraws
from fitroom.proactive import ProactivePolicy
from fitroom.runtime import (JOB1, JOB2, JOB3, RENEGED, SERVED, QueueSet, Telemetry,
                             build_metrics, select_service)
from fitroom.stats import RunMetrics


def small_cfg(**over):
    base = ScenarioConfig(replications=1, master_seed=5)
    return replace(base, **over) if over else base


def scaled(cfg, scale):
    return replace(cfg, arrival=replace(cfg.arrival, scale=scale))


def run_traced(cfg, rep=0):
    trace = []
    metrics = run_des(cfg, ReplicationDraws(rep), trace)
    return metrics, trace


def lifecycle(trace):
    """Per-customer label sequences, system entries (-1) dropped."""
    out = {}
    for _, label, cid in trace:
        if cid >= 0:
            out.setdefault(cid, []).append(label)
    return out


def replay_service_order(trace, capacity):
    """Re-derive every dispatch decision from the trace and fail on any
    deviation from global first-come-first-served with the entry-needs-a-
    cubicle eligibility rule."""
    waiting = {}  # cid -> (join time, cid, queue name)
    occupancy = 0
    queue_for = {"start_job1": "entry", "start_job2": "help", "start_job3": "ret"}
    starts = 0
    for t, label, cid in trace:
        if label == "arrival":
            waiting[cid] = (t, cid, "entry")
        elif label == "request_help":
            waiting[cid] = (t, cid, "help")
        elif label == "leave_cubicle":
            occupancy -= 1
            assert occupancy >= 0
            waiting[cid] = (t, cid, "ret")
        elif label == "enter_cubicle":
            occupancy += 1
            assert occupancy <= capacity
        elif label == "renege":
            join, _, queue = waiting.pop(cid)
            assert queue == "entry"  # only the entry queue can be abandoned
        elif label in queue_for:
            starts += 1
            join, _, queue = waiting.pop(cid)
            assert queue == queue_for[label]
            if queue == "entry":
                assert occupancy < capacity
            for j, i, q in waiting.values():
                if q == "entry" and occupancy >= capacity:
                    continue  # ineligible while the store is full
                assert (join, cid) <= (j, i), (
                    f"customer {i} (joined {j}, {q}) overtaken at t={t}"
                )
    assert starts > 0
    return waiting


def test_trace_lifecycles_are_legal():
    _, trace = run_traced(small_cfg())
    served_shape_help = [
        "arrival", "start_job1", "end_job1", "enter_cubicle", "request_help",
        "start_job2", "end_job2", "leave_cubicle", "start_job3", "end_job3",
    ]
    served_shape_plain = [
        "arrival", "start_job1", "end_job1", "enter_cubicle", "leave_cubicle",
        "start_job3", "end_job3",
    ]
    for cid, labels in lifecycle(trace).items():
        assert labels[0] == "arrival"
        if labels[-1] == "end_job3":
            assert labels in (served_shape_help, served_shape_plain), (cid, labels)
        elif labels[-1] == "renege":
            assert labels == ["arrival", "renege"]
        else:
            # cut off by closing somewhere mid-flow; must be a legal prefix
            assert labels == served_shape_help[: len(labels)] or \
                labels == served_shape_plain[: len(labels)]


def test_dispatch_is_globally_first_come_first_served():
    for scale in (1.0, 2.0):
        cfg = scaled(small_cfg(), scale)
        _, trace = run_traced(cfg)
        replay_service_order(trace, cfg.cubicles)


def test_conservation_of_customers():
    metrics, trace = run_traced(small_cfg())
    arrivals = sum(1 for _, label, _ in trace if label == "arrival")
    assert arrivals == metrics.served + metrics.not_served
    assert metrics.served == sum(1 for _, l, _ in trace if l == "end_job3")


def test_utilizations_are_proportions():
    for scale in (0.5, 1.0, 2.8561):
        m = run_des(scaled(small_cfg(), scale), ReplicationDraws(0))
        assert 0.0 <= m.staff_util <= 1.0
        assert 0.0 <= m.cubicle_util <= 1.0


def test_reneges_fire_exactly_at_patience_expiry():
    cfg = small_cfg(patience=DistributionSpec.deterministic(2.0))
    cfg = scaled(cfg, 2.0)  # load it up so queues form
    _, trace = run_traced(cfg)
    arrived_at = {cid: t for t, label, cid in trace if label == "arrival"}
    reneges = [(t, cid) for t, label, cid in trace if label == "renege"]
    assert reneges, "expected some abandonment under doubled pressure"
    for t, cid in reneges:
        assert t == arrived_at[cid] + 2.0  # exact, not approximately


def test_infinite_patience_means_no_reneges():
    cfg = scaled(small_cfg(patience=None), 2.0)
    metrics, trace = run_traced(cfg)
    assert not any(label == "renege" for _, label, _ in trace)
    # everyone unserved was simply still inside at closing
    assert metrics.not_served == sum(
        1 for _, label, _ in trace if label == "arrival"
    ) - metrics.served


def test_help_probability_zero_skips_the_help_flow():
    _, trace = run_traced(small_cfg(help_probability=0.0))
    labels = {label for _, label, _ in trace}
    assert "request_help" not in labels
    assert "start_job2" not in labels


def test_help_probability_one_routes_everyone_through_help():
    _, trace = run_traced(small_cfg(help_probability=1.0))
    per = lifecycle(trace)
    helped = [cid for cid, ls in per.items() if "enter_cubicle" in ls]
    assert helped
    for cid in helped:
        c = Counter(per[cid])
        # exactly one help request per fitting, no exceptions
        assert c["request_help"] == 1 or per[cid][-1] != "end_job3"
        if per[cid][-1] == "end_job3":
            assert c["start_job2"] == 1


def test_zero_arrivals_produce_empty_metrics():
    cfg = small_cfg(arrival=ArrivalProfile((0.0,) * 8))
    metrics = run_des(cfg, ReplicationDraws(0))
    assert metrics == RunMetrics(0.0, 0.0, 0.0, 0, 0, 0)


def test_same_replication_is_bit_identical():
    cfg = small_cfg()
    m1, t1 = run_traced(cfg)
    m2, t2 = run_traced(cfg)
    assert m1 == m2 and t1 == t2


def test_different_replications_differ():
    cfg = small_cfg()
    assert run_des(cfg, ReplicationDraws(0)) != run_des(cfg, ReplicationDraws(1))


def test_policy_off_never_changes_pace():
    cfg = small_cfg(proactive=ProactivePolicy(enabled=False))
    metrics, trace = run_traced(scaled(cfg, 2.8561))
    assert metrics.service_time_changes == 0
    assert not any(label in ("speedup", "revert") for _, label, _ in trace)


def test_wait_accrues_until_renege():
    # a reneger's wait is exactly their patience when the "all" estimator
    # is in force
    cfg = small_cfg(
        patience=DistributionSpec.deterministic(1.5), wait_estimator="all"
    )
    cfg = scaled(cfg, 2.5)
    metrics, trace = run_traced(cfg)
    assert any(label == "renege" for _, label, _ in trace)
    assert metrics.mean_wait > 0.0


# --- service order (unit level) ----------------------------------------------


def queued(heads):
    """Queues whose heads are ``heads``: (job, customer id, join time) for
    each non-empty queue; each head has one later customer behind it."""
    queues = QueueSet()
    lines = {JOB1: queues.entry, JOB2: queues.help, JOB3: queues.ret}
    for job, cid, t in heads:
        lines[job].extend([Customer(cid, t), Customer(100 + cid, t + 50.0)])
    return queues, lines


@pytest.mark.parametrize("first", [JOB1, JOB2, JOB3])
def test_the_earliest_joined_head_wins_across_the_queues(first):
    # join times run against ids, so only the times can pick the winner
    later = [job for job in (JOB1, JOB2, JOB3) if job != first]
    heads = [(first, 9, 1.0), (later[0], 1, 2.0), (later[1], 0, 3.0)]
    queues, lines = queued(heads)
    assert select_service(queues, True) == (first, lines[first])


@pytest.mark.parametrize("first", [JOB1, JOB2, JOB3])
def test_equal_join_times_break_by_the_lower_customer_id(first):
    later = [job for job in (JOB1, JOB2, JOB3) if job != first]
    heads = [(later[0], 5, 4.0), (first, 3, 4.0), (later[1], 7, 4.0)]
    queues, lines = queued(heads)
    assert select_service(queues, True) == (first, lines[first])


def test_the_entry_head_waits_while_no_cubicle_is_free():
    queues, lines = queued([(JOB1, 0, 1.0), (JOB2, 1, 2.0), (JOB3, 2, 3.0)])
    assert select_service(queues, True) == (JOB1, lines[JOB1])
    assert select_service(queues, False) == (JOB2, lines[JOB2])
    queues, lines = queued([(JOB1, 0, 1.0)])
    assert select_service(queues, False) is None
    assert select_service(QueueSet(), True) is None


# --- metric folding (unit level) ---------------------------------------------


def served_customer(cid, wait):
    c = Customer(cid, 0.0)
    c.wait = wait
    c.disposition = SERVED
    return c


def test_mean_wait_over_served_customers():
    tm = Telemetry(8)
    a, b = served_customer(0, 2.0), served_customer(1, 4.0)
    lost = Customer(2, 0.0)
    lost.wait = 10.0
    lost.disposition = RENEGED
    m = build_metrics([a, b, lost], tm, 0, 480.0, "served")
    assert m.mean_wait == 3.0
    assert m.served == 2 and m.not_served == 1


def test_mean_wait_over_all_customers():
    tm = Telemetry(8)
    a, b = served_customer(0, 2.0), served_customer(1, 4.0)
    lost = Customer(2, 0.0)
    lost.wait = 12.0
    lost.disposition = RENEGED
    m = build_metrics([a, b, lost], tm, 0, 480.0, "all")
    assert m.mean_wait == 6.0


def test_utilization_ratios_from_telemetry():
    tm = Telemetry(8)
    tm.staff_busy = 240.0
    tm.cubicle_change(100.0, 1)   # one cubicle occupied from t=100
    tm.flush(480.0)               # ... through closing
    m = build_metrics([], tm, 5, 480.0, "served")
    assert m.staff_util == 0.5
    assert m.cubicle_util == pytest.approx(380.0 / (8 * 480.0))
    assert m.service_time_changes == 5
