"""Speed-up policy: trigger condition, pace arithmetic, revert lifecycle."""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from fitroom.abs import AbsRun, run_abs
from fitroom.config import ScenarioConfig
from fitroom.des import DesRun, run_des
from fitroom.engine import DistributionSpec, EventCalendar, ReplicationDraws
from fitroom.proactive import (
    EV_POLL,
    EV_REVERT,
    L_REVERT,
    L_SPEEDUP,
    ProactivePolicy,
    ServiceTimeTable,
    SpeedupController,
)
from fitroom.runtime import JOB1, JOB2, JOB3, Store
from helpers import pop_event, stochastic_scenarios, traced


class Walkin:
    """Bare queueable body; the trigger reads only queue lengths."""

    def __init__(self, cid):
        self.id = cid


def fill(line, count):
    for i in range(count):
        line.append(Walkin(i))


def job_readers(*specs, seed=7):
    """Duration readers of ``specs`` on one replication's draws, as a run
    builds them for its jobs."""
    draws = ReplicationDraws(0)
    return [draws.values(seed, f"job{k}", spec) for k, spec in enumerate(specs, 1)]


def make_table(fraction=0.2):
    D = DistributionSpec
    return ServiceTimeTable(*job_readers(D.deterministic(1.0), D.deterministic(2.0),
                                         D.deterministic(3.0)), fraction)


def policy_draws(policy, seed=7):
    """The controller's revert-delay and poll-interval readers, as a run
    builds them."""
    draws = ReplicationDraws(0)
    poll = policy.check_interval
    return (draws.values(seed, "revert", policy.revert_delay),
            None if poll is None else draws.values(seed, "poll", poll))


def make_controller(policy, table=None, capacity=8):
    """A controller on a fresh calendar and store; returns it with them."""
    cal = EventCalendar()
    store = Store(capacity, trace=[])
    ctl = SpeedupController(
        policy, table or make_table(), cal, store, *policy_draws(policy),
    )
    return ctl, cal, store


# --- trigger condition --------------------------------------------------------


def test_condition_entry_queue_needs_a_free_cubicle():
    policy = ProactivePolicy(threshold_entry=3, threshold_return=3, threshold_help=3)
    ctl, _, store = make_controller(policy)
    fill(store.entry, 3)
    ctl.note_change(0.0)
    assert ctl.table.fast
    ctl, _, store = make_controller(policy)
    fill(store.entry, 3)
    store.occupied = 8  # store full: a long entry queue alone is expected
    ctl.note_change(0.0)
    assert not ctl.table.fast


def test_condition_return_queue_ignores_cubicles():
    ctl, _, store = make_controller(ProactivePolicy())
    store.occupied = 8
    fill(store.ret, 3)
    ctl.note_change(0.0)
    assert ctl.table.fast


def test_condition_help_queue_ignores_cubicles():
    ctl, _, store = make_controller(ProactivePolicy())
    store.occupied = 8
    fill(store.help, 3)
    ctl.note_change(0.0)
    assert ctl.table.fast


def test_condition_below_all_thresholds_is_calm():
    ctl, _, store = make_controller(ProactivePolicy())
    fill(store.entry, 2)
    fill(store.ret, 2)
    fill(store.help, 2)
    ctl.note_change(0.0)
    assert not ctl.table.fast


def test_condition_respects_individual_thresholds():
    policy = ProactivePolicy(threshold_entry=5, threshold_return=2, threshold_help=9)
    ctl, _, store = make_controller(policy)
    fill(store.entry, 4)
    ctl.note_change(0.0)
    assert not ctl.table.fast
    fill(store.ret, 2)
    ctl.note_change(0.0)
    assert ctl.table.fast


def test_thresholds_must_be_positive_integers():
    with pytest.raises(ValueError):
        ProactivePolicy(threshold_entry=0)
    with pytest.raises(ValueError):
        ProactivePolicy(threshold_return=-1)
    with pytest.raises(ValueError):
        ProactivePolicy(threshold_help=2.5)


@pytest.mark.parametrize("field, value", [
    ("revert_delay", 5), ("revert_delay", None), ("check_interval", 1.0),
])
def test_timings_must_be_distribution_specs(field, value):
    # refused here, where the field can be named, not inside a later run
    with pytest.raises(ValueError, match=field):
        ProactivePolicy(**{field: value})


def test_enabled_must_be_a_bool():
    # "no" is truthy, so it would turn the policy on
    for value in ("no", 0, None):
        with pytest.raises(ValueError, match="enabled"):
            ProactivePolicy(enabled=value)


@pytest.mark.parametrize("field, value", [
    *((name, value) for name in ("threshold_entry", "threshold_return", "threshold_help")
      for value in (True, "3", 1.0, 0)),
    ("enabled", 1), ("enabled", "yes"),
])
def test_the_policy_names_each_bad_field(field, value):
    # the scenario loader relies on these checks alone, and puts the message
    # under the key that set the field
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ProactivePolicy(**{field: value})


# --- pace table ----------------------------------------------------------------


def test_fast_pace_scales_every_job_by_the_same_draw():
    spec = DistributionSpec.triangular(0.5, 1.0, 1.5)
    # both tables read the same stream from its first draw, so identical draws
    normal = ServiceTimeTable(*job_readers(spec, spec, spec, seed=3), 0.2)
    fast = ServiceTimeTable(*job_readers(spec, spec, spec, seed=3), 0.2)
    fast.set_fast()
    for _ in range(1000):
        for job in (JOB1, JOB2, JOB3):
            d_normal = normal.duration(job)
            d_fast = fast.duration(job)
            assert d_fast == d_normal * 0.8  # exact, not approx

    assert not normal.fast and fast.fast


def test_pace_factor_roundtrip():
    table = make_table(0.25)
    assert table.factor == 1.0
    table.set_fast()
    assert table.factor == 0.75
    table.set_normal()
    assert table.factor == 1.0


def test_zero_fraction_is_a_legal_no_op_speedup():
    table = make_table(0.0)
    table.set_fast()
    assert table.fast and table.factor == 1.0


def test_sample_covers_all_three_jobs():
    table = make_table()
    assert table.duration(JOB1) == 1.0
    assert table.duration(JOB2) == 2.0
    assert table.duration(JOB3) == 3.0


# --- controller lifecycle -------------------------------------------------------


def drain_reverts(ctl, cal):
    log = []
    ev = pop_event(cal)
    while ev is not None:
        t, _, kind, target = ev
        assert kind == EV_REVERT
        ctl.handle_revert(target, t)
        log.append((t, ctl.table.fast))
        ev = pop_event(cal)
    return log


def test_change_count_increments_only_on_pace_transitions():
    policy = ProactivePolicy(revert_delay=DistributionSpec.deterministic(5.0))
    ctl, cal, _ = make_controller(policy)
    ctl.apply_speedup(0.0)
    ctl.apply_speedup(1.0)  # re-trigger while already fast
    ctl.apply_speedup(2.0)
    assert ctl.change_count == 1
    assert ctl.table.fast

    drain_reverts(ctl, cal)
    assert not ctl.table.fast

    ctl.apply_speedup(20.0)  # a fresh episode counts again
    assert ctl.change_count == 2


def test_retrigger_extends_the_fast_episode():
    policy = ProactivePolicy(revert_delay=DistributionSpec.deterministic(5.0))
    ctl, cal, _ = make_controller(policy)
    ctl.apply_speedup(0.0)   # would revert at 5
    cal.now = 2.0
    ctl.apply_speedup(2.0)   # pushes the revert to 7
    log = drain_reverts(ctl, cal)
    # the t=5 event must not end the episode; the episode ends at 7
    assert log[0] == (5.0, True)
    assert log[-1] == (7.0, False)


def test_stale_revert_after_natural_end_is_ignored():
    policy = ProactivePolicy(revert_delay=DistributionSpec.deterministic(3.0))
    ctl, cal, _ = make_controller(policy)
    ctl.apply_speedup(0.0)
    drain_reverts(ctl, cal)
    assert not ctl.table.fast
    before = ctl.change_count
    # replay a leftover revert; nothing may change
    ctl.handle_revert(None, 99.0)
    assert not ctl.table.fast and ctl.change_count == before


def test_speedup_and_revert_are_traced():
    policy = ProactivePolicy(revert_delay=DistributionSpec.deterministic(4.0))
    ctl, cal, store = make_controller(policy)
    ctl.apply_speedup(1.0)
    for _ in range(4):
        ev = pop_event(cal)
        if ev is None:
            break
        t, _, _, target = ev
        ctl.handle_revert(target, t)
    assert store.trace == [(1.0, L_SPEEDUP, -1), (5.0, L_REVERT, -1)]


def test_disabled_policy_never_consumes_revert_randomness(opened_streams):
    ctl, cal, _ = make_controller(ProactivePolicy(enabled=False))
    assert not ctl.event_driven
    assert len(cal._heap) == 0  # no poll either

    base = ScenarioConfig(replications=1, master_seed=7)
    cfg = replace(base, arrival=base.arrival._replace(scale=2.0),
                  proactive=ProactivePolicy(enabled=False))
    run = DesRun(cfg, ReplicationDraws(0))
    assert run.note is None  # no queue or cubicle change reaches the policy
    assert run.run().service_time_changes == 0
    assert (7, "revert", 0) not in opened_streams  # no revert delay was ever drawn

    # the same congested day under the enabled policy does draw one
    assert run_des(replace(cfg, proactive=ProactivePolicy()),
                   ReplicationDraws(0)).service_time_changes > 0
    assert (7, "revert", 0) in opened_streams


def test_event_driven_note_change_reacts_to_congestion_only():
    policy = ProactivePolicy(revert_delay=DistributionSpec.deterministic(2.0))
    ctl, cal, store = make_controller(policy)
    assert ctl.event_driven
    ctl.note_change(0.0)
    assert not ctl.table.fast  # queues empty, nothing to react to
    fill(store.ret, 3)
    ctl.note_change(1.0)
    assert ctl.table.fast and ctl.change_count == 1


def test_polling_policy_checks_only_at_poll_times():
    policy = ProactivePolicy(
        revert_delay=DistributionSpec.deterministic(50.0),
        check_interval=DistributionSpec.deterministic(10.0),
    )
    ctl, cal, store = make_controller(policy)
    assert not ctl.event_driven
    fill(store.ret, 5)

    t, _, kind, target = pop_event(cal)
    assert kind == EV_POLL and t == 10.0
    ctl.handle_poll(target, t)
    assert ctl.table.fast  # congestion picked up at the poll

    nxt = [pop_event(cal) for _ in range(2)]
    assert sorted(kind for _, _, kind, _ in nxt) == [EV_POLL, EV_REVERT]

    # in a run, no queue or cubicle change reaches a polling policy: every
    # speed-up falls on a poll, and the polls fall every 10 minutes
    base = ScenarioConfig(replications=1, master_seed=11, proactive=policy)
    cfg = replace(base, arrival=base.arrival._replace(scale=2.0))
    for model in (DesRun, AbsRun):
        trace = []
        run = model(cfg, ReplicationDraws(0), trace)
        assert run.note is None
        run.run()
        ups = [t for t, label, _ in trace if label == L_SPEEDUP]
        assert ups and all(t % 10.0 == 0.0 for t in ups), model


def test_trace_speedup_count_matches_reported_changes():
    cfg = ScenarioConfig(replications=1, master_seed=11)
    cfg = replace(cfg, arrival=cfg.arrival._replace(scale=2.0))
    trace = []
    metrics = run_des(cfg, ReplicationDraws(0), trace)
    ups = sum(1 for (_, label, _) in trace if label == L_SPEEDUP)
    downs = sum(1 for (_, label, _) in trace if label == L_REVERT)
    assert metrics.service_time_changes == ups
    assert ups > 0
    assert downs in (ups, ups - 1)  # last episode may still be live at close


# --- the stored verdict -------------------------------------------------------

# how each traced step moves (entry queue, help queue, return queue, cubicles
# taken)
_MOVES = {
    "arrival": (1, 0, 0, 0), "start_job1": (-1, 0, 0, 0), "renege": (-1, 0, 0, 0),
    "enter_cubicle": (0, 0, 0, 1), "request_help": (0, 1, 0, 0),
    "start_job2": (0, -1, 0, 0), "leave_cubicle": (0, 0, 1, -1),
    "start_job3": (0, 0, -1, 0),
}


class VerdictWatch:
    """Checks, at the start of every event, that the controller's stored
    verdict is the trigger rule applied to the store as the trace so far
    leaves it: queue lengths and cubicles taken are counted from the
    trace, not read from the run."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.state = [0, 0, 0, 0]
        self.seen = 0
        self.events = 0

    def check(self, ctl):
        for _, label, _ in ctl.store.trace[self.seen:]:
            for i, d in enumerate(_MOVES.get(label, (0, 0, 0, 0))):
                self.state[i] += d
        self.seen = len(ctl.store.trace)
        entry, help_, ret, taken = self.state
        p = self.cfg.proactive
        rule = ((taken < self.cfg.cubicles and entry >= p.threshold_entry)
                or ret >= p.threshold_return or help_ >= p.threshold_help)
        assert ctl.congested == rule, (self.events, self.state)
        self.events += 1

    def watching(self, handlers, ctl_of):
        """``handlers`` (a class's handlers method) with each event's handler
        checking the verdict first."""
        def build(owner):
            ctl = ctl_of(owner)

            def checked(handler):
                def handle(target, t):
                    self.check(ctl)
                    handler(target, t)
                return handle
            return {kind: checked(h) for kind, h in handlers(owner).items()}
        return build


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(cfg=stochastic_scenarios())
def test_the_stored_verdict_is_the_rule_at_every_event(cfg):
    # the models skip the check after a change that can only end congestion
    # while the last verdict was calm; that is exact only if the stored
    # verdict always equals the rule on the store as it stands
    cfg = replace(cfg, proactive=replace(cfg.proactive, enabled=True,
                                         check_interval=None))
    for model, run in ((DesRun, run_des), (AbsRun, run_abs)):
        watch = VerdictWatch(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "handlers",
                       watch.watching(model.handlers, lambda r: r.ctl))
            mp.setattr(SpeedupController, "handlers",
                       watch.watching(SpeedupController.handlers, lambda c: c))
            _, trace = traced(run, cfg)
        # each arrival is an event of its own
        assert watch.events >= sum(label == "arrival" for _, label, _ in trace)
