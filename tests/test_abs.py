"""Agent model: state chart enforcement, cubicle allocation, and above all
equivalence with the discrete-event model."""

import functools
import hashlib
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fitroom import abs as agents
from fitroom import des
from fitroom.abs import AbsRun, CustomerAgent, run_abs
from fitroom.config import ScenarioConfig
from fitroom.des import DesRun, run_des
from fitroom.engine import (ArrivalProfile, DistributionSpec, EventCalendar, ModelError,
                            ReplicationDraws)
from fitroom.harness import MODEL_ORDER, _runner
from fitroom.proactive import EV_POLL, EV_REVERT, ProactivePolicy, SpeedupController
from fitroom.runtime import (EV_ARRIVAL, EV_FIT_DONE, EV_HELP_DUE, EV_JOB_DONE, EV_PATIENCE,
                             IN_SYSTEM, JOB1, JOB2, JOB3, NEVER, RENEGED, SERVED,
                             Customer, Replication, Store, select_service)
from fitroom.stats import RunMetrics
from helpers import stochastic_scenarios, traced
from oracles import check_metrics, check_trace


def cfg_variants():
    """A spread of scenarios, each exercising a different code path."""
    base = ScenarioConfig(replications=1, master_seed=77)
    hot = replace(base, arrival=base.arrival._replace(scale=2.8561))
    return {
        "default": base,
        "hot": hot,
        "policy_off": replace(base, proactive=ProactivePolicy(enabled=False)),
        "polling": replace(
            base,
            proactive=ProactivePolicy(
                check_interval=DistributionSpec.deterministic(15.0)
            ),
        ),
        "infinite_patience": replace(hot, patience=None),
        "always_help": replace(base, help_probability=1.0),
        "never_help": replace(base, help_probability=0.0),
        "one_cubicle": replace(base, cubicles=1),
        "short_fuse": replace(hot, patience=DistributionSpec.deterministic(1.0)),
        "all_deterministic": replace(
            base,
            job1=DistributionSpec.deterministic(0.4),
            job2=DistributionSpec.deterministic(1.0),
            job3=DistributionSpec.deterministic(0.3),
            fitting=DistributionSpec.deterministic(7.0),
            help_fraction=DistributionSpec.deterministic(0.5),
            patience=DistributionSpec.deterministic(10.0),
            proactive=ProactivePolicy(
                revert_delay=DistributionSpec.deterministic(5.0)
            ),
        ),
    }


@functools.cache
def variant_days(name):
    """Each model's (metrics, trace digest) on replications 0-2 of the
    variant ``name``: every day is run, and checked by ``traced``, once."""
    cfg = cfg_variants()[name]
    return [[(metrics, trace_digest(trace))
             for metrics, trace in (traced(run_des, cfg, rep), traced(run_abs, cfg, rep))]
            for rep in range(3)]


@pytest.mark.parametrize("name", sorted(cfg_variants()))
def test_two_models_tell_the_same_story(name):
    # the strongest claim in the package: with shared streams the two
    # formulations are indistinguishable event for event
    for rep, (des_day, abs_day) in enumerate(variant_days(name)):
        assert des_day == abs_day, f"{name} rep {rep}: the models diverge"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(cfg=stochastic_scenarios(), rep=st.integers(0, 2))
def test_two_models_tell_the_same_story_on_stochastic_days(cfg, rep):
    # C3 and the variants above hold durations fixed or hand-picked; here
    # every duration, threshold and policy setting is drawn at random
    assert traced(run_des, cfg, rep) == traced(run_abs, cfg, rep)


# sha256 of repr(trace) per variant and replication 0-2, pinned: DES and ABS
# traces are equal, so one digest covers both, and any change to the order
# or the time of a traced event shows.
_PINNED_TRACES = {
    "all_deterministic": (
        "ae71bc7b37fdeb3b5859419ed04d531df390f9b4f19c9e5c333c687de68b3589",
        "3345655772f61af93a8f330c3b13dc1339ea76739a82c848145a684337770815",
        "d58bb15e2277ce271258e8a29d8b18e34f6cbf1c10fc05e88679d1815eff108a",
    ),
    "always_help": (
        "68101700c1d29fd1cf0a4a3cfd2c0858c3ffb3c53ad3fe37584bcd837b9ce050",
        "c8313a7078beedaf0625f7ff69330b72890ed6d18543caa0d97482ed19f19748",
        "d62a46bda49d17ae0f93b97c465ea6076880fc919129d7c9d40bba92d4c71b5e",
    ),
    "default": (
        "080afd20d289c4f08f005b1f874eea62eee1ad6fdc98dcbfca85d50bb1cce8d5",
        "d487f41d491062318914b75cfb671921abb26ef7b7eb3a3387924c78ed7db254",
        "c99b8f3d34ccd22bfa04e60f474fad0a230ed782c6cb3617a09d866ee1883acc",
    ),
    "hot": (
        "aa37bfb8ec2f430b8fd100ce546bdaa02371bdc0562e300c4c90bd03dc772d18",
        "bf33b676e491783f29f1671e247c2f1bb17741032d70b6062c5ba8c1e59b5eda",
        "ae8cc5651f2505826bab74464d25aa55b446e262556a47d2e33e90cb16699319",
    ),
    "infinite_patience": (
        "f9db9b81f308ae66ddb731ad51515b2cf0ee4d709cb295f2e43bdcf43b72beb7",
        "66b46f7137e5fcb0f31d76a184c5f72f22e287ef40c96a1ee6faffcfebd35535",
        "fc752ff56bf79509049b191118af40b16fff8d056aa446748415f9270f636dad",
    ),
    "never_help": (
        "48118570cc6bae9bc8af59eb1527b487c5705bac108331ae9978a6c9aa2bb665",
        "3967e2d5502205a19e8cdf53cc985242ac4210c491c4b7a7ade160121f083054",
        "b3a625643e66b58af70278ce3d7185be0f6684a5e48b6b214b39e9f05bd6dc4a",
    ),
    "one_cubicle": (
        "c77a93896683f56ce31f2e135b0291a64c8329527bb3cd83bba431c359edeb9b",
        "257fc4f51b10c86ce61c8b40b725c4ec0990af1f5e2f1b291c886a64129e83db",
        "ef10ac772cf94753ef1af39ef46b7370f54dc8b9b779ac77eb1c553757d459c3",
    ),
    "policy_off": (
        "44b14a8e3bf9cf40d9a4c6fc80e8c2c436e5a4555f24079c79d768b902d455f6",
        "3b3099eff9e35d8860d7bba69c6827bce4056c94397172be0e3ef097d0770a44",
        "83535dd07b06a91011a11c93e5d506ce3156692027336033ba1699695f93db34",
    ),
    "polling": (
        "51aac72e5904e6f37e8b8e4ff5572df1fbbe322d1f7822229d35b81c99cd32d5",
        "fccee90a2903f8ccfefb32ddf152df42a24efc30e0a832ffe0b38a1143247466",
        "0c621922f87bd74fe5879310d8f890368dd797a732c43ccd0e8396e3b0381214",
    ),
    "short_fuse": (
        "a605525d53ead70d27ccebb0f3b89ae4160d583a59d492fc6bee2fb5d010a644",
        "4d444ecd11adfa29b3bc4f8ae50608ea0deec5da8a228c49a70bceac5ee160a3",
        "64c3c6d4d266af891ec0520ce6382a0d8d2cc50e1a3950c6b664a8ced560d5ff",
    ),
}


def trace_digest(trace):
    return hashlib.sha256(repr(trace).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(cfg_variants()))
def test_traces_are_pinned(name):
    for rep, days in enumerate(variant_days(name)):
        for model, (_, digest) in zip(("DES", "ABS"), days):
            assert digest == _PINNED_TRACES[name][rep], f"{name} rep {rep}: {model} trace moved"


def served_by_the_clock():
    """Every duration 1 minute, no help, no reneging, no policy: a day
    whose event times can be worked out by hand."""
    one = DistributionSpec.deterministic(1.0)
    return ScenarioConfig(replications=1, job1=one, job3=one, fitting=one,
                          help_probability=0.0, patience=None,
                          proactive=ProactivePolicy(enabled=False))


@pytest.mark.parametrize("arrivals, at_three", [
    # the arrival at 3 is stamped (at 1) before c0's fitting end (at 2):
    # c1 arrives and starts entry before c0 leaves the cubicle
    ([1.0, 3.0, None],
     [(3.0, "arrival", 1), (3.0, "start_job1", 1), (3.0, "leave_cubicle", 0)]),
    # c0's fitting end is stamped at 2 just before c1's entry service ends
    # at 3 is: c0 leaves the cubicle first
    ([1.0, 1.5, None],
     [(3.0, "leave_cubicle", 0), (3.0, "end_job1", 1), (3.0, "enter_cubicle", 1),
      (3.0, "start_job3", 0)]),
])
@pytest.mark.parametrize("model", [DesRun, AbsRun])
def test_simultaneous_events_run_in_stamp_order(model, arrivals, at_three):
    # the next arrival and the staff's job wait beside the heap; at equal
    # times an event in a slot and one on the heap go in stamp order
    trace = []
    run = model(served_by_the_clock(), ReplicationDraws(0), trace)
    run.arrivals = iter(arrivals).__next__
    run.run()
    assert [e for e in trace if e[0] == 3.0] == at_three


def tied_patience():
    """One cubicle, no help, no policy, and every duration and the patience
    half a minute: whoever arrives at 1, while c0 fits from 1 to 1.5, runs
    out of patience as the cubicle frees."""
    half = DistributionSpec.deterministic(0.5)
    return ScenarioConfig(replications=1, cubicles=1, job1=half, job3=half,
                          fitting=half, patience=half, help_probability=0.0,
                          proactive=ProactivePolicy(enabled=False))


@pytest.mark.parametrize("arrivals, at_one_and_a_half, last", [
    # c1's arrival at 1 is stamped when c0 arrives, before c0's entry end
    # is, so c1's patience is stamped before c0's fitting end: c1 reneges,
    # and the cubicle frees with nobody left to enter it
    ([0.5, 1.0, None],
     [(1.5, "renege", 1), (1.5, "leave_cubicle", 0), (1.5, "start_job3", 0)], "renege"),
    # c2's arrival at 1 is stamped when c1 arrives, after c0's entry end
    # is, so c0's fitting end is stamped first: the cubicle frees, c2's
    # entry service starts, and their patience timer pops stale
    ([0.5, 0.75, 1.0, None],
     [(1.5, "leave_cubicle", 0), (1.5, "start_job1", 2)], "end_job3"),
])
def test_a_patience_deadline_tied_with_entry_service_goes_by_stamp_order(
        arrivals, at_one_and_a_half, last):
    cfg = tied_patience()
    days = []
    for model in (DesRun, AbsRun):
        trace = []
        run = model(cfg, ReplicationDraws(0), trace)
        run.arrivals = iter(arrivals).__next__
        metrics = run.run()
        check_trace(trace, cfg.cubicles)
        check_metrics(trace, cfg, metrics)
        days.append((metrics, trace))
    assert days[0] == days[1]
    _, trace = days[0]
    assert [e for e in trace if e[0] == 1.5] == at_one_and_a_half
    # the one who arrives at 1 reneges, or is served: their return ends
    assert {cid: label for _, label, cid in trace}[len(arrivals) - 2] == last


class LatticeDraws(ReplicationDraws):
    """Replication 0's draws with the day's arrival times set by hand, so
    the calendar's limit is the day's own."""

    __slots__ = ("day",)

    def __init__(self, day: list) -> None:
        super().__init__(0)
        self.day = day

    def arrivals(self, seed, profile) -> list:
        return self.day


def lattice_day(rng: random.Random):
    """A short day on which events tie: one to six arrivals at whole
    minutes 0-3, each duration 0, 1 or 2 minutes, help wanted by none or
    by all, half-way through the fitting, and the policy off, event-driven
    or polling every minute, its speed-up halving durations so times stay
    on a half-minute lattice.  Returns the scenario, the arrival list and
    the patience (None for infinite)."""
    D = DistributionSpec.deterministic
    minutes = lambda: D(float(rng.randint(0, 2)))
    threshold = lambda: rng.randint(1, 2)
    policy = rng.choice(("off", "event", "poll"))
    patience = rng.choice((0.0, 1.0, 2.0, None))
    cfg = ScenarioConfig(
        replications=1, cubicles=rng.randint(1, 2), job1=minutes(), job2=minutes(),
        job3=minutes(), fitting=minutes(), help_probability=rng.choice((0.0, 1.0)),
        help_fraction=D(0.5), patience=None if patience is None else D(patience),
        speedup_fraction=0.5, horizon=rng.choice((2.0, 5.0, 30.0)),
        proactive=ProactivePolicy(
            enabled=policy != "off", threshold_entry=threshold(),
            threshold_return=threshold(), threshold_help=threshold(),
            revert_delay=minutes(), check_interval=D(1.0) if policy == "poll" else None))
    day = sorted(float(rng.randint(0, 3)) for _ in range(rng.randint(1, 6)))
    return cfg, day + [None], patience


def test_two_models_tell_the_same_story_on_lattice_days():
    # whole-minute arrivals and durations tie events at every turn: two
    # arrivals, a patience deadline and an entry start, a job's end and a
    # poll.  Each tie goes by stamp order, and both models must keep it,
    # keep the store's rules and the stamp bound of Replication.run
    rng = random.Random(20240614)
    deadline_ties = 0
    for _ in range(300):
        cfg, day, patience = lattice_day(rng)
        days = []
        for model in (DesRun, AbsRun):
            trace = []
            run = model(cfg, LatticeDraws(day), trace)
            metrics = run.run()
            check_trace(trace, cfg.cubicles)
            check_metrics(trace, cfg, metrics)
            # a poll each minute up to the horizon while polling
            polls = int(cfg.horizon) if cfg.proactive.check_interval else 0
            assert run.cal._seq <= 14 * len(run.customers) + 2 * polls + 2, cfg
            days.append((metrics, trace))
        assert days[0] == days[1], (cfg, day)
        if patience is not None:
            starts = {t for t, label, _ in trace if label == "start_job1"}
            deadline_ties += any(t + patience in starts
                                 for t, label, _ in trace if label == "arrival")
    # the days this test is for: a deadline at the instant an entry starts
    assert deadline_ties >= 50


@pytest.mark.parametrize("model", [DesRun, AbsRun])
def test_starting_a_staff_job(model):
    # the shared step: the head of the line is charged its wait, the policy
    # is told only if the store was congested (a shorter line cannot make
    # it so), the start is traced and the completion fills the staff's slot
    cfg = replace(ScenarioConfig(replications=1),
                  job1=DistributionSpec.deterministic(0.5))
    for congested in (False, True):
        told = [4.0] if congested else []
        trace, noted = [], []
        run = model(cfg, ReplicationDraws(0), trace)
        run.note = noted.append
        run.ctl.congested = congested
        first, second = Customer(0, 1.0), Customer(1, 2.0)
        run.store.entry.extend([first, second])
        # a look that found no job starts none
        assert run.start_job(None, 3.0) is None
        assert run.pending_job is NEVER and not trace and noted == []
        assert run.start_job((JOB1, run.store.entry), 4.0) is first
        assert first.wait == 3.0 and list(run.store.entry) == [second]
        assert noted == told
        assert trace == [(4.0, "start_job1", 0)]
        assert run.store.staff_since == 4.0
        assert run.pending_job[0] == 4.5 and run.pending_job[2:] == ("job1_done", first)
        # a second job while one is pending is a wiring bug; nobody is served
        with pytest.raises(ModelError, match="still pending"):
            run.start_job((JOB1, run.store.entry), 5.0)
        assert list(run.store.entry) == [second] and second.wait == 0.0
        assert noted == told


@pytest.mark.parametrize("model", [DesRun, AbsRun])
def test_joining_a_staff_queue(model, monkeypatch):
    # the shared step: the customer is stamped and queued, an event-driven
    # policy is told of the longer queue each time (a polling or disabled
    # one never is), and the caller learns whether the staff is idle
    noted = []
    monkeypatch.setattr(SpeedupController, "note_change",
                        lambda ctl, now: noted.append(now))
    for policy, told in (
            (ProactivePolicy(), [2.0, 3.0]),
            (ProactivePolicy(check_interval=DistributionSpec.deterministic(15.0)), []),
            (ProactivePolicy(enabled=False), [])):
        noted.clear()
        run = model(replace(ScenarioConfig(replications=1), proactive=policy),
                    ReplicationDraws(0))
        first, second = Customer(0, 1.0), Customer(1, 1.0)
        assert run.join(first, run.store.help, 2.0) is True
        assert first.joined_at == 2.0 and list(run.store.help) == [first]
        assert noted == told[:1]
        run.store.staff_since = 2.5
        assert run.join(second, run.store.help, 3.0) is False
        assert second.joined_at == 3.0 and list(run.store.help) == [first, second]
        assert noted == told


@pytest.mark.parametrize("model", [DesRun, AbsRun])
def test_asking_for_help(model):
    # the shared step: the request is traced, then the customer joins the
    # help queue (stamped, the policy told), and the caller learns whether
    # the staff is idle
    trace, noted = [], []
    run = model(ScenarioConfig(replications=1), ReplicationDraws(0), trace)
    run.note = noted.append
    first, second = Customer(0, 1.0), Customer(1, 1.0)
    assert run.ask_help(first, 2.0) is True
    run.store.staff_since = 2.5
    assert run.ask_help(second, 3.0) is False
    assert list(run.store.help) == [first, second] and not run.store.ret
    assert (first.joined_at, second.joined_at) == (2.0, 3.0)
    assert noted == [2.0, 3.0]
    assert trace == [(2.0, "request_help", 0), (3.0, "request_help", 1)]


@pytest.mark.parametrize("model", [DesRun, AbsRun])
def test_ending_a_staff_job(model):
    # the shared step: the busy clock stops; after help (job 2) the
    # customer's fitting resumes for what is left of it, after return
    # (job 3) they are served; the policy is told only after job 1, whose
    # end fills a cubicle and so can only end congestion, and only while
    # the store was congested
    for job in (JOB1, JOB2, JOB3):
        for congested in (False, True):
            noted = []
            run = model(ScenarioConfig(replications=1), ReplicationDraws(0))
            run.note = noted.append
            line = (None, run.store.entry, run.store.help, run.store.ret)[job]
            c = Customer(0, 1.0)
            c.fit_remaining = 2.0
            line.append(c)
            run.start_job((job, line), 4.0)
            run.store.staff_busy = 10.0
            run.ctl.congested = congested
            run.end_job(c, 6.5)
            assert run.store.staff_busy == 12.5 and run.store.staff_since is None
            assert noted == ([6.5] if job == JOB1 and congested else []), (job, congested)
            resumed = [(t, kind, who) for t, _, kind, who in run.cal._heap]
            assert resumed == ([(8.5, EV_FIT_DONE, c)] if job == JOB2 else []), job
            assert c.disposition == (SERVED if job == JOB3 else IN_SYSTEM), job


@pytest.mark.parametrize("model", sorted(MODEL_ORDER))
def test_waits_cut_off_at_closing_are_charged_in_every_queue(model):
    # a short, busy day on which everyone wants help ends with someone in
    # each of the three queues (seed 4 is the lowest seed whose day does);
    # under the "all" estimator the helper checks the mean wait against the
    # one folded from the trace, every unfinished spell charged up to the
    # horizon
    base = ScenarioConfig(replications=1, master_seed=4, horizon=90.0,
                          wait_estimator="all", help_probability=1.0)
    cfg = replace(base, arrival=base.arrival._replace(scale=2.0))
    _, trace = traced(_runner(model), cfg)
    # a customer whose last entry joins a queue is still in it at closing
    last = {cid: label for _, label, cid in trace}
    assert {"arrival", "request_help", "leave_cubicle"} <= set(last.values())


@pytest.mark.parametrize("model", [DesRun, AbsRun])
def test_a_finished_run_is_freed_by_reference_counting(model, monkeypatch, gc_disabled):
    # the agents point back at their run; a finished run must let go of
    # them, or every replication waits for the cycle collector
    runs = []
    real_init = model.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        runs.append(weakref.ref(self))

    monkeypatch.setattr(model, "__init__", init)
    cfg = cfg_variants()["hot"]
    metrics = model(cfg, ReplicationDraws(0)).run()
    assert metrics.served > 0 and metrics.not_served > 0
    assert len(runs) == 1 and runs[0]() is None


# --- renege ----------------------------------------------------------------------


class RenegeWatch:
    """Checks the entry queue, which keeps reneged customers until they reach
    its head, at every renege and every look for a job: ``store.gone``
    counts exactly the reneged customers in ``entry``, job 1 never goes to
    one of them, and a renege while the staff is idle leaves no job to
    start, which is why the renege step sends the staff nowhere."""

    @staticmethod
    def check_gone(store):
        assert store.gone == sum(c.disposition == RENEGED for c in store.entry)

    def renege(self, real):
        def renege(run, c, now):
            if not real(run, c, now):
                return False
            st = run.store
            self.check_gone(st)
            if st.staff_since is None:
                # the look is made on a copy, so the run goes on untouched
                probe = Store(st.capacity)
                probe.entry.extend(st.entry)
                probe.help.extend(st.help)
                probe.ret.extend(st.ret)
                probe.gone = st.gone
                probe.occupied = st.occupied
                assert select_service(probe) is None
            return True
        return renege

    def select_service(self, store):
        self.check_gone(store)
        pick = select_service(store)
        self.check_gone(store)
        if pick is not None and pick[0] == JOB1:
            assert pick[1][0].disposition == IN_SYSTEM
        return pick


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(cfg=stochastic_scenarios())
def test_reneged_customers_stay_in_the_entry_queue_until_its_head(cfg):
    for module, run in ((des, run_des), (agents, run_abs)):
        watch = RenegeWatch()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Replication, "renege", watch.renege(Replication.renege))
            mp.setattr(module, "select_service", watch.select_service)
            traced(run, cfg)


class Calls:
    """``f`` with a count of its calls, ``n``."""

    def __init__(self, f):
        self.f = f
        self.n = 0

    def __call__(self, *args):
        self.n += 1
        return self.f(*args)


def counted(f, kinds):
    """The calendar method ``f`` (``schedule`` or ``stamp``), counting each
    event it keys in ``kinds`` by kind."""
    def keyed(cal, time, kind, target=None):
        kinds[kind] += 1
        return f(cal, time, kind, target)
    return keyed


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(cfg=stochastic_scenarios(), rep=st.integers(0, 2))
def test_a_day_stamps_at_most_14_events_per_arrival_and_2_per_poll(cfg, rep):
    # the steps of the count in Replication.run's docstring, which add up to
    # its bound of 14 A + 2 P + 2; cal._seq counts every event stamped, the
    # two slots' included, and each kind is held to its own share
    stamped = []
    for model in (DesRun, AbsRun):
        kinds = Counter()
        with pytest.MonkeyPatch.context() as mp:
            speedups = Calls(SpeedupController.apply_speedup)
            mp.setattr(SpeedupController, "apply_speedup",
                       lambda ctl, now: speedups(ctl, now))
            for name in ("schedule", "stamp"):
                mp.setattr(EventCalendar, name, counted(getattr(EventCalendar, name), kinds))
            run = model(cfg, ReplicationDraws(rep))
            # a poll draws its successor's interval as it is handled and
            # calls note_change once; an event-driven policy is called
            # through run.note
            polls = run.ctl.next_poll = Calls(run.ctl.next_poll)
            notes = Calls(run.note)
            if run.note is not None:
                run.note = notes
            run.run()
        arrivals = len(run.customers)
        assert speedups.n <= polls.n + notes.n <= 7 * arrivals + polls.n, model.__name__
        # the arrivals and one past the horizon, each customer's own events,
        # the polls and the first one, and at most one revert per speed-up
        shares = {EV_ARRIVAL: arrivals + 1, EV_POLL: polls.n + 1, EV_REVERT: speedups.n,
                  **dict.fromkeys((EV_PATIENCE, *EV_JOB_DONE[1:], EV_HELP_DUE,
                                   EV_FIT_DONE), arrivals)}
        assert sum(kinds.values()) == run.cal._seq and kinds.keys() <= shares.keys()
        for kind, n in kinds.items():
            assert n <= shares[kind], (model.__name__, kind)
        assert run.cal._seq <= 7 * arrivals + 1 + polls.n + 1 + speedups.n, \
            model.__name__
        # the bound the calendar held the day to: the day's arrivals count,
        # those past the horizon too, and each poll handled raised it by 2
        day = ReplicationDraws(rep).arrivals(cfg.master_seed, cfg.arrival)
        assert run.cal.limit == 14 * (len(day) - 1) + 2 * polls.n + 2, model.__name__
        stamped.append(kinds)
    assert stamped[0] == stamped[1]


@pytest.mark.parametrize("model", sorted(MODEL_ORDER))
def test_a_day_past_its_stamp_bound_is_a_model_error(model, monkeypatch, capsys):
    # a revert that walks its chain to the instant it fires at never lets
    # the clock move on; the calendar's bound ends the day, and the command
    # line exits 3 with one line naming the event and the bound
    from fitroom.cli import main

    def stuck(ctl, _target, t):
        ctl.calendar.schedule(t, EV_REVERT)

    monkeypatch.setattr(SpeedupController, "handle_revert", stuck)
    cfg = ScenarioConfig(replications=1, master_seed=1)
    run = _runner(model)
    bound = 14 * (len(ReplicationDraws(0).arrivals(1, cfg.arrival)) - 1) + 2
    with pytest.raises(ModelError, match=rf"^cannot schedule 'revert' at t=[0-9.]+: "
                                         rf"the day has stamped its bound of {bound} events$"):
        run(cfg, ReplicationDraws(0))
    assert main(["run", "--model", model, "--replications", "1", "--seed", "1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fitroom: cannot schedule 'revert' at t=")
    assert err[0].endswith(f"its bound of {bound} events")


def test_a_heavy_day_keeps_the_rules_while_reneged_customers_pile_up(monkeypatch):
    # at 160 times the default arrivals (about 50k a day) nearly everyone
    # reneges, and the entry queue holds the reneged until the staff gets
    # to them; both models must still keep every rule and tell one story
    left = []
    real = Replication.finalize

    def finalize(run, horizon):
        left.append(run.store.gone)
        return real(run, horizon)

    monkeypatch.setattr(Replication, "finalize", finalize)
    base = ScenarioConfig(replications=1, master_seed=5)
    cfg = replace(base, arrival=base.arrival._replace(scale=160.0))
    day = traced(run_des, cfg)
    assert traced(run_abs, cfg) == day
    metrics, _ = day
    assert metrics.not_served > 100 * metrics.served
    assert min(left) > 1000, left


# --- properties of either model, on its own ------------------------------------


@pytest.mark.parametrize("model", sorted(MODEL_ORDER))
def test_zero_arrivals_produce_empty_metrics(model):
    cfg = ScenarioConfig(arrival=ArrivalProfile((0.0,) * 8), replications=1)
    assert traced(_runner(model), cfg) == (RunMetrics(0.0, 0.0, 0.0, 0, 0, 0), [])


@pytest.mark.parametrize("model", sorted(MODEL_ORDER))
def test_same_replication_is_bit_identical(model):
    cfg = ScenarioConfig(replications=1, master_seed=2)
    assert traced(_runner(model), cfg) == traced(_runner(model), cfg)


@pytest.mark.parametrize("model", sorted(MODEL_ORDER))
def test_different_replications_differ(model):
    cfg = ScenarioConfig(replications=1, master_seed=2)
    run = _runner(model)
    assert run(cfg, ReplicationDraws(0)) != run(cfg, ReplicationDraws(1))


# --- state chart ---------------------------------------------------------------


def fresh_model():
    return AbsRun(ScenarioConfig(replications=1), ReplicationDraws(0))


def test_illegal_transition_is_rejected():
    model = fresh_model()
    c = CustomerAgent(0, 0.0, model)
    with pytest.raises(ModelError):
        c._transition(agents.FITTING)  # cannot teleport past the queues
    c._transition(agents.WAITING_ENTRY)
    with pytest.raises(ModelError):
        c._transition(agents.SERVED_STATE)


def test_any_state_may_abort_to_not_served():
    model = fresh_model()
    c = CustomerAgent(0, 0.0, model)
    c._transition(agents.WAITING_ENTRY)
    c._transition(agents.NOT_SERVED)
    with pytest.raises(ModelError):
        c._transition(agents.WAITING_ENTRY)  # terminal means terminal


# the customer state chart written out here, not read from the model: each
# state's name and every state it may move to
_CHART = {
    agents.ARRIVED: ("Arrived", {agents.WAITING_ENTRY, agents.NOT_SERVED}),
    agents.WAITING_ENTRY: ("WaitingEntry", {agents.IN_ENTRY_SERVICE, agents.NOT_SERVED}),
    agents.IN_ENTRY_SERVICE: ("InEntryService", {agents.FITTING, agents.NOT_SERVED}),
    agents.FITTING: ("Fitting", {agents.WAITING_HELP, agents.WAITING_RETURN,
                                 agents.NOT_SERVED}),
    agents.WAITING_HELP: ("WaitingHelp", {agents.IN_HELP_SERVICE, agents.NOT_SERVED}),
    agents.IN_HELP_SERVICE: ("InHelpService", {agents.FITTING, agents.NOT_SERVED}),
    agents.WAITING_RETURN: ("WaitingReturn", {agents.IN_RETURN_SERVICE, agents.NOT_SERVED}),
    agents.IN_RETURN_SERVICE: ("InReturnService", {agents.SERVED_STATE, agents.NOT_SERVED}),
    agents.SERVED_STATE: ("Served", set()),
    agents.NOT_SERVED: ("NotServed", set()),
}


def test_exactly_the_charts_edges_are_legal_transitions():
    model = fresh_model()
    # the states are numbered 0..9, and the model knows no others
    assert sorted(_CHART) == list(range(10)) == sorted(agents.STATE_NAMES)
    for src, (src_name, moves) in _CHART.items():
        for to, (to_name, _) in _CHART.items():
            c = CustomerAgent(0, 0.0, model)
            c.state = src
            if to in moves:
                c._transition(to)
                assert c.state == to
            else:
                with pytest.raises(ModelError, match=f"^customer 0: illegal transition "
                                                     f"{src_name} -> {to_name}$"):
                    c._transition(to)
                assert c.state == src


def test_state_names_cover_every_state():
    # both ends of every move the model accepts carry the chart's name
    model = fresh_model()
    seen = set()
    for src in _CHART:
        for to in _CHART:
            c = CustomerAgent(0, 0.0, model)
            c.state = src
            try:
                c._transition(to)
            except ModelError:
                continue
            seen.update((src, to))
    assert seen == set(_CHART)
    assert agents.STATE_NAMES == {st: name for st, (name, _) in _CHART.items()}


def test_every_state_is_reachable_from_arrived():
    # explored through _transition itself, so it holds for whatever the chart says
    model = fresh_model()
    states = range(len(agents.STATE_NAMES))
    seen, todo = {agents.ARRIVED}, [agents.ARRIVED]
    while todo:
        src = todo.pop()
        for to in states:
            c = CustomerAgent(0, 0.0, model)
            c.state = src
            try:
                c._transition(to)
            except ModelError:
                continue
            if to not in seen:
                seen.add(to)
                todo.append(to)
    assert seen == set(states)


def test_serve_message_must_match_waiting_state():
    model = fresh_model()
    c = CustomerAgent(0, 0.0, model)
    c._transition(agents.WAITING_ENTRY)
    # serving job 3 to someone waiting for entry is a wiring bug
    with pytest.raises(ModelError, match="illegal transition"):
        c.handle(agents.M_SERVE, JOB3, 0.0)
    c.handle(agents.M_SERVE, JOB1, 0.0)
    assert c.state == agents.IN_ENTRY_SERVICE


def test_unknown_message_kind_is_rejected():
    model = fresh_model()
    c = CustomerAgent(0, 0.0, model)
    with pytest.raises(ModelError):
        c.handle("gift_card", None, 0.0)


def test_stale_patience_timer_is_harmless():
    # a patience timer that pops once a job has started for its customer
    # is stale: the model's handler leaves them be, and the shared renege
    # step says it did nothing; one still waiting for entry reneges
    for model in (DesRun, AbsRun):
        trace = []
        run = model(ScenarioConfig(replications=1), ReplicationDraws(0), trace)
        expire = run.handlers()[EV_PATIENCE]
        agents_run = model is AbsRun
        if agents_run:
            served, waiting = CustomerAgent(0, 0.0, run), CustomerAgent(1, 0.0, run)
            for c in (served, waiting):
                c._transition(agents.WAITING_ENTRY)
        else:
            served, waiting = Customer(0, 0.0), Customer(1, 0.0)
        for c in (served, waiting):
            run.join(c, run.store.entry, 0.0)
        assert run.start_job((JOB1, run.store.entry), 1.0) is served
        if agents_run:
            served.handle(agents.M_SERVE, JOB1, 1.0)
        expire(served, 5.0)  # fired after service began; must do nothing
        assert run.renege(served, 5.0) is False
        assert served.disposition == IN_SYSTEM and run.store.gone == 0, model.__name__
        expire(waiting, 5.0)
        assert waiting.disposition == RENEGED and run.store.gone == 1
        assert trace == [(1.0, "start_job1", 0), (5.0, "renege", 1)]
        if agents_run:
            assert (served.state, waiting.state) == (agents.IN_ENTRY_SERVICE,
                                                     agents.NOT_SERVED)


# --- fitting room ----------------------------------------------------------------


def test_cubicles_are_granted_by_message_while_one_is_free():
    model = AbsRun(ScenarioConfig(replications=1, cubicles=2), ReplicationDraws(0))
    room = model.room
    cs = [CustomerAgent(i, 0.0, model) for i in range(3)]
    for c in cs:
        c._transition(agents.WAITING_ENTRY)
        c.handle(agents.M_SERVE, JOB1, 0.0)

    room.handle(agents.M_REQUEST_CUBICLE, cs[0], 0.0)
    room.handle(agents.M_REQUEST_CUBICLE, cs[1], 0.0)
    assert model.store.occupied == 2
    # grants travel by message; drain them
    deliveries = []
    while model.msgs:
        receiver, kind, _ = model.msgs.popleft()
        deliveries.append((receiver.id, kind))
    assert deliveries == [(0, agents.M_CUBICLE_GRANTED), (1, agents.M_CUBICLE_GRANTED)]
    with pytest.raises(ModelError):
        room.handle(agents.M_REQUEST_CUBICLE, cs[2], 1.0)

    # a release frees a cubicle, and the next request gets it
    room.handle(agents.M_CUBICLE_RELEASED, cs[0], 1.0)
    assert model.store.occupied == 1 and not model.msgs
    room.handle(agents.M_REQUEST_CUBICLE, cs[2], 1.0)
    receiver, kind, _ = model.msgs.popleft()
    assert (receiver.id, kind) == (2, agents.M_CUBICLE_GRANTED)
    assert model.store.occupied == 2


def test_grant_with_no_free_cubicle_is_a_model_error():
    model = AbsRun(ScenarioConfig(replications=1, cubicles=1), ReplicationDraws(0))
    a, b = CustomerAgent(0, 0.0, model), CustomerAgent(1, 0.0, model)
    model.room.handle(agents.M_REQUEST_CUBICLE, a, 0.0)
    with pytest.raises(ModelError):
        model.room.handle(agents.M_REQUEST_CUBICLE, b, 0.0)
