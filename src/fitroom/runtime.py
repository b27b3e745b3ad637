"""Pieces both store models share verbatim: the customer record, the event
loop, each run's draw readers, the steps both models take, the store's
state (``Store``: queues, cubicles, busy clock and trace in one record,
which both models, the policy and the service rule read), the staff's
service-order rule, and run metrics.

Keeping these identical (not merely similar) is what lets any scenario
produce byte-for-byte the same trace from either model.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque

from .engine import EventCalendar, ModelError, ReplicationDraws
from .proactive import ServiceTimeTable, SpeedupController
from .stats import RunMetrics

# customer dispositions
IN_SYSTEM, SERVED, RENEGED = 0, 1, 2

JOB1, JOB2, JOB3 = 1, 2, 3

# trace labels; the trace is a list of (time, label, customer id) with id -1
# for system-level entries
L_ARRIVAL = "arrival"
L_START = (None, "start_job1", "start_job2", "start_job3")
L_END = (None, "end_job1", "end_job2", "end_job3")
L_ENTER = "enter_cubicle"
L_REQUEST_HELP = "request_help"
L_LEAVE = "leave_cubicle"
L_RENEGE = "renege"
# the policy's own labels, L_SPEEDUP and L_REVERT, are in proactive.py

# event kinds both models schedule
EV_ARRIVAL = "arrival"
EV_PATIENCE = "patience"
EV_HELP_DUE = "help_due"
EV_FIT_DONE = "fit_done"
# the staff's completion of each job
EV_JOB_DONE = (None, "job1_done", "job2_done", "job3_done")

# the entry of an empty slot: later than any event, and equal to itself
# without comparing its kind
NEVER = (math.inf, -1, None, None)


class Customer:
    """What the shared steps read and write of a customer, ``awaiting_entry``
    from arrival until a job starts for them; the agent model adds fields."""

    __slots__ = ("id", "joined_at", "wait", "disposition", "fit_remaining",
                 "awaiting_entry")

    def __init__(self, cid: int, now: float) -> None:
        self.id = cid
        self.joined_at = now
        self.wait = 0.0
        self.disposition = IN_SYSTEM
        self.fit_remaining = 0.0
        self.awaiting_entry = True


class Replication:
    """One replication of either model: its calendar, draws, pace and
    policy, the loop that runs it, and the steps both models take: arrival,
    joining a staff queue, asking for help, the look that starts a job, job
    end, fitting start, renege or the drop of a stale patience timer, and
    the close of day.

    A model's event handlers (``handlers``) call those steps; its arrival
    handler makes the customer and lets ``arrive`` record it first.  The
    agent model also queues messages in ``msgs``, which the loop delivers
    after every event, so each cascade settles before the clock moves.
    The queues, cubicles, busy clock and trace are one record, ``store``.

    Two kinds of event are never more than one at a time pending, so they
    wait in slots beside the heap rather than in it: the next arrival
    (``next_arrival``) and the single staff member's job completion
    (``pending_job``).  Both are stamped by the calendar, so the loop
    handles every event in the (time, seq) order one heap would.

    A run is built from its replication's ``draws``, which also name the
    replication; runs of one replication share them, so each number is
    drawn once.  Each stream's reader, from its first draw, is kept where
    it is read: job durations in ``table``, revert delays and poll
    intervals in ``ctl``, the rest here (``patience`` is None if patience
    is infinite).  ``job`` is the staff's job in hand, or the last one.
    """

    __slots__ = ("cfg", "arrivals", "patience", "fitting", "help_draws", "cal",
                 "store", "customers", "msgs", "table", "ctl", "note",
                 "next_arrival", "pending_job", "job", "__weakref__")

    def __init__(self, cfg, draws: ReplicationDraws,
                 trace: list | None = None) -> None:
        seed = cfg.master_seed
        values = draws.values
        day = draws.arrivals(seed, cfg.arrival)
        self.arrivals = iter(day).__next__
        self.patience = (None if cfg.patience is None
                         else values(seed, "patience", cfg.patience))
        self.fitting = values(seed, "fitting", cfg.fitting)
        self.help_draws = draws.uniforms(seed, "help")
        self.cfg = cfg
        # run()'s bound, with no polls yet, for the arrivals the day handles:
        # those at or before the horizon (the day is sorted, and its closing
        # None is left out of the search)
        self.cal = EventCalendar(14 * bisect_right(day, cfg.horizon, 0, len(day) - 1) + 2)
        self.store = Store(cfg.cubicles, trace)
        self.customers: list = []
        self.msgs: deque = deque()
        self.next_arrival = NEVER
        self.pending_job = NEVER
        self.job = 0
        self.table = ServiceTimeTable(
            values(seed, "job1", cfg.job1), values(seed, "job2", cfg.job2),
            values(seed, "job3", cfg.job3), cfg.speedup_fraction)
        policy = cfg.proactive
        poll = policy.check_interval
        self.ctl = SpeedupController(
            policy, self.table, self.cal, self.store,
            values(seed, "revert", policy.revert_delay),
            None if poll is None else values(seed, "poll", poll))
        # the models notify the policy of queue and cubicle changes only
        # while it is event-driven; bound once, None otherwise.  A change
        # that can only end congestion (a queue shrinks, a cubicle fills)
        # is noted only while ctl.congested, since otherwise the rule is
        # sure to find none (SpeedupController.note_change)
        self.note = self.ctl.note_change if self.ctl.event_driven else None

    def handlers(self) -> dict:
        """Event kind -> handler(target, time) for the model's own events."""
        raise NotImplementedError

    def run(self) -> RunMetrics:
        """Run the day to its horizon and fold it into its metrics.

        The work is linear in the day's arrivals A (``customers``) and the
        polls P it handles: the calendar stamps (``cal._seq``) at most
        14 A + 2 P + 2 events, and refuses to stamp more (``cal.limit``), so
        a model fault that keeps stamping events ends the run with a
        ModelError.  The bound holds at every point of the day, with P the
        polls handled so far, by counting what each can cause:

        - a customer's arrival, patience timer, three job ends, help due
          and fitting done, 7 A, and at most one arrival stamped past the
          horizon;
        - the first poll and the one each poll schedules, P + 1;
        - the reverts, at most one per speed-up: a speed-up schedules at
          most one, and a chain walk needs a speed-up that scheduled none
          since the chain head last moved, which the walk moves.  Speed-ups
          are at most the ``note_change`` calls: one per poll, or while
          event-driven at most 7 per customer (three queue joins, three
          job starts, and the cubicle entry service fills or the renege),
          so 7 A + P.
        """
        cal = self.cal
        horizon = self.cfg.horizon
        # built per run from bound methods, so a handler replaced on the
        # class after import still takes effect
        handlers = self.handlers()
        handlers.update(self.ctl.handlers())
        first = self.arrivals()
        if first is not None:
            self.next_arrival = cal.stamp(first, EV_ARRIVAL)
        # the loop pops the calendar's heap itself; cal.now must stay in
        # step because stamp() guards against it.  A NEVER entry at its
        # bottom keeps heap[0] valid once it is empty.
        heap = cal._heap
        heap.append(NEVER)
        pop = heapq.heappop
        msgs = self.msgs
        popmsg = msgs.popleft
        while True:
            # the next event is the least by (time, seq) of the heap's top
            # and the two slots
            ev = heap[0]
            arrival = self.next_arrival
            job = self.pending_job
            if job < arrival:
                if job < ev:
                    ev = job
                    self.pending_job = NEVER
                else:
                    pop(heap)
            elif arrival < ev:
                ev = arrival
                self.next_arrival = NEVER
            else:
                pop(heap)
            t, _, kind, target = ev
            if t > horizon:
                break
            cal.now = t
            handlers[kind](target, t)
            while msgs:
                receiver, mkind, payload = popmsg()
                receiver.handle(mkind, payload, t)
        return self.finalize(horizon)

    def arrive(self, c, now: float) -> None:
        """Record the arriving customer ``c``, start their patience timer and
        stamp the next arrival, in that order, which fixes each event's
        sequence number; the model then takes ``c`` in.  A patience timer
        stays on the heap after its customer's entry service begins, and
        ``renege`` drops it when it pops."""
        self.customers.append(c)
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_ARRIVAL, c.id))
        if self.patience is not None:
            self.cal.schedule(now + self.patience(), EV_PATIENCE, c)
        nxt = self.arrivals()
        if nxt is not None:
            self.next_arrival = self.cal.stamp(nxt, EV_ARRIVAL)

    def join(self, c: Customer, line: deque, now: float) -> bool:
        """``c`` joins the staff's ``line``.  A longer queue can make the
        store congested, so an event-driven policy is told every time.
        Returns whether the staff is idle; the model then sends them to
        look for a job."""
        c.joined_at = now
        line.append(c)
        if self.note is not None:
            self.note(now)
        return self.store.staff_since is None

    def ask_help(self, c: Customer, now: float) -> bool:
        """``c`` asks for help: trace the request, then ``join`` help's queue."""
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_REQUEST_HELP, c.id))
        return self.join(c, self.store.help, now)

    def start_job(self, pick, now: float):
        """The staff's look: ``pick`` is ``select_service``'s (job, line) or
        None.  Start ``job`` for the head of ``line`` and return them, or
        None if there is no pick; the job ends with an ``EV_JOB_DONE[job]``
        event, and their patience timer is stale from now on.  The shorter
        line is noted only while the store was congested."""
        if pick is None:
            return None
        job, line = pick
        if self.pending_job is not NEVER:
            raise ModelError(f"cannot stamp {EV_JOB_DONE[job]!r}: the staff's "
                             f"{self.pending_job[2]!r} is still pending")
        c = line.popleft()
        c.awaiting_entry = False
        c.wait += now - c.joined_at
        if self.note is not None and self.ctl.congested:
            self.note(now)
        dur = self.table.duration(job)
        st = self.store
        tr = st.trace
        if tr is not None:
            tr.append((now, L_START[job], c.id))
        st.staff_since = now
        self.job = job
        self.pending_job = self.cal.stamp(now + dur, EV_JOB_DONE[job], c)
        return c

    def end_job(self, c: Customer, now: float) -> None:
        """The staff ends the job in hand for ``c``: stop the busy clock.
        After help (job 2) ``c``'s fitting resumes; after return (job 3)
        they are served.  Job 1 ends with ``c`` filling a cubicle, which can
        only end congestion, so the policy is told then, and only while the
        store was congested; jobs 2 and 3 change no queue or cubicle."""
        st = self.store
        st.staff_busy += now - st.staff_since
        st.staff_since = None
        job = self.job
        if job == JOB2:
            self.cal.schedule(now + c.fit_remaining, EV_FIT_DONE, c)
        elif job == JOB3:
            c.disposition = SERVED
        elif self.note is not None and self.ctl.congested:
            self.note(now)

    def start_fitting(self, c: Customer, now: float, helped: bool) -> None:
        """Start ``c``'s fitting; one who wants help (``helped``, the
        model's own coin flip) is due to ask for it partway through."""
        fit = self.fitting()
        if helped:
            frac = self.cfg.help_fraction.sample(self.help_draws)
            c.fit_remaining = fit * (1.0 - frac)
            self.cal.schedule(now + fit * frac, EV_HELP_DUE, c)
        else:
            self.cal.schedule(now + fit, EV_FIT_DONE, c)

    def renege(self, c: Customer, now: float) -> bool:
        """``c``'s patience runs out.  Unless a job has started for them,
        which makes the timer stale, they renege (returns whether they do):
        charge their wait and count them in ``store.gone``.  They stay in
        the entry deque, which ``select_service`` pops them from once they
        reach its head, so a renege costs the same whatever its length.

        The shorter live queue is noted only while the store was congested
        (see ``SpeedupController.note_change``).  The staff is not sent to
        look for a job, because that look would find none:

        - a busy staff member looks when their job ends;
        - an idle one found no job at their last look, and every change
          since that could make a job eligible (a queue grows or a cubicle
          frees) made them look again;
        - a renege frees no cubicle and adds nobody to a queue.
        """
        if not c.awaiting_entry:
            return False  # already being served; the timer is stale
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_RENEGE, c.id))
        c.disposition = RENEGED
        c.wait += now - c.joined_at
        self.store.gone += 1
        if self.note is not None and self.ctl.congested:
            self.note(now)
        return True

    def finalize(self, horizon: float) -> RunMetrics:
        """Close the day: stop the clocks, charge customers still queued for
        their unfinished wait (a reneged one was charged at the renege), and
        fold the run into its metrics."""
        st = self.store
        st.flush(horizon)
        for line in (st.entry, st.help, st.ret):
            for c in line:
                if c.disposition == IN_SYSTEM:
                    c.wait += horizon - c.joined_at
        return build_metrics(self.customers, st, self.ctl.change_count,
                             horizon, self.cfg.wait_estimator)


class Store:
    """The store as both models, the policy and the service rule read it.

    The three staff-facing queues are ``entry``, ``help`` (in-fitting help)
    and ``ret`` (return); ``gone`` counts the reneged customers still in
    ``entry``, so the entry queue's live length is ``len(entry) - gone``.
    ``occupied`` is the run's one count of cubicles in use, out of
    ``capacity``; a customer's ``enter`` and ``leave`` move it, keep the
    occupancy clock and trace the move.
    The staff's busy clock runs while ``staff_since``, the time the current
    job began, is set; it is None while the staff is idle.
    ``Replication.start_job`` starts it and ``Replication.end_job`` stops
    it.  ``trace`` is the optional event trace.
    """

    __slots__ = ("entry", "help", "ret", "gone", "capacity", "occupied",
                 "occ_minutes", "_occ_since", "staff_busy", "staff_since", "trace")

    def __init__(self, capacity: int, trace: list | None = None) -> None:
        self.entry: deque = deque()
        self.help: deque = deque()
        self.ret: deque = deque()
        self.gone = 0
        self.capacity = capacity
        self.occupied = 0
        self.occ_minutes = 0.0
        self._occ_since = 0.0
        self.staff_busy = 0.0
        self.staff_since = None
        self.trace = trace

    def enter(self, c: Customer, now: float) -> None:
        """``c`` takes a cubicle at the end of their entry service.  Entry
        service only starts while a cubicle is free, and the single staff
        member cannot start another entry in between, so a full bank here
        is a wiring bug."""
        n = self.occupied
        if n >= self.capacity:
            raise ModelError("cubicle requested with none free")
        self.occ_minutes += n * (now - self._occ_since)
        self.occupied = n + 1
        self._occ_since = now
        if self.trace is not None:
            self.trace.append((now, L_ENTER, c.id))

    def leave(self, c: Customer, now: float) -> None:
        """``c``'s fitting is done and their cubicle is free again."""
        n = self.occupied
        self.occ_minutes += n * (now - self._occ_since)
        self.occupied = n - 1
        self._occ_since = now
        if self.trace is not None:
            self.trace.append((now, L_LEAVE, c.id))

    def flush(self, horizon: float) -> None:
        """Close both clocks at the horizon."""
        self.occ_minutes += self.occupied * (horizon - self._occ_since)
        self._occ_since = horizon
        if self.staff_since is not None:
            self.staff_busy += horizon - self.staff_since
            self.staff_since = None


def select_service(store: Store) -> tuple[int, deque] | None:
    """Pick the staff's next job, first come first served: each queue is
    served in join order (equal join times in event order), and of the
    three heads the earliest-joined wins, ties to the lower customer id.
    The entry head competes only while a cubicle is free, since entry
    service ends in one; reneged customers at its head are popped first.
    Returns (job number, winner's queue) or None."""
    best = None
    job = 0
    line = None
    q = store.entry
    # gone counts customers in q, so while it is positive q has a head
    while store.gone and q[0].disposition == RENEGED:
        q.popleft()
        store.gone -= 1
    if q and store.occupied < store.capacity:
        best, job, line = q[0], JOB1, q
    q = store.help
    if q:
        c = q[0]
        if (best is None or c.joined_at < best.joined_at
                or (c.joined_at == best.joined_at and c.id < best.id)):
            best, job, line = c, JOB2, q
    q = store.ret
    if q:
        c = q[0]
        if (best is None or c.joined_at < best.joined_at
                or (c.joined_at == best.joined_at and c.id < best.id)):
            best, job, line = c, JOB3, q
    if best is None:
        return None
    return job, line


def build_metrics(customers, store: Store, change_count: int,
                  horizon: float, wait_estimator: str) -> RunMetrics:
    """Fold one finished run into its RunMetrics.

    A customer is served once their return job ends; one who reneged or
    was still inside at closing counts as not served.  The default wait estimator averages
    over served customers only; "all" also counts reneged customers'
    partial waits and waits cut off at closing.
    """
    served = 0
    wait_served = 0.0
    wait_all = 0.0
    for c in customers:
        wait_all += c.wait
        if c.disposition == SERVED:
            served += 1
            wait_served += c.wait
    if wait_estimator == "served":
        mean_wait = wait_served / served if served else 0.0
    else:
        mean_wait = wait_all / len(customers) if customers else 0.0
    return RunMetrics(mean_wait=mean_wait, staff_util=store.staff_busy / horizon,
                      cubicle_util=store.occ_minutes / (store.capacity * horizon),
                      served=served, not_served=len(customers) - served,
                      service_time_changes=change_count)
