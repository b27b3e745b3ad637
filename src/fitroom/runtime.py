"""Pieces both store models share verbatim: the event loop, each run's
random draws, waiting lines, the staff's service-order rule,
occupancy/busy-time accounting, and run metrics.

Keeping these identical (not merely similar) is what lets a deterministic
scenario produce byte-for-byte the same trace from either model.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Optional

from .engine import EventCalendar, ModelError, ReplicationDraws
from .stats import RunMetrics

# customer dispositions
IN_SYSTEM, SERVED, RENEGED, CLOSED = 0, 1, 2, 3

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
L_SPEEDUP = "speedup"
L_REVERT = "revert"

# event kinds both models schedule
EV_ARRIVAL = "arrival"
EV_PATIENCE = "patience"

# the entry of an empty slot: later than any event, and equal to itself
# without comparing its kind
NEVER = (math.inf, -1, None, None)


class CellDraws:
    """One run's readers of its replication's draws, one per stream the
    models read, each from the stream's first draw.

    Runs of the same replication (other models, load levels or policies)
    pass the same ``shared`` ReplicationDraws, so each number is drawn once;
    a run on its own gets a private one.  Either way a run reads the same
    numbers.  ``patience`` is None for infinite patience and ``poll`` is
    None unless the policy polls.
    """

    __slots__ = ("arrival", "job", "fitting", "help", "patience", "revert", "poll")

    def __init__(self, cfg, replication: int,
                 shared: Optional[ReplicationDraws] = None) -> None:
        if shared is None:
            shared = ReplicationDraws(replication)
        elif shared.replication != replication:
            raise ValueError(f"draws of replication {shared.replication} "
                             f"passed to replication {replication}")
        seed = cfg.master_seed
        values = shared.values
        self.arrival = shared.arrivals(seed, cfg.arrival)
        self.job = (None, values(seed, "job1", cfg.job1),
                    values(seed, "job2", cfg.job2), values(seed, "job3", cfg.job3))
        self.fitting = values(seed, "fitting", cfg.fitting)
        self.help = shared.uniforms(seed, "help")
        self.patience = (None if cfg.patience is None
                         else values(seed, "patience", cfg.patience))
        policy = cfg.proactive
        self.revert = values(seed, "revert", policy.revert_delay)
        self.poll = (None if policy.check_interval is None
                     else values(seed, "poll", policy.check_interval))


class Replication:
    """One replication of either model: its calendar, its draws, and the
    loop that runs it.

    A model supplies its event handlers (``handlers``), the rule that finds
    dead patience timers (``live_events``) and ``finalize``; the agent model
    also queues messages in ``msgs``, which the loop delivers after every
    event, so each cascade settles before the clock moves.

    Two kinds of event are never more than one at a time pending, so they
    wait in slots beside the heap rather than in it: the next arrival
    (``next_arrival``) and the single staff member's job completion
    (``pending_job``).  Both are stamped by the calendar, so the loop
    handles every event in the (time, seq) order one heap would.
    """

    __slots__ = ("cfg", "draws", "cal", "queues", "tm", "customers", "msgs",
                 "table", "ctl", "note", "next_arrival", "pending_job",
                 "dead_timers", "__weakref__")

    def __init__(self, cfg, replication: int, trace: Optional[list],
                 draws: Optional[ReplicationDraws]) -> None:
        self.draws = CellDraws(cfg, replication, draws)
        self.cfg = cfg
        self.cal = EventCalendar()
        self.queues = QueueSet()
        self.tm = Telemetry(trace)
        self.customers: list = []
        self.msgs: deque = deque()
        self.next_arrival = NEVER
        self.pending_job = NEVER
        self.dead_timers = 0

    def handlers(self) -> dict:
        """Event kind -> handler(target, time) for the model's own events."""
        raise NotImplementedError

    def live_events(self, heap: list) -> list:
        """The entries of ``heap`` less the patience timers whose customer's
        entry service has begun."""
        raise NotImplementedError

    def finalize(self, horizon: float) -> RunMetrics:
        raise NotImplementedError

    def run(self) -> RunMetrics:
        cal = self.cal
        horizon = self.cfg.horizon
        # built per run from bound methods, so a handler replaced on the
        # class after import still takes effect
        handlers = self.handlers()
        handlers.update(self.ctl.handlers())
        self.ctl.start()
        first = self.draws.arrival()
        if first is not None:
            self.next_arrival = cal.stamp(first, EV_ARRIVAL)
        # the heap is drained inline (cheaper than pop() per event);
        # cal.now must stay in step because stamp() guards against it.  A
        # NEVER entry at its bottom keeps heap[0] valid once it is empty.
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

    def stamp_job(self, time: float, kind: str, target) -> None:
        """Put the staff's job completion in its slot."""
        if self.pending_job is not NEVER:
            raise ModelError(f"cannot stamp {kind!r}: the staff's "
                             f"{self.pending_job[2]!r} is still pending")
        self.pending_job = self.cal.stamp(time, kind, target)

    def entry_started(self) -> None:
        """Count a patience timer that can no longer act, because its
        customer's entry service began; a model uncounts one when it pops.
        Once such timers make up more than half the heap, drop them: they
        would only run a handler that does nothing."""
        self.dead_timers += 1
        heap = self.cal._heap
        if self.dead_timers * 2 > len(heap):
            heap[:] = self.live_events(heap)
            heapq.heapify(heap)
            self.dead_timers = 0


class WaitingLine:
    """FIFO queue that stamps entities with their join time."""

    __slots__ = ("_q",)

    def __init__(self) -> None:
        self._q: deque = deque()

    def __len__(self) -> int:
        return len(self._q)

    def join(self, c, now: float) -> None:
        c.joined_at = now
        c.in_queue = True
        self._q.append(c)

    def head(self):
        q = self._q
        return q[0] if q else None

    def pop_head(self):
        c = self._q.popleft()
        c.in_queue = False
        return c

    def remove(self, c) -> None:
        self._q.remove(c)
        c.in_queue = False


class QueueSet:
    """The three staff-facing queues: entry, in-fitting help, and return."""

    __slots__ = ("entry", "help", "ret")

    def __init__(self) -> None:
        self.entry = WaitingLine()
        self.help = WaitingLine()
        self.ret = WaitingLine()


def select_service(queues: QueueSet, cubicle_free: bool) -> Optional[tuple[int, WaitingLine]]:
    """Pick the staff's next job under global first-come-first-served.

    The earliest-joined head across the three queues wins; the entry head
    only competes while a cubicle is free (entry service ends with the
    customer walking into one).  Ties break by customer id, i.e. arrival
    order.  Returns (job number, line holding the winner) or None.
    """
    best = None
    job = 0
    line = None
    q = queues.entry._q
    if cubicle_free and q:
        best, job, line = q[0], JOB1, queues.entry
    q = queues.help._q
    if q:
        c = q[0]
        if best is None or (c.joined_at, c.id) < (best.joined_at, best.id):
            best, job, line = c, JOB2, queues.help
    q = queues.ret._q
    if q:
        c = q[0]
        if best is None or (c.joined_at, c.id) < (best.joined_at, best.id):
            best, job, line = c, JOB3, queues.ret
    if best is None:
        return None
    return job, line


class Telemetry:
    """Time-integrated accounting plus the optional event trace."""

    __slots__ = ("staff_busy", "occupied", "occ_minutes", "_occ_since", "trace")

    def __init__(self, trace: Optional[list] = None) -> None:
        self.staff_busy = 0.0
        self.occupied = 0
        self.occ_minutes = 0.0
        self._occ_since = 0.0
        self.trace = trace

    def cubicle_change(self, now: float, delta: int) -> None:
        self.occ_minutes += self.occupied * (now - self._occ_since)
        self.occupied += delta
        self._occ_since = now

    def flush(self, horizon: float) -> None:
        self.occ_minutes += self.occupied * (horizon - self._occ_since)
        self._occ_since = horizon


def close_open_waits(customers, horizon: float) -> None:
    """Charge customers still queued at closing for their unfinished wait."""
    for c in customers:
        if c.in_queue:
            c.wait += horizon - c.joined_at


def build_metrics(customers, telemetry: Telemetry, change_count: int,
                  cubicle_capacity: int, horizon: float,
                  wait_estimator: str) -> RunMetrics:
    """Fold one finished run into its RunMetrics.

    Callers must already have settled every customer's disposition.  The
    default wait estimator averages over served customers only; "all" also
    counts reneged customers' partial waits and waits cut off at closing.
    """
    served = 0
    not_served = 0
    wait_served = 0.0
    wait_all = 0.0
    for c in customers:
        wait_all += c.wait
        if c.disposition == SERVED:
            served += 1
            wait_served += c.wait
        else:
            not_served += 1
    if wait_estimator == "served":
        mean_wait = wait_served / served if served else 0.0
    else:
        mean_wait = wait_all / len(customers) if customers else 0.0
    return RunMetrics(
        mean_wait=mean_wait,
        staff_util=telemetry.staff_busy / horizon,
        cubicle_util=telemetry.occ_minutes / (cubicle_capacity * horizon),
        served=served,
        not_served=not_served,
        service_time_changes=change_count,
    )
