"""Threshold-triggered service speed-up.

When the store looks congested (long entry queue while a cubicle sits free,
or a long help/return queue), the staff switches to a hurried pace: every
subsequently sampled staff service time shrinks by a fixed fraction.  The
hurry wears off after a random delay unless congestion re-triggers it,
which restarts the delay without counting as a new pace change.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .engine import DistributionSpec, EventCalendar

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .runtime import Store

EV_REVERT = "revert"
EV_POLL = "poll"

# trace labels, system-level (customer id -1)
L_SPEEDUP = "speedup"
L_REVERT = "revert"


def is_threshold(v) -> bool:
    """A legal queue-length threshold: an integer >= 1, not a boolean."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


@dataclass(frozen=True)
class ProactivePolicy:
    """Trigger thresholds and re-check discipline for the speed-up.

    check_interval None means event-driven: the condition is re-evaluated
    whenever a queue or cubicle change could have made it true, which
    decides the same as re-evaluating it on every change (see
    ``SpeedupController.note_change``).  A DistributionSpec instead means
    stochastic polling at sampled intervals.
    """

    enabled: bool = True
    threshold_entry: int = 3
    threshold_return: int = 3
    threshold_help: int = 3
    revert_delay: DistributionSpec = DistributionSpec.exponential(0.1)
    check_interval: DistributionSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError("enabled must be True or False")
        for name in ("threshold_entry", "threshold_return", "threshold_help"):
            if not is_threshold(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 1")


class ServiceTimeTable:
    """The three staff jobs' duration readers plus the current pace.

    ``job1``..``job3`` return the job's next drawn duration, one per call.
    ``duration`` multiplies it by the pace factor, so in fast mode a job
    takes exactly (1 - speedup_fraction) times what the same draw would
    have produced at normal pace.
    """

    __slots__ = ("jobs", "speedup_fraction", "fast", "factor")

    def __init__(self, job1: Callable[[], float], job2: Callable[[], float],
                 job3: Callable[[], float], speedup_fraction: float) -> None:
        self.jobs = (None, job1, job2, job3)
        self.speedup_fraction = speedup_fraction
        self.fast = False
        self.factor = 1.0

    def set_fast(self) -> None:
        self.fast = True
        self.factor = 1.0 - self.speedup_fraction

    def set_normal(self) -> None:
        self.fast = False
        self.factor = 1.0

    def duration(self, job: int) -> float:
        """How long the staff's next ``job`` (1, 2 or 3) takes at the
        current pace."""
        return self.jobs[job]() * self.factor


class SpeedupController:
    """Runs one replication's policy: evaluates triggers, flips the pace,
    and schedules/handles reverts and (optionally) polls.

    ``note_change`` holds the trigger rule and stores its verdict in
    ``congested``.  When the policy is event-driven (``event_driven``),
    models call it after every change that can make the store congested (a
    queue grows, a cubicle frees), and after one that cannot (a queue
    shrinks, a cubicle fills) only while ``congested`` is true; its
    docstring shows why the skipped calls are exactly those that would
    find no congestion.  When the policy polls, ``handle_poll`` calls it at
    every poll, and the controller schedules its first poll when it is
    made.  It reads the queues and cubicles from the run's ``store``, and
    traces its pace changes there.
    ``next_revert`` and ``next_poll`` return the next revert delay and
    polling interval, one per call (``next_poll`` may be None when the
    policy does not poll).

    ``change_count`` counts the switches to the fast pace.  ``revert_at``
    is when the current fast episode ends (meaningful only while fast);
    ``chain_head`` is the time of the nearest scheduled revert event.
    Re-triggers just move ``revert_at``, and the event chain catches up
    when it fires, so a congestion storm does not flood the calendar.
    """

    __slots__ = ("table", "calendar", "store",
                 "next_revert", "next_poll", "change_count", "revert_at",
                 "chain_head", "event_driven", "congested", "_te", "_tr", "_th")

    def __init__(self, policy: ProactivePolicy, table: ServiceTimeTable,
                 calendar: EventCalendar, store: Store,
                 next_revert: Callable[[], float],
                 next_poll: Callable[[], float] | None) -> None:
        self.table = table
        self.calendar = calendar
        self.store = store
        self.next_revert = next_revert
        self.next_poll = next_poll
        self.change_count = 0
        self.revert_at = 0.0
        self.chain_head: float | None = None
        self.event_driven = policy.enabled and policy.check_interval is None
        # the store starts empty, and every threshold is at least 1
        self.congested = False
        # note_change runs on every queue growth and freed cubicle, so it
        # reads these cached thresholds
        self._te = policy.threshold_entry
        self._tr = policy.threshold_return
        self._th = policy.threshold_help
        if policy.enabled and policy.check_interval is not None:
            calendar.schedule(calendar.now + next_poll(), EV_POLL)

    def note_change(self, now: float) -> None:
        """Hurry if the store is congested: a cubicle is free while the
        entry queue has reached its threshold, or the return or help queue
        has reached its own threshold whatever the cubicles hold.  The
        entry queue's length counts only its live customers, not those
        reneged (``Store.gone``).  The verdict is kept in ``congested``.

        An event-driven model may skip the call after a queue shrinks or a
        cubicle fills while ``congested`` is false, because such a call
        would find no congestion either:

        - the rule is monotone: a longer queue or a freer cubicle bank can
          only make it true, and a shorter queue or a fuller bank only
          false; a renege shortens the live entry queue;
        - every change that can make it true (a queue grows, a cubicle
          frees) is followed by a call before its event's cascade ends; in
          the agent model a freed cubicle's message is followed, in the
          same cascade, by the customer's request to return, and nothing
          is handled in between;
        - the store starts empty and every threshold is at least 1, so
          ``congested`` starts false, and true to the store.

        So ``congested`` is the rule applied to the store as it stands at
        the start of every event, and a skipped call would have found no
        congestion and done nothing.
        """
        st = self.store
        if ((st.occupied < st.capacity and len(st.entry) - st.gone >= self._te)
                or len(st.ret) >= self._tr or len(st.help) >= self._th):
            self.congested = True
            self.apply_speedup(now)
        else:
            self.congested = False

    def apply_speedup(self, now: float) -> None:
        """Trigger (or re-trigger) the fast pace; the revert clock restarts."""
        at = now + self.next_revert()
        self.revert_at = at
        head = self.chain_head
        if head is None or at < head:
            self.calendar.schedule(at, EV_REVERT)
            self.chain_head = at
        if not self.table.fast:
            self.table.set_fast()
            self.change_count += 1
            if self.store.trace is not None:
                self.store.trace.append((now, L_SPEEDUP, -1))
        # else: already fast, the re-trigger just restarted the revert clock

    def handlers(self) -> dict:
        """Event kind -> handler(target, time) for the policy's events."""
        return {EV_REVERT: self.handle_revert, EV_POLL: self.handle_poll}

    def handle_revert(self, _target, t: float) -> None:
        if not self.table.fast:
            return  # leftover event from an already-ended fast episode
        if t == self.revert_at:
            self.table.set_normal()
            self.chain_head = None
            if self.store.trace is not None:
                self.store.trace.append((t, L_REVERT, -1))
        elif t == self.chain_head:
            # a re-trigger moved the revert later; walk the chain forward
            self.calendar.schedule(self.revert_at, EV_REVERT)
            self.chain_head = self.revert_at
        # else: superseded duplicate, drop it

    def handle_poll(self, _target, t: float) -> None:
        self.note_change(t)
        self.calendar.schedule(t + self.next_poll(), EV_POLL)
