"""Agent-based model of the fitting-room system.

The same store as in des.py, described the other way around: customers,
the staff member, and the fitting room are agents with state charts that
talk via messages.  Messages are delivered at their send time (zero
latency) in send order, each cascade finishing before the next scheduled
event fires.  Timers (service completions, patience, fitting progress) go
through the event loop both models share.

Given the same scenario and replication draws, this model reads the same
numbers as the event-scheduling one and takes the same shared steps in
runtime.py, so on any scenario, stochastic or degenerate, the two traces
match byte for byte.

The staff's queues and the fitting room's cubicles are fields of the run's
one ``Store`` (runtime.py), which the service rule and the policy read too.

A customer whose patience runs out takes the shared renege step and sends
no message: they stay in the staff's entry queue, and the staff learns of
the renege when that customer reaches its head.
"""

from __future__ import annotations

from .config import ScenarioConfig
from .engine import ModelError, ReplicationDraws, bernoulli
from .runtime import (EV_ARRIVAL, EV_FIT_DONE, EV_HELP_DUE, EV_JOB_DONE,
                      EV_PATIENCE, IN_SYSTEM, JOB1, JOB2, JOB3, L_END, L_ENTER,
                      L_LEAVE, L_REQUEST_HELP, SERVED, Customer, Replication,
                      select_service)
from .stats import RunMetrics

# customer states
ARRIVED = 0
WAITING_ENTRY = 1
IN_ENTRY_SERVICE = 2
FITTING = 3
WAITING_HELP = 4
IN_HELP_SERVICE = 5
WAITING_RETURN = 6
IN_RETURN_SERVICE = 7
SERVED_STATE = 8
NOT_SERVED = 9

STATE_NAMES = {
    ARRIVED: "Arrived", WAITING_ENTRY: "WaitingEntry",
    IN_ENTRY_SERVICE: "InEntryService", FITTING: "Fitting",
    WAITING_HELP: "WaitingHelp", IN_HELP_SERVICE: "InHelpService",
    WAITING_RETURN: "WaitingReturn", IN_RETURN_SERVICE: "InReturnService",
    SERVED_STATE: "Served", NOT_SERVED: "NotServed",
}

# the customer state chart; NotServed is reachable from any non-terminal
# state because the run cutoff strands customers wherever they stand
_EDGES = frozenset(
    [(ARRIVED, WAITING_ENTRY),
     (WAITING_ENTRY, IN_ENTRY_SERVICE),
     (IN_ENTRY_SERVICE, FITTING),
     (FITTING, WAITING_HELP),
     (WAITING_HELP, IN_HELP_SERVICE),
     (IN_HELP_SERVICE, FITTING),
     (FITTING, WAITING_RETURN),
     (WAITING_RETURN, IN_RETURN_SERVICE),
     (IN_RETURN_SERVICE, SERVED_STATE)]
    + [(s, NOT_SERVED) for s in range(SERVED_STATE)]
)
# the same chart by source state, as a tuple of legal targets
_NEXT = tuple(tuple(to for to in STATE_NAMES if (st, to) in _EDGES)
              for st in range(len(STATE_NAMES)))

# message kinds
M_REQUEST_ENTRY = "request_entry"
M_REQUEST_HELP = "request_help"
M_REQUEST_RETURN = "request_return"
M_SERVE = "serve"
M_SERVICE_DONE = "service_done"
M_REQUEST_CUBICLE = "request_cubicle"
M_CUBICLE_GRANTED = "cubicle_granted"
M_CUBICLE_RELEASED = "cubicle_released"

_SERVICE_STATE_FOR_JOB = (None, IN_ENTRY_SERVICE, IN_HELP_SERVICE, IN_RETURN_SERVICE)


class CustomerAgent(Customer):
    __slots__ = ("model", "post", "state")

    def __init__(self, cid: int, now: float, model: "AbsRun") -> None:
        Customer.__init__(self, cid, now)
        self.model = model
        self.post = model.msgs.append
        self.state = ARRIVED

    def _transition(self, to: int) -> None:
        if to not in _NEXT[self.state]:
            raise ModelError(
                f"customer {self.id}: illegal transition "
                f"{STATE_NAMES[self.state]} -> {STATE_NAMES[to]}"
            )
        self.state = to

    # -- timers ----------------------------------------------------------

    def svc_done(self, now: float) -> None:
        """The staff finished whatever job this customer was receiving."""
        model = self.model
        st = self.state
        tr = model.store.trace
        if st == IN_ENTRY_SERVICE:
            if tr is not None:
                tr.append((now, L_END[JOB1], self.id))
            self.post((model.room, M_REQUEST_CUBICLE, self))
        elif st == IN_HELP_SERVICE:
            if tr is not None:
                tr.append((now, L_END[JOB2], self.id))
            model.cal.schedule(now + self.fit_remaining, EV_FIT_DONE, self)
            self._transition(FITTING)
            self.post((model.staff, M_SERVICE_DONE, self))
        elif st == IN_RETURN_SERVICE:
            if tr is not None:
                tr.append((now, L_END[JOB3], self.id))
            self.disposition = SERVED
            self._transition(SERVED_STATE)
            self.post((model.staff, M_SERVICE_DONE, self))
        else:
            raise ModelError(
                f"customer {self.id}: service completion while {STATE_NAMES[st]}"
            )

    def help_due(self, now: float) -> None:
        model = self.model
        tr = model.store.trace
        if tr is not None:
            tr.append((now, L_REQUEST_HELP, self.id))
        self._transition(WAITING_HELP)
        self.post((model.staff, M_REQUEST_HELP, self))

    def fit_done(self, now: float) -> None:
        model = self.model
        post = self.post
        # the room does not tell the policy of the freed cubicle: the staff
        # does, on the return request handled right after it
        post((model.room, M_CUBICLE_RELEASED, self))
        self._transition(WAITING_RETURN)
        post((model.staff, M_REQUEST_RETURN, self))

    def patience_expired(self, now: float) -> None:
        if self.state != WAITING_ENTRY:
            return  # being (or already been) served; the timer is stale
        self.model.record_renege(self, now)
        self._transition(NOT_SERVED)

    # -- messages --------------------------------------------------------

    def handle(self, kind: str, payload, now: float) -> None:
        if kind == M_SERVE:
            # the chart lets only Waiting<X> move into In<X>Service
            self._transition(_SERVICE_STATE_FOR_JOB[payload])
        elif kind == M_CUBICLE_GRANTED:
            model = self.model
            model.start_fitting(self, now, bernoulli(model.cfg.help_probability,
                                                     model.help_draws))
            self._transition(FITTING)
            self.post((model.staff, M_SERVICE_DONE, self))
        else:
            raise ModelError(f"customer {self.id}: unexpected message {kind!r}")


class StaffAgent:
    """The single staff member: three queues, one pair of hands."""

    __slots__ = ("model", "store", "ctl", "current_job")

    def __init__(self, model: "AbsRun") -> None:
        self.model = model
        self.store = model.store
        self.ctl = model.ctl
        self.current_job = 0

    def handle(self, kind: str, payload, now: float) -> None:
        note = self.model.note
        if kind == M_SERVICE_DONE:
            self.store.staff_done(now)
            job = self.current_job
            self.current_job = 0
            # job 1 ended with a cubicle filling up, which can only end
            # congestion, so the policy is told only while there was some
            if job == JOB1 and note is not None and self.ctl.congested:
                note(now)
            self.scan(now)
            return
        if kind == M_REQUEST_ENTRY:
            # joined_at was set at arrival, which is now
            self.store.entry.append(payload)
        elif kind == M_REQUEST_RETURN:
            payload.joined_at = now
            self.store.ret.append(payload)
        elif kind == M_REQUEST_HELP:
            payload.joined_at = now
            self.store.help.append(payload)
        else:
            raise ModelError(f"staff: unexpected message {kind!r}")
        if note is not None:
            note(now)
        if self.store.staff_since is None:
            self.scan(now)

    def scan(self, now: float) -> None:
        """Look for the next job under the shared service-order rule."""
        pick = select_service(self.store)
        if pick is None:
            return
        job, line = pick
        model = self.model
        c = model.start_job(job, line, now)
        self.current_job = job
        model.msgs.append((c, M_SERVE, job))


class FittingRoomAgent:
    """The bank of cubicles: grants one while any is free.  The run's one
    count of those taken is ``store.occupied``."""

    __slots__ = ("post", "store")

    def __init__(self, model: "AbsRun") -> None:
        self.post = model.msgs.append
        self.store = model.store

    def handle(self, kind: str, payload, now: float) -> None:
        if kind == M_REQUEST_CUBICLE:
            st = self.store
            if st.occupied >= st.capacity:
                # entry service only starts while a cubicle is free, and the
                # single staff member cannot start another entry in between
                raise ModelError("cubicle requested with none free")
            st.cubicle_change(now, 1)
            tr = st.trace
            if tr is not None:
                tr.append((now, L_ENTER, payload.id))
            self.post((payload, M_CUBICLE_GRANTED, None))
        elif kind == M_CUBICLE_RELEASED:
            st = self.store
            st.cubicle_change(now, -1)
            tr = st.trace
            if tr is not None:
                tr.append((now, L_LEAVE, payload.id))
        else:
            raise ModelError(f"fitting room: unexpected message {kind!r}")


class AbsRun(Replication):
    """State of a single replication."""

    __slots__ = ("staff", "room")

    def __init__(self, cfg: ScenarioConfig, draws: ReplicationDraws,
                 trace: list | None = None) -> None:
        super().__init__(cfg, draws, trace)
        self.staff = StaffAgent(self)
        self.room = FittingRoomAgent(self)

    def handlers(self) -> dict:
        # the timers are the customers' own: each handler takes the
        # customer it is scheduled for as its first argument
        C = CustomerAgent
        return {
            EV_ARRIVAL: self.handle_arrival,
            EV_PATIENCE: C.patience_expired,
            **dict.fromkeys(EV_JOB_DONE[1:], C.svc_done),
            EV_HELP_DUE: C.help_due,
            EV_FIT_DONE: C.fit_done,
        }

    def handle_arrival(self, _target, now: float) -> None:
        c = CustomerAgent(len(self.customers), now, self)
        self.arrive(c, now)
        c._transition(WAITING_ENTRY)
        self.msgs.append((self.staff, M_REQUEST_ENTRY, c))

    def finalize(self, horizon: float) -> RunMetrics:
        # the agents let go of the run, so the finished run is freed by
        # reference counting rather than left to the cycle collector
        self.staff.model = None
        for c in self.customers:
            c.model = None
            if c.disposition == IN_SYSTEM:
                c._transition(NOT_SERVED)
        return super().finalize(horizon)


def run_abs(cfg: ScenarioConfig, draws: ReplicationDraws,
            trace: list | None = None) -> RunMetrics:
    """Run the replication whose ``draws`` are given through the agent-based
    model; ``run_abs(cfg, ReplicationDraws(r))`` runs replication r on its
    own."""
    return AbsRun(cfg, draws, trace).run()
