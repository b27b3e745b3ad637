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
The room's agent only passes messages: the store's ``enter`` and ``leave``
count the cubicles taken, keep their clock and trace each move.

A customer whose patience runs out takes the shared renege step and sends
no message: they stay in the staff's entry queue, and the staff learns of
the renege when that customer reaches its head.
"""

from __future__ import annotations

from .config import ScenarioConfig
from .engine import ModelError, ReplicationDraws, bernoulli
from .runtime import (EV_ARRIVAL, EV_FIT_DONE, EV_HELP_DUE, EV_JOB_DONE,
                      EV_PATIENCE, IN_SYSTEM, L_END, Customer, Replication,
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

# the customer state chart, in state order: each state's name and the
# states it may move to.  A state with moves is not terminal, and NotServed
# follows each of those too, because the cutoff strands customers anywhere.
_CHART = {
    ARRIVED: ("Arrived", (WAITING_ENTRY,)),
    WAITING_ENTRY: ("WaitingEntry", (IN_ENTRY_SERVICE,)),
    IN_ENTRY_SERVICE: ("InEntryService", (FITTING,)),
    FITTING: ("Fitting", (WAITING_HELP, WAITING_RETURN)),
    WAITING_HELP: ("WaitingHelp", (IN_HELP_SERVICE,)),
    IN_HELP_SERVICE: ("InHelpService", (FITTING,)),
    WAITING_RETURN: ("WaitingReturn", (IN_RETURN_SERVICE,)),
    IN_RETURN_SERVICE: ("InReturnService", (SERVED_STATE,)),
    SERVED_STATE: ("Served", ()),
    NOT_SERVED: ("NotServed", ()),
}
STATE_NAMES = {st: name for st, (name, _) in _CHART.items()}
# the legal targets, indexed by state, for _transition's hot path
_NEXT = tuple(moves + (NOT_SERVED,) if moves else () for _, moves in _CHART.values())

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
        """The staff finished this customer's job.  After entry service they
        ask the room for a cubicle and tell the staff once it is granted;
        after help or return they move on and tell the staff now, whose
        ``end_job`` resumes their fitting or marks them served."""
        model = self.model
        tr = model.store.trace
        if tr is not None:
            tr.append((now, L_END[model.job], self.id))
        if self.state == IN_ENTRY_SERVICE:
            self.post((model.room, M_REQUEST_CUBICLE, self))
        else:
            # the chart refuses both moves from any state but the service
            # that leads to them
            self._transition(FITTING if self.state == IN_HELP_SERVICE else SERVED_STATE)
            self.post((model.staff, M_SERVICE_DONE, self))

    def help_due(self, now: float) -> None:
        """Ask the staff for help; their ``ask_help`` traces the request."""
        self._transition(WAITING_HELP)
        self.post((self.model.staff, M_REQUEST_HELP, self))

    def fit_done(self, now: float) -> None:
        model = self.model
        post = self.post
        # the room does not tell the policy of the freed cubicle: the staff
        # does, on the return request handled right after it
        post((model.room, M_CUBICLE_RELEASED, self))
        self._transition(WAITING_RETURN)
        post((model.staff, M_REQUEST_RETURN, self))

    def patience_expired(self, now: float) -> None:
        if self.model.renege(self, now):
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

    __slots__ = ("model", "store")

    def __init__(self, model: "AbsRun") -> None:
        self.model = model
        self.store = model.store

    def handle(self, kind: str, payload, now: float) -> None:
        model = self.model
        if kind == M_SERVICE_DONE:
            model.end_job(payload, now)
            idle = True
        elif kind == M_REQUEST_ENTRY:
            idle = model.join(payload, self.store.entry, now)
        elif kind == M_REQUEST_RETURN:
            idle = model.join(payload, self.store.ret, now)
        elif kind == M_REQUEST_HELP:
            idle = model.ask_help(payload, now)
        else:
            raise ModelError(f"staff: unexpected message {kind!r}")
        if idle:
            self.scan(now)

    def scan(self, now: float) -> None:
        """The staff's look: start the job ``select_service`` picks, if any,
        and tell its customer."""
        model = self.model
        c = model.start_job(select_service(self.store), now)
        if c is not None:
            model.msgs.append((c, M_SERVE, model.job))


class FittingRoomAgent:
    """The bank of cubicles: grants one by message on request and takes it
    back on release.  The bank itself is the run's ``store``, whose
    ``enter`` and ``leave`` keep its count and refuse a request while
    every cubicle is taken."""

    __slots__ = ("post", "store")

    def __init__(self, model: "AbsRun") -> None:
        self.post = model.msgs.append
        self.store = model.store

    def handle(self, kind: str, payload, now: float) -> None:
        if kind == M_REQUEST_CUBICLE:
            self.store.enter(payload, now)
            self.post((payload, M_CUBICLE_GRANTED, None))
        elif kind == M_CUBICLE_RELEASED:
            self.store.leave(payload, now)
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
