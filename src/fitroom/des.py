"""Event-scheduling model of the fitting-room system.

One staff member runs three jobs (entry service, in-cubicle help, return
handling) under global first-come-first-served; customers hold a cubicle
from the end of entry service until their fitting finishes, and may renege
from the entry queue when their patience runs out; a reneged customer stays
in that queue until they reach its head, where the staff's next look drops
them.  Customers who want help pause their fitting partway through and
resume it once helped.

The agent-based model in abs.py describes the same system.  Both read one
replication's draws and take the shared steps in runtime.py, so on any
scenario, stochastic or degenerate, the two produce identical traces,
which is how both are cross-validated.
"""

from __future__ import annotations

from .config import ScenarioConfig
from .engine import ReplicationDraws, bernoulli
from .runtime import (Customer as _Customer, EV_ARRIVAL, EV_FIT_DONE, EV_HELP_DUE,
                      EV_JOB_DONE, EV_PATIENCE, JOB1, JOB2, JOB3, L_END, L_ENTER,
                      L_LEAVE, L_REQUEST_HELP, SERVED, Replication, select_service)
from .stats import RunMetrics


class Customer(_Customer):
    # set on arrival; false once entry service starts, so a patience timer
    # that pops afterwards is stale
    __slots__ = ("awaiting_entry",)


class DesRun(Replication):
    """State of a single replication."""

    __slots__ = ()

    def handlers(self) -> dict:
        return {
            EV_ARRIVAL: self.handle_arrival,
            EV_PATIENCE: self.renege,
            EV_JOB_DONE[JOB1]: self.complete_job1,
            EV_JOB_DONE[JOB2]: self.complete_job2,
            EV_JOB_DONE[JOB3]: self.complete_job3,
            EV_HELP_DUE: self.request_help,
            EV_FIT_DONE: self.leave_cubicle,
        }

    def handle_arrival(self, _target, now: float) -> None:
        c = Customer(len(self.customers), now)
        self.arrive(c, now)
        self.store.entry.append(c)
        c.awaiting_entry = True
        if self.note is not None:
            self.note(now)
        if self.store.staff_since is None:
            self.dispatch_staff(now)

    def dispatch_staff(self, now: float) -> None:
        """Start the staff on the next job, if any is eligible."""
        pick = select_service(self.store)
        if pick is None:
            return
        job, line = pick
        c = self.start_job(job, line, now)
        if job == JOB1:
            c.awaiting_entry = False

    def complete_job1(self, c: Customer, now: float) -> None:
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_END[JOB1], c.id))
        # entry service ends with the customer stepping into a cubicle,
        # reserved for them when the job was dispatched
        self.store.cubicle_change(now, 1)
        if tr is not None:
            tr.append((now, L_ENTER, c.id))
        self.start_fitting(c, now, bernoulli(self.cfg.help_probability,
                                             self.help_draws))
        self.store.staff_done(now)
        # a filled cubicle can only end congestion
        if self.note is not None and self.ctl.congested:
            self.note(now)
        self.dispatch_staff(now)

    def request_help(self, c: Customer, now: float) -> None:
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_REQUEST_HELP, c.id))
        c.joined_at = now
        self.store.help.append(c)
        if self.note is not None:
            self.note(now)
        if self.store.staff_since is None:
            self.dispatch_staff(now)

    def complete_job2(self, c: Customer, now: float) -> None:
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_END[JOB2], c.id))
        self.cal.schedule(now + c.fit_remaining, EV_FIT_DONE, c)
        self.store.staff_done(now)
        self.dispatch_staff(now)

    def leave_cubicle(self, c: Customer, now: float) -> None:
        self.store.cubicle_change(now, -1)
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_LEAVE, c.id))
        c.joined_at = now
        self.store.ret.append(c)
        if self.note is not None:
            self.note(now)
        if self.store.staff_since is None:
            self.dispatch_staff(now)

    def complete_job3(self, c: Customer, now: float) -> None:
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_END[JOB3], c.id))
        c.disposition = SERVED
        self.store.staff_done(now)
        self.dispatch_staff(now)

    def renege(self, c: Customer, now: float) -> None:
        if not c.awaiting_entry:
            return  # already being served; the timer is stale
        self.record_renege(c, now)


def run_des(cfg: ScenarioConfig, draws: ReplicationDraws,
            trace: list | None = None) -> RunMetrics:
    """Run the replication whose ``draws`` are given through the
    event-scheduling model; ``run_des(cfg, ReplicationDraws(r))`` runs
    replication r on its own."""
    return DesRun(cfg, draws, trace).run()
