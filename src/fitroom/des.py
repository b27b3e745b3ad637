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
from .runtime import (EV_ARRIVAL, EV_FIT_DONE, EV_HELP_DUE, EV_JOB_DONE, EV_PATIENCE,
                      JOB1, L_END, Customer, Replication, select_service)
from .stats import RunMetrics


class DesRun(Replication):
    """State of a single replication."""

    __slots__ = ()

    def handlers(self) -> dict:
        return {
            EV_ARRIVAL: self.handle_arrival,
            EV_PATIENCE: self.renege,
            **dict.fromkeys(EV_JOB_DONE[1:], self.complete_job),
            EV_HELP_DUE: self.request_help,
            EV_FIT_DONE: self.leave_cubicle,
        }

    def handle_arrival(self, _target, now: float) -> None:
        c = Customer(len(self.customers), now)
        self.arrive(c, now)
        if self.join(c, self.store.entry, now):
            self.start_job(select_service(self.store), now)

    def complete_job(self, c: Customer, now: float) -> None:
        job = self.job
        tr = self.store.trace
        if tr is not None:
            tr.append((now, L_END[job], c.id))
        if job == JOB1:
            # entry service ends with the customer stepping into a cubicle,
            # reserved for them when the job was dispatched
            self.store.enter(c, now)
            self.start_fitting(c, now, bernoulli(self.cfg.help_probability,
                                                 self.help_draws))
        self.end_job(c, now)
        self.start_job(select_service(self.store), now)

    def request_help(self, c: Customer, now: float) -> None:
        if self.ask_help(c, now):
            self.start_job(select_service(self.store), now)

    def leave_cubicle(self, c: Customer, now: float) -> None:
        self.store.leave(c, now)
        if self.join(c, self.store.ret, now):
            self.start_job(select_service(self.store), now)


def run_des(cfg: ScenarioConfig, draws: ReplicationDraws,
            trace: list | None = None) -> RunMetrics:
    """Run the replication whose ``draws`` are given through the
    event-scheduling model; ``run_des(cfg, ReplicationDraws(r))`` runs
    replication r on its own."""
    return DesRun(cfg, draws, trace).run()
