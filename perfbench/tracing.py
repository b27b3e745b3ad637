"""Per-layer tracing from outside the program.

The traced passes replace public functions of the program's modules with
wrappers that count calls and time them, keeping everything in memory until
the process writes it out.  A wrapper's *self* time is its call's duration
minus the time spent in wrapped functions it called.

Two passes, because wrapping every hot function slows a run about 3x:

* the entry pass wraps only the model entry points (each model's run loop
  and set-up) and report rendering, and gives the microseconds per customer;
* the full pass wraps every layer and gives counts and self times.

Nothing here changes what a wrapped function computes, so the reports of
both passes are byte-identical to an untraced run's.
"""

from __future__ import annotations

import time


class Tracer:
    """Call counts and times by name.

    Each name's cell holds [calls, self ns, total ns, useful calls, calls it
    made to wrapped functions]; the last lets ``dump`` take the wrappers'
    own cost out of self times.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.per_level: dict[str, list[int]] = {}   # "model|level" -> [ns, customers]
        # per open call: time spent in, and number of, wrapped callees
        self._inner_ns = [0]
        self._inner_calls = [0]
        self.overhead = [0.0, 0.0, 0]   # summed wrapper_cost() and its count

    def wrap(self, name, fn, pre=None, post=None):
        """Wrap ``fn``.  With ``post``, ``post(args, pre(args))`` after the
        call says whether the call was useful, counted in the fourth slot."""
        cell = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        inner_ns = self._inner_ns
        inner_calls = self._inner_calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            inner_ns.append(0)
            inner_calls.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = inner_ns.pop()
                cell[4] += inner_calls.pop()
                inner_ns[-1] += dt
                inner_calls[-1] += 1
                cell[0] += 1
                cell[1] += dt - inner
                cell[2] += dt
                if post is not None:
                    cell[3] += bool(post(args, before))
        return traced

    def wrap_model_run(self, model: str, fn, level_of, calibrate: bool):
        """Wrap a model's ``run`` method, also adding its time and customers
        to the (model, level) cell the replication belongs to.  With
        ``calibrate``, time the wrappers' own cost before each replication,
        so that cost is averaged over the same stretch as the work."""
        traced = self.wrap(f"{model}.run", fn)
        cell = self.stats[f"{model}.run"]
        per_level = self.per_level
        overhead = self.overhead

        def traced_run(run_self):
            if calibrate:
                for i, ns in enumerate(wrapper_cost()):
                    overhead[i] += ns
                overhead[2] += 1
            total_before = cell[2]
            result = traced(run_self)
            acc = per_level.setdefault(f"{model}|{level_of(run_self.cfg)}", [0, 0])
            acc[0] += cell[2] - total_before
            acc[1] += result.served + result.not_served
            return result
        return traced_run

    def dump(self) -> dict:
        n = self.overhead[2] or 1
        return {"stats": self.stats, "per_level": self.per_level,
                "overhead_ns": [self.overhead[0] / n, self.overhead[1] / n]}


def wrapper_cost(calls: int = 1000) -> tuple[float, float]:
    """The wrappers' own cost per call, as (ns the callee's self time
    gains, ns the caller's self time gains), from timing an empty loop, a
    loop calling an empty function, and a loop calling it wrapped."""
    clock = time.perf_counter_ns

    def empty(*args):
        return None

    t = Tracer()
    traced = t.wrap("empty", empty)
    loop = range(calls)
    a = clock()
    for _ in loop:
        pass
    b = clock()
    for _ in loop:
        empty(1)
    c = clock()
    for _ in loop:
        traced(1)
    d = clock()
    call = (c - b - (b - a)) / calls          # what the call costs unwrapped
    inside = t.stats["empty"][2] / calls      # what the wrapper recorded
    return inside - call, (d - c - (c - b)) / calls - (inside - call)


def install(tracer: Tracer, level_of, full: bool) -> None:
    """Put the tracer's wrappers in place of the program's functions.

    Functions that other modules imported by name are wrapped where those
    modules look them up, and the harness's runner table holds the
    module-level run functions, so each model is timed at its run class.
    """
    from fitroom import abs as abs_model
    from fitroom import cli, des, engine, harness, proactive, runtime

    w = tracer.wrap
    des.DesRun.run = tracer.wrap_model_run("des", des.DesRun.run, level_of, full)
    abs_model.AbsRun.run = tracer.wrap_model_run("abs", abs_model.AbsRun.run,
                                                 level_of, full)
    des.DesRun.__init__ = w("des.setup", des.DesRun.__init__)
    abs_model.AbsRun.__init__ = w("abs.setup", abs_model.AbsRun.__init__)
    emit = w("harness.emit_report", harness.emit_report)
    harness.emit_report = emit
    cli.emit_report = emit
    if not full:
        return

    E = engine
    E.EventCalendar.schedule = w("engine.schedule", E.EventCalendar.schedule)
    E.RandomStream.uniform = w("engine.uniform", E.RandomStream.uniform)
    E.DistributionSpec.sample = w("engine.sample", E.DistributionSpec.sample)
    E.ArrivalProfile.next_arrival = w("engine.next_arrival", E.ArrivalProfile.next_arrival)
    E.RandomStreams.stream = w("engine.stream_setup", E.RandomStreams.stream)
    bern = w("engine.bernoulli", E.bernoulli)
    select = w("runtime.select_service", runtime.select_service)
    for mod in (des, abs_model):
        mod.bernoulli = bern
        mod.select_service = select

    S = proactive.SpeedupController
    S.note_change = w("proactive.note_change", S.note_change)
    S.apply_speedup = w("proactive.speedup", S.apply_speedup)
    # a revert event is useful when it ends a fast episode
    S.handle_revert = w("proactive.revert", S.handle_revert,
                        pre=lambda a: a[0].table.fast,
                        post=lambda a, was_fast: was_fast and not a[0].table.fast)
    S.handle_poll = w("proactive.poll", S.handle_poll)

    # a patience timer is useful when it ends in a renege
    des.DesRun.renege = w("des.renege", des.DesRun.renege,
                          post=lambda a, _: a[1].disposition == runtime.RENEGED)
    for agent in (abs_model.CustomerAgent, abs_model.StaffAgent,
                  abs_model.FittingRoomAgent):
        agent.handle = w("abs.message", agent.handle)

    harness.summarize = w("stats.summarize", harness.summarize)
    harness.mann_whitney_u = w("stats.mann_whitney", harness.mann_whitney_u)
