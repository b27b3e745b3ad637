"""Reference computations the tests check the package against.  Each is
written independently of the code it checks, plainly rather than fast."""

import heapq
import itertools
import math
from typing import Sequence

from fitroom.stats import RunMetrics


def exact_mw_oracle(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided exact p-value by enumerating every rank assignment.

    Deliberately independent of mann_whitney_u's exact count: it walks all
    C(n+m, n) splits with itertools and counts directly.  Only usable on
    tiny tie-free samples (n + m <= 12).
    """
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    n, m = len(xs), len(ys)
    big_n = n + m
    if big_n > 12:
        raise ValueError("oracle limited to n + m <= 12")
    pooled = xs + ys
    if len(set(pooled)) != big_n:
        raise ValueError("oracle requires tie-free samples")

    order = sorted(range(big_n), key=pooled.__getitem__)
    pos_of = [0] * big_n
    for rank0, idx in enumerate(order):
        pos_of[idx] = rank0
    base = n * (n - 1) // 2
    obs_ua = sum(pos_of[:n]) - base
    obs_u = min(obs_ua, n * m - obs_ua)

    count = 0
    total = 0
    for combo in itertools.combinations(range(big_n), n):
        total += 1
        if sum(combo) - base <= obs_u:
            count += 1
    return min(1.0, 2.0 * count / total)


# --- the store's rules, checked on a trace ------------------------------------

# each customer's chart as the trace shows it: label -> (the states it may
# come from, the state it leads to, the staff's job it starts (> 0) or ends
# (< 0), the change in cubicles taken).  Help is asked for at most once,
# and a customer may renege only while waiting for entry.
_CHART = {
    "start_job1": (("waiting_entry",), "in_entry", 1, 0),
    "end_job1": (("in_entry",), "entering", -1, 0),
    "enter_cubicle": (("entering",), "fitting", 0, 1),
    "request_help": (("fitting",), "waiting_help", 0, 0),
    "start_job2": (("waiting_help",), "in_help", 2, 0),
    "end_job2": (("in_help",), "fitting_helped", -2, 0),
    "leave_cubicle": (("fitting", "fitting_helped"), "waiting_return", 0, -1),
    "start_job3": (("waiting_return",), "in_return", 3, 0),
    "end_job3": (("in_return",), "served", -3, 0),
    "renege": (("waiting_entry",), "reneged", 0, 0),
}
_QUEUES = ("waiting_entry", "waiting_help", "waiting_return")


def check_trace(trace, capacity: int) -> None:
    """Assert that a run's trace keeps the store's rules.

    ``trace`` is a run's list of (time, label, customer id) entries, id -1
    for the policy's, and ``capacity`` is the scenario's cubicle count.
    The rules:

    - times never decrease;
    - the staff does one job at a time, and ends the job it started;
    - cubicle occupancy, the one an entry service reserves included, stays
      within [0, capacity];
    - every customer follows the chart in ``_CHART`` from their arrival;
    - each queue is served in join order, customers who join at one time
      in the order the trace shows them joining;
    - each job start goes to the queue head who joined first (ties to the
      lower id), the entry queue's head counting only while a cubicle is
      free, and the staff is never idle at the end of an instant while such
      a head waits;
    - speedup and revert alternate, speedup first.

    Written from the rules alone: it keeps its own record of who waits
    where, and imports nothing from the models.
    """
    state = {}        # customer id -> chart state
    # who waits in each queue, as a heap of (joined, trace index, id), and
    # each waiting customer's entry there; an entry is dropped when found
    # stale at the top
    waits = {q: [] for q in _QUEUES}
    queued = {}
    occupied = 0
    job = None        # the staff's (job, customer id), None while idle
    fast = False
    prev = -math.inf

    def first_in_line():
        """The (joined, id) of the head the staff must serve next, or None."""
        best = None
        for q, h in waits.items():
            while h and queued.get(h[0][2]) is not h[0]:
                heapq.heappop(h)
            if h and (q != "waiting_entry" or occupied < capacity):
                head = (h[0][0], h[0][2])
                if best is None or head < best:
                    best = head
        return best

    for i, entry in enumerate(trace):
        t, label, cid = entry
        if t != prev:
            assert t > prev, f"time runs backwards at trace[{i}] = {entry}"
            if job is None and i:
                nxt = first_in_line()
                assert nxt is None, f"idle staff at t={prev} while customer {nxt[1]} waits"
            prev = t
        if label == "arrival":
            assert cid not in state, f"customer arrives twice at trace[{i}] = {entry}"
            state[cid] = "waiting_entry"
            queued[cid] = key = (t, i, cid)
            heapq.heappush(waits["waiting_entry"], key)
            continue
        if cid == -1 and label in ("speedup", "revert"):
            fast = not fast
            assert fast == (label == "speedup"), (
                f"speedup and revert do not alternate at trace[{i}] = {entry}")
            continue
        assert label in _CHART, f"unknown entry trace[{i}] = {entry}"
        sources, to, staff, cubicles = _CHART[label]
        assert state.get(cid) in sources, (
            f"customer {cid} breaks the chart: {label} while {state.get(cid)} "
            f"at trace[{i}]")
        if staff > 0:
            assert job is None, f"the staff starts a job while on {job} at trace[{i}] = {entry}"
            # entry service reserves the cubicle its customer walks into
            assert staff != 1 or occupied < capacity, (
                f"entry service starts with all {capacity} cubicles taken at trace[{i}]")
            nxt = first_in_line()
            assert nxt is not None and nxt[1] == cid, (
                f"job start skips the first in line, {nxt}, at trace[{i}] = {entry}")
            job = (staff, cid)
        elif staff < 0:
            assert job == (-staff, cid), (
                f"the staff ends a job it is not on, {job}, at trace[{i}] = {entry}")
            job = None
        elif cubicles:
            occupied += cubicles
            assert 0 <= occupied <= capacity, (
                f"{occupied} of {capacity} cubicles taken at trace[{i}] = {entry}")
        state[cid] = to
        if to in waits:
            queued[cid] = key = (t, i, cid)
            heapq.heappush(waits[to], key)
        else:
            queued.pop(cid, None)
    if job is None:
        nxt = first_in_line()
        assert nxt is None, f"idle staff at t={prev} while customer {nxt[1]} waits"


# --- a run's reported numbers, folded from its trace ---------------------------

_JOINS = ("arrival", "request_help", "leave_cubicle")
_STARTS = ("start_job1", "start_job2", "start_job3")
_LEAVES = (*_STARTS, "renege")
_ENDS = ("end_job1", "end_job2", "end_job3")


def fold_metrics(trace, cfg) -> RunMetrics:
    """The RunMetrics a run of ``cfg`` must report, folded from its trace.

    A customer waits through spells in the queues.  Each spell opens at
    ``arrival``, ``request_help`` or ``leave_cubicle`` and closes at a job's
    start or a renege; one still open at closing runs to the horizon.  The
    staff is busy from each job's start to its end, and a cubicle is taken
    from ``enter_cubicle`` to ``leave_cubicle``, both at most until the
    horizon.  A customer is served when their return job ends, and each
    ``speedup`` is one service-time change.  The mean wait is over served
    customers, or over everyone who arrived under the ``all`` estimator,
    and 0 when there is nobody to average.
    """
    horizon = cfg.horizon
    waits, joined, entered = {}, {}, {}
    served = []
    busy = taken = 0.0
    started = None
    speedups = 0
    for t, label, cid in trace:
        if label in _JOINS:
            joined[cid] = t
            waits.setdefault(cid, 0.0)
        elif label in _LEAVES:
            waits[cid] += t - joined.pop(cid)
        if label in _STARTS:
            started = t
        elif label in _ENDS:
            busy += t - started
            started = None
        if label == "enter_cubicle":
            entered[cid] = t
        elif label == "leave_cubicle":
            taken += t - entered.pop(cid)
        elif label == "end_job3":
            served.append(cid)
        elif label == "speedup":
            speedups += 1
    for cid, t in joined.items():
        waits[cid] += horizon - t
    if started is not None:
        busy += horizon - started
    taken += sum(horizon - t for t in entered.values())
    if cfg.wait_estimator == "served":
        mean_wait = sum(waits[cid] for cid in served) / len(served) if served else 0.0
    else:
        mean_wait = sum(waits.values()) / len(waits) if waits else 0.0
    return RunMetrics(mean_wait=mean_wait, staff_util=busy / horizon,
                      cubicle_util=taken / (cfg.cubicles * horizon),
                      served=len(served), not_served=len(waits) - len(served),
                      service_time_changes=speedups)


def check_metrics(trace, cfg, metrics: RunMetrics) -> None:
    """Assert that ``metrics``, a run of ``cfg``, are the ones folded from
    its ``trace``: counts exactly, floats within 1e-9 relative.

    On a day whose fitting and help fraction are fixed, also assert that
    each customer still fitting in a cubicle at closing is due to ask for
    help or to leave strictly after the horizon.  A fitting that never
    resumes or never ends writes no trace line, so only this shows it.
    """
    folded = fold_metrics(trace, cfg)
    for name, want, got in zip(RunMetrics._fields, folded, metrics, strict=True):
        close = isinstance(want, float) and math.isclose(got, want, rel_tol=1e-9)
        assert close or got == want, (
            f"{name}: {got!r} reported, {want!r} folded from the trace")
    if not cfg.fitting.family == cfg.help_fraction.family == "deterministic":
        return
    (fit,), (frac,) = cfg.fitting.params, cfg.help_fraction.params
    due = {}
    for t, label, cid in trace:
        if label == "enter_cubicle":
            # one who wants help asks for it fit * frac in; unless all do,
            # one who has not asked may never, so is due no later than at
            # fit in, when they leave
            due[cid] = t + fit * frac if cfg.help_probability == 1 else t + fit
        elif label == "end_job2":
            due[cid] = t + fit * (1.0 - frac)
        elif label in ("request_help", "leave_cubicle"):
            del due[cid]
    overdue = {cid: at for cid, at in due.items() if at <= cfg.horizon}
    assert not overdue, f"still fitting at closing {cfg.horizon}, though due at {overdue}"
