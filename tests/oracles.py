"""Reference computations the tests check the package against.  Each is
written independently of the code it checks, plainly rather than fast."""

import heapq
import itertools
import math
from typing import Sequence


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


def check_trace(trace, capacity: int, service_time_changes: int) -> None:
    """Assert that a run's trace keeps the store's rules.

    ``trace`` is a run's list of (time, label, customer id) entries, id -1
    for the policy's; ``capacity`` is the scenario's cubicle count and
    ``service_time_changes`` the run's reported count.  The rules:

    - times never decrease;
    - the staff does one job at a time, and ends the job it started;
    - cubicle occupancy, the one an entry service reserves included, stays
      within [0, capacity];
    - every customer follows the chart in ``_CHART`` from their arrival;
    - each job start goes to the customer who joined their queue first
      (ties to the lower id) among all who wait, the entry queue counting
      only while a cubicle is free, and the staff is never idle at the end
      of an instant while such a customer waits;
    - speedup and revert alternate, speedup first, and the speedups number
      ``service_time_changes``.

    Written from the rules alone: it keeps its own record of who waits
    where, and imports nothing from the models.
    """
    state = {}        # customer id -> chart state
    # who waits in each queue, as a heap of (joined, id), and each waiting
    # customer's entry there; an entry is dropped when found stale at the top
    waits = {q: [] for q in _QUEUES}
    queued = {}
    occupied = 0
    job = None        # the staff's (job, customer id), None while idle
    fast = False
    speedups = 0
    prev = -math.inf

    def first_in_line():
        """The (joined, id) the staff must serve next, or None."""
        best = None
        for q, h in waits.items():
            while h and queued.get(h[0][1]) is not h[0]:
                heapq.heappop(h)
            if (h and (best is None or h[0] < best)
                    and (q != "waiting_entry" or occupied < capacity)):
                best = h[0]
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
            queued[cid] = key = (t, cid)
            heapq.heappush(waits["waiting_entry"], key)
            continue
        if cid == -1 and label in ("speedup", "revert"):
            fast = not fast
            assert fast == (label == "speedup"), (
                f"speedup and revert do not alternate at trace[{i}] = {entry}")
            speedups += fast
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
            queued[cid] = key = (t, cid)
            heapq.heappush(waits[to], key)
        else:
            queued.pop(cid, None)
    if job is None:
        nxt = first_in_line()
        assert nxt is None, f"idle staff at t={prev} while customer {nxt[1]} waits"
    assert speedups == service_time_changes, (
        f"{speedups} speedups traced, {service_time_changes} reported")
