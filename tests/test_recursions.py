"""Exact queueing recursions: on days that reduce the store to a textbook
queue, each model's ``start_job1`` times equal the recursion's, on the same
draws and with zero tolerance.

Every day here has no help, infinite patience and the policy off.

- Cubicle-only days (jobs 1-3 take 0) are a FCFS G/G/c queue whose servers
  are the cubicles.  Kiefer and Wolfowitz's recursion starts each customer
  at the later of their arrival and the earliest time a cubicle frees, and
  that cubicle frees again at the start plus the next fitting time.
- Staff-only days (fitting and jobs 2-3 take 0) are a FCFS G/G/1 queue whose
  server is the staff.  Lindley's recursion starts each customer at the
  later of their arrival and the previous start plus its job-1 time.

The recursions read the arrival times and the durations from a
ReplicationDraws of the same replication: customers start in arrival
order, and the k-th to start reads the k-th value of its stream.
"""

import heapq
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from fitroom.config import ScenarioConfig
from fitroom.engine import DistributionSpec, ReplicationDraws
from fitroom.harness import MODEL_ORDER, _runner
from fitroom.proactive import ProactivePolicy
from fitroom.runtime import L_START
from helpers import durations, traced

ZERO = DistributionSpec.deterministic(0)


def plain_day(scale, cubicles, seed, **times):
    """A day with no help, infinite patience, the policy off, and the
    durations ``times``."""
    cfg = ScenarioConfig(cubicles=cubicles, help_probability=0.0, patience=None,
                         proactive=ProactivePolicy(enabled=False), replications=1,
                         master_seed=seed, **times)
    return replace(cfg, arrival=cfg.arrival._replace(scale=scale))


def kiefer_wolfowitz(arrivals, fitting, cubicles):
    free = [0.0] * cubicles   # a heap of the times each cubicle frees
    starts = []
    for a in arrivals:
        start = max(a, heapq.heappop(free))
        heapq.heappush(free, start + fitting())
        starts.append(start)
    return starts


def lindley(arrivals, job1):
    free = 0.0   # when the staff finishes the previous job 1
    starts = []
    for a in arrivals:
        start = max(a, free)
        free = start + job1()
        starts.append(start)
    return starts


def check_starts(cfg, rep, recursion, purpose, *args):
    """Both models' start_job1 times against ``recursion`` run on the day's
    arrivals and the ``purpose`` stream's values, up to the horizon."""
    draws = ReplicationDraws(rep)
    seed = cfg.master_seed
    arrivals = draws.arrivals(seed, cfg.arrival)[:-1]
    spec = getattr(cfg, purpose)
    starts = recursion(arrivals, draws.values(seed, purpose, spec), *args)
    expected = [t for t in starts if t <= cfg.horizon]
    for model in MODEL_ORDER:
        _, trace = traced(_runner(model), cfg, rep)
        assert [t for t, label, _ in trace if label == L_START[1]] == expected, model


_days = dict(scale=st.floats(0.5, 2.0), cubicles=st.integers(1, 8),
             seed=st.integers(0, 10 ** 6), rep=st.integers(0, 2))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(fitting=durations(0.0, 12.0), **_days)
def test_cubicle_only_days_follow_kiefer_wolfowitz(fitting, scale, cubicles, seed, rep):
    cfg = plain_day(scale, cubicles, seed, job1=ZERO, job2=ZERO, job3=ZERO,
                    fitting=fitting)
    check_starts(cfg, rep, kiefer_wolfowitz, "fitting", cubicles)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(job1=durations(0.0, 1.5), **_days)
def test_staff_only_days_follow_lindley(job1, scale, cubicles, seed, rep):
    cfg = plain_day(scale, cubicles, seed, job1=job1, job2=ZERO, job3=ZERO,
                    fitting=ZERO)
    check_starts(cfg, rep, lindley, "job1")
