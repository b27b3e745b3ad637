"""Acceptance gate: the eight headline guarantees, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they happen; without -s pytest only surfaces them for failing checks.  Every
check uses frozen seeds, so a verdict never flickers between runs.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from fitroom.abs import run_abs
from fitroom.config import ScenarioConfig
from fitroom.des import run_des
from fitroom.engine import ArrivalProfile, DistributionSpec, RandomStreams, ReplicationDraws
from fitroom.harness import SweepSpec, sweep
from fitroom.proactive import ProactivePolicy, ServiceTimeTable
from fitroom.runtime import JOB2
from fitroom.stats import decide, mann_whitney_u
from helpers import run_python, traced
from oracles import check_metrics, check_trace, exact_mw_oracle

D = DistributionSpec


def verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# --- 1: conservation and bounds under randomized scenarios --------------------


def random_scenario(rng: random.Random) -> ScenarioConfig:
    def duration(lo, hi):
        fam = rng.choice(("deterministic", "exponential", "uniform", "triangular"))
        if fam == "deterministic":
            return D.deterministic(rng.uniform(lo, hi))
        if fam == "exponential":
            return D.exponential(1.0 / rng.uniform(max(lo, 0.05), hi))
        a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        if fam == "uniform":
            return D.uniform(a, b)
        return D.triangular(a, rng.uniform(a, b), b)

    policy = ProactivePolicy(
        enabled=rng.random() < 0.7,
        threshold_entry=rng.randint(1, 5),
        threshold_return=rng.randint(1, 5),
        threshold_help=rng.randint(1, 5),
        revert_delay=duration(0.0, 20.0),
        check_interval=None if rng.random() < 0.7 else duration(0.5, 10.0),
    )
    return ScenarioConfig(
        arrival=ArrivalProfile(
            tuple(rng.uniform(0.0, 70.0) for _ in range(8)),
            scale=rng.uniform(0.3, 2.5),
        ),
        cubicles=rng.randint(1, 10),
        job1=duration(0.0, 1.0),
        job2=duration(0.0, 2.0),
        job3=duration(0.0, 1.0),
        fitting=duration(0.0, 15.0),
        help_probability=rng.random(),
        help_fraction=(
            D.uniform(0.0, 1.0) if rng.random() < 0.5
            else D.deterministic(rng.random())
        ),
        patience=rng.choice(
            (None,
             D.exponential(1.0 / rng.uniform(1.0, 30.0)),
             D.deterministic(rng.uniform(0.0, 20.0)))
        ),
        wait_estimator=rng.choice(("served", "all")),
        speedup_fraction=rng.uniform(0.0, 0.9),
        proactive=policy,
        replications=1,
        master_seed=rng.randint(0, 10 ** 6),
    )


@pytest.fixture(scope="module")
def c1_days():
    """C1's 1000 randomized scenarios, run once for C1 and for the trace
    checks, DES and ABS in turn: (seconds taken, scenarios that broke
    conservation or a bound, the checks' findings).  ``check_trace`` and
    ``check_metrics`` run outside the timed part."""
    rng = random.Random(424242)
    started = time.perf_counter()
    checking = 0.0
    failures, broken = [], []
    for i in range(1000):
        cfg = random_scenario(rng)
        runner = run_des if i % 2 == 0 else run_abs
        trace = []
        m = runner(cfg, ReplicationDraws(0), trace)
        arrivals = sum(1 for _, label, _ in trace if label == "arrival")
        ok = (
            arrivals == m.served + m.not_served
            and 0.0 <= m.staff_util <= 1.0
            and 0.0 <= m.cubicle_util <= 1.0
            and m.mean_wait >= 0.0
            and m.service_time_changes >= 0
        )
        if not ok:
            failures.append(i)
        check_started = time.perf_counter()
        try:
            check_trace(trace, cfg.cubicles)
            check_metrics(trace, cfg, m)
        except AssertionError as exc:
            broken.append(f"scenario {i}: {exc}")
        checking += time.perf_counter() - check_started
    return time.perf_counter() - started - checking, failures, broken


def test_c1_randomized_scenarios_conserve_and_stay_bounded(c1_days):
    elapsed, failures, _ = c1_days
    verdict(
        "C1",
        not failures and elapsed < 30.0,
        f"1000 randomized scenarios conserve customers and bound utilizations "
        f"({len(failures)} violations, {elapsed:.1f}s, limit 30s)",
    )


def test_c1_scenarios_keep_the_store_rules(c1_days):
    _, _, broken = c1_days
    assert not broken, "\n".join(broken[:5])


# --- 2: the sweep command is fast and bit-reproducible -------------------------


def test_c2_sweep_cli_reproducible_within_budget(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    times = []
    for out in (out1, out2):
        started = time.perf_counter()
        proc = run_python("-m", "fitroom", "sweep", "--model", "both", "--seed", "42",
                          "--out", str(out), timeout=300)
        times.append(time.perf_counter() - started)
        assert proc.returncode == 0, proc.stderr
    same = out1.read_bytes() == out2.read_bytes()
    rows = len(out1.read_text().splitlines())
    verdict(
        "C2",
        same and max(times) < 10.0 and rows == 61,
        f"two sweep invocations byte-identical ({rows} lines), "
        f"slowest {max(times):.1f}s against the 10s budget",
    )


# --- 3: model equivalence where event times collide -----------------------------


def test_c3_degenerate_scenarios_replay_identically():
    rng = random.Random(2026)
    diverged = []
    for i in range(50):
        def grid(xs):
            return D.deterministic(float(rng.choice(xs)))

        # deterministic grid durations (zero allowed) make simultaneous
        # events the rule rather than the exception; only arrival instants
        # stay stochastic, and the shared stream feeds both models
        cfg = ScenarioConfig(
            arrival=ArrivalProfile(
                tuple(float(rng.choice((20, 45, 60))) for _ in range(8))
            ),
            cubicles=rng.choice((1, 2, 4, 8)),
            job1=grid((0.0, 0.5, 1.0)),
            job2=grid((0.0, 1.0, 2.0)),
            job3=grid((0.0, 0.5, 1.0)),
            fitting=grid((0.0, 4.0, 8.0)),
            help_probability=float(rng.choice((0, 1))),
            help_fraction=grid((0.0, 0.5, 1.0)),
            patience=rng.choice(
                (None, D.deterministic(0.0), D.deterministic(2.0),
                 D.deterministic(8.0))
            ),
            speedup_fraction=rng.choice((0.0, 0.2, 0.5)),
            proactive=ProactivePolicy(enabled=False),
            replications=1,
            master_seed=1000 + i,
        )
        if traced(run_des, cfg) != traced(run_abs, cfg):
            diverged.append(i)
    verdict(
        "C3",
        not diverged,
        f"50 collision-heavy scenarios: DES and agent traces and metrics "
        f"identical with zero tolerance ({len(diverged)} diverged)",
    )


# --- 4: the rank-sum test agrees with brute-force enumeration --------------------


def test_c4_rank_sum_matches_enumeration_oracle():
    rng = random.Random(8191)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, min(6, 12 - n))
        pool = rng.sample(range(100_000), n + m)
        a = [float(v) for v in pool[:n]]
        b = [float(v) for v in pool[n:]]
        worst = max(worst, abs(mann_whitney_u(a, b) - exact_mw_oracle(a, b)))

    canonical = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    keep = decide("H", 0.1608).decision
    reject = decide("H", 0.000).decision
    verdict(
        "C4",
        worst < 1e-12
        and abs(canonical - 0.1) < 1e-12
        and keep == "fail-to-reject"
        and reject == "reject",
        f"200 enumerated pairs within 1e-12 (worst {worst:.2e}); canonical "
        f"3v3 p={canonical:.3f}; decisions at 0.1608/0.000 correct",
    )


# --- 5: more arrivals push every measure the right way ----------------------------


def test_c5_sweep_measures_rise_with_load():
    started = time.perf_counter()
    report = sweep(ScenarioConfig(replications=100, master_seed=1),
                   SweepSpec(), model="both")
    elapsed = time.perf_counter() - started

    series = {}
    for row in report.rows:
        series.setdefault((row.model, row.measure), []).append(row)
    breaches = []
    for (model, measure), rows in series.items():
        rows.sort(key=lambda r: r.level)
        for prev, cur in zip(rows, rows[1:]):
            slack = math.hypot(prev.sd / math.sqrt(prev.n),
                               cur.sd / math.sqrt(cur.n))
            if cur.mean < prev.mean - slack:
                breaches.append((model, measure, prev.level, cur.level))
    verdict(
        "C5",
        not breaches and elapsed < 20.0,
        f"all 12 model/measure series rise monotonically within one standard "
        f"error across 5 load levels ({len(breaches)} breaches, "
        f"{elapsed:.1f}s, limit 20s)",
    )


# --- 6: the policy demonstrably helps ----------------------------------------------


def test_c6_policy_reduces_staff_time_per_served_customer():
    base = ScenarioConfig(replications=100, master_seed=1)
    off = replace(base, proactive=ProactivePolicy(enabled=False))
    a = [run_des(off, ReplicationDraws(rep)) for rep in range(100)]
    b = [run_des(base, ReplicationDraws(rep)) for rep in range(100)]

    wins = sum(
        (mb.staff_util * base.horizon / mb.served)
        <= (ma.staff_util * base.horizon / ma.served)
        for ma, mb in zip(a, b)
    )
    p_util = mann_whitney_u([m.staff_util for m in a], [m.staff_util for m in b])
    p_wait = mann_whitney_u([m.mean_wait for m in a], [m.mean_wait for m in b])
    wait_decision = decide("wait", p_wait).decision  # reported, not required
    verdict(
        "C6",
        wins >= 95 and p_util < 0.05,
        f"policy lowered staff minutes per served customer in {wins}/100 "
        f"paired days (need 95); utilization shift p={p_util:.2e}; "
        f"wait shift p={p_wait:.2e} ({wait_decision})",
    )


# --- 7: the fast pace is the same draw, scaled -------------------------------------


def test_c7_fast_pace_scales_identical_draws_exactly():
    spec = D.triangular(0.5, 1.0, 1.5)
    # two readers of one replication's draws, as two runs of it read them;
    # each starts at the stream's first draw
    draws = ReplicationDraws(0)
    job_normal = draws.values(17, "pace", spec)
    job_fast = draws.values(17, "pace", spec)
    normal = ServiceTimeTable(job_normal, job_normal, job_normal, 0.2)
    fast = ServiceTimeTable(job_fast, job_fast, job_fast, 0.2)
    fast.set_fast()
    mismatches = 0
    for _ in range(1_000_000):
        if fast.duration(JOB2) != normal.duration(JOB2) * 0.8:
            mismatches += 1
    verdict(
        "C7",
        mismatches == 0,
        f"one million paired draws: hurried duration equals 0.8 x normal "
        f"bit-for-bit ({mismatches} mismatches)",
    )


# --- 8: arrivals follow the hourly rate profile -------------------------------------


def test_c8_hourly_arrival_counts_match_rates():
    profiles = {
        "shaped": ArrivalProfile((20.0, 34.0, 48.0, 56.0, 56.0, 48.0, 34.0, 20.0)),
        "flat_scaled": ArrivalProfile((60.0,) * 8, scale=0.7),
        "dead_hours": ArrivalProfile((40.0, 0.0, 40.0, 55.0, 0.0, 25.0, 40.0, 10.0)),
    }
    reps = 1000
    worst = 0.0
    zero_leaks = 0
    for profile in profiles.values():
        counts = [0] * 8
        for rep in range(reps):
            s = RandomStreams(99).stream("arrivals", rep)
            t = profile.next_arrival(0.0, s)
            while t is not None:
                counts[min(int(t // 60.0), 7)] += 1
                t = profile.next_arrival(t, s)
        for hour in range(8):
            lam = profile.hourly_rates[hour] * profile.scale * reps
            if lam == 0.0:
                zero_leaks += counts[hour]
            else:
                worst = max(worst, abs(counts[hour] - lam) / math.sqrt(lam))
    verdict(
        "C8",
        worst < 3.0 and zero_leaks == 0,
        f"hourly counts across 3 profiles x 1000 days within 3 standard "
        f"errors (worst {worst:.2f}); zero-rate hours produced "
        f"{zero_leaks} arrivals",
    )
