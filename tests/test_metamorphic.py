"""Metamorphic relations: each model against itself under an input change
whose effect on the output is known exactly.

Every draw comes from a stream seeded by (master seed, replication,
purpose), so the changed and the unchanged day read the same numbers and
the relations hold with zero tolerance.  Unlike DES ≡ ABS, they can see a
defect in a step both models share.  Each relation is checked on three
hand-picked days and on days hypothesis generates, and every day runs
through ``helpers.traced``, so its trace also keeps the store's rules.
"""

from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fitroom.config import ScenarioConfig
from fitroom.engine import DistributionSpec
from fitroom.harness import _RUNNERS
from fitroom.proactive import L_REVERT, L_SPEEDUP
from fitroom.runtime import L_ENTER, L_LEAVE
from helpers import stochastic_scenarios, traced

CHECKS = {"event": None, "polling": DistributionSpec.exponential(0.5)}


def policy(cfg, **changes):
    return replace(cfg, proactive=replace(cfg.proactive, **changes))


def scenarios(check):
    """Days with the policy on, checking as ``check`` says: the calibrated
    day, a congested one with short patience, and one with a single
    cubicle where everyone asks for help."""
    base = ScenarioConfig(replications=1, master_seed=2024)
    base = policy(base, check_interval=check)
    hot = replace(base, arrival=replace(base.arrival, scale=2.2),
                  patience=DistributionSpec.exponential(0.1))
    tight = replace(base, cubicles=1, help_probability=1.0)
    return [base, hot, tight]


def horizons(trace):
    """Cut points for a day whose full trace is ``trace``: three fixed
    ones, and two that fall on an event, one of them the policy's first
    speed-up when there is one."""
    times = [t for t, _, _ in trace]
    speedups = [t for t, label, _ in trace if label == L_SPEEDUP]
    return [37.5, 240.0, 479.9, times[len(times) // 2],
            speedups[0] if speedups else times[len(times) // 3]]


# --- the relations, each on one day (``cfg``, replication ``rep``) ----------------


def check_cut_short(run, cfg, rep, horizons):
    """A day cut at each of ``horizons(full trace)`` is the full day up to
    the cut."""
    _, full = traced(run, cfg, rep)
    for h in horizons(full):
        _, cut = traced(run, replace(cfg, horizon=h), rep)
        assert cut == [e for e in full if e[0] <= h], f"rep {rep}, horizon {h}"


def check_unreachable_thresholds(run, cfg, rep):
    """Thresholds above any queue length give the policy-off day."""
    unreachable = policy(cfg, enabled=True, threshold_entry=10**9,
                         threshold_return=10**9, threshold_help=10**9)
    assert traced(run, unreachable, rep) == traced(run, policy(cfg, enabled=False), rep), (
        f"rep {rep}")


def check_speedup_of_nothing(run, cfg, rep) -> int:
    """A speed-up fraction of 0 gives the policy-off day less the pace
    changes; returns how many pace changes there were."""
    on, t_on = traced(run, policy(replace(cfg, speedup_fraction=0.0), enabled=True), rep)
    off, t_off = traced(run, policy(cfg, enabled=False), rep)
    assert on._replace(service_time_changes=0) == off
    assert [e for e in t_on if e[1] not in (L_SPEEDUP, L_REVERT)] == t_off, f"rep {rep}"
    return on.service_time_changes


def check_unfilled_cubicles(run, cfg, rep):
    """More cubicles than the day's peak occupancy change nothing but the
    cubicle utilization."""
    wide, t_wide = traced(run, replace(cfg, cubicles=10_000), rep)
    steps = [{L_ENTER: 1, L_LEAVE: -1}.get(label, 0) for _, label, _ in t_wide]
    peak = max(accumulate(steps, initial=0))
    for cubicles in (peak + 1, peak + 7):
        narrow, t_narrow = traced(run, replace(cfg, cubicles=cubicles), rep)
        assert narrow._replace(cubicle_util=wide.cubicle_util) == wide
        assert t_narrow == t_wide, f"rep {rep}, {cubicles} cubicles"


def check_endless_patience(run, cfg, rep):
    """A patience that never runs out within the day is infinite patience."""
    long = replace(cfg, patience=DistributionSpec.deterministic(10**6))
    assert traced(run, replace(cfg, patience=None), rep) == traced(run, long, rep), (
        f"rep {rep}")


# --- on three hand-picked days ----------------------------------------------------


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("model", sorted(_RUNNERS))
def test_a_day_cut_short_is_the_full_day_up_to_the_cut(model, check):
    for rep, cfg in enumerate(scenarios(CHECKS[check])):
        check_cut_short(_RUNNERS[model], cfg, rep, horizons)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("model", sorted(_RUNNERS))
def test_thresholds_no_queue_reaches_turn_the_policy_off(model, check):
    for cfg in scenarios(CHECKS[check]):
        for rep in range(2):
            check_unreachable_thresholds(_RUNNERS[model], cfg, rep)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("model", sorted(_RUNNERS))
def test_a_speedup_of_nothing_is_the_policy_off(model, check):
    for rep, cfg in enumerate(scenarios(CHECKS[check])):
        assert check_speedup_of_nothing(_RUNNERS[model], cfg, rep) > 0, (
            f"rep {rep}: the policy never acted")


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("model", sorted(_RUNNERS))
def test_cubicles_no_day_fills_change_nothing(model, check):
    for rep, cfg in enumerate(scenarios(CHECKS[check])):
        check_unfilled_cubicles(_RUNNERS[model], cfg, rep)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("model", sorted(_RUNNERS))
def test_patience_that_never_runs_out_is_infinite_patience(model, check):
    for rep, cfg in enumerate(scenarios(CHECKS[check])):
        check_endless_patience(_RUNNERS[model], cfg, rep)


# --- on generated days ------------------------------------------------------------

generated = settings(max_examples=12, derandomize=True, database=None, deadline=None)


@pytest.mark.parametrize("model", sorted(_RUNNERS))
@generated
@given(cfg=stochastic_scenarios(), at=st.floats(0.001, 1.0))
def test_generated_days_cut_short_are_the_full_day_up_to_the_cut(model, cfg, at):
    def cuts(full):
        # a fixed fraction of the day, and the event that far into the trace
        times = [t for t, _, _ in full if t > 0.0]
        return [at * cfg.horizon] + times[int(at * (len(times) - 1)):][:1]

    check_cut_short(_RUNNERS[model], cfg, 0, cuts)


@pytest.mark.parametrize("model", sorted(_RUNNERS))
@generated
@given(cfg=stochastic_scenarios())
def test_generated_days_at_unreachable_thresholds_are_the_policy_off(model, cfg):
    check_unreachable_thresholds(_RUNNERS[model], cfg, 0)


@pytest.mark.parametrize("model", sorted(_RUNNERS))
@generated
@given(cfg=stochastic_scenarios())
def test_generated_days_at_a_speedup_of_nothing_are_the_policy_off(model, cfg):
    assume(check_speedup_of_nothing(_RUNNERS[model], cfg, 0) > 0)


@pytest.mark.parametrize("model", sorted(_RUNNERS))
@generated
@given(cfg=stochastic_scenarios())
def test_generated_days_with_unfilled_cubicles_change_nothing(model, cfg):
    check_unfilled_cubicles(_RUNNERS[model], cfg, 0)


@pytest.mark.parametrize("model", sorted(_RUNNERS))
@generated
@given(cfg=stochastic_scenarios())
def test_generated_days_with_endless_patience_have_infinite_patience(model, cfg):
    check_endless_patience(_RUNNERS[model], cfg, 0)
