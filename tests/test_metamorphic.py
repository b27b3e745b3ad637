"""Metamorphic relations: each model against itself under an input change
whose effect on the output is known exactly.

Every draw comes from a stream seeded by (master seed, replication,
purpose), so the changed and the unchanged day read the same numbers and
the relations hold with zero tolerance.  Unlike DES ≡ ABS, they can see a
defect in a step both models share.
"""

from dataclasses import replace

import pytest

from fitroom.abs import run_abs
from fitroom.config import ScenarioConfig
from fitroom.des import run_des
from fitroom.engine import DistributionSpec
from fitroom.proactive import L_SPEEDUP

MODELS = {"des": run_des, "abs": run_abs}
CHECKS = {"event": None, "polling": DistributionSpec.exponential(0.5)}


def scenarios(check):
    """Days with the policy on, checking as ``check`` says: the calibrated
    day, a congested one with short patience, and one with a single
    cubicle where everyone asks for help."""
    base = ScenarioConfig(replications=1, master_seed=2024)
    base = replace(base, proactive=replace(base.proactive, check_interval=check))
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


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_day_cut_short_is_the_full_day_up_to_the_cut(model, check):
    run = MODELS[model]
    for rep, cfg in enumerate(scenarios(CHECKS[check])):
        full = []
        run(cfg, rep, trace=full)
        for h in horizons(full):
            cut = []
            run(replace(cfg, horizon=h), rep, trace=cut)
            assert cut == [e for e in full if e[0] <= h], f"rep {rep}, horizon {h}"


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_thresholds_no_queue_reaches_turn_the_policy_off(model, check):
    run = MODELS[model]
    for cfg in scenarios(CHECKS[check]):
        unreachable = replace(cfg, proactive=replace(
            cfg.proactive, threshold_entry=10**9, threshold_return=10**9,
            threshold_help=10**9))
        off = replace(cfg, proactive=replace(cfg.proactive, enabled=False))
        for rep in range(2):
            t_on, t_off = [], []
            assert run(unreachable, rep, trace=t_on) == run(off, rep, trace=t_off)
            assert t_on == t_off, f"rep {rep}"
