"""What each workload asks of the program, made from the benchmark seed.

A workload is a list of *parts*.  A part is one report: the sweep and the
policy comparison are one part each, the sensitivity set is one part per
scenario file.  Each part knows the scenario keys it was given (in the
README's ``key = value`` format), the (model, level) cells it expects in its
report and the arrival mean of every level, all worked out here from the
scenario rather than read back from the program.

The benchmark seed is passed to the program as its master seed, and seeds
the few scenario values that vary between runs.  Every seeded value is
drawn from a narrow range around the base day, so the work a run does
barely moves with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep", "compare_poll", "scenarios")

# The README's base day: hourly arrival rates at scale 1 over 8 opening hours.
BASE_RATES = (20, 34, 48, 56, 56, 48, 34, 20)

SWEEP_LEVELS = 5           # the CLI's defaults, as `fitroom sweep` runs them
SWEEP_FACTOR = 1.3
SWEEP_REPLICATIONS = 10    # per level and model; see the README on round size
COMPARE_REPLICATIONS = 100
SCENARIO_REPLICATIONS = 6
ALPHA = 0.05               # the significance level `fitroom compare` uses

# zero-rate hours: the base day's two quietest hours set to 0 and the eight
# rates dealt to seeded hours, so the day's total (276) is the same every seed
_ZERO_HOUR_RATES = (0, 0, 34, 48, 56, 56, 48, 34)


@dataclass
class Part:
    name: str
    keys: dict
    models: tuple[str, ...]
    levels: dict[int, float]          # level -> Poisson mean of arrivals per day
    policy_off_levels: tuple[int, ...] = ()
    policy_on_levels: tuple[int, ...] = ()
    hypotheses: tuple[tuple[str, str], ...] = ()   # (label, measure), DES only
    from_file: bool = True            # False: the CLI gets --seed, no scenario file
    rising: bool = False              # mean_wait and not_served rise with level

    @property
    def replications(self) -> int:
        return self.keys.get("replications", SWEEP_REPLICATIONS)

    def cells(self):
        """Every (model, level) the part's report must hold."""
        return [(m, lv) for m in self.models for lv in sorted(self.levels)]

    def requested(self) -> int:
        """Replications the part asks the program for."""
        return len(self.cells()) * self.replications


def _daily_mean(keys: dict) -> float:
    rates = keys.get("arrival.rates", BASE_RATES)
    return float(sum(rates)) * float(keys.get("arrival.scale", 1.0))


def _scenario_part(name: str, seed: int, moved: dict) -> Part:
    keys = {"seed": seed, "replications": SCENARIO_REPLICATIONS, **moved}
    off = (1,) if moved.get("proactive.enabled") is False else ()
    return Part(name, keys, ("des", "abs"), {1: _daily_mean(keys)},
                policy_off_levels=off)


def parts(workload: str, seed: int) -> list[Part]:
    if workload == "sweep":
        keys = {"seed": seed}
        levels = {lv: _daily_mean(keys) * SWEEP_FACTOR ** (lv - 1)
                  for lv in range(1, SWEEP_LEVELS + 1)}
        return [Part("sweep", keys, ("des", "abs"), levels,
                     from_file=False, rising=True)]
    if workload == "compare_poll":
        keys = {"seed": seed, "replications": COMPARE_REPLICATIONS,
                "proactive.check": ["exponential", 1.0]}
        mean = _daily_mean(keys)
        return [Part("compare_poll", keys, ("des",), {1: mean, 2: mean},
                     policy_off_levels=(1,), policy_on_levels=(2,),
                     hypotheses=(("H01", "mean_wait"), ("H03", "staff_util")))]
    if workload == "scenarios":
        rng = random.Random(seed)
        moves = [
            ("base", {}),
            ("fitting_deterministic",
             {"service.fitting": round(rng.uniform(7.5, 8.5), 3)}),
            ("entry_deterministic",
             {"service.job1": round(rng.uniform(0.35, 0.45), 3)}),
            ("patience_infinite", {"patience": "infinite"}),
            ("help_never", {"help.probability": 0}),
            ("help_always", {"help.probability": 1}),
            ("cubicles_1", {"cubicles": 1}),
            ("cubicles_12", {"cubicles": 12}),
            ("wait_all", {"wait.estimator": "all"}),
            ("policy_off", {"proactive.enabled": False}),
            ("policy_polling",
             {"proactive.check": ["exponential", round(rng.uniform(0.8, 1.2), 3)]}),
            ("zero_rate_hours", {"arrival.rates": rng.sample(_ZERO_HOUR_RATES, 8)}),
            ("light_day", {"arrival.scale": round(rng.uniform(0.2, 0.3), 3)}),
        ]
        return [_scenario_part(name, seed, moved) for name, moved in moves]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def scenario_text(keys: dict) -> str:
    """A scenario file in the README's format: one JSON value per key."""
    return "".join(f"{k} = {json.dumps(v)}\n" for k, v in keys.items())


def write_scenarios(plist: list[Part], directory: Path) -> list[Path]:
    """Write the scenario file of every part that has one; returns their paths."""
    paths = []
    for part in plist:
        if part.from_file:
            path = directory / f"{part.name}.cfg"
            path.write_text(scenario_text(part.keys), encoding="utf-8")
            paths.append(path)
    return paths
