"""Scenario parameters: the validated config dataclass and its file loader.

Config files are flat ``key = value`` lines with ``#`` comments.  Values are
JSON (numbers, booleans, lists); bare words are taken as strings.  A
distribution is written either as a bare number (deterministic) or as a list
``[family, params...]``, e.g. ``["triangular", 1, 2, 3]``.

    seed = 42
    cubicles = 8
    arrival.rates = [20, 34, 48, 56, 56, 48, 34, 20]
    service.job1 = ["triangular", 0.2, 0.4, 0.6]
    patience = infinite
    proactive.check = ["exponential", 0.2]
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .engine import MAX_DAY_ARRIVALS, ArrivalProfile, DistributionSpec, HORIZON
from .proactive import ProactivePolicy, is_threshold


class ConfigError(Exception):
    """Bad scenario input; the message names every offending field."""


DEFAULT_HOURLY_RATES = (20.0, 34.0, 48.0, 56.0, 56.0, 48.0, 34.0, 20.0)

# far above any day's peak occupancy
MAX_CUBICLES = 10_000

# ceiling on a day's expected polls, the one MAX_DAY_ARRIVALS puts on
# arrivals: each poll is an event, and far past it a day never ends
MAX_DAY_POLLS = MAX_DAY_ARRIVALS

_D = DistributionSpec


def _is_number(v) -> bool:
    """A finite real number; booleans do not count, although Python calls
    them ints."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -math.inf < v < math.inf)


@dataclass(frozen=True)
class ScenarioConfig:
    """One store scenario.  Defaults describe the calibrated base day:
    roughly 316 expected arrivals served by one staff member and 8 cubicles,
    with the speed-up policy on."""

    arrival: ArrivalProfile = ArrivalProfile(DEFAULT_HOURLY_RATES)
    cubicles: int = 8
    job1: DistributionSpec = _D.triangular(0.2, 0.4, 0.6)
    job2: DistributionSpec = _D.triangular(0.5, 1.0, 1.5)
    job3: DistributionSpec = _D.triangular(0.1, 0.3, 0.5)
    fitting: DistributionSpec = _D.triangular(4.0, 7.0, 13.0)
    help_probability: float = 0.2
    help_fraction: DistributionSpec = _D.uniform(0.3, 0.7)
    patience: DistributionSpec | None = _D.exponential(0.04)  # None: infinite
    wait_estimator: str = "served"
    proactive: ProactivePolicy = field(default_factory=ProactivePolicy)
    speedup_fraction: float = 0.2
    horizon: float = HORIZON
    replications: int = 100
    master_seed: int = 1

    def __post_init__(self) -> None:
        errors = []

        def need(cond: bool, msg: str) -> None:
            if not cond:
                errors.append(msg)

        def is_int(v) -> bool:
            return isinstance(v, int) and not isinstance(v, bool)

        def is_spec(name: str, v) -> bool:
            ok = isinstance(v, DistributionSpec)
            need(ok, f"{name}: must be a DistributionSpec")
            return ok

        need(is_int(self.cubicles) and 1 <= self.cubicles <= MAX_CUBICLES,
             f"cubicles: must be an integer from 1 to {MAX_CUBICLES}")
        need(is_int(self.replications) and self.replications >= 1,
             "replications: must be an integer >= 1")
        need(is_int(self.master_seed) and self.master_seed >= 0,
             "seed: must be a non-negative integer")
        need(_is_number(self.horizon) and 0 < self.horizon <= HORIZON,
             f"horizon: must be a positive number of minutes, at most {HORIZON:g} "
             "(the span of the arrival profile)")
        need(_is_number(self.help_probability) and 0.0 <= self.help_probability <= 1.0,
             "help.probability: must lie in [0, 1]")
        need(self.wait_estimator in ("served", "all"),
             "wait.estimator: must be 'served' or 'all'")
        need(_is_number(self.speedup_fraction) and 0.0 <= self.speedup_fraction < 1.0,
             "proactive.speedup: must be a number in [0, 1)")
        need(isinstance(self.arrival, ArrivalProfile),
             "arrival: must be an ArrivalProfile")

        for name, spec in (("service.job1", self.job1), ("service.job2", self.job2),
                           ("service.job3", self.job3), ("service.fitting", self.fitting)):
            if is_spec(name, spec):
                need(spec.support()[0] >= 0.0, f"{name}: durations must be non-negative")
        if is_spec("help.fraction", self.help_fraction):
            lo, hi = self.help_fraction.support()
            need(0.0 <= lo and hi <= 1.0,
                 "help.fraction: must be a fraction of the fitting time, within [0, 1]")
        if self.patience is not None and is_spec("patience", self.patience):
            need(self.patience.support()[0] >= 0.0,
                 "patience: waiting tolerance must be non-negative")
        if isinstance(self.proactive, ProactivePolicy):
            need(self.proactive.revert_delay.support()[0] >= 0.0,
                 "proactive.revert: delay must be non-negative")
            check = self.proactive.check_interval
        else:
            errors.append("proactive: must be a ProactivePolicy")
            check = None
        if check is not None:
            lo, hi = check.support()
            if lo < 0.0:
                errors.append("proactive.check: polling interval must be non-negative")
            elif hi <= 0.0:
                errors.append("proactive.check: polling interval must be able to "
                              "advance time")
            # a day expects horizon / mean polls; multiplied out, so a mean
            # that underflows to 0 is refused rather than divided by
            elif _is_number(self.horizon) and self.horizon > MAX_DAY_POLLS * check.mean():
                errors.append(f"proactive.check: the day would expect more than "
                              f"{MAX_DAY_POLLS:,} polls (horizon over mean interval)")

        if errors:
            raise ConfigError("\n".join(errors))


_MAX_NESTING = 32   # a valid value is at most one list deep


def _nests_deeper(v, limit: int) -> bool:
    """Whether lists and objects nest in ``v`` more than ``limit`` deep."""
    if isinstance(v, dict):
        v = list(v.values())
    return isinstance(v, list) and (
        limit == 0 or any(_nests_deeper(x, limit - 1) for x in v))


def parse_config_text(text: str) -> dict:
    """Raw ``key = value`` lines to a {dotted key: parsed value} dict."""
    values: dict = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not (eq and key and val):
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            value = json.loads(val)
            if _nests_deeper(value, _MAX_NESTING):
                raise RecursionError  # error messages render values recursively
        except RecursionError:
            errors.append(f"line {lineno}: value nested too deeply")
            continue
        except ValueError:
            value = val  # bare word, keep as string
        values[key] = value
    if errors:
        raise ConfigError("\n".join(errors))
    return values


def _spec_from_value(v) -> DistributionSpec:
    if isinstance(v, bool):
        raise ValueError("expected a distribution, got a boolean")
    if isinstance(v, (int, float)):
        return DistributionSpec.deterministic(v)  # it rejects ints past float
    if isinstance(v, list) and v and isinstance(v[0], str):
        if not all(_is_number(x) for x in v[1:]):
            raise ValueError(f"{json.dumps(v[0])} parameters must be numbers: "
                             f"{json.dumps(v[1:])}")
        return DistributionSpec(v[0], tuple(v[1:]))
    raise ValueError("expected a number or [family, params...] list")


_THRESHOLDS = {
    "proactive.threshold": ("threshold_entry", "threshold_return", "threshold_help"),
    "proactive.threshold.entry": ("threshold_entry",),
    "proactive.threshold.return": ("threshold_return",),
    "proactive.threshold.help": ("threshold_help",),
}


def build_config(values: dict, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Apply {dotted key: value} settings on top of ``base`` (or defaults)."""
    cfg = base if base is not None else ScenarioConfig()
    updates: dict = {}
    arrival_rates = cfg.arrival.hourly_rates
    arrival_scale = cfg.arrival.scale
    policy: dict = {}
    errors = []

    setters = {
        "seed": ("master_seed", None),
        "replications": ("replications", None),
        "cubicles": ("cubicles", None),
        "horizon": ("horizon", None),
        "help.probability": ("help_probability", None),
        "wait.estimator": ("wait_estimator", None),
        "service.job1": ("job1", _spec_from_value),
        "service.job2": ("job2", _spec_from_value),
        "service.job3": ("job3", _spec_from_value),
        "service.fitting": ("fitting", _spec_from_value),
        "help.fraction": ("help_fraction", _spec_from_value),
        "proactive.speedup": ("speedup_fraction", None),
    }

    for key, value in values.items():
        try:
            if key in setters:
                fieldname, conv = setters[key]
                updates[fieldname] = conv(value) if conv else value
            elif key == "arrival.rates":
                if not (isinstance(value, list) and all(_is_number(r) for r in value)):
                    raise ValueError("expected a list of numbers, one rate per hour")
                arrival_rates = tuple(value)
            elif key == "arrival.scale":
                if not _is_number(value):
                    raise ValueError("expected a positive number")
                arrival_scale = value
            elif key == "staff":
                # int 1 only: json gives 1.0 as a float and true as a bool
                if not (type(value) is int and value == 1):
                    raise ValueError("this system has exactly one staff member")
            elif key == "patience":
                updates["patience"] = None if value == "infinite" else _spec_from_value(value)
            elif key == "proactive.enabled":
                if not isinstance(value, bool):
                    raise ValueError("expected true or false")
                policy["enabled"] = value
            elif key in _THRESHOLDS:
                if not is_threshold(value):
                    raise ValueError("expected an integer >= 1")
                # the shared key fills only what no per-queue key sets, so
                # the line order never matters
                shared = key == "proactive.threshold"
                for fieldname in _THRESHOLDS[key]:
                    if not (shared and fieldname in policy):
                        policy[fieldname] = value
            elif key == "proactive.revert":
                policy["revert_delay"] = _spec_from_value(value)
            elif key == "proactive.check":
                policy["check_interval"] = None if value == "event" else _spec_from_value(value)
            else:
                raise ValueError("unknown key")
        except ValueError as exc:
            errors.append(f"{key}: {exc}")

    try:
        updates["arrival"] = ArrivalProfile(arrival_rates, arrival_scale)
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"arrival: {exc}")
    if policy:
        try:
            updates["proactive"] = replace(cfg.proactive, **policy)
        except (TypeError, ValueError) as exc:
            errors.append(f"proactive: {exc}")
    # the dataclass checks what did convert, so one message names every bad key
    try:
        cfg = replace(cfg, **updates)
    except ConfigError as exc:
        errors.append(str(exc))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Read a config file over the defaults.  Raises ConfigError for bad
    content, a file that is not UTF-8 text included; I/O errors (missing
    file, unreadable path) propagate as OSError.  A leading byte-order mark
    is dropped after decoding, so bad bytes are still named by file offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: "
                              f"{exc.reason})") from None
    return build_config(parse_config_text(text.removeprefix("\ufeff")))
