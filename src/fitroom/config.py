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
from dataclasses import dataclass, field, replace

from .engine import (MAX_DAY_ARRIVALS, ArrivalProfile, DistributionSpec, HORIZON,
                     fits_float, floats, is_int, is_number)
from .proactive import ProactivePolicy


class ConfigError(Exception):
    """Bad scenario input; the message names every offending field."""


DEFAULT_HOURLY_RATES = (20.0, 34.0, 48.0, 56.0, 56.0, 48.0, 34.0, 20.0)

# far above any day's peak occupancy
MAX_CUBICLES = 10_000

# ceiling on a day's expected polls, the one MAX_DAY_ARRIVALS puts on
# arrivals: each poll is an event, and far past it a day never ends
MAX_DAY_POLLS = MAX_DAY_ARRIVALS

_D = DistributionSpec


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
        # each range below also refuses NaN and +-inf
        horizon_ok = is_number(self.horizon) and 0 < self.horizon <= HORIZON
        need(horizon_ok,
             f"horizon: must be a positive number of minutes, at most {HORIZON:g} "
             "(the span of the arrival profile)")
        need(is_number(self.help_probability) and 0.0 <= self.help_probability <= 1.0,
             "help.probability: must lie in [0, 1]")
        need(self.wait_estimator in ("served", "all"),
             "wait.estimator: must be 'served' or 'all'")
        need(is_number(self.speedup_fraction) and 0.0 <= self.speedup_fraction < 1.0,
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
            elif horizon_ok and self.horizon > MAX_DAY_POLLS * check.mean():
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
    if is_number(v):
        return DistributionSpec.deterministic(v)
    if isinstance(v, list) and v and isinstance(v[0], str):
        return DistributionSpec(v[0], tuple(v[1:]))
    raise ValueError("expected a number or [family, params...] list")


def _spec_or_none(word: str):
    """A converter that reads ``word`` as None, anything else as a
    distribution."""
    return lambda v: None if v == word else _spec_from_value(v)


# {key: (field, converter or None)}, for ScenarioConfig's fields and for
# its ProactivePolicy's; each record checks its own fields
_FIELDS = {
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
    "patience": ("patience", _spec_or_none("infinite")),
    "proactive.speedup": ("speedup_fraction", None),
}

# per-queue thresholds; the shared proactive.threshold sets every queue
# whose own key is absent
_THRESHOLDS = {
    "proactive.threshold.entry": "threshold_entry",
    "proactive.threshold.return": "threshold_return",
    "proactive.threshold.help": "threshold_help",
}

_POLICY_FIELDS = {
    "proactive.enabled": ("enabled", None),
    "proactive.revert": ("revert_delay", _spec_from_value),
    "proactive.check": ("check_interval", _spec_or_none("event")),
    **{key: (name, None) for key, name in _THRESHOLDS.items()},
}


def build_config(values: dict, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Apply {dotted key: value} settings on top of ``base`` (or defaults).
    Each bad value is named by its key, with the message of the record that
    refused it; one ConfigError names them all."""
    cfg = base if base is not None else ScenarioConfig()
    updates: dict = {}
    arrival_rates = cfg.arrival.hourly_rates
    arrival_scale = cfg.arrival.scale
    policy = cfg.proactive
    errors = []

    for key, value in values.items():
        try:
            if key in _FIELDS:
                name, conv = _FIELDS[key]
                updates[name] = conv(value) if conv else value
            elif key in _POLICY_FIELDS:
                name, conv = _POLICY_FIELDS[key]
                policy = replace(policy, **{name: conv(value) if conv else value})
            elif key == "proactive.threshold":
                # checked on every queue, kept on those without their own
                # key, so the line order never matters
                own = {name: getattr(policy, name)
                       for k, name in _THRESHOLDS.items() if k in values}
                every = dict.fromkeys(_THRESHOLDS.values(), value)
                policy = replace(replace(policy, **every), **own)
            elif key == "arrival.rates":
                arrival_rates = floats(value, "hourly rates")
            elif key == "arrival.scale":
                if not fits_float(value):  # the profile keeps an int scale one
                    raise ValueError(f"must be a number, got {value!r}")
                arrival_scale = value
            elif key == "staff":
                if not (is_int(value) and value == 1):
                    raise ValueError("this system has exactly one staff member")
            else:
                raise ValueError("unknown key")
        except ValueError as exc:
            errors.append(f"{key}: {exc}")

    # the profile's rules past each value's type, some spanning both keys
    try:
        updates["arrival"] = ArrivalProfile(arrival_rates, arrival_scale)
    except ValueError as exc:
        errors.append(f"arrival: {exc}")
    # the dataclass checks what did convert, so one message names every bad key
    try:
        cfg = replace(cfg, proactive=policy, **updates)
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
