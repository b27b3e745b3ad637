"""Scenario validation and the flat key = value file format."""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fitroom.config import (
    DEFAULT_HOURLY_RATES,
    MAX_CUBICLES,
    ConfigError,
    ScenarioConfig,
    build_config,
    load_config,
    parse_config_text,
)
from fitroom.abs import run_abs
from fitroom.des import run_des
from fitroom.engine import MAX_DAY_ARRIVALS, ArrivalProfile, DistributionSpec, ReplicationDraws
from fitroom.proactive import ProactivePolicy
from helpers import durations


def write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# --- dataclass validation -----------------------------------------------------


def test_defaults_are_a_valid_scenario():
    cfg = ScenarioConfig()
    assert cfg.cubicles == 8
    assert cfg.arrival.hourly_rates == DEFAULT_HOURLY_RATES
    assert sum(cfg.arrival.hourly_rates) * cfg.arrival.scale == 316.0
    assert cfg.proactive.enabled


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("cubicles", 0, "cubicles"),
        ("cubicles", 2.5, "cubicles"),
        ("cubicles", MAX_CUBICLES + 1, "cubicles"),
        ("replications", 0, "replications"),
        ("master_seed", -1, "seed"),
        ("horizon", 0.0, "horizon"),
        ("help_probability", 1.5, "help.probability"),
        ("help_probability", -0.1, "help.probability"),
        ("wait_estimator", "median", "wait.estimator"),
        ("speedup_fraction", 1.0, "proactive.speedup"),
        ("job2", DistributionSpec.uniform(-1.0, 2.0), "service.job2"),
        ("patience", DistributionSpec.deterministic(-3.0), "patience"),
        ("help_fraction", DistributionSpec.uniform(0.5, 1.2), "help.fraction"),
        ("speedup_fraction", -0.1, "proactive.speedup"),
        ("proactive", ProactivePolicy(check_interval=DistributionSpec.uniform(-1.0, 1.0)),
         "proactive.check: polling interval must be non-negative"),
        ("proactive", ProactivePolicy(check_interval=DistributionSpec.exponential(1e9)),
         "proactive.check: the day would expect more than 1,000,000 polls"),
        # a library caller's wrong type is named, not met inside a run
        ("job1", 0.4, "service.job1: must be a DistributionSpec"),
        ("fitting", "7", "service.fitting: must be a DistributionSpec"),
        ("patience", 25, "patience: must be a DistributionSpec"),
        ("help_fraction", 0.5, "help.fraction: must be a DistributionSpec"),
        ("proactive", None, "proactive: must be a ProactivePolicy"),
        ("arrival", (20.0,) * 8, "arrival: must be an ArrivalProfile"),
    ],
)
def test_each_bad_field_is_named(field, value, fragment):
    with pytest.raises(ConfigError) as err:
        replace(ScenarioConfig(), **{field: value})
    assert fragment in str(err.value)


@pytest.mark.parametrize("value", ["2", True, 10 ** 400, None])
def test_a_scale_that_is_not_a_number_is_named_as_one(value):
    # one value, not a sequence; an int past float's range is refused, not
    # met by math.isfinite, which would raise OverflowError on it
    with pytest.raises(ConfigError) as err:
        build_config({"arrival.scale": value})
    assert str(err.value) == f"arrival.scale: must be a number, got {value!r}"
    with pytest.raises(ValueError) as err:
        ArrivalProfile(DEFAULT_HOURLY_RATES, value)
    assert str(err.value) == f"scale must be a number, got {value!r}"


def test_all_problems_reported_at_once():
    with pytest.raises(ConfigError) as err:
        build_config({"cubicles": 0, "staff": 3, "help.probability": 7.0})
    msg = str(err.value)
    assert "cubicles" in msg and "staff" in msg and "help.probability" in msg


def test_bool_is_not_an_acceptable_count():
    with pytest.raises(ConfigError):
        ScenarioConfig(cubicles=True)


# --- text parsing ---------------------------------------------------------------


def test_parse_basic_forms():
    values = parse_config_text(
        """
        # base day
        seed = 42
        arrival.scale = 1.3   # pushed a bit
        patience = infinite
        service.job1 = ["triangular", 0.2, 0.4, 0.6]
        proactive.enabled = true
        """
    )
    assert values == {
        "seed": 42,
        "arrival.scale": 1.3,
        "patience": "infinite",
        "service.job1": ["triangular", 0.2, 0.4, 0.6],
        "proactive.enabled": True,
    }


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed 42\nvalid = 1\n= 3\n")
    msg = str(err.value)
    assert "line 1" in msg and "line 3" in msg and "line 2" not in msg


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\nseed = 2\n")
    assert "duplicate" in str(err.value)


# --- building -------------------------------------------------------------------


def test_minimal_file_keeps_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "seed = 9\n"))
    assert cfg.master_seed == 9
    assert cfg == replace(ScenarioConfig(), master_seed=9)


def test_the_readme_example_is_the_defaults_but_seed_and_scale():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    defaults = ScenarioConfig()
    assert build_config(parse_config_text(example)) == replace(
        defaults, master_seed=42, arrival=defaults.arrival._replace(scale=1.3))


def test_full_file_round_trip(tmp_path):
    text = """
    seed = 4
    replications = 12
    cubicles = 5
    horizon = 240
    arrival.rates = [10, 10, 10, 10, 10, 10, 10, 10]
    arrival.scale = 2.0
    service.job1 = 0.5
    service.fitting = ["uniform", 5, 9]
    help.probability = 0.35
    help.fraction = ["uniform", 0.4, 0.6]
    patience = ["exponential", 0.1]
    wait.estimator = all
    proactive.enabled = true
    proactive.threshold = 4
    proactive.threshold.help = 2
    proactive.revert = ["exponential", 0.25]
    proactive.check = ["deterministic", 5]
    proactive.speedup = 0.3
    """
    cfg = load_config(write(tmp_path, text))
    assert cfg.replications == 12
    assert cfg.cubicles == 5
    assert cfg.horizon == 240
    assert cfg.arrival == ArrivalProfile((10.0,) * 8, 2.0)
    assert cfg.job1 == DistributionSpec.deterministic(0.5)
    assert cfg.fitting == DistributionSpec.uniform(5.0, 9.0)
    assert cfg.help_probability == 0.35
    assert cfg.patience == DistributionSpec.exponential(0.1)
    assert cfg.wait_estimator == "all"
    assert cfg.proactive.threshold_entry == 4
    assert cfg.proactive.threshold_return == 4
    assert cfg.proactive.threshold_help == 2
    assert cfg.proactive.revert_delay == DistributionSpec.exponential(0.25)
    assert cfg.proactive.check_interval == DistributionSpec.deterministic(5.0)
    assert cfg.speedup_fraction == 0.3


@pytest.mark.parametrize("lines", [
    ["proactive.threshold.entry = 5", "proactive.threshold = 2"],
    ["proactive.threshold = 2", "proactive.threshold.entry = 5"],
], ids=["per_queue_first", "shared_first"])
def test_a_per_queue_threshold_wins_whatever_the_line_order(tmp_path, lines):
    cfg = load_config(write(tmp_path, "\n".join(lines) + "\n"))
    assert cfg.proactive.threshold_entry == 5
    assert cfg.proactive.threshold_return == 2
    assert cfg.proactive.threshold_help == 2


def test_patience_infinite_maps_to_none(tmp_path):
    cfg = load_config(write(tmp_path, "patience = infinite\n"))
    assert cfg.patience is None


def test_proactive_check_event_means_event_driven(tmp_path):
    cfg = load_config(
        write(tmp_path, 'proactive.check = ["deterministic", 5]\n')
    )
    assert cfg.proactive.check_interval is not None
    cfg2 = build_config({"proactive.check": "event"}, base=cfg)
    assert cfg2.proactive.check_interval is None


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError) as err:
        build_config({"cubicle_count": 3})
    assert "cubicle_count" in str(err.value)


def test_bad_values_are_attributed_to_their_keys():
    with pytest.raises(ConfigError) as err:
        build_config(
            {
                "service.job1": ["gaussian", 1, 2],
                "arrival.rates": [1, 2, 3],
                "proactive.enabled": "yes",
            }
        )
    msg = str(err.value)
    assert "service.job1" in msg
    assert "arrival" in msg
    assert "proactive.enabled" in msg


_SCALAR_KEYS = (
    "horizon",
    "help.probability",
    "proactive.speedup",
    "arrival.scale",
    "proactive.threshold",
    "proactive.threshold.entry",
    "proactive.threshold.return",
    "proactive.threshold.help",
)
_DISTRIBUTION_KEYS = ("service.job1", "help.fraction", "patience", "proactive.revert",
                      "proactive.check")


@pytest.mark.parametrize(
    "key, value",
    [pytest.param(key, True, id=key) for key in _SCALAR_KEYS] + [
        # inside a list as well
        pytest.param("arrival.rates", [True, 34, 48, 56, 56, 48, 34, 20],
                     id="arrival.rates"),
        pytest.param("service.job1", ["uniform", True, 2], id="service.job1"),
        pytest.param("help.fraction", ["uniform", 0, True], id="help.fraction"),
        pytest.param("patience", ["exponential", True], id="patience"),
        pytest.param("proactive.revert", ["exponential", True], id="proactive.revert"),
        pytest.param("proactive.check", ["exponential", False], id="proactive.check"),
    ] + [
        # nor are quoted numbers, which float() would parse
        pytest.param(key, "2", id=f"{key}-quoted") for key in _SCALAR_KEYS
    ] + [
        pytest.param(key, ["uniform", "1", 2], id=f"{key}-quoted")
        for key in _DISTRIBUTION_KEYS
    ] + [
        pytest.param("arrival.rates", ["20"] * 8, id="arrival.rates-quoted"),
    ],
)
def test_booleans_are_not_numbers(key, value):
    # JSON true would otherwise pass as 1 (horizon = true ran a 1-minute day)
    with pytest.raises(ConfigError) as err:
        build_config({key: value})
    assert str(err.value).startswith(f"{key}:")


def test_a_word_for_the_speedup_is_named_not_a_crash(tmp_path, capsys):
    from fitroom.cli import main

    with pytest.raises(ConfigError) as err:
        build_config({"proactive.speedup": "fast"})
    assert str(err.value).startswith("proactive.speedup:")
    path = write(tmp_path, "proactive.speedup = fast\n")
    assert main(["run", "--model", "des", "--replications", "1", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("fitroom: proactive.speedup: ")



def test_an_arrival_rate_that_overflows_is_named_not_run(tmp_path, capsys):
    # each value is finite, so the file parses; the rate per minute is not,
    # and a run would add arrivals at t = 0 until memory ran out
    from fitroom.cli import main

    rates = "[" + ", ".join(["1e308"] * 8) + "]"
    with pytest.raises(ConfigError) as err:
        build_config({"arrival.rates": [1e308] * 8, "arrival.scale": 10})
    assert str(err.value).startswith("arrival: hour 1: ")
    path = write(tmp_path, f"arrival.rates = {rates}\narrival.scale = 10\n")
    assert main(["run", "--model", "des", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("fitroom: arrival: hour 1: ")

def test_a_day_at_the_arrival_ceiling_loads():
    cfg = build_config({"arrival.rates": [MAX_DAY_ARRIVALS / 8] * 8})
    assert sum(cfg.arrival.hourly_rates) == MAX_DAY_ARRIVALS


@pytest.mark.parametrize("scale", ["3165", "1e200"])
def test_a_day_past_the_arrival_ceiling_is_named_not_run(scale, tmp_path, capsys):
    # every hour's rate is finite, but past about 1e13 times the base day an
    # arrival's gap no longer moves the clock, and the day would never end
    from fitroom.cli import main

    path = write(tmp_path, f"arrival.scale = {scale}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith("arrival: the day's ")
    assert str(err.value).endswith(f"expected arrivals (the rates' sum times the "
                                   f"scale) exceed {MAX_DAY_ARRIVALS:,}")
    assert main(["run", "--model", "des", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("fitroom: arrival: the day's ")


@pytest.mark.parametrize("horizon", [480, 480.0, 240, 0.5])
def test_a_horizon_within_the_arrival_profile_loads(horizon):
    assert build_config({"horizon": horizon}).horizon == horizon


@pytest.mark.parametrize("horizon", [480.001, 10000])
def test_a_horizon_past_the_arrival_profile_is_rejected(horizon):
    # arrivals stop at 480 minutes; a longer day would only dilute the
    # utilizations with empty store time
    with pytest.raises(ConfigError) as err:
        build_config({"horizon": horizon})
    assert "horizon" in str(err.value) and "480" in str(err.value)


def test_non_numeric_distribution_parameters_are_named():
    with pytest.raises(ConfigError) as err:
        build_config({"patience": ["exponential", None]})
    assert str(err.value).startswith("patience:")


def test_threshold_validation_travels_through(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "proactive.threshold = 0\n"))
    assert "proactive" in str(err.value)


def test_build_layers_on_a_base():
    base = build_config({"seed": 5, "cubicles": 4})
    layered = build_config({"replications": 3}, base=base)
    assert layered.master_seed == 5
    assert layered.cubicles == 4
    assert layered.replications == 3


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "nope.cfg"))


def test_a_file_that_is_not_utf8_is_named_not_a_crash(tmp_path, capsys):
    from fitroom.cli import main

    path = tmp_path / "latin1.cfg"
    path.write_bytes("# caf\xe9\nseed = 3\n".encode("latin-1"))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}: not UTF-8")
    assert main(["run", "--model", "des", "--replications", "1", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"fitroom: {path}: not UTF-8")


def test_a_byte_order_mark_and_crlf_endings_load_as_the_plain_file(tmp_path, capsys):
    # Windows Notepad writes both by default
    from fitroom.cli import main

    plain = write(tmp_path, "seed = 3\nreplications = 2\n", "plain.cfg")
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbfseed = 3\r\nreplications = 2\r\n")
    assert load_config(str(marked)) == load_config(plain)
    reports = []
    for path in (plain, str(marked)):
        assert main(["run", "--model", "des", "--config", path]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # a bad byte is still named by its offset in the file, mark included
    marked.write_bytes(b"\xef\xbb\xbf# caf\xe9\n")
    with pytest.raises(ConfigError, match="byte 8:"):
        load_config(str(marked))


@pytest.mark.parametrize("value", [
    "[" * 100_000,
    '["uniform", ' + "[" * 990,
    # json parses this one; rendering it in the parameter error would not
    '["uniform", ' + "[" * 990 + "]" * 990 + "]",
], ids=["unclosed", "unclosed_params", "closed_params"])
def test_a_value_nested_too_deeply_is_named_not_a_crash(value, tmp_path, capsys):
    from fitroom.cli import main

    path = write(tmp_path, f"# deep\nservice.job1 = {value}\n")
    with pytest.raises(ConfigError, match="^line 2: value nested too deeply$"):
        load_config(path)
    assert main(["run", "--model", "des", "--replications", "1", "--config", path]) == 1
    assert capsys.readouterr().err == "fitroom: line 2: value nested too deeply\n"


@pytest.mark.parametrize("key", ["service.job1", "service.fitting", "help.fraction",
                                 "patience", "proactive.revert", "proactive.check"])
def test_a_duration_past_the_largest_float_is_named_not_a_crash(key):
    # JSON reads 1e400 as inf, but 10**400 written out as an int stays one
    with pytest.raises(ConfigError) as err:
        build_config(parse_config_text(f"{key} = {10 ** 400}"))
    assert str(err.value).startswith(f"{key}: deterministic parameters must be finite")


def test_a_family_name_cannot_break_the_message_into_lines():
    with pytest.raises(ConfigError) as err:
        build_config({"patience": ["a\nb", "x"]})
    assert str(err.value) == "patience: unknown distribution family 'a\\nb'"
    # nor can a parameter of a known family
    with pytest.raises(ConfigError) as err:
        build_config({"patience": ["exponential", "a\nb"]})
    assert str(err.value) == ("patience: exponential parameters must be finite numbers: "
                              "('a\\nb',)")


def test_non_numeric_distribution_params_rejected():
    with pytest.raises(ConfigError):
        build_config({"service.job1": ["uniform", "a", "b"]})


# --- staff and cubicle counts ------------------------------------------------------


def test_one_staff_member_loads():
    assert build_config({"staff": 1}) == ScenarioConfig()


@pytest.mark.parametrize("value", [2, 0, 1.0, True, "one", [1]])
def test_any_other_staff_count_is_rejected(value):
    with pytest.raises(ConfigError) as err:
        build_config({"staff": value})
    assert str(err.value) == "staff: this system has exactly one staff member"


def test_the_cubicle_ceiling_loads():
    assert build_config({"cubicles": MAX_CUBICLES}).cubicles == MAX_CUBICLES


@pytest.mark.parametrize("count", [MAX_CUBICLES + 1, 10 ** 20])
def test_a_cubicle_count_past_the_ceiling_is_named_not_run(count, tmp_path, capsys):
    # the ceiling is input validation: a count past it, however large, is
    # named and never run
    from fitroom.cli import main

    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, f"cubicles = {count}\n"))
    assert str(err.value).startswith("cubicles:")
    path = write(tmp_path, f"cubicles = {count}\n")
    assert main(["run", "--model", "abs", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("fitroom: cubicles: ")


# --- any scenario text either loads or names its bad keys ----------------------------

_KEYS = (
    "seed", "replications", "cubicles", "staff", "horizon", "help.probability",
    "wait.estimator", "service.job1", "service.job2", "service.job3",
    "service.fitting", "help.fraction", "proactive.speedup", "arrival.rates",
    "arrival.scale", "patience", "proactive.enabled", "proactive.threshold",
    "proactive.threshold.entry", "proactive.threshold.return",
    "proactive.threshold.help", "proactive.revert", "proactive.check",
)

_numbers = (st.sampled_from([0, 1, -1, 0.5, 480, MAX_CUBICLES + 1, 2 ** 63, 10 ** 20,
                             10 ** 400, -10 ** 400, 1e308, float("inf"), float("nan")])
            | st.integers() | st.floats())
_words = st.sampled_from(["infinite", "event", "served", "all", "fast", "yes",
                          "deterministic", "exponential", "uniform", "triangular"])
_strings = _words | st.sampled_from(["", "a\nb", "#", "=", "["]) | st.text(max_size=6)
_scalars = _numbers | st.booleans() | _strings
_values = (_scalars
           | st.lists(_scalars, max_size=9)
           | st.tuples(_strings, _scalars).map(list)
           | st.tuples(_words, _numbers, _numbers, _numbers).map(list))


def _durations(lo, hi):
    """A duration of any family, parameters in [lo, hi], as a file writes it."""
    return durations(lo, hi).map(lambda spec: [spec.family, *spec.params])


_count = st.integers(1, 10)

# each key's valid values, which every line draws from four times in five
_VALID = {
    "seed": st.integers(0, 2 ** 32),
    "replications": st.integers(1, 100),
    "cubicles": st.integers(1, MAX_CUBICLES),
    "staff": st.just(1),
    "horizon": st.floats(0.01, 480.0),
    "help.probability": st.floats(0.0, 1.0),
    "wait.estimator": st.sampled_from(["served", "all"]),
    "service.job1": _durations(0.0, 2.0),
    "service.job2": _durations(0.0, 2.0),
    "service.job3": _durations(0.0, 2.0),
    "service.fitting": _durations(0.0, 15.0),
    "help.fraction": _durations(0.0, 1.0),
    "proactive.speedup": st.floats(0.0, 0.95),
    "arrival.rates": st.lists(st.floats(0.0, 100.0), min_size=8, max_size=8),
    "arrival.scale": st.floats(0.01, 100.0),
    "patience": st.just("infinite") | _durations(0.0, 30.0),
    "proactive.enabled": st.booleans(),
    "proactive.threshold": _count,
    "proactive.threshold.entry": _count,
    "proactive.threshold.return": _count,
    "proactive.threshold.help": _count,
    "proactive.revert": _durations(0.0, 20.0),
    "proactive.check": st.just("event") | _durations(0.5, 10.0),
}
assert set(_VALID) == set(_KEYS)


@st.composite
def _scenario_values(draw):
    keys = draw(st.lists(st.sampled_from(_KEYS), unique=True, max_size=6))
    return {k: draw(_VALID[k] if draw(st.sampled_from((1, 1, 1, 1, 0))) else _values)
            for k in keys}


def _line(key, value):
    # strings go in bare or as JSON text; everything else as JSON
    if isinstance(value, str) and value.isidentifier():
        return f"{key} = {value}"
    return f"{key} = {json.dumps(value)}"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_scenario_values(), st.floats(0.5, 15.0), st.floats(0.01, 2.0))
def test_any_scenario_text_loads_or_names_its_bad_keys(values, horizon, scale):
    text = "\n".join(_line(k, v) for k, v in values.items())
    try:
        cfg = build_config(parse_config_text(text))
    except ConfigError as exc:
        for line in str(exc).split("\n"):
            assert (line.split(":", 1)[0] in values
                    or line.startswith(("line ", "arrival:"))), line
        return
    # what loads, runs: one replication of both models, on a day cut to a
    # small horizon and scale so that it stays short; a shorter, lighter day
    # passes every check the loaded one did.  The heavy corners run in CI
    cfg = replace(cfg, horizon=min(cfg.horizon, horizon),
                  arrival=cfg.arrival._replace(scale=min(cfg.arrival.scale, scale)))
    draws = ReplicationDraws(0)
    assert run_des(cfg, draws) == run_abs(cfg, draws)
