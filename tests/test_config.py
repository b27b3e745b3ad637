"""Scenario validation and the flat key = value file format."""

from dataclasses import replace

import pytest

from fitroom.config import (
    DEFAULT_HOURLY_RATES,
    ConfigError,
    ScenarioConfig,
    build_config,
    load_config,
    parse_config_text,
)
from fitroom.engine import ArrivalProfile, DistributionSpec


def write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# --- dataclass validation -----------------------------------------------------


def test_defaults_are_a_valid_scenario():
    cfg = ScenarioConfig()
    assert cfg.cubicles == 8
    assert cfg.staff_count == 1
    assert cfg.arrival.hourly_rates == DEFAULT_HOURLY_RATES
    assert cfg.arrival.expected_daily() == 316.0
    assert cfg.proactive.enabled


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("cubicles", 0, "cubicles"),
        ("cubicles", 2.5, "cubicles"),
        ("staff_count", 2, "staff"),
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
    ],
)
def test_each_bad_field_is_named(field, value, fragment):
    with pytest.raises(ConfigError) as err:
        replace(ScenarioConfig(), **{field: value})
    assert fragment in str(err.value)


def test_all_problems_reported_at_once():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(cubicles=0, staff_count=3, help_probability=7.0)
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


@pytest.mark.parametrize(
    "key, value",
    [pytest.param(key, True, id=key) for key in (
        "horizon",
        "help.probability",
        "proactive.speedup",
        "arrival.scale",
        "proactive.threshold",
        "proactive.threshold.entry",
        "proactive.threshold.return",
        "proactive.threshold.help",
    )] + [
        # inside a list as well
        pytest.param("arrival.rates", [True, 34, 48, 56, 56, 48, 34, 20],
                     id="arrival.rates"),
        pytest.param("service.job1", ["uniform", True, 2], id="service.job1"),
        pytest.param("help.fraction", ["uniform", 0, True], id="help.fraction"),
        pytest.param("patience", ["exponential", True], id="patience"),
        pytest.param("proactive.revert", ["exponential", True], id="proactive.revert"),
        pytest.param("proactive.check", ["exponential", False], id="proactive.check"),
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


def test_non_numeric_distribution_params_rejected():
    with pytest.raises(ConfigError):
        build_config({"service.job1": ["uniform", "a", "b"]})
