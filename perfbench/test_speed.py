"""The speed scaling of speed.py on made-up tick records.

    python3 -m pytest perfbench
"""

import pytest

import speed

NOM = speed.NOMINAL_TICK_S


def test_nominal_ticks_leave_the_interval_less_the_ticks():
    ticks = [(0.1 * i, NOM, NOM) for i in range(10)]
    assert speed.nominal_s(ticks, 0.0, 1.0) == pytest.approx(1.0 - 10 * NOM)


def test_a_machine_at_half_speed_reads_half_the_time():
    ticks = [(0.1 * i, 2 * NOM, 2 * NOM) for i in range(10)]
    assert speed.nominal_s(ticks, 0.0, 1.0) == pytest.approx((1.0 - 20 * NOM) / 2)
    assert speed.nominal_cpu_s(ticks, 1.0) == pytest.approx((1.0 - 20 * NOM) / 2)


def test_only_ticks_inside_the_interval_count():
    ticks = [(0.05, NOM, NOM), (2.0, 4 * NOM, 4 * NOM)]
    assert speed.nominal_s(ticks, 0.0, 1.0) == pytest.approx(1.0 - NOM)


def test_an_interval_without_ticks_raises():
    with pytest.raises(ValueError):
        speed.nominal_s([(5.0, NOM, NOM)], 0.0, 1.0)


def test_the_reference_load_is_fixed_work():
    assert speed.tick() == speed.tick() > 0.0
