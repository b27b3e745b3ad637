"""The benchmark's own checks pass on real reports and fail on corrupted ones.

    python3 -m pytest perfbench

Small reports are made in-process from the package under ``src/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fitroom import config, harness  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
from workloads import BASE_RATES, Part, scenario_text  # noqa: E402

DAY = float(sum(BASE_RATES))


def _cfg(keys):
    return config.build_config(config.parse_config_text(scenario_text(keys)))


@pytest.fixture(scope="module")
def sweep_case():
    keys = {"seed": 5, "replications": 20}
    part = Part("sweep", keys, ("des", "abs"),
                {lv: DAY * 1.3 ** (lv - 1) for lv in (1, 2, 3)}, rising=True)
    report = harness.sweep(_cfg(keys), harness.SweepSpec(levels=3), "both")
    return part, harness.emit_report(report)


@pytest.fixture(scope="module")
def compare_case():
    keys = {"seed": 5, "replications": 30, "proactive.check": ["exponential", 1.0]}
    part = Part("compare_poll", keys, ("des",), {1: DAY, 2: DAY},
                policy_off_levels=(1,), policy_on_levels=(2,),
                hypotheses=(("H01", "mean_wait"), ("H03", "staff_util")))
    cfg = _cfg(keys)
    text = harness.emit_report(harness.compare_experiments(cfg, "des"))
    samples = {(int(k.split("|")[0]), k.split("|")[1]): v
               for k, v in child.comparison_samples(cfg).items()}
    return part, text, samples


def _set(text, model, level, measure, column, value):
    """The report with one summary cell rewritten (column 4 mean, 6 median)."""
    out = []
    for line in text.splitlines():
        f = line.split(",")
        if len(f) == 8 and f[0] == model and f[1] == str(level) and f[3] == measure:
            f[column] = value
        out.append(",".join(f))
    return "\n".join(out) + "\n"


def _messages(failures):
    return [f.message for f in failures]


def test_real_reports_pass(sweep_case, compare_case):
    part, text = sweep_case
    assert checks.check_part(part, text) == []
    part, text, samples = compare_case
    assert checks.check_part(part, text, samples) == []


def test_des_row_differing_from_abs_row_fails(sweep_case):
    part, text = sweep_case
    bad = _set(text, "abs", 2, "mean_wait", 6, "123.456")
    failures = checks.check_part(part, bad)
    assert any("DES" in m and "ABS" in m for m in _messages(failures))
    assert checks.failed_replications([part], failures) == 2 * 20


def test_arrival_mean_out_of_range_fails(sweep_case):
    part, text = sweep_case
    rep = checks.parse_report(text)
    served = rep.rows[("des", 1, "served")][0]
    # five standard errors above the Poisson mean
    moved = DAY + 5.0 * (DAY / 20) ** 0.5 - rep.rows[("des", 1, "not_served")][0]
    assert served != pytest.approx(moved)
    bad = _set(text, "des", 1, "served", 4, f"{moved:.6g}")
    assert any("Poisson" in m for m in _messages(checks.check_arrivals(part, checks.parse_report(bad))))


def test_utilization_above_one_fails(sweep_case):
    part, text = sweep_case
    bad = _set(text, "des", 3, "staff_util", 4, "1.02")
    assert any("outside [0, 1]" in m for m in _messages(checks.check_part(part, bad)))


def test_waits_not_rising_fails(sweep_case):
    part, text = sweep_case
    bad = _set(_set(text, "des", 3, "mean_wait", 4, "0.001"), "abs", 3, "mean_wait", 4, "0.001")
    assert any("does not rise" in m for m in _messages(checks.check_part(part, bad)))


def test_changed_p_value_fails(compare_case):
    part, text, samples = compare_case
    rep = checks.parse_report(text)
    p = rep.hypotheses["H01"][0]
    lines = [ln if not ln.startswith("H01,") else ln.replace(f",{p:.6g},", f",{p * 1.001:.6g},")
             for ln in text.splitlines()]
    bad = "\n".join(lines) + "\n"
    assert bad != text
    assert any("rank-sum" in m for m in _messages(checks.check_part(part, bad, samples)))


def test_flipped_decision_fails(compare_case):
    part, text, samples = compare_case
    flip = {"reject": "fail-to-reject", "fail-to-reject": "reject"}
    lines = []
    for ln in text.splitlines():
        if ln.startswith("H03,"):
            f = ln.split(",")
            f[3] = flip[f[3]]
            ln = ",".join(f)
        lines.append(ln)
    bad = "\n".join(lines) + "\n"
    assert any("decision" in m for m in _messages(checks.check_part(part, bad, samples)))


def test_pace_changes_with_policy_off_fail(compare_case):
    part, text, samples = compare_case
    bad = _set(text, "des", 1, "service_time_changes", 4, "0.1")
    failures = checks.check_part(part, bad, samples)
    assert any("policy off" in m for m in _messages(failures))


def test_missing_cell_fails(sweep_case):
    part, text = sweep_case
    bad = "\n".join(ln for ln in text.splitlines() if not ln.startswith("abs,3,")) + "\n"
    failures = checks.check_part(part, bad)
    assert checks.failed_replications([part], failures) >= 20


def test_scenario_set_report_checks_each_part():
    parts = [Part(name, {"seed": 3, "replications": 4, **moved}, ("des", "abs"), {1: DAY},
                  policy_off_levels=off)
             for name, moved, off in (("base", {}, ()),
                                      ("policy_off", {"proactive.enabled": False}, (1,)))]
    text = "".join(f"{checks.PART_MARK}{p.name}\n"
                   + harness.emit_report(harness.run_report(_cfg(p.keys), "both"))
                   for p in parts)
    assert checks.check_report(parts, text, None) == []
    without_second = text[:text.index(f"{checks.PART_MARK}policy_off")]
    failures = checks.check_report(parts, without_second, None)
    assert checks.failed_replications(parts, failures) == 2 * 4
