"""Experiment drivers, report serialization, and the command line."""

import csv
import dataclasses
import errno
import gc
import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

import pytest

from fitroom import harness
from fitroom.abs import run_abs
from fitroom.cli import main
from fitroom.config import ScenarioConfig, build_config, parse_config_text
from fitroom.des import run_des
from fitroom.engine import (MAX_DAY_ARRIVALS, ArrivalProfile, DistributionSpec, ModelError,
                            RandomStreams, ReplicationDraws)
from fitroom.harness import (
    MEASURE_ORDER,
    MODEL_ORDER,
    ExperimentReport,
    SummaryRow,
    SweepSpec,
    _execute,
    _runner,
    _g,
    compare_experiments,
    emit_report,
    run_replications,
    run_report,
    sweep,
)
from fitroom.proactive import ProactivePolicy
from fitroom.stats import HypothesisOutcome, RunMetrics, SummaryStats


def tiny_cfg(**over):
    cfg = ScenarioConfig(replications=4, master_seed=31)
    return replace(cfg, **over) if over else cfg


# --- replications ---------------------------------------------------------------


def test_run_replications_is_ordered_and_deterministic():
    cfg = tiny_cfg()
    a = run_replications(cfg, "des")
    b = run_replications(cfg, "des")
    assert a == b and len(a) == cfg.replications
    assert len(set(a)) > 1  # replications must not repeat each other


def test_both_models_summarize_identically():
    cfg = tiny_cfg()
    assert run_replications(cfg, "des") == run_replications(cfg, "abs")


def test_run_replications_takes_one_model_only():
    with pytest.raises(ValueError):
        run_replications(tiny_cfg(), "both")
    with pytest.raises(ValueError):
        run_replications(tiny_cfg(), "hybrid")


# --- shared draws -----------------------------------------------------------------


def sharing_cells():
    """Cells that replay the same replications while differing in how they
    read the streams: another spec on one purpose, another master seed, no
    patience timers, polling, another model."""
    base = tiny_cfg(replications=3)
    hot = replace(base, arrival=base.arrival._replace(scale=1.69))
    cfgs = [
        base,
        hot,
        replace(base, job1=DistributionSpec.deterministic(0.4)),
        replace(base, patience=None),
        replace(base, proactive=ProactivePolicy(
            revert_delay=DistributionSpec.uniform(2.0, 8.0))),
        replace(base, proactive=ProactivePolicy(
            check_interval=DistributionSpec.exponential(1.0))),
        replace(base, master_seed=base.master_seed + 1),
        replace(hot, master_seed=12345, proactive=ProactivePolicy(enabled=False)),
    ]
    return [(model, cfg) for cfg in cfgs for model in ("des", "abs")]


def test_cells_sharing_replications_match_cells_run_alone():
    cells = sharing_cells()
    alone = [[_runner(m)(cfg, ReplicationDraws(rep)) for rep in range(cfg.replications)]
             for m, cfg in cells]
    assert _execute(cells) == alone
    # DES and ABS agree, and every config gives its own results
    assert len({tuple(r) for r in alone}) == len(cells) // 2


def test_shared_draws_give_the_traces_of_private_ones():
    cells = sharing_cells()
    for rep in range(2):
        shared = ReplicationDraws(rep)
        for m, cfg in cells:
            run, t_shared, t_alone = _runner(m), [], []
            assert run(cfg, shared, t_shared) == run(cfg, ReplicationDraws(rep), t_alone)
            assert t_shared == t_alone


# The three tests below watch the runner through fixtures of this process,
# which see nothing of a forked child's streams and blocks: they run on one
# CPU.


def test_sweep_opens_each_stream_once_per_replication(cpus, opened_streams):
    cpus(1)
    sweep(tiny_cfg(replications=2), SweepSpec(), model="both")
    # 10 cells, each reading arrivals, job1-3, fitting, help, patience and
    # revert; nothing polls
    assert len(opened_streams) == 2 * 8
    assert len(set(opened_streams)) == len(opened_streams)


def test_a_degenerate_day_opens_only_the_arrival_stream(cpus, opened_streams):
    cpus(1)
    cfg = tiny_cfg(
        replications=2,
        job1=DistributionSpec.deterministic(0.4),
        job2=DistributionSpec.deterministic(1.0),
        job3=DistributionSpec.deterministic(0.3),
        fitting=DistributionSpec.deterministic(7.0),
        help_probability=0.0,
        patience=None,
        proactive=ProactivePolicy(revert_delay=DistributionSpec.deterministic(5.0)),
    )
    run_report(cfg, "both")
    assert opened_streams == [(31, "arrivals", 0), (31, "arrivals", 1)]


def test_each_replications_draws_are_let_go_before_the_next(
        monkeypatch, cpus, dealt_blocks, gc_disabled):
    # with the cycle collector off, reference counting alone must free a
    # replication's draws once the runner drops it and its finished runs
    cpus(1)
    seen_alive = []
    real_init = ReplicationDraws.__init__

    def init(self, replication):
        seen_alive.append([rep for rep, ref in dealt_blocks if ref() is not None])
        real_init(self, replication)

    monkeypatch.setattr(ReplicationDraws, "__init__", init)
    sweep(tiny_cfg(replications=3), SweepSpec(levels=2), model="both")
    assert seen_alive == [[], [], []]
    assert {rep for rep, _ in dealt_blocks} == {0, 1, 2}


# Reports of a seed-42 sweep and independent comparison, pinned: a change
# to any drawn number, or to the order in which a cell reads them, shows.
_PINNED = {
    "sweep": "8bd6fc93d32aea0ff1e0770c2240d59f2892df173ca333f0c5d494289815c7d1",
    "compare": "e78d9bcafda6238486983be91e636812db8402000043ca2f8b11a505d5f3f8d6",
    "run_hot": "745044a2720004d805b965c92532f27295dd3267213565093c88acd01a0ef209",
    "compare_des_csv": "5006ba04ec0d9d952660765e5bee231dba213decbc67cbb364adb232e953c143",
    "compare_des_json": "f2a8d4de0797ebcc1f45099d597aafc9cbfb27b45b57623c5f40f1fbb1ca4a7c",
    "compare_abs_csv": "761f0f76bc4da6941c687acf1fe95a8455a073733419e8b966432ec2b971bbe5",
    "compare_abs_json": "bd8943b0f5cea9fc12b0bb2475d27c9302e98fbab9c787e8da5f24d0ac0ff188",
}


def test_reports_are_pinned(cpus):
    cfg = ScenarioConfig(master_seed=42)
    hot = replace(cfg, replications=4, arrival=cfg.arrival._replace(scale=1.7))
    for n in (1, 2):
        cpus(n)
        texts = {
            "sweep": emit_report(sweep(replace(cfg, replications=3), SweepSpec(levels=2),
                                       "both")),
            "compare": emit_report(compare_experiments(replace(cfg, replications=6), "both",
                                                       independent=True)),
            "run_hot": emit_report(run_report(hot, "both")),
        }
        # one model alone: its own hypothesis pair, in label order
        for m in ("des", "abs"):
            report = compare_experiments(replace(cfg, replications=6), m)
            for fmt in ("csv", "json"):
                texts[f"compare_{m}_{fmt}"] = emit_report(report, fmt)
        digests = {name: hashlib.sha256(t.encode()).hexdigest()
                   for name, t in texts.items()}
        assert digests == _PINNED, n


# --- processes ----------------------------------------------------------------------


def experiments():
    """Every driver's report on 5 replications, as text in each format."""
    cfg = tiny_cfg(replications=5)
    reports = {
        "run": run_report(cfg, "both"),
        "sweep": sweep(cfg, SweepSpec(levels=2), "both"),
        "compare": compare_experiments(cfg, "both"),
        "independent": compare_experiments(cfg, "both", independent=True),
    }
    return {(name, fmt): emit_report(r, fmt)
            for name, r in reports.items() for fmt in ("csv", "json")}


# 7 CPUs are more than the 5 replications
@pytest.mark.parametrize("n", [2, 3, 7])
def test_reports_are_the_same_on_any_number_of_processes(n, cpus):
    cpus(1)
    serial = experiments()
    cpus(n)
    assert experiments() == serial


@pytest.fixture
def forks(monkeypatch):
    """One entry for every os.fork() this process makes during the test."""
    made = []
    real_fork = os.fork

    def fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return made


def test_a_default_call_forks_a_child_for_each_other_cpu(cpus, forks):
    cfg = tiny_cfg(replications=5)
    cpus(1)
    serial = emit_report(run_report(cfg, "both"))
    assert forks == []
    cpus(3)
    assert emit_report(run_report(cfg, "both")) == serial
    assert len(forks) == 2


def test_run_replications_forks_like_every_driver(cpus, forks):
    cfg = tiny_cfg(replications=5)
    cpus(1)
    serial = run_replications(cfg, "des")
    assert forks == []
    cpus(3)
    assert run_replications(cfg, "des") == serial
    assert len(forks) == 2


def test_a_default_call_from_a_threaded_process_forks_nothing(cpus, forks):
    cfg = tiny_cfg(replications=5)
    cpus(1)
    serial = emit_report(run_report(cfg, "both"))
    cpus(3)
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        report = emit_report(run_report(cfg, "both"))
    finally:
        parked.set()
        thread.join()
    assert report == serial
    assert forks == []


def test_a_process_that_ignores_sigchld_forks_nothing(cpus, forks):
    # its children would be reaped by the kernel as they exit, so waiting
    # for one would fail with ECHILD
    cfg = tiny_cfg(replications=5)
    cpus(1)
    serial = emit_report(run_report(cfg, "both"))
    cpus(2)
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        report = emit_report(run_report(cfg, "both"))
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert report == serial
    assert forks == []


def test_a_platform_without_fork_runs_every_block_in_the_caller(monkeypatch, cpus):
    cells = [("des", tiny_cfg(replications=5)), ("abs", tiny_cfg(replications=3))]
    cpus(1)
    serial = _execute(cells)
    cpus(2)
    monkeypatch.delattr(os, "fork")
    assert _execute(cells) == serial


def use_runner(monkeypatch, model, run):
    """Have the harness run ``run`` wherever a cell names ``model``."""
    lookup = harness._runner
    monkeypatch.setattr(harness, "_runner", lambda m: run if m == model else lookup(m))


def fake_runner(cfg, draws):
    """A run that costs nothing and says which replication it was."""
    rep = draws.replication
    return RunMetrics(float(rep), cfg.master_seed, 0.0, rep, 0, 0)


def test_blocks_join_in_replication_order_past_the_pipe_buffer(monkeypatch, cpus, forks):
    use_runner(monkeypatch, "des", fake_runner)
    cells = [("des", tiny_cfg(replications=3000)), ("des", tiny_cfg(replications=2000))]
    cpus(3)
    results = _execute(cells)
    assert [[m.served for m in out] for out in results] == [list(range(3000)),
                                                            list(range(2000))]
    assert len(forks) == 2
    # a child's block is more than a pipe holds, so it cannot have
    # finished before the caller read it
    assert len(harness._encode(harness._run_chunk(cells, range(1000, 2000)))) > 65536

    forks.clear()
    cfg = tiny_cfg(replications=2)
    cpus(8)
    assert _execute([("des", cfg)]) == [[fake_runner(cfg, ReplicationDraws(0)),
                                                 fake_runner(cfg, ReplicationDraws(1))]]
    assert len(forks) == 1  # capped at the replication count


def test_the_pipe_format_gives_back_every_result_as_it_was():
    edges = [RunMetrics(-0.0, 5e-324, 1e308, 0, 2**40, 7),
             RunMetrics(0.1, 1 / 3, -1e-308, 316, 0, 0)]
    ran = harness._run_chunk([("des", tiny_cfg()), ("abs", tiny_cfg())], range(3))
    for results in ([edges, []], ran):
        back = harness._decode(harness._encode(results))
        assert back == results
        assert all(type(m) is RunMetrics for out in back for m in out)
        # repr tells -0.0 from 0.0 and 1 from 1.0, and gives every float's bits
        assert repr(back) == repr(results)
    assert [type(x) for x in ran[0][0]] == [float, float, float, int, int, int]


@pytest.mark.parametrize("failing", [1, 2])
def test_a_failed_fork_runs_the_rest_in_the_caller(monkeypatch, capsys, cpus, failing):
    # the process limit is hit at the ``failing``-th fork: the caller runs
    # that block and every later one itself, and the results do not change
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        if len(forks) == failing:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    cells = [("des", tiny_cfg(replications=5)), ("abs", tiny_cfg(replications=3))]
    cpus(1)
    serial = _execute(cells)
    cpus(3)
    monkeypatch.setattr(os, "fork", fork)
    assert _execute(cells) == serial
    assert len(forks) == failing
    assert capsys.readouterr().err.count("could not fork") == 1


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_childs_error_is_raised_in_the_caller(monkeypatch, capsys, cpus):
    # the child's block fails there, so the caller runs it again, and the
    # same replication fails again here
    def fail_last(cfg, draws):
        rep = draws.replication
        if rep == cfg.replications - 1:
            raise ModelError(f"replication {rep} broke in process {os.getpid()}")
        return run_des(cfg, draws)

    use_runner(monkeypatch, "des", fail_last)
    cpus(2)
    with pytest.raises(ModelError, match=rf"^replication 3 broke in process {os.getpid()}$"):
        _execute([("des", tiny_cfg())])
    err = capsys.readouterr().err
    assert err.count("fitroom: replication worker") == 1
    assert "(replications 2-3) exited with code 1" in err
    assert_no_child_is_left()


def test_a_childs_error_chains_the_childs_traceback(monkeypatch, cpus):
    def broken_replication(cfg, draws):
        if draws.replication == cfg.replications - 1:
            raise ModelError("replication broke")
        return run_des(cfg, draws)

    use_runner(monkeypatch, "des", broken_replication)
    cpus(2)
    with pytest.raises(ModelError, match="^replication broke$") as err:
        _execute([("des", tiny_cfg())])
    assert "in broken_replication" in "".join(traceback.format_exception(
        type(err.value), err.value, err.value.__traceback__))


class RebuiltWrong(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class HoldsALambda(Exception):
    """Cannot be pickled at all."""

    def __init__(self, what):
        super().__init__(what)
        self.hook = lambda: what


@pytest.mark.parametrize("make", [lambda: RebuiltWrong("broke", "rep 3"),
                                  lambda: HoldsALambda("broke")],
                         ids=["rebuilt_wrong", "holds_a_lambda"])
def test_an_unpicklable_error_is_raised_as_itself(monkeypatch, cpus, make):
    # nothing crosses the pipe but results, so an exception that cannot be
    # pickled keeps its type: the caller's own run raises it
    def unsendable_replication(cfg, draws):
        if draws.replication == cfg.replications - 1:
            raise make()
        return run_des(cfg, draws)

    use_runner(monkeypatch, "des", unsendable_replication)
    cpus(2)
    with pytest.raises((RebuiltWrong, HoldsALambda), match="broke") as err:
        _execute([("des", tiny_cfg())])
    assert type(err.value) is type(make())
    assert_no_child_is_left()


def exit_9():
    os._exit(9)


def kill_myself():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_an_error():
    raise ModelError("broke in a child only")


@pytest.mark.parametrize("die, how", [(exit_9, "exited with code 9"),
                                      (kill_myself, f"was killed by signal {signal.SIGKILL:d}"),
                                      (raise_an_error, "exited with code 1")],
                         ids=["exit_9", "sigkill", "raises"])
def test_a_block_whose_child_dies_is_run_in_the_caller(monkeypatch, capsys, cpus, die, how):
    # a child killed, out of memory or failing costs time, not the results:
    # the caller runs each lost block itself and names it on stderr
    caller = os.getpid()
    runners = {model: _runner(model) for model in MODEL_ORDER}

    def dies_in_a_child(model):
        def runner(cfg, draws):
            if os.getpid() != caller:
                die()
            return runners[model](cfg, draws)
        return runner

    cells = [("des", tiny_cfg(replications=5)), ("abs", tiny_cfg(replications=3))]
    cpus(1)
    serial = _execute(cells)
    for model in runners:
        use_runner(monkeypatch, model, dies_in_a_child(model))
    cpus(3)
    assert _execute(cells) == serial
    notes = capsys.readouterr().err.splitlines()
    assert len(notes) == 2
    for note, reps in zip(notes, ("1-2", "3-4")):
        assert note.startswith("fitroom: replication worker ")
        assert f"(replications {reps}) {how}; " in note
    assert_no_child_is_left()


@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_run_chunk_pauses_the_collector_and_restores_its_state(monkeypatch, enabled,
                                                               fails):
    seen = []

    def runner(cfg, draws):
        seen.append(gc.isenabled())
        if fails:
            raise ModelError("replication broke")
        return run_des(cfg, draws)

    use_runner(monkeypatch, "des", runner)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fails:
            with pytest.raises(ModelError):
                harness._run_chunk([("des", tiny_cfg())], range(2))
        else:
            harness._run_chunk([("des", tiny_cfg())], range(2))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


def test_a_sweep_leaves_nothing_for_the_cycle_collector(gc_disabled):
    # the premise of pausing the collector: every run is freed by
    # reference counting, so a pass after a sweep finds no garbage
    gc.collect()
    report = sweep(tiny_cfg(replications=2), SweepSpec(levels=2), model="both")
    assert len(report.rows) == 2 * 2 * len(MEASURE_ORDER)
    assert gc.collect() == 0


def test_a_failure_in_the_callers_block_leaves_no_child(monkeypatch, cpus):
    caller = os.getpid()

    def fail_in_caller(cfg, draws):
        if os.getpid() == caller:
            raise ModelError("the caller's block broke")
        time.sleep(60)  # a child still running when the caller fails
        return run_des(cfg, draws)

    use_runner(monkeypatch, "des", fail_in_caller)
    cpus(3)
    start = time.monotonic()
    with pytest.raises(ModelError, match="the caller's block broke"):
        _execute([("des", tiny_cfg())])
    assert time.monotonic() - start < 30  # the children were killed, not waited out
    assert_no_child_is_left()


_TRACED_SWEEP = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from fitroom import harness
from fitroom.config import ScenarioConfig

tracer = tracing.Tracer()
tracing.install(tracer, lambda cfg: 1, full=True)
report = harness.sweep(ScenarioConfig(master_seed=42, replications=1),
                       harness.SweepSpec(), "both")
print(json.dumps({"report": harness.emit_report(report),
                  "stats": tracer.dump()["stats"]}))
"""


def test_traced_sweep_reports_what_an_untraced_one_does():
    # the benchmark's tracer patches names in the package; each must still
    # exist and be looked up on every run, or its traced runs break
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_SWEEP, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    untraced = sweep(ScenarioConfig(master_seed=42, replications=1), SweepSpec(), "both")
    assert out["report"] == emit_report(untraced)
    stats = out["stats"]
    assert 0 < stats["engine.stream_setup"][0] <= 9
    for name in ("des.run", "abs.run", "des.setup", "abs.setup", "engine.next_arrival",
                 "engine.bernoulli", "engine.uniform", "engine.sample",
                 "engine.schedule", "proactive.note_change", "proactive.speedup",
                 "proactive.revert", "runtime.select_service", "des.renege",
                 "abs.message"):
        assert stats[name][0] > 0, name


# --- sweep ------------------------------------------------------------------------


def test_sweep_spec_validates():
    with pytest.raises(ValueError):
        SweepSpec(levels=0)
    with pytest.raises(ValueError):
        SweepSpec(growth_factor=0.0)
    # not numbers, so refused by name rather than compared with 0
    for factor in ("2", None):
        with pytest.raises(ValueError, match="growth_factor"):
            SweepSpec(growth_factor=factor)
    # True would pass as a one-level sweep, or as a growth of the int 1
    with pytest.raises(ValueError):
        SweepSpec(levels=True)
    with pytest.raises(ValueError):
        SweepSpec(growth_factor=True)


def test_sweep_scales_are_exact_powers():
    spec = SweepSpec(levels=5, growth_factor=1.3)
    assert [spec.scale_at(k) for k in range(1, 6)] == [
        1.0, 1.3, 1.3 ** 2, 1.3 ** 3, 1.3 ** 4,
    ]
    report = sweep(tiny_cfg(replications=2), spec, model="des")
    for row in report.rows:
        assert row.arrival_scale == 1.3 ** (row.level - 1)  # no drift allowed


def test_sweep_row_grid_is_complete_and_ordered():
    report = sweep(tiny_cfg(replications=2), SweepSpec(), model="both")
    assert len(report.rows) == 2 * 5 * 6
    assert report.hypotheses == ()
    keys = [(r.model, r.level, r.measure) for r in report.rows]
    expected = [
        (m, lvl, measure)
        for m in MODEL_ORDER
        for lvl in range(1, 6)
        for measure in MEASURE_ORDER
    ]
    assert keys == expected
    assert all(r.n == 2 for r in report.rows)


def test_sweep_overrides_the_configured_scale():
    cfg = tiny_cfg(replications=2)
    loaded = replace(cfg, arrival=cfg.arrival._replace(scale=9.9))
    r1 = sweep(cfg, SweepSpec(levels=2), model="des")
    r2 = sweep(loaded, SweepSpec(levels=2), model="des")
    assert r1 == r2  # the ladder, not the base config, owns the scale


# --- compare ----------------------------------------------------------------------


def test_compare_levels_and_hypothesis_order():
    report = compare_experiments(tiny_cfg(), model="both")
    assert [h.label for h in report.hypotheses] == ["H01", "H02", "H03", "H04"]
    assert {r.level for r in report.rows} == {1, 2}
    assert len(report.rows) == 2 * 2 * 6

    des_only = compare_experiments(tiny_cfg(), model="des")
    assert [h.label for h in des_only.hypotheses] == ["H01", "H03"]
    abs_only = compare_experiments(tiny_cfg(), model="abs")
    assert [h.label for h in abs_only.hypotheses] == ["H02", "H04"]


def test_compare_models_agree_on_p_values():
    report = compare_experiments(tiny_cfg(), model="both")
    by_label = {h.label: h for h in report.hypotheses}
    assert by_label["H01"].p_value == by_label["H02"].p_value
    assert by_label["H03"].p_value == by_label["H04"].p_value


def skewed_abs(cfg, draws):
    """The agent model, with one customer too many served on replication 2."""
    m = run_abs(cfg, draws)
    return m._replace(served=m.served + 1) if draws.replication == 2 else m


@pytest.mark.parametrize("drive", [
    lambda cfg, model: run_report(cfg, model),
    lambda cfg, model: sweep(cfg, SweepSpec(levels=2), model),
    lambda cfg, model: compare_experiments(cfg, model),
], ids=["run", "sweep", "compare"])
def test_a_both_run_checks_that_the_models_agree(monkeypatch, cpus, drive):
    use_runner(monkeypatch, "abs", skewed_abs)
    cpus(2)
    with pytest.raises(ModelError) as info:
        drive(tiny_cfg(), "both")
    found = re.fullmatch(r"level 1, replication 2: DES and ABS differ in served "
                         r"\((\d+) against (\d+)\)", str(info.value))
    assert found, info.value
    assert int(found[2]) == int(found[1]) + 1
    drive(tiny_cfg(), "abs")  # one model has nothing to agree with


def test_cli_whose_models_differ_exits_3_and_writes_no_report(monkeypatch, capsys,
                                                               tmp_path):
    use_runner(monkeypatch, "abs", skewed_abs)
    out = tmp_path / "report.csv"
    assert main(["run", "--replications", "4", "--seed", "31", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("fitroom: level 1, replication 2: DES and ABS "
                                   "differ in served (")


def test_zero_fraction_policy_is_statistically_invisible():
    # with a 0% speed-up the policy can fire all it wants and change
    # nothing; paired runs tie on every measure and p collapses to 1
    cfg = tiny_cfg(replications=6, speedup_fraction=0.0)
    report = compare_experiments(cfg, model="des")
    for h in report.hypotheses:
        assert h.p_value == 1.0
        assert h.decision == "fail-to-reject"


def test_zero_fraction_traces_match_outside_policy_markers():
    cfg = tiny_cfg(speedup_fraction=0.0)
    off = replace(cfg, proactive=ProactivePolicy(enabled=False))
    t_on, t_off = [], []
    run_des(cfg, ReplicationDraws(0), t_on)
    run_des(off, ReplicationDraws(0), t_off)
    visible = [e for e in t_on if e[1] not in ("speedup", "revert")]
    assert visible == t_off
    assert len(visible) < len(t_on)  # the policy did fire, silently


def test_independent_seeding_changes_b_but_not_a():
    paired = compare_experiments(tiny_cfg(), model="des")
    indep = compare_experiments(tiny_cfg(), model="des", independent=True)
    a_rows = lambda rep: [r for r in rep.rows if r.level == 1]
    b_rows = lambda rep: [r for r in rep.rows if r.level == 2]
    assert a_rows(paired) == a_rows(indep)
    assert b_rows(paired) != b_rows(indep)


def test_the_seeding_scheme_is_pinned(cpus, opened_streams):
    # a change to how a stream or B's seed is keyed fails here by name,
    # not only through the report digests
    s = RandomStreams(1).stream("arrivals", 0)
    assert [s.uniform() for _ in range(3)] == [
        0.3169197796993223, 0.29497624448811977, 0.6497606298178913]
    opened_streams.clear()
    cpus(1)
    compare_experiments(tiny_cfg(master_seed=1, replications=1), "des", independent=True)
    assert sorted({seed for seed, _, _ in opened_streams}) == [1, 3127664494]


# --- serialization -----------------------------------------------------------------


def table(report):
    """The report's summary rows and hypothesis rows as the emitted text
    should carry them: each float rounded to six significant digits."""
    rows = [[r.model, r.level, float(_g(r.arrival_scale)), r.measure,
             float(_g(r.mean)), float(_g(r.sd)), float(_g(r.median)), r.n]
            for r in report.rows]
    hyps = [[h.label, float(_g(h.p_value)), float(_g(h.alpha)), h.decision]
            for h in report.hypotheses]
    return rows, hyps


def parse_csv(text):
    """Summary and hypothesis rows of an emitted CSV report, typed as in
    ``table``."""
    lines = list(csv.reader(text.splitlines()))
    assert lines[0] == "model,level,arrival_scale,measure,mean,sd,median,n".split(",")
    cut = next((i for i, ln in enumerate(lines) if ln[0] == "hypothesis"), len(lines))
    rows = [[m, int(lv), float(sc), ms, float(a), float(b), float(c), int(n)]
            for m, lv, sc, ms, a, b, c, n in lines[1:cut]]
    hyps = [[lb, float(p), float(al), d] for lb, p, al, d in lines[cut + 1:]]
    return rows, hyps


def parse_json(text):
    doc = json.loads(text)  # must be plain JSON
    assert set(doc) == {"rows", "hypotheses"}
    return ([list(d.values()) for d in doc["rows"]],
            [list(d.values()) for d in doc["hypotheses"]])


def test_csv_round_trip_is_stable():
    report = compare_experiments(tiny_cfg(), model="both")
    text = emit_report(report, "csv")
    assert parse_csv(text) == table(report)
    assert text.endswith("\n") and "\r" not in text


def test_json_round_trip_is_stable():
    report = sweep(tiny_cfg(replications=2), SweepSpec(levels=2), model="abs")
    assert parse_json(emit_report(report, "json")) == table(report)


def test_report_formats_carry_the_same_numbers():
    report = compare_experiments(tiny_cfg(), model="des")
    assert parse_csv(emit_report(report, "csv")) == parse_json(emit_report(report, "json"))


def test_a_whole_number_scale_is_written_as_a_float():
    # a scale read from "arrival.scale = 2" is the int 2; its column is a
    # float column, so JSON writes 2.0, and CSV writes 2 as it writes 2.0
    cfg = build_config(parse_config_text("arrival.scale = 2\nreplications = 2"))
    assert type(cfg.arrival.scale) is int
    report = run_report(cfg, "des")
    text = emit_report(report, "json")
    assert [row["arrival_scale"] for row in json.loads(text)["rows"]] == [2.0] * 6
    assert text.count('"arrival_scale": 2.0,') == 6
    lines = emit_report(report, "csv").splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["2"] * 6


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(ExperimentReport(rows=()), "xml")


def test_run_report_uses_configured_scale():
    cfg = tiny_cfg(replications=2)
    cfg = replace(cfg, arrival=cfg.arrival._replace(scale=1.7))
    report = run_report(cfg, model="des")
    assert {r.arrival_scale for r in report.rows} == {1.7}
    assert {r.level for r in report.rows} == {1}


# --- command line -------------------------------------------------------------------


def test_cli_run_writes_csv_to_stdout(capsys):
    code = main(["run", "--model", "des", "--replications", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "model,level,arrival_scale,measure,mean,sd,median,n"
    assert len(lines) == 1 + 6


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text("seed = 1\nreplications = 50\n")
    code = main([
        "run", "--model", "des", "--config", str(cfg_file),
        "--replications", "2", "--proactive", "off",
    ])
    assert code == 0
    assert ",2" in capsys.readouterr().out  # n column reflects the override


def test_cli_compare_emits_hypotheses(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--model", "des", "--replications", "4", "--seed", "2",
        "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "hypothesis,p_value,alpha,decision" in text
    assert "H01," in text and "H03," in text and "H02," not in text
    _, hyps = parse_csv(text)
    assert len(hyps) == 2


def test_cli_compare_refuses_the_proactive_flag(capsys):
    # compare always runs the policy off, then on, so the flag would be ignored
    with pytest.raises(SystemExit) as exit_:
        main(["compare", "--proactive", "off"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --proactive off" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["run", "--replications", "0"], "replications"),
    (["run", "--replications", "-3"], "replications"),
    (["sweep", "--levels", "0"], "levels"),
    (["sweep", "--factor", "0"], "factor"),
    (["sweep", "--factor", "-1"], "factor"),
    (["sweep", "--factor", "nan"], "factor"),
])
def test_cli_flag_out_of_range_exits_1_naming_it(argv, name, capsys):
    # a flag's range is its record's rule, so a bad value is a bad
    # configuration, as --seed -1 is: one line, no usage text
    assert main([*argv, "--model", "des"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fitroom: ") and name in lines[0], lines


def test_cli_flag_that_is_not_a_number_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--replications", "x"])
    assert exit_.value.code == 2
    assert "argument --replications: " in capsys.readouterr().err


def test_cli_json_output_parses(capsys):
    code = main([
        "run", "--model", "abs", "--replications", "2", "--seed", "5",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["model"] == "abs"


def test_cli_bad_config_content_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("cubicles = 0\n")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "cubicles" in err



def test_cli_sweep_whose_ladder_overflows_exits_1(tmp_path, capsys):
    # 1e200 squared is past the largest float; the day is light enough that
    # level 2 expects few arrivals, so the overflow is the first fault
    cfg = tmp_path / "light.cfg"
    cfg.write_text("arrival.rates = [0, 0, 0, 0, 0, 0, 0, 1e-250]\n")
    assert main(["sweep", "--levels", "3", "--factor", "1e200",
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("fitroom: sweep level 3: arrival scale ")


def test_cli_sweep_level_that_overflows_a_scenario_rate_exits_1(tmp_path, capsys):
    # each level's scale is finite; the scenario's rates times level 2's are not
    cfg = tmp_path / "busy.cfg"
    cfg.write_text("arrival.rates = [1e4, 1e4, 1e4, 1e4, 1e4, 1e4, 1e4, 1e4]\n")
    assert main(["sweep", "--levels", "2", "--factor", "1e305",
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("fitroom: sweep level 2: hour 1: ")


def test_cli_sweep_level_past_the_arrival_ceiling_exits_1(capsys):
    # level 3 of the base day at growth 100 expects 3.16 million arrivals
    assert main(["sweep", "--levels", "3", "--factor", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fitroom: sweep level 3: the day's 3.16e+06 expected arrivals")
    assert err.rstrip().endswith(f"exceed {MAX_DAY_ARRIVALS:,}")

def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "ghost.cfg")]) == 2
    assert "ghost.cfg" in capsys.readouterr().err


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    code = main([
        "run", "--model", "des", "--replications", "2", "--out", str(target),
    ])
    assert code == 2


def test_importing_the_cli_loads_no_unused_library():
    # start-up is a fixed cost of every run: summaries need only math, and
    # a child's results cross the pipe in marshal's format
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys; before = set(sys.modules); import fitroom.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "fitroom.cli" in loaded
    assert loaded.isdisjoint({"statistics", "fractions", "decimal", "pickle", "fitroom.abs"})
    # the agent model loads when a plan names it, so a DES-only run never
    # compiles it; the caller imports it before forking, so the one child of
    # a run on two CPUs starts with it
    for model, loads_abs in (("des", False), ("abs", True)):
        run = subprocess.run(
            [sys.executable, "-c",
             "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
             "os.register_at_fork(after_in_child=lambda: print("
             "'child', 'fitroom.abs' in sys.modules, file=sys.stderr)); "
             "from fitroom.cli import main; "
             f"code = main(['compare', '--model', '{model}', '--replications', '2', "
             "'--out', os.devnull]); print(code, 'fitroom.abs' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert (run.stdout, run.stderr) == (f"0 {loads_abs}\n", f"child {loads_abs}\n"), model
    # annotations are strings, so nothing needs typing at run time; without
    # site, no .pth file in site-packages can load it first
    bare = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, fitroom.cli; print('typing' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert bare.returncode == 0, bare.stderr
    assert bare.stdout == "False\n"


def test_only_the_input_types_are_dataclasses():
    classes = [v for name in ("abs", "cli", "config", "des", "engine", "harness",
                              "proactive", "runtime", "stats")
               for mod in [importlib.import_module(f"fitroom.{name}")]
               for v in vars(mod).values()
               if isinstance(v, type) and v.__module__ == mod.__name__]
    made = sorted(c.__name__ for c in classes if dataclasses.is_dataclass(c))
    assert made == ["ProactivePolicy", "ScenarioConfig"], (
        "each dataclass costs about 0.9 ms of every start-up, to generate and "
        "exec its methods; a record is a named tuple (stats.record), checked by "
        "its _check.  These two stay dataclasses while the benchmark's child "
        "process calls dataclasses.replace on them")
    records = (RunMetrics, SummaryStats, HypothesisOutcome, SummaryRow, ExperimentReport,
               DistributionSpec, ArrivalProfile, SweepSpec)
    assert all(issubclass(r, tuple) for r in records)


def test_cli_subprocess_end_to_end(tmp_path):
    # the real interpreter boundary, twice, to pin byte determinism
    cmd = [
        sys.executable, "-m", "fitroom", "sweep", "--model", "des",
        "--levels", "2", "--replications", "2", "--seed", "11",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("model,level,arrival_scale,")


_ONE_CPU_CLI = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def fork():
    raise AssertionError("forked on one CPU")

os.fork = fork
from fitroom.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform keeps no CPU affinity mask")
def test_cli_on_one_cpu_runs_in_process_with_the_same_bytes():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    args = ["compare", "--seed", "11", "--replications", "3", "--format", "json"]
    pinned = subprocess.run([sys.executable, "-c", _ONE_CPU_CLI, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    free = subprocess.run([sys.executable, "-m", "fitroom", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert pinned.returncode == 0, pinned.stderr
    assert free.returncode == 0, free.stderr
    serial = compare_experiments(replace(ScenarioConfig(master_seed=11), replications=3))
    assert pinned.stdout == free.stdout == emit_report(serial, "json")


_FORK_FAILS_CLI = """
import errno, os, sys
from fitroom import cli

def fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1, 2}
raise SystemExit(cli.main(sys.argv[1:]))
"""


def test_cli_whose_forks_fail_prints_the_serial_report():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    args = ["run", "--model", "both", "--seed", "11", "--replications", "3"]
    done = subprocess.run([sys.executable, "-c", _FORK_FAILS_CLI, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    serial = run_report(replace(ScenarioConfig(master_seed=11), replications=3))
    assert done.stdout == emit_report(serial)
    assert done.stderr.count("could not fork") == 1


_CHILDREN_DIE_CLI = """
import os, sys
from fitroom import cli, harness

caller = os.getpid()
run_chunk = harness._run_chunk

def run_chunk_or_die(cells, reps):
    if os.getpid() != caller:
        os._exit(9)  # as a child killed for memory would, without its results
    return run_chunk(cells, reps)

harness._run_chunk = run_chunk_or_die
os.sched_getaffinity = lambda pid: {0, 1, 2}
raise SystemExit(cli.main(sys.argv[1:]))
"""


def test_cli_whose_children_die_prints_the_serial_report():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    args = ["run", "--model", "both", "--seed", "11", "--replications", "3"]
    done = subprocess.run([sys.executable, "-c", _CHILDREN_DIE_CLI, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    serial = run_report(replace(ScenarioConfig(master_seed=11), replications=3))
    assert done.stdout == emit_report(serial)
    notes = done.stderr.splitlines()
    assert len(notes) == 2
    assert all(n.startswith("fitroom: replication worker ") and "exited with code 9" in n
               for n in notes)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="the platform has no /proc/self/task")
def test_importing_the_cli_starts_no_thread():
    # the runner forks from the CLI's process; a fork of a process with
    # more than one thread is unsafe, and deprecated from Python 3.12 on
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, fitroom.cli; print(len(os.listdir('/proc/self/task')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


_NO_NUMPY_CLI = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fitroom.cli import main
raise SystemExit(main(["sweep", "--levels", "2", "--replications", "2"]))
"""


def test_the_cli_needs_no_numpy():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_CLI], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    expected = sweep(replace(ScenarioConfig(), replications=2), SweepSpec(levels=2))
    assert done.stdout == emit_report(expected)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, fitroom.cli; print(sorted(m for m in sys.modules"
         " if m.partition('.')[0] == 'numpy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout == "[]\n"
