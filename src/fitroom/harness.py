"""Experiment drivers: replication batches, the arrival-pressure sweep, and
the paired policy comparison, plus report serialization.

Each driver builds one experiment plan, a list of (model, level, config)
entries, and ``_run_plan`` runs it on one runner, ``_execute``, and folds
every entry's results into summary rows.  The runner imports the agent
model when a plan first names it, and shares the replications among forked
processes, one per CPU this process may run on; ``_processes`` is the one
rule for how many, and no caller picks another.

Reports are flat tables.  Every summary row is one (model, load level,
measure) cell; a comparison report carries hypothesis rows after the summary
rows.  Serialization is deterministic: same report in, same bytes out, so
repeated runs with the same seed can be compared byte for byte.
"""

from __future__ import annotations

import gc
import json
import marshal
import os
import random
import signal
import sys
import threading
from collections.abc import Callable, Sequence
from dataclasses import replace

from .config import ConfigError, ScenarioConfig
from .des import run_des
from .engine import ModelError, ReplicationDraws, is_int, is_number
from .stats import (HypothesisOutcome, RunMetrics, decide, mann_whitney_u, record,
                    summarize)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import BinaryIO

MODEL_ORDER = ("des", "abs")
MEASURE_ORDER = RunMetrics._fields


def _runner(model: str) -> Callable[..., RunMetrics]:
    """The run function of ``model``; the agent model's is imported on first use."""
    if model == "des":
        return run_des
    if model == "abs":
        from .abs import run_abs
        return run_abs
    raise ValueError(f"unknown model {model!r}; expected 'des' or 'abs'")


def _models_for(model: str) -> tuple[str, ...]:
    if model == "both":
        return MODEL_ORDER
    if model in MODEL_ORDER:
        return (model,)
    raise ValueError(f"unknown model {model!r}; expected 'des', 'abs', or 'both'")


# A cell is one (model, config) pair of an experiment; every cell runs the
# config's replications.
Cell = tuple[str, ScenarioConfig]


def _run_chunk(cells: Sequence[Cell], reps: range) -> list[list[RunMetrics]]:
    """Run replications ``reps`` of every cell; returns each cell's results
    in replication order.

    Replications run on the outside and cells on the inside, so all cells
    of replication r read one ReplicationDraws: each random number is drawn
    once, not once per cell, and is let go before replication r+1 starts.
    A run reads the same numbers it would read alone, so the results are
    those of running each cell by itself.

    The cyclic garbage collector is paused meanwhile: a finished run holds
    no reference cycle, so reference counting frees it, and the passes the
    collector would make over the runs' many small objects find nothing.
    """
    results: list[list[RunMetrics]] = [[] for _ in cells]
    runners = [(_runner(model), cfg, out) for (model, cfg), out in zip(cells, results)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in reps:
            draws = ReplicationDraws(rep)
            for fn, cfg, out in runners:
                if rep < cfg.replications:
                    out.append(fn(cfg, draws))
            del draws
    finally:
        if was_enabled:
            gc.enable()
    return results


def _processes() -> int:
    """How many processes share the replications, before the cap at their
    count: one per CPU in this process's affinity mask.  It is one where
    the platform cannot fork or keeps no mask, and where this process runs
    more than one thread: a fork of a threaded process can deadlock, and is
    deprecated from Python 3.12 on.  It is also one where this process
    ignores SIGCHLD: the kernel then reaps each child as it exits, and the
    wait for its exit status fails."""
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _execute(cells: Sequence[Cell]) -> list[list[RunMetrics]]:
    """Run every cell's replications on up to ``_processes()`` processes;
    returns each cell's results in replication order.

    Replications 0..n-1 are cut into contiguous blocks, one per process,
    each run by ``_run_chunk`` over all cells.  The calling process runs
    the first block itself and a forked child runs each other one.  Every
    replication seeds itself from (master seed, replication, purpose), and
    the blocks are joined in replication order, so the results are the
    same for any number of processes, and any process can run any block.

    So a block that does not come back is run here: one whose fork failed
    (then no later fork is tried, and stderr says so once), and one whose
    child exited non-zero or was killed (stderr names the child and its
    block).  A child that raised exits 1, and this process's run of its
    block raises the error again, with a local traceback.  If this process
    fails while children run, it kills them first.
    """
    for model, _ in cells:
        _runner(model)  # imported before any fork, so every child inherits it
    n = max((cfg.replications for _, cfg in cells), default=0)
    count = max(1, min(_processes(), n))
    cuts = [n * k // count for k in range(count + 1)]
    blocks = [range(cuts[k], cuts[k + 1]) for k in range(count)]
    children: list[tuple[int, BinaryIO]] = []
    codes: list[int] = []
    try:
        for reps in blocks[1:]:
            try:
                children.append(_fork_block(cells, reps))
            except OSError as exc:
                print(f"fitroom: could not fork a replication worker ({exc}); "
                      f"running the remaining replications in this process",
                      file=sys.stderr)
                break
        results = _run_chunk(cells, blocks[0])
        # each pipe is read to EOF before its child is waited for: a block's
        # results can outgrow the pipe's buffer, and the child cannot exit
        # until they are read
        sent = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for k, reps in enumerate(blocks[1:]):
        if k < len(children) and codes[k] == 0:
            block = _decode(sent[k])
        else:
            if k < len(children):
                code = codes[k]
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with code {code}")
                print(f"fitroom: replication worker {children[k][0]} "
                      f"(replications {reps.start}-{reps.stop - 1}) {how}; "
                      f"running its replications in this process", file=sys.stderr)
            block = _run_chunk(cells, reps)
        for out, part in zip(results, block):
            out.extend(part)
    return results


def _fork_block(cells: Sequence[Cell], reps: range) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``reps`` of every cell, writes the results to
    a pipe as ``_encode`` writes them and exits 0; on any exception it exits
    1 having written nothing.  Returns the child's pid and the pipe's read
    end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        # the child leaves only through os._exit, so nothing the caller set
        # up (its tests, its exit handlers) runs a second time here
        code = 1
        try:
            os.close(r)
            data = _encode(_run_chunk(cells, reps))
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _encode(results: list[list[RunMetrics]]) -> bytes:
    """A block's results as bytes: each RunMetrics as the plain tuple it is
    (``marshal`` refuses a tuple subclass), in ``marshal``'s format, which
    every interpreter has loaded and which keeps each float's every bit."""
    return marshal.dumps([[tuple(m) for m in out] for out in results])


def _decode(data: bytes) -> list[list[RunMetrics]]:
    """The results ``_encode`` wrote, as RunMetrics again."""
    return [[RunMetrics._make(t) for t in out] for out in marshal.loads(data)]


def run_replications(config: ScenarioConfig, model: str = "des") -> list[RunMetrics]:
    """Run every replication of one model, on the processes every driver
    uses.  Result order is replication order, so element i is always the
    run seeded for replication i regardless of when or where this is called.
    """
    return _execute([(model, config)])[0]


@record
class SweepSpec:
    """Load ladder: level k (1-based) runs at arrival scale growth**(k-1)."""

    levels: int = 5
    growth_factor: float = 1.3

    def _check(self) -> tuple:
        if not (is_int(self.levels) and self.levels >= 1):
            raise ValueError("levels must be an integer >= 1")
        g = self.growth_factor
        # inf passes: the sweep then refuses level 2's infinite scale by name
        if not (is_number(g) and g > 0):
            raise ValueError("growth_factor must be a number > 0")
        return self

    def scale_at(self, level: int) -> float:
        try:
            return self.growth_factor ** (level - 1)
        except OverflowError:
            raise ValueError(f"arrival scale {self.growth_factor:g}**{level - 1} "
                             f"overflows") from None


@record
class SummaryRow:
    model: str
    level: int
    arrival_scale: float
    measure: str
    mean: float
    sd: float
    median: float
    n: int


@record
class ExperimentReport:
    rows: tuple[SummaryRow, ...]
    hypotheses: tuple[HypothesisOutcome, ...] = ()


# A plan entry is one (model, load level, config) cell of an experiment;
# it runs the config's replications and is reported at its level.
Entry = tuple[str, int, ScenarioConfig]


def _run_plan(plan: Sequence[Entry]) -> tuple[list[SummaryRow], list[list[RunMetrics]]]:
    """Run every entry of ``plan``; returns the summary rows, entry by entry
    in plan order and measure by measure in MEASURE_ORDER, and each entry's
    results in replication order.  Where a level runs under both models,
    which read the same draws, their results must be equal; a ModelError
    names the first replication and measure where they are not."""
    results = _execute([(m, cfg) for m, _, cfg in plan])
    rows = []
    first: dict[int, list[RunMetrics]] = {}
    for (m, level, cfg), metrics in zip(plan, results):
        other = first.setdefault(level, metrics)
        if other != metrics:
            rep = next(r for r, (x, y) in enumerate(zip(other, metrics)) if x != y)
            measure, x, y = next(t for t in zip(MEASURE_ORDER, other[rep], metrics[rep])
                                 if t[1] != t[2])
            raise ModelError(f"level {level}, replication {rep}: DES and ABS differ "
                             f"in {measure} ({x!r} against {y!r})")
        for measure, sample in zip(MEASURE_ORDER, zip(*metrics)):
            s = summarize(sample)
            rows.append(SummaryRow(m, level, cfg.arrival.scale, measure,
                                   s.mean, s.sd, s.median, s.n))
    return rows, results


def run_report(config: ScenarioConfig, model: str = "both") -> ExperimentReport:
    """Replications at the configured load only; reported as level 1."""
    rows, _ = _run_plan([(m, 1, config) for m in _models_for(model)])
    return ExperimentReport(rows=tuple(rows))


def sweep(config: ScenarioConfig, spec: SweepSpec | None = None,
          model: str = "both") -> ExperimentReport:
    """Run the full load ladder for the selected model(s).

    The sweep owns the arrival scale: level k runs at growth**(k-1) exactly,
    overriding whatever scale the base config carries.  Everything else in
    the config (seed, replications, service times, policy) is untouched.
    """
    spec = spec or SweepSpec()
    plan = [(m, level, _level_config(config, spec, level))
            for m in _models_for(model) for level in range(1, spec.levels + 1)]
    rows, _ = _run_plan(plan)
    return ExperimentReport(rows=tuple(rows))


def _level_config(config: ScenarioConfig, spec: SweepSpec, level: int) -> ScenarioConfig:
    """The config a sweep level runs.  A ladder whose scale, or a scenario
    rate times it, overflows is a configuration problem, not a crash."""
    try:
        scale = spec.scale_at(level)
        return replace(config, arrival=config.arrival._replace(scale=scale))
    except ValueError as exc:
        raise ConfigError(f"sweep level {level}: {exc}") from None


# Hypothesis labels are fixed: H01/H02 compare mean waiting time under the
# discrete-event and agent models respectively, H03/H04 do the same for
# staff utilisation.  A single-model comparison emits only its own pair.
_HYPOTHESES = (
    ("H01", "des", "mean_wait"),
    ("H02", "abs", "mean_wait"),
    ("H03", "des", "staff_util"),
    ("H04", "abs", "staff_util"),
)


def compare_experiments(config: ScenarioConfig, model: str = "both",
                        independent: bool = False) -> ExperimentReport:
    """A/B comparison of the speed-up policy at the configured load.

    Experiment A (reported as level 1) runs with the policy disabled,
    experiment B (level 2) with it enabled.  By default both experiments
    share the master seed, so runs are paired through common random numbers;
    pass independent=True to give B a seed derived from A's instead.
    """
    cfg_a = replace(config, proactive=replace(config.proactive, enabled=False))
    cfg_b = replace(config, proactive=replace(config.proactive, enabled=True))
    if independent:
        # B's seed is drawn like a stream, from a key no stream uses
        key = f"{config.master_seed}/compare-b"
        cfg_b = replace(cfg_b, master_seed=random.Random(key).getrandbits(32))

    models = _models_for(model)
    plan = [(m, level, cfg) for m in models for level, cfg in ((1, cfg_a), (2, cfg_b))]
    rows, results = _run_plan(plan)
    runs = {(m, level): metrics for (m, level, _), metrics in zip(plan, results)}
    hyps = []
    for label, m, measure in _HYPOTHESES:
        if m in models:
            a = [getattr(x, measure) for x in runs[m, 1]]
            b = [getattr(x, measure) for x in runs[m, 2]]
            hyps.append(decide(label, mann_whitney_u(a, b)))
    return ExperimentReport(rows=tuple(rows), hypotheses=tuple(hyps))


# --- serialization ---------------------------------------------------------

# a column is headed by its field's name, except where named here
_HEADINGS = {"label": "hypothesis"}


def _columns(cls: type) -> list[tuple[str, str, bool]]:
    """(heading, field, is a float) for each field of a report record, in
    declaration order.  A field is a float by its declared type, so a whole
    number in a float field is still written as a float."""
    return [(_HEADINGS.get(name, name), name, kind == "float")
            for name, kind in cls.__annotations__.items()]


def _g(x: float) -> str:
    return f"{x:.6g}"


def emit_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Render a report as CSV or JSON text, one column per field of
    SummaryRow and of HypothesisOutcome; CSV leaves out an empty hypothesis
    table.  Floats are written with six significant digits in both formats.
    """
    rows = ("rows", _columns(SummaryRow), report.rows)
    hyps = ("hypotheses", _columns(HypothesisOutcome), report.hypotheses)
    if fmt == "csv":
        lines = []
        for _, cols, records in (rows, hyps) if report.hypotheses else (rows,):
            lines.append(",".join(heading for heading, _, _ in cols))
            for r in records:
                lines.append(",".join(_g(getattr(r, name)) if is_float
                                      else str(getattr(r, name))
                                      for _, name, is_float in cols))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {key: [{heading: float(_g(getattr(r, name))) if is_float
                      else getattr(r, name)
                      for heading, name, is_float in cols}
                     for r in records]
               for key, cols, records in (rows, hyps)}
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
