"""Experiment drivers: replication batches, the arrival-pressure sweep, and
the paired policy comparison, plus report serialization.

Each driver builds one experiment plan, a list of (model, level, config)
entries, and ``_run_plan`` runs it on one runner, ``_execute``, and folds
every entry's results into summary rows.  The runner can share the
replications among forked processes; the library runs them in the calling
process unless asked for more.

Reports are flat tables.  Every summary row is one (model, load level,
measure) cell; a comparison report carries hypothesis rows after the summary
rows.  Serialization is deterministic: same report in, same bytes out, so
repeated runs with the same seed can be compared byte for byte.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Optional, Sequence
from zlib import crc32

import numpy as np

from .abs import run_abs
from .config import ConfigError, ScenarioConfig
from .des import run_des
from .engine import ReplicationDraws
from .stats import HypothesisOutcome, RunMetrics, decide, mann_whitney_u, summarize

MODEL_ORDER = ("des", "abs")
MEASURE_ORDER = (
    "mean_wait",
    "staff_util",
    "cubicle_util",
    "served",
    "not_served",
    "service_time_changes",
)

_RUNNERS = {"des": run_des, "abs": run_abs}

# Spawn key for deriving experiment B's seed when the comparison is run
# without common random numbers.
_B_SEED_KEY = crc32(b"compare-b")


def _models_for(model: str) -> tuple[str, ...]:
    if model == "both":
        return MODEL_ORDER
    if model in _RUNNERS:
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
    runners = [(_RUNNERS[model], cfg, out) for (model, cfg), out in zip(cells, results)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in reps:
            draws = ReplicationDraws(rep)
            for fn, cfg, out in runners:
                if rep < cfg.replications:
                    out.append(fn(cfg, rep, draws=draws))
            draws.close()
    finally:
        if was_enabled:
            gc.enable()
    return results


def _execute(cells: Sequence[Cell], jobs: int = 1) -> list[list[RunMetrics]]:
    """Run every cell's replications on up to ``jobs`` processes; returns
    each cell's results in replication order.

    Replications 0..n-1 are cut into contiguous blocks, one per process,
    each run by ``_run_chunk`` over all cells.  The calling process runs
    the first block itself and a forked child runs each other one.  Every
    replication seeds itself from (master seed, replication, purpose), and
    the blocks are joined in replication order, so the results are the
    same for any ``jobs``, and any process can run any block.

    So a block that does not come back is run here: one whose fork failed
    (then no later fork is tried, and stderr says so once), and one whose
    child exited non-zero or was killed (stderr names the child and its
    block).  A child that raised exits 1, and this process's run of its
    block raises the error again, with a local traceback.  If this process
    fails while children run, it kills them first.
    """
    n = max((cfg.replications for _, cfg in cells), default=0)
    jobs = max(1, min(jobs, n))
    cuts = [n * k // jobs for k in range(jobs + 1)]
    blocks = [range(cuts[k], cuts[k + 1]) for k in range(jobs)]
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
            block = pickle.loads(sent[k])  # written by our own child
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
    """Fork a child that runs ``reps`` of every cell, writes the pickled
    results to a pipe and exits 0; on any exception it exits 1 having
    written nothing.  Returns the child's pid and the pipe's read end."""
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
            data = pickle.dumps(_run_chunk(cells, reps), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def run_replications(config: ScenarioConfig, model: str = "des") -> list[RunMetrics]:
    """Run every replication of one model.

    Result order is replication order, so element i is always the run seeded
    for replication i regardless of when or where this is called.
    """
    if model not in _RUNNERS:
        raise ValueError(f"unknown model {model!r}; expected 'des' or 'abs'")
    return _execute([(model, config)])[0]


@dataclass(frozen=True)
class SweepSpec:
    """Load ladder: level k (1-based) runs at arrival scale growth**(k-1)."""

    levels: int = 5
    growth_factor: float = 1.3

    def __post_init__(self) -> None:
        if not isinstance(self.levels, int) or self.levels < 1:
            raise ValueError("levels must be an integer >= 1")
        if not self.growth_factor > 0:
            raise ValueError("growth_factor must be > 0")

    def scale_at(self, level: int) -> float:
        try:
            return self.growth_factor ** (level - 1)
        except OverflowError:
            raise ValueError(f"arrival scale {self.growth_factor:g}**{level - 1} "
                             f"overflows") from None


@dataclass(frozen=True)
class SummaryRow:
    model: str
    level: int
    arrival_scale: float
    measure: str
    mean: float
    sd: float
    median: float
    n: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[SummaryRow, ...]
    hypotheses: tuple[HypothesisOutcome, ...] = field(default_factory=tuple)


# A plan entry is one (model, load level, config) cell of an experiment;
# it runs the config's replications and is reported at its level.
Entry = tuple[str, int, ScenarioConfig]


def _run_plan(plan: Sequence[Entry],
              jobs: int) -> tuple[list[SummaryRow], list[list[RunMetrics]]]:
    """Run every entry of ``plan`` on ``jobs`` processes; returns the
    summary rows, entry by entry in plan order and measure by measure in
    MEASURE_ORDER, and each entry's results in replication order."""
    results = _execute([(m, cfg) for m, _, cfg in plan], jobs)
    rows = []
    for (m, level, cfg), metrics in zip(plan, results):
        for measure in MEASURE_ORDER:
            s = summarize([getattr(x, measure) for x in metrics])
            rows.append(SummaryRow(m, level, cfg.arrival.scale, measure,
                                   s.mean, s.sd, s.median, s.n))
    return rows, results


def run_report(config: ScenarioConfig, model: str = "both",
               jobs: int = 1) -> ExperimentReport:
    """Replications at the configured load only; reported as level 1.

    ``jobs`` is the number of processes that share the replications; the
    report is the same for any number.
    """
    rows, _ = _run_plan([(m, 1, config) for m in _models_for(model)], jobs)
    return ExperimentReport(rows=tuple(rows))


def sweep(
    config: ScenarioConfig,
    spec: Optional[SweepSpec] = None,
    model: str = "both",
    jobs: int = 1,
) -> ExperimentReport:
    """Run the full load ladder for the selected model(s) on ``jobs``
    processes.

    The sweep owns the arrival scale: level k runs at growth**(k-1) exactly,
    overriding whatever scale the base config carries.  Everything else in
    the config (seed, replications, service times, policy) is untouched.
    """
    spec = spec or SweepSpec()
    plan = [(m, level, _level_config(config, spec, level))
            for m in _models_for(model) for level in range(1, spec.levels + 1)]
    rows, _ = _run_plan(plan, jobs)
    return ExperimentReport(rows=tuple(rows))


def _level_config(config: ScenarioConfig, spec: SweepSpec, level: int) -> ScenarioConfig:
    """The config a sweep level runs.  A ladder whose scale, or a scenario
    rate times it, overflows is a configuration problem, not a crash."""
    try:
        scale = spec.scale_at(level)
        return replace(config, arrival=replace(config.arrival, scale=scale))
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

# every hypothesis is decided at this significance level
ALPHA = 0.05


def compare_experiments(
    config: ScenarioConfig,
    model: str = "both",
    independent: bool = False,
    jobs: int = 1,
) -> ExperimentReport:
    """A/B comparison of the speed-up policy at the configured load, on
    ``jobs`` processes.

    Experiment A (reported as level 1) runs with the policy disabled,
    experiment B (level 2) with it enabled.  By default both experiments
    share the master seed, so runs are paired through common random numbers;
    pass independent=True to give B a seed derived from A's instead.
    """
    cfg_a = replace(config, proactive=replace(config.proactive, enabled=False))
    cfg_b = replace(config, proactive=replace(config.proactive, enabled=True))
    if independent:
        seq = np.random.SeedSequence(config.master_seed, spawn_key=(_B_SEED_KEY,))
        cfg_b = replace(cfg_b, master_seed=int(seq.generate_state(1)[0]))

    models = _models_for(model)
    plan = [(m, level, cfg) for m in models for level, cfg in ((1, cfg_a), (2, cfg_b))]
    rows, results = _run_plan(plan, jobs)
    runs = {(m, level): metrics for (m, level, _), metrics in zip(plan, results)}
    hyps = []
    for label, m, measure in _HYPOTHESES:
        if m in models:
            a = [getattr(x, measure) for x in runs[m, 1]]
            b = [getattr(x, measure) for x in runs[m, 2]]
            hyps.append(decide(label, mann_whitney_u(a, b).p_value, ALPHA))
    return ExperimentReport(rows=tuple(rows), hypotheses=tuple(hyps))


# --- serialization ---------------------------------------------------------

_ROW_HEADER = "model,level,arrival_scale,measure,mean,sd,median,n"
_HYP_HEADER = "hypothesis,p_value,alpha,decision"


def _g(x: float) -> str:
    return f"{x:.6g}"


def emit_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Render a report as CSV or JSON text.

    Floats are written with six significant digits in both formats.
    """
    if fmt == "csv":
        lines = [_ROW_HEADER]
        for r in report.rows:
            lines.append(
                f"{r.model},{r.level},{_g(r.arrival_scale)},{r.measure},"
                f"{_g(r.mean)},{_g(r.sd)},{_g(r.median)},{r.n}"
            )
        if report.hypotheses:
            lines.append(_HYP_HEADER)
            for h in report.hypotheses:
                lines.append(f"{h.label},{_g(h.p_value)},{_g(h.alpha)},{h.decision}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "rows": [
                {
                    "model": r.model,
                    "level": r.level,
                    "arrival_scale": float(_g(r.arrival_scale)),
                    "measure": r.measure,
                    "mean": float(_g(r.mean)),
                    "sd": float(_g(r.sd)),
                    "median": float(_g(r.median)),
                    "n": r.n,
                }
                for r in report.rows
            ],
            "hypotheses": [
                {
                    "hypothesis": h.label,
                    "p_value": float(_g(h.p_value)),
                    "alpha": float(_g(h.alpha)),
                    "decision": h.decision,
                }
                for h in report.hypotheses
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")

