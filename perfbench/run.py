"""End-to-end and per-layer benchmark of the fitroom simulator.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 30 --trace 0

Run from the root of a checkout.  Every workload round is a fresh
interpreter running the package from ``src/`` (see child.py), launched one
at a time and timed from here; its CPU time and peak memory come from
``os.wait4``.  End-to-end times are scaled to the machine's nominal speed
with the samples the process took of it (speed.py).  Reports are checked
against properties any correct run must
have (checks.py).  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` replications, and the metrics
BENCHMARK.json lists, end-to-end ones with ``--trace 0`` and per-layer ones
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT_DIR = ".perfbench_out"

PROBES_PER_ROUND = 1      # set-up-only interpreters before each untraced round
TRACE_PROBES = 5          # set-up-only interpreters at the start of a traced run
RUN_DEADLINE_S = 170.0    # a run must be over within 180 s


class BenchError(Exception):
    """The benchmark could not run; it prints no result."""


class Launcher:
    """Starts child processes one at a time and reaps each with wait4."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int,
                 scenario_paths: list[Path]) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.paths = [str(p) for p in scenario_paths]
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0

    def launch(self, mode: str) -> dict:
        """Run one child to its end; returns its timing record with the
        launch moment, CPU seconds, peak RSS and the report path added."""
        self.count += 1
        report = self.work / f"report-{self.count}.txt"
        timing = self.work / f"timing-{self.count}.json"
        argv = [sys.executable, str(CHILD), mode, self.workload, str(self.seed),
                str(report), str(timing), *self.paths]
        with open(self.work / f"stderr-{self.count}.txt", "wb") as err:
            t_launch = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            status, ru = self._reap(proc)
        if os.waitstatus_to_exitcode(status) != 0:
            tail = (self.work / f"stderr-{self.count}.txt").read_text(errors="replace")
            raise BenchError(f"{mode} process failed:\n{tail[-2000:]}")
        rec = json.loads(timing.read_text())
        rec.update(t_launch=t_launch, cpu_s=ru.ru_utime + ru.ru_stime,
                   rss_mb=ru.ru_maxrss / 1024.0, report=report)
        return rec

    def _reap(self, proc):
        # wait4 on one pid gives that child's own peak RSS; RUSAGE_CHILDREN
        # would give the peak over every child reaped so far
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return status, ru
                if time.monotonic() > self.deadline:
                    raise BenchError("run exceeded its time limit")
                time.sleep(0.02)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()


def customers(parts, text: str) -> float:
    """Simulated customers in a report: arrivals over every cell."""
    total = 0.0
    for part, body in zip(parts, checks.part_texts(parts, text)):
        rep = checks.parse_report(body)
        for model, level in part.cells():
            served = rep.rows[(model, level, "served")]
            lost = rep.rows[(model, level, "not_served")]
            total += (served[0] + lost[0]) * served[3]
    return total


def comparison_samples(launcher: Launcher, parts) -> dict | None:
    """Per-replication metrics by (level, measure), for workloads with
    hypothesis rows; they come from a process of their own."""
    if not any(p.hypotheses for p in parts):
        return None
    rec = launcher.launch("samples")
    out = {}
    for key, values in rec["samples"].items():
        level, measure = key.split("|")
        out[(int(level), measure)] = values
    return out


def run_checks(parts, reference: str, others: list[str], samples) -> tuple[int, int, list[str]]:
    """Checks one round's report and that every other round's is identical.

    Returns (attempted, failed, messages) over all rounds."""
    per_round = sum(p.requested() for p in parts)
    failures = checks.check_report(parts, reference, samples)
    failed_once = checks.failed_replications(parts, failures)
    messages = [f"{f.part}: {f.message}" for f in failures]
    failed = failed_once
    for i, text in enumerate(others, start=2):
        if text == reference:
            failed += failed_once
        else:
            failed += per_round
            messages.append(f"round {i}: report differs from round 1")
    return per_round * (1 + len(others)), failed, messages


def scaled(rec: dict) -> dict:
    """A process's times at the machine's nominal speed (speed.py)."""
    ticks = rec["ticks"]
    out = {"setup_s": speed.nominal_s(ticks, rec["t_launch"], rec["t_setup"])}
    if "t_written" in rec:
        out["wall_s"] = speed.nominal_s(ticks, rec["t_launch"], rec["t_written"])
        out["sim_s"] = speed.nominal_s(ticks, rec["t_sim"], rec["t_written"])
        out["cpu_s"] = speed.nominal_cpu_s(ticks, rec["cpu_s"])
    return out


def untraced(launcher: Launcher, parts, seconds: float) -> tuple[dict, int, int, list[str]]:
    # Many short rounds, each timed alone and scaled to the machine's
    # nominal speed, and the median over them (README, "Spread and
    # bounds").  Set-up probes are spread over the run.
    probes = []
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        for _ in range(PROBES_PER_ROUND):
            probes.append(launcher.launch("probe"))
        rounds.append(launcher.launch("run"))
    samples = comparison_samples(launcher, parts)

    texts = [r["report"].read_text() for r in rounds]
    attempted, failed, messages = run_checks(parts, texts[0], texts[1:], samples)
    n_customers = customers(parts, texts[0]) if not messages else 0.0
    try:
        runs = [scaled(r) for r in rounds]
        probe_setups = [scaled(r)["setup_s"] for r in probes]
    except ValueError as exc:
        raise BenchError(f"speed sampling: {exc}") from exc
    med = statistics.median
    metrics = {
        "wall_s": med(r["wall_s"] for r in runs),
        "setup_s": med(probe_setups + [r["setup_s"] for r in runs]),
        "customers_per_s": med(n_customers / r["sim_s"] for r in runs),
        "cpu_s": med(r["cpu_s"] for r in runs),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    return metrics, attempted, failed, messages


def _us(ns: float) -> float:
    return ns / 1000.0


def traced(launcher: Launcher, parts, seconds: float) -> tuple[dict, int, int, list[str]]:
    # (untraced, entry, full) passes repeat until --seconds have passed;
    # each metric is the median over them, and every count must repeat
    probes = [launcher.launch("setup") for _ in range(TRACE_PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append([launcher.launch(mode) for mode in ("run", "entry", "full")])
    samples = comparison_samples(launcher, parts)

    texts = [r["report"].read_text() for p in passes for r in p]
    attempted, failed, messages = run_checks(parts, texts[0], texts[1:], samples)
    each = [layer_metrics(probes, *p) for p in passes]
    metrics = {}
    for name in each[0]:
        values = [e[name] for e in each]
        if isinstance(values[0], int) and len(set(values)) > 1:
            messages.append(f"{name} differs between traced passes: {sorted(set(values))}")
        metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    return metrics, attempted, failed, messages


def layer_metrics(probes: list[dict], plain: dict, entry: dict, full: dict) -> dict:
    """The per-layer metrics of one (untraced, entry, full) pass."""
    med = statistics.median
    e_stats, per_level = entry["trace"]["stats"], entry["trace"]["per_level"]
    f_stats = full["trace"]["stats"]

    callee_ns, caller_ns = full["trace"]["overhead_ns"]

    def fs(name: str, slot: int) -> float:
        """A slot of a full-pass cell; slot 1, self time, net of the
        wrappers' own cost on this call and on the wrapped calls it made."""
        cell = f_stats.get(name, [0, 0, 0, 0, 0])
        if slot == 1:
            return max(0.0, cell[1] - cell[0] * callee_ns - cell[4] * caller_ns)
        return cell[slot]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "cli.import_s": med(p["import_s"] for p in probes),
        "config.load_us": med(_us(1e9 * statistics.fmean(p["load_s"])) if p["load_s"] else 0.0
                              for p in probes),
        "harness.replications": e_stats["des.run"][0] + e_stats["abs.run"][0],
        "harness.emit_report_us": _us(ratio(e_stats["harness.emit_report"][2],
                                            e_stats["harness.emit_report"][0])),
        "stats.mann_whitney_calls": fs("stats.mann_whitney", 0),
        "stats.mann_whitney_us": _us(fs("stats.mann_whitney", 1)),
        "stats.summarize_us": _us(fs("stats.summarize", 1)),
    }
    for layer, name, count in (("engine", "schedule", "schedule_calls"),
                               ("engine", "uniform", "uniform_draws"),
                               ("engine", "sample", "sample_calls"),
                               ("engine", "next_arrival", "next_arrival_calls"),
                               ("engine", "bernoulli", "bernoulli_calls"),
                               ("engine", "stream_setup", "stream_setups"),
                               ("runtime", "select_service", "select_service_calls"),
                               ("proactive", "note_change", "note_change_calls"),
                               ("proactive", "speedup", "speedup_calls"),
                               ("proactive", "poll", "poll_events")):
        m[f"{layer}.{count}"] = fs(f"{layer}.{name}", 0)
        m[f"{layer}.{name}_us"] = _us(fs(f"{layer}.{name}", 1))
    m["proactive.revert_events"] = fs("proactive.revert", 0)
    m["proactive.revert_useful_ratio"] = ratio(fs("proactive.revert", 3),
                                               fs("proactive.revert", 0))

    for model in ("des", "abs"):
        cust = {int(k.split("|")[1]): v for k, v in per_level.items()
                if k.startswith(model + "|")}
        all_ns = sum(v[0] for v in cust.values())
        all_c = sum(v[1] for v in cust.values())
        m[f"{model}.us_per_customer"] = _us(ratio(all_ns, all_c))
        for level in range(1, workloads.SWEEP_LEVELS + 1):
            ns, c = cust.get(level, (0, 0))
            m[f"{model}.us_per_customer.L{level}"] = _us(ratio(ns, c))
        handlers = ["des.renege"] if model == "des" else ["abs.message"]
        own = fs(f"{model}.run", 1) + sum(fs(h, 1) for h in handlers)
        m[f"{model}.self_us_per_customer"] = _us(ratio(own, all_c))
        m[f"{model}.setup_us"] = _us(ratio(e_stats[f"{model}.setup"][2],
                                           e_stats[f"{model}.setup"][0]))
    m["des.patience_useful_ratio"] = ratio(fs("des.renege", 3), fs("des.renege", 0))
    m["abs.messages"] = fs("abs.message", 0)
    m["abs.message_us"] = _us(fs("abs.message", 1))
    m["abs.over_des"] = ratio(m["abs.us_per_customer"], m["des.us_per_customer"])
    # the untraced process less the time its speed sampler took
    plain_s = plain["t_written"] - plain["t_launch"] - sum(t[1] for t in plain["ticks"])
    m["trace.overhead"] = ratio(full["t_written"] - full["t_launch"], plain_s)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "fitroom" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a fitroom checkout "
              "(src/fitroom and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    (root / OUT_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=root / OUT_DIR))
    try:
        parts = workloads.parts(args.workload, args.seed)
        scenario_paths = workloads.write_scenarios(parts, work)
        launcher = Launcher(root, work, args.workload, args.seed, scenario_paths)
        launcher.launch("probe")   # warm-up: bytecode caches and file cache
        if args.trace:
            metrics, attempted, failed, messages = traced(launcher, parts, args.seconds)
        else:
            metrics, attempted, failed, messages = untraced(launcher, parts, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = {w["name"] for w in wanted} ^ set(metrics)
    if mismatch:
        print(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                    for w in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
