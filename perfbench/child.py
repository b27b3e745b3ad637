"""One workload process, launched and timed by run.py.

    python3 perfbench/child.py MODE WORKLOAD SEED REPORT TIMING [SCENARIO ...]

It imports the program, loads the scenario files (together the set-up),
then runs the workload through the program's public entry points and
writes the report to REPORT.  Moments are taken on the monotonic clock,
which the launching process shares, and written to TIMING as JSON.

Modes:
  probe   set-up only
  setup   set-up only, without the speed sampler (for the traced run)
  run     the workload, untraced
  entry   the workload with the model entry points traced
  full    the workload with every layer traced
  samples per-replication metrics of the comparison, for its checks

In the modes whose times are reported end to end (probe and run), a
speed sampler (speed.py) runs from the start of main() to the end of the
timed part.  Apart from it, the program is imported before anything of the
benchmark's own, so the set-up a user pays is all the set-up that is timed.
"""

import json
import sys
import time


def run_workload(workload, seed, cfgs, paths, report):
    from fitroom import cli, harness

    if workload == "sweep":
        from workloads import SWEEP_REPLICATIONS
        code = cli.main(["sweep", "--model", "both", "--seed", str(seed),
                         "--replications", str(SWEEP_REPLICATIONS), "--out", report])
    elif workload == "compare_poll":
        code = cli.main(["compare", "--model", "des", "--config", paths[0], "--out", report])
    else:
        chunks = []
        for path, cfg in zip(paths, cfgs):
            name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            text = harness.emit_report(harness.run_report(cfg, "both"))
            chunks.append(f"# part {name}\n{text}")   # checks.PART_MARK
        with open(report, "w", newline="\n") as fh:
            fh.write("".join(chunks))
        code = 0
    if code != 0:
        raise SystemExit(f"fitroom exited with {code}")


def comparison_samples(cfg):
    """Per-replication DES metrics with the policy off (level 1) and on (2)."""
    from dataclasses import replace

    from checks import MEASURES
    from fitroom import harness

    out = {}
    for level, enabled in ((1, False), (2, True)):
        c = replace(cfg, proactive=replace(cfg.proactive, enabled=enabled))
        runs = harness.run_replications(c, "des")
        for m in MEASURES:
            out[f"{level}|{m}"] = [getattr(r, m) for r in runs]
    return out


def level_of(workload):
    """Maps a replication's config to its report level."""
    import math

    if workload == "sweep":
        from workloads import SWEEP_FACTOR
        return lambda cfg: 1 + round(math.log(cfg.arrival.scale) / math.log(SWEEP_FACTOR))
    if workload == "compare_poll":
        return lambda cfg: 2 if cfg.proactive.enabled else 1
    return lambda cfg: 1


def main(argv):
    mode, workload, seed, report, timing, *paths = argv
    sampler = None
    if mode in ("probe", "run"):
        import speed
        sampler = speed.Sampler()
        sampler.start()
    t0 = time.monotonic()
    import fitroom.cli  # noqa: F401  (the import a user of the CLI pays)
    from fitroom import config
    t1 = time.monotonic()
    cfgs, loads = [], []
    for path in paths:
        a = time.monotonic()
        cfgs.append(config.load_config(path))
        loads.append(time.monotonic() - a)
    info = {"t_setup": time.monotonic(), "import_s": t1 - t0, "load_s": loads}

    if mode == "samples":
        info["samples"] = comparison_samples(cfgs[0])
    elif mode not in ("probe", "setup"):
        tracer = None
        if mode in ("entry", "full"):
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer, level_of(workload), full=mode == "full")
        info["t_sim"] = time.monotonic()
        run_workload(workload, int(seed), cfgs, paths, report)
        info["t_written"] = time.monotonic()
        if tracer is not None:
            info["trace"] = tracer.dump()
    if sampler is not None:
        sampler.stop()
        info["ticks"] = sampler.ticks
    with open(timing, "w") as fh:
        json.dump(info, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
