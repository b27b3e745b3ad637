"""Command-line entry point.

Three commands, all emitting the same report table (CSV by default):

    fitroom run      replications at the configured load
    fitroom sweep    the multiplicative load ladder
    fitroom compare  policy off vs. on, with rank-sum hypothesis rows

The replications run on every CPU in the process's affinity mask, as every
library call's do, so ``taskset -c 0 fitroom ...`` runs them one at a time;
the report is the same either way.

Exit codes: 0 on success, 1 for configuration problems, 2 for I/O failures
(argparse also exits 2 on malformed arguments, as usual), 3 when a model
breaks a rule it checks, such as DES and ABS reporting different results
for the same replication under ``--model both``; no report is written then.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .config import ConfigError, ScenarioConfig, build_config, load_config
from .engine import ModelError
from .harness import (MODEL_ORDER, SweepSpec, compare_experiments, emit_report,
                      run_report, sweep)


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not v > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return v


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--model", choices=(*MODEL_ORDER, "both"), default="both",
        help="which model(s) to run (default: both)",
    )
    sub.add_argument("--config", metavar="PATH", help="scenario file to load")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument(
        "--replications", type=_positive_int, metavar="N",
        help="override the replication count",
    )
    sub.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="report format (default: csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitroom",
        description="Fitting-room service simulation: twin discrete-event "
        "and agent-based models with a shared experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run replications at the configured load")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run the arrival-pressure ladder")
    _add_common(p_sweep)
    # compare always runs the policy off, then on
    for p in (p_run, p_sweep):
        p.add_argument(
            "--proactive", choices=("on", "off"),
            help="force the speed-up policy on or off",
        )
    p_sweep.add_argument(
        "--levels", type=_positive_int, default=SweepSpec.levels,
        help="number of load levels (default: %(default)s)",
    )
    p_sweep.add_argument(
        "--factor", type=_positive_float, default=SweepSpec.growth_factor,
        help="multiplicative growth per level (default: %(default)s)",
    )

    p_cmp = sub.add_parser("compare", help="compare the policy off vs. on")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--independent", action="store_true",
        help="seed the policy-on experiment independently instead of pairing "
        "it with the policy-off experiment",
    )
    return parser


def _assemble_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replications is not None:
        overrides["replications"] = args.replications
    if getattr(args, "proactive", None) is not None:
        overrides["proactive.enabled"] = args.proactive == "on"
    if overrides:
        cfg = build_config(overrides, base=cfg)
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _assemble_config(args)
        if args.command == "run":
            report = run_report(cfg, args.model)
        elif args.command == "sweep":
            spec = SweepSpec(levels=args.levels, growth_factor=args.factor)
            report = sweep(cfg, spec, args.model)
        else:
            report = compare_experiments(cfg, args.model, independent=args.independent)
        text = emit_report(report, args.format)
        if args.out:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, OSError, ModelError) as exc:
        print(f"fitroom: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2 if isinstance(exc, OSError) else 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
