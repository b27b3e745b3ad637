"""Checks every report against properties any correct run must have.

Nothing here imports the program: reports are parsed from their CSV text,
arrival means come from the scenario keys (see workloads.py) and the
comparison's p-values are recomputed with scipy's rank-sum test.  Each
check returns the cells it found wrong, so the caller can count the
replications in them as failed operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from workloads import ALPHA, Part

ROW_HEADER = "model,level,arrival_scale,measure,mean,sd,median,n"
HYP_HEADER = "hypothesis,p_value,alpha,decision"
MEASURES = ("mean_wait", "staff_util", "cubicle_util", "served", "not_served",
            "service_time_changes")
PART_MARK = "# part "


@dataclass
class Report:
    """One part's report: summary rows keyed by (model, level, measure)."""

    rows: dict            # (model, level, measure) -> (mean, sd, median, n, raw text)
    hypotheses: dict      # label -> (p_value, alpha, decision)


@dataclass
class Failure:
    part: str
    cells: frozenset      # (model, level) pairs the failure puts in doubt
    message: str


def part_texts(parts: list[Part], text: str) -> list[str]:
    """The report text of each part, in part order ('' when missing).  A
    workload of several parts marks each with a ``# part <name>`` line."""
    if len(parts) == 1:
        return [text]
    by_name: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith(PART_MARK):
            current = by_name.setdefault(line[len(PART_MARK):], [])
        elif current is not None:
            current.append(line)
    return ["\n".join(by_name.get(p.name, ())) for p in parts]


def parse_report(text: str) -> Report:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ROW_HEADER:
        raise ValueError("report does not start with the summary header")
    rows, hyps = {}, {}
    in_hyp = False
    for ln in lines[1:]:
        if ln == HYP_HEADER:
            in_hyp = True
            continue
        f = ln.split(",")
        if in_hyp:
            if len(f) != 4:
                raise ValueError(f"bad hypothesis line {ln!r}")
            hyps[f[0]] = (float(f[1]), float(f[2]), f[3])
        else:
            if len(f) != 8:
                raise ValueError(f"bad summary line {ln!r}")
            # the raw text after the model name, so rows compare exactly
            rows[(f[0], int(f[1]), f[3])] = (float(f[4]), float(f[5]), float(f[6]),
                                             int(f[7]), ",".join(f[1:]))
    return Report(rows, hyps)


def check_complete(part: Part, rep: Report) -> list[Failure]:
    """Every requested cell is there, with every measure over n replications."""
    out = []
    for model, level in part.cells():
        for measure in MEASURES:
            row = rep.rows.get((model, level, measure))
            if row is None or row[3] != part.replications:
                out.append(Failure(part.name, frozenset([(model, level)]),
                                   f"{model} level {level}: {measure} missing or "
                                   f"not over {part.replications} replications"))
                break
    return out


def check_models_agree(part: Part, rep: Report) -> list[Failure]:
    """DES and ABS describe one store with one seed: their rows are equal."""
    if set(part.models) != {"des", "abs"}:
        return []
    out = []
    for level in sorted(part.levels):
        for measure in MEASURES:
            d = rep.rows.get(("des", level, measure))
            a = rep.rows.get(("abs", level, measure))
            if d is not None and a is not None and d[4] != a[4]:
                out.append(Failure(part.name, frozenset([("des", level), ("abs", level)]),
                                   f"level {level} {measure}: DES {d[4]!r} != ABS {a[4]!r}"))
    return out


def check_arrivals(part: Part, rep: Report) -> list[Failure]:
    """Served plus not served is the day's arrival count, Poisson with the
    scenario's mean: the cell mean lies within four standard errors of it."""
    out = []
    for model, level in part.cells():
        s = rep.rows.get((model, level, "served"))
        ns = rep.rows.get((model, level, "not_served"))
        if s is None or ns is None or s[3] < 1:
            continue   # check_complete reports it
        lam = part.levels[level]
        got = s[0] + ns[0]
        tol = 4.0 * math.sqrt(lam / s[3])
        if not abs(got - lam) <= tol:
            out.append(Failure(part.name, frozenset([(model, level)]),
                               f"{model} level {level}: mean arrivals {got:g} not within "
                               f"{tol:.3g} of the Poisson mean {lam:g}"))
    return out


def check_utilizations(part: Part, rep: Report) -> list[Failure]:
    out = []
    for model, level in part.cells():
        for measure in ("staff_util", "cubicle_util"):
            row = rep.rows.get((model, level, measure))
            if row is not None and not (0.0 <= row[0] <= 1.0 and 0.0 <= row[2] <= 1.0):
                out.append(Failure(part.name, frozenset([(model, level)]),
                                   f"{model} level {level}: {measure} {row[0]:g} "
                                   f"(median {row[2]:g}) outside [0, 1]"))
    return out


def check_service_time_changes(part: Part, rep: Report) -> list[Failure]:
    """No pace change with the policy off; some with it on."""
    out = []
    for model, level in part.cells():
        row = rep.rows.get((model, level, "service_time_changes"))
        if row is None:
            continue
        if level in part.policy_off_levels and row[:3] != (0.0, 0.0, 0.0):
            out.append(Failure(part.name, frozenset([(model, level)]),
                               f"{model} level {level}: policy off but "
                               f"service_time_changes {row[4]!r}"))
        if level in part.policy_on_levels and not row[0] > 0.0:
            out.append(Failure(part.name, frozenset([(model, level)]),
                               f"{model} level {level}: policy on but no pace change"))
    return out


def check_rising(part: Part, rep: Report, measures=("mean_wait", "not_served")) -> list[Failure]:
    """More arrival pressure means longer waits and more customers lost."""
    out = []
    levels = sorted(part.levels)
    for model in part.models:
        for measure in measures:
            means = [rep.rows.get((model, lv, measure)) for lv in levels]
            if any(m is None for m in means):
                continue
            if not all(x[0] < y[0] for x, y in zip(means, means[1:])):
                out.append(Failure(part.name, frozenset((model, lv) for lv in levels),
                                   f"{model}: {measure} does not rise with level "
                                   f"({', '.join(f'{m[0]:g}' for m in means)})"))
    return out


def check_comparison(part: Part, rep: Report, samples: dict) -> list[Failure]:
    """Recompute the comparison from per-replication metrics, apart from the
    program's statistics: summaries with numpy, p-values with scipy's
    two-sided Mann-Whitney U (normal approximation with tie and continuity
    corrections, as the program uses on samples this large).

    ``samples`` maps (level, measure) to the list of per-replication values.
    """
    import numpy as np
    from scipy.stats import mannwhitneyu

    out = []
    for (level, measure), xs in samples.items():
        row = rep.rows.get(("des", level, measure))
        if row is None:
            continue
        arr = np.asarray(xs, dtype=float)
        want = (float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                float(np.median(arr)))
        if not all(math.isclose(g, w, rel_tol=1e-5, abs_tol=1e-9)
                   for g, w in zip(row[:3], want)):
            out.append(Failure(part.name, frozenset([("des", level)]),
                               f"des level {level} {measure}: summary {row[:3]} "
                               f"!= recomputed {want}"))
    for label, measure in part.hypotheses:
        got = rep.hypotheses.get(label)
        a, b = samples.get((1, measure)), samples.get((2, measure))
        cells = frozenset([("des", 1), ("des", 2)])
        if got is None or a is None or b is None:
            out.append(Failure(part.name, cells, f"{label}: hypothesis row or samples missing"))
            continue
        p = float(mannwhitneyu(a, b, alternative="two-sided", use_continuity=True,
                               method="asymptotic").pvalue)
        decision = "reject" if p < ALPHA else "fail-to-reject"
        if not math.isclose(got[0], p, rel_tol=1e-5, abs_tol=0.0):
            out.append(Failure(part.name, cells,
                               f"{label}: p-value {got[0]!r} != rank-sum test {p!r}"))
        if got[1] != ALPHA or got[2] != decision:
            out.append(Failure(part.name, cells,
                               f"{label}: alpha {got[1]!r} decision {got[2]!r}, "
                               f"expected {ALPHA} {decision!r}"))
    return out


def check_part(part: Part, text: str, samples: dict | None = None) -> list[Failure]:
    """Every check that applies to one part's report text."""
    try:
        rep = parse_report(text)
    except ValueError as exc:
        return [Failure(part.name, frozenset(part.cells()), f"unreadable report: {exc}")]
    out = (check_complete(part, rep) + check_models_agree(part, rep)
           + check_arrivals(part, rep) + check_utilizations(part, rep)
           + check_service_time_changes(part, rep))
    if part.rising:
        out += check_rising(part, rep)
    if samples is not None:
        out += check_comparison(part, rep, samples)
    return out


def check_report(parts: list[Part], text: str, samples: dict | None) -> list[Failure]:
    """Every check on a workload's report; ``samples`` as for check_comparison."""
    out = []
    for part, body in zip(parts, part_texts(parts, text)):
        out += check_part(part, body, samples if part.hypotheses else None)
    return out


def failed_replications(parts: list[Part], failures: list[Failure]) -> int:
    """Replications in cells that some check put in doubt, each cell once."""
    by_name = {p.name: p for p in parts}
    bad = {(f.part, cell) for f in failures for cell in f.cells}
    return sum(by_name[name].replications for name, _ in bad)
