"""The mutant table: faults that the tests which do not compare pinned
digests must catch.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only those named

Each mutant is one exact text replaced in one file, and the tests that
kill it.  The named tests never include the pinned digests (``_PINNED``,
``_PINNED_TRACES``): a change that re-pins them on purpose would pass them
straight past a fault.  For each mutant the runner copies the checkout
with ``shutil.copytree`` into a temporary directory, applies the mutant
there, and runs ``pytest -x`` on its named tests in a subprocess, under
the hypothesis profile ``mutants`` (tests/conftest.py), which skips
shrinking.  It prints each mutant as killed or survived and exits 1 if a
mutant expected to die survives, if a known survivor dies (mark it killed
then), or if pytest could not run the named tests.  Only the standard
library is used.

``tests/test_mutants.py`` checks that every old text occurs exactly once
in its file, so the table cannot rot silently as the code moves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ``killed`` is what the named tests are expected to do to the mutant; a
# known survivor (killed False) names the tests that should but do not
Mutant = namedtuple("Mutant", "name file old new tests killed")

VERDICT = "tests/test_proactive.py::test_the_stored_verdict_is_the_rule_at_every_event"
STAMPS = "tests/test_abs.py::test_a_day_stamps_at_most_14_events_per_arrival_and_2_per_poll"
C1_RULES = "tests/test_acceptance.py::test_c1_scenarios_keep_the_store_rules"
C3 = "tests/test_acceptance.py::test_c3_degenerate_scenarios_replay_identically"
ENDING = "tests/test_abs.py::test_ending_a_staff_job"
RENEGE_QUEUE = ("tests/test_abs.py::"
                "test_reneged_customers_stay_in_the_entry_queue_until_its_head")
STALE = "tests/test_abs.py::test_stale_patience_timer_is_harmless"
TIED = ("tests/test_abs.py::"
        "test_a_patience_deadline_tied_with_entry_service_goes_by_stamp_order")
LATTICE = "tests/test_abs.py::test_two_models_tell_the_same_story_on_lattice_days"
ASK = "tests/test_abs.py::test_asking_for_help"

MUTANTS = (
    Mutant("end_job_never_tells_the_policy", "src/fitroom/runtime.py",
           "elif self.note is not None and self.ctl.congested:",
           "elif False:",
           (VERDICT,
            "tests/test_abs.py::test_waits_cut_off_at_closing_are_charged_in_every_queue"),
           True),
    Mutant("help_never_resumes_the_fitting", "src/fitroom/runtime.py",
           "            self.cal.schedule(now + c.fit_remaining, EV_FIT_DONE, c)\n",
           "            pass\n",
           (ENDING + "[DesRun]", ENDING + "[AbsRun]", LATTICE),
           True),
    Mutant("return_never_serves", "src/fitroom/runtime.py",
           "            c.disposition = SERVED\n",
           "            pass\n",
           (ENDING + "[DesRun]", ENDING + "[AbsRun]"),
           True),
    Mutant("join_never_tells_the_policy", "src/fitroom/runtime.py",
           "        line.append(c)\n"
           "        if self.note is not None:\n"
           "            self.note(now)\n",
           "        line.append(c)\n",
           (VERDICT,
            "tests/test_metamorphic.py::test_a_speedup_of_nothing_is_the_policy_off[abs-event]",
            "tests/test_metamorphic.py::test_a_speedup_of_nothing_is_the_policy_off[des-event]"),
           True),
    Mutant("start_job_never_tells_the_policy", "src/fitroom/runtime.py",
           "        c.wait += now - c.joined_at\n"
           "        if self.note is not None and self.ctl.congested:\n"
           "            self.note(now)\n",
           "        c.wait += now - c.joined_at\n",
           (VERDICT,),
           True),
    Mutant("verdict_never_reset","src/fitroom/proactive.py",
           "        else:\n"
           "            self.congested = False\n",
           "        else:\n"
           "            pass\n",
           (VERDICT,),
           True),
    Mutant("start_fitting_reads_fitting_twice", "src/fitroom/runtime.py",
           "        fit = self.fitting()\n",
           "        self.fitting()\n"
           "        fit = self.fitting()\n",
           ("tests/test_recursions.py::test_cubicle_only_days_follow_kiefer_wolfowitz",),
           True),
    Mutant("revert_chain_walks_in_halves", "src/fitroom/proactive.py",
           "            self.calendar.schedule(self.revert_at, EV_REVERT)\n"
           "            self.chain_head = self.revert_at\n",
           "            gap = self.revert_at - t\n"
           "            at = t + gap / 2 if gap > 1.0 else self.revert_at\n"
           "            self.calendar.schedule(at, EV_REVERT)\n"
           "            self.chain_head = at\n",
           (STAMPS,),
           True),
    Mutant("leftover_revert_rearms", "src/fitroom/proactive.py",
           "        if not self.table.fast:\n"
           "            return  # leftover event",
           "        if not self.table.fast:\n"
           "            self.calendar.schedule(t + 1.0, EV_REVERT)\n"
           "            return  # leftover event",
           (STAMPS,),
           True),
    Mutant("superseded_revert_rearms", "src/fitroom/proactive.py",
           "        # else: superseded duplicate, drop it\n",
           "        else:\n"
           "            self.calendar.schedule(t + 1.0, EV_REVERT)\n",
           (STAMPS,),
           True),
    # the revert due at the episode's end walks the chain to its own
    # instant instead, forever; the calendar's bound ends the day
    Mutant("revert_chain_never_ends", "src/fitroom/proactive.py",
           "        if t == self.revert_at:\n",
           "        if t != self.revert_at:\n",
           (STAMPS,),
           True),
    Mutant("stale_patience_rearms", "src/fitroom/runtime.py",
           "            return False  # already being served; the timer is stale\n",
           "            self.cal.schedule(now + 30.0, EV_PATIENCE, c)\n"
           "            return False\n",
           (STAMPS,),
           True),
    Mutant("help_request_joins_the_return_queue", "src/fitroom/runtime.py",
           "        return self.join(c, self.store.help, now)\n",
           "        return self.join(c, self.store.ret, now)\n",
           (ASK + "[DesRun]", ASK + "[AbsRun]", LATTICE),
           True),
    Mutant("start_job_keeps_the_customer_awaiting_entry", "src/fitroom/runtime.py",
           "        c.awaiting_entry = False\n",
           "",
           (STALE, TIED, C1_RULES),
           True),
    Mutant("chart_lets_fitting_reach_served", "src/fitroom/abs.py",
           "FITTING: (\"Fitting\", (WAITING_HELP, WAITING_RETURN)),",
           "FITTING: (\"Fitting\", (WAITING_HELP, WAITING_RETURN, SERVED_STATE)),",
           ("tests/test_abs.py::test_exactly_the_charts_edges_are_legal_transitions",),
           True),
    Mutant("chart_drops_fitting_to_waiting_help", "src/fitroom/abs.py",
           "FITTING: (\"Fitting\", (WAITING_HELP, WAITING_RETURN)),",
           "FITTING: (\"Fitting\", (WAITING_RETURN,)),",
           ("tests/test_abs.py::test_exactly_the_charts_edges_are_legal_transitions",
            "tests/test_abs.py::test_every_state_is_reachable_from_arrived"),
           True),
    Mutant("return_tie_to_the_higher_id", "src/fitroom/runtime.py",
           "c.id < best.id)):\n"
           "            best, job, line = c, JOB3, q",
           "c.id > best.id)):\n"
           "            best, job, line = c, JOB3, q",
           (C1_RULES, C3),
           True),
    Mutant("flush_drops_the_occupancy_close", "src/fitroom/runtime.py",
           "        self.occ_minutes += self.occupied * (horizon - self._occ_since)\n",
           "",
           (C1_RULES, C3),
           True),
    Mutant("full_bank_not_refused", "src/fitroom/runtime.py",
           "        if n >= self.capacity:\n"
           "            raise ModelError(\"cubicle requested with none free\")\n",
           "",
           ("tests/test_des.py::"
            "test_entry_service_ending_with_every_cubicle_full_is_a_model_error",
            "tests/test_abs.py::test_grant_with_no_free_cubicle_is_a_model_error"),
           True),
    Mutant("leave_keeps_the_cubicle", "src/fitroom/runtime.py",
           "        self.occupied = n - 1\n",
           "        self.occupied = n\n",
           ("tests/test_des.py::test_utilization_ratios_from_telemetry",
            "tests/test_abs.py::test_cubicles_are_granted_by_message_while_one_is_free"),
           True),
    Mutant("reneged_head_not_popped", "src/fitroom/runtime.py",
           "    while store.gone and q[0].disposition == RENEGED:\n"
           "        q.popleft()\n"
           "        store.gone -= 1\n",
           "",
           (RENEGE_QUEUE,),
           True),
    Mutant("gone_not_decremented", "src/fitroom/runtime.py",
           "        q.popleft()\n"
           "        store.gone -= 1\n",
           "        q.popleft()\n",
           (RENEGE_QUEUE,),
           True),
    Mutant("renege_not_counted", "src/fitroom/runtime.py",
           "        self.store.gone += 1\n",
           "",
           (RENEGE_QUEUE,),
           True),
    # on a day whose help fraction is fixed and not a half, whoever is still
    # fitting at closing is due at other times than check_metrics computes
    Mutant("help_fraction_fixed_at_half", "src/fitroom/runtime.py",
           "frac = self.cfg.help_fraction.sample(self.help_draws)",
           "frac = 0.5",
           (C1_RULES, C3),
           True),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".perfbench_out", ".benchmarks", "*.egg-info")
TIMEOUT_S = 300


def run(m: Mutant) -> str:
    """Apply ``m`` to a fresh copy of the checkout and run its tests:
    "killed", "survived", or what kept pytest from running them."""
    with tempfile.TemporaryDirectory(prefix="fitroom-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        path = tree / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return f"error: the old text occurs {text.count(m.old)} times in {m.file}"
        path.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutants", *m.tests]
        try:
            done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error: timed out after {TIMEOUT_S} s"
    # pytest exits 1 when a test failed; 2-5 mean it could not run them
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    tail = "\n".join(done.stdout.strip().splitlines()[-5:])
    return f"error: pytest exited {done.returncode}\n{tail}"


def main(names: list[str]) -> int:
    table = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [table[n] for n in names] if names else MUTANTS
    bad = 0
    for m in chosen:
        started = time.perf_counter()
        outcome = run(m)
        expected = "killed" if m.killed else "survived"
        if outcome != expected:
            bad += 1
            note = "   UNEXPECTED"
        else:
            note = "" if m.killed else "   (known survivor)"
        first, _, rest = outcome.partition("\n")
        print(f"{first:9} {m.name}  ({time.perf_counter() - started:.1f} s){note}",
              flush=True)
        if rest:
            print(rest)
    print(f"{len(chosen)} mutants, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
