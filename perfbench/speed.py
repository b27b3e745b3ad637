"""Samples the machine's speed while a timed process runs.

The machine this benchmark was built on switches between a fast and a slow
state, the slow one running the same code up to twice as long, many times
a second and in stretches of seconds to minutes (README, "Spread and
bounds").  A raw time says as much about the share of slow moments in its
interval as about the program.  So every timed process runs a ``Sampler``:
every PERIOD_S a timer signal interrupts the program, runs a fixed
reference load (a *tick*) and records how long it took.  ``nominal_s``
turns an interval of the process into the time the program would have
taken at the machine's nominal speed: the interval less the ticks in it,
times the mean speed the ticks measured (NOMINAL_TICK_S over each tick's
time).

The reference load is a small queueing simulation in plain Python (heap
calendar, seeded draws, small objects, list work), the kind of work the
program does, so the slow state slows both alike.  It uses nothing of the
program, so a change to the program cannot move it.  Do not change it, the
period or NOMINAL_TICK_S without measuring the spread again.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

PERIOD_S = 0.005           # one tick every 5 ms of wall time
TICK_CUSTOMERS = 200       # customers served in one tick
# a tick on the reference machine in its fast state: the fastest ticks of
# many timed processes took 245 to 275 us (README, "Spread and bounds")
NOMINAL_TICK_S = 250e-6


class _Job:
    __slots__ = ("arrived", "started")

    def __init__(self, arrived: float) -> None:
        self.arrived = arrived
        self.started = 0.0


def tick(seed: int = 7) -> float:
    """The reference load: an M/M/2 queue until TICK_CUSTOMERS are served.
    Returns their total wait, which is never 0."""
    rng = random.Random(seed)
    calendar = [(rng.expovariate(1.0), 0, "arrive", None)]
    waiting: list[_Job] = []
    busy = 0
    served = 0
    seq = 1
    total_wait = 0.0
    while served < TICK_CUSTOMERS:
        now, _, kind, job = heapq.heappop(calendar)
        if kind == "arrive":
            heapq.heappush(calendar, (now + rng.expovariate(1.0), seq, "arrive", None))
            seq += 1
            job = _Job(now)
            if busy < 2:
                busy += 1
                job.started = now
                heapq.heappush(calendar, (now + rng.expovariate(0.6), seq, "depart", job))
                seq += 1
            else:
                waiting.append(job)
        else:
            served += 1
            total_wait += job.started - job.arrived
            if waiting:
                nxt = waiting.pop(0)
                nxt.started = now
                heapq.heappush(calendar, (now + rng.expovariate(0.6), seq, "depart", nxt))
                seq += 1
            else:
                busy -= 1
    return total_wait


class Sampler:
    """Runs a tick every PERIOD_S on the main thread, from start() to
    stop(); ``ticks`` holds (start, wall seconds, CPU seconds) of each, on
    the monotonic clock."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        w0, c0 = time.monotonic(), time.process_time()
        tick()
        self.ticks.append((w0, time.monotonic() - w0, time.process_time() - c0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def nominal_s(ticks, start: float, end: float) -> float:
    """Wall seconds of [start, end] outside the ticks, at nominal speed."""
    inside = [t for t in ticks if start <= t[0] < end]
    if not inside:
        raise ValueError("no speed sample in the interval")
    program = (end - start) - sum(t[1] for t in inside)
    return program * sum(NOMINAL_TICK_S / t[1] for t in inside) / len(inside)


def nominal_cpu_s(ticks, cpu_s: float) -> float:
    """A process's CPU seconds outside its ticks, at nominal speed."""
    if not ticks:
        raise ValueError("no speed sample in the process")
    program = cpu_s - sum(t[2] for t in ticks)
    return program * sum(NOMINAL_TICK_S / max(t[2], 1e-9) for t in ticks) / len(ticks)
