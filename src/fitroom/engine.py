"""Simulation core: event calendar, seeded random streams, distribution
sampling, and the time-varying arrival process.

Everything downstream (both store models, the speed-up policy, the harness)
builds on these pieces, so the rules here are strict: time never runs
backwards, ties break by insertion order, and every stochastic draw comes
from a named, independently seeded stream.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from heapq import heappush
from itertools import chain, repeat

OPENING_HOURS = 8
MINUTES_PER_HOUR = 60.0
HORIZON = OPENING_HOURS * MINUTES_PER_HOUR  # one trading day, in minutes

# ceiling on a day's expected arrivals, the sum of the hourly rates times
# the scale; the base day expects 316.  The models simulate every arrival,
# and far enough past it (about 1e13 times the base day) the gap between
# arrivals no longer moves the clock, so the day would never end
MAX_DAY_ARRIVALS = 1_000_000


class ModelError(Exception):
    """Raised when a model violates a structural rule (a bug, not bad input)."""


class EventCalendar:
    """Future event list ordered by (time, insertion sequence).

    Each entry is a (time, seq, kind, target) tuple.  The insertion sequence
    makes simultaneous events pop in the order they were scheduled, which
    keeps runs reproducible without relying on the targets being
    comparable.  The run loop pops the heap itself and keeps ``now`` in
    step.
    """

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple] = []
        self._seq = 0

    def stamp(self, time: float, kind: str, target: object = None) -> tuple:
        """Give an event its key without adding it to the heap; returns its
        (time, seq, kind, target) entry.

        Events that are never more than one at a time pending are kept
        beside the heap by their owner, stamped here so they still order
        among the heap's events by (time, seq).
        """
        if time < self.now:
            raise self._in_the_past(time, kind)
        ev = (time, self._seq, kind, target)
        self._seq += 1
        return ev

    def schedule(self, time: float, kind: str, target: object = None) -> None:
        """Add an event to the heap, keyed as ``stamp`` keys it.  Stamped in
        place rather than through ``stamp``, since every push would
        otherwise pay a second call."""
        if time < self.now:
            raise self._in_the_past(time, kind)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, kind, target))

    def _in_the_past(self, time: float, kind: str) -> ModelError:
        return ModelError(
            f"cannot schedule {kind!r} at t={time}: clock already at {self.now}"
        )


# how many uniforms a stream draws from its generator at once
BLOCK = 512


class RandomStream:
    """Reader of uniform(0,1) draws, handed out one at a time as floats.

    The draws come in blocks, lists of uniforms, from ``next_block``.
    ``RandomStreams.stream`` passes a Mersenne Twister's, and the sequence is
    identical to calling its ``random()`` one value at a time, just cheaper;
    ReplicationDraws passes its own to replay a stream it has already drawn.
    """

    __slots__ = ("next_block", "_buf")

    def __init__(self, next_block: Callable[[], list[float]]) -> None:
        self.next_block = next_block
        self._buf: list[float] = []

    def uniform(self) -> float:
        buf = self._buf
        if not buf:
            # a reversed copy, so list.pop() hands the block out in order
            buf = self.next_block()[::-1]
            self._buf = buf
        return buf.pop()


class RandomStreams:
    """Factory of reproducible substreams keyed by (purpose, replication).

    Each substream is an MT19937 generator (``random.Random``) seeded with
    the string ``"{master seed}/{replication}/{purpose}"``, which Python
    hashes with SHA-512 into the generator's whole state.  Distinct keys
    give unrelated streams, so any one purpose can be resampled without
    disturbing the others, and two experiments sharing a master seed share
    random numbers stream-for-stream.  Python guarantees that ``random()``
    deals the same sequence for the same seed in every version, so the
    draws depend on nothing but the key.
    """

    __slots__ = ("master_seed",)

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed

    def stream(self, purpose: str, replication: int) -> RandomStream:
        draw = random.Random(f"{self.master_seed}/{replication}/{purpose}").random
        return RandomStream(lambda: [draw() for _ in repeat(None, BLOCK)])


def bernoulli(p: float, stream: RandomStream) -> bool:
    """Coin flip that consumes no draw when the outcome is certain.

    The short-circuit keeps fully deterministic scenarios (p of 0 or 1)
    free of random-number consumption.
    """
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return stream.uniform() < p


def _floats(values, what: str) -> tuple[float, ...]:
    """``values`` as floats.  Each must be an int or a float: not a bool,
    which Python calls an int, and not a str, which ``float`` would parse."""
    try:
        values = tuple(values)
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in values):
            raise TypeError
        return tuple(float(x) for x in values)
    except (TypeError, OverflowError):
        raise ValueError(f"{what} must be finite numbers: {values!r}") from None


_FAMILIES = {"deterministic": 1, "exponential": 1, "uniform": 2, "triangular": 3}


@dataclass(frozen=True)
class DistributionSpec:
    """A duration distribution, sampled by inverting the CDF of one uniform.

    Families: deterministic(value), exponential(rate), uniform(low, high),
    triangular(low, mode, high).  Deterministic consumes no draw at all, so
    a fully deterministic scenario uses zero random numbers.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown distribution family {self.family!r}")
        p = _floats(self.params, f"{self.family} parameters")
        object.__setattr__(self, "params", p)
        if len(p) != _FAMILIES[self.family]:
            raise ValueError(
                f"{self.family} takes {_FAMILIES[self.family]} parameter(s), got {len(p)}"
            )
        if any(not math.isfinite(x) for x in p):
            raise ValueError(f"{self.family} parameters must be finite: {p}")
        if self.family == "exponential" and p[0] <= 0:
            raise ValueError("exponential rate must be positive")
        if self.family == "uniform" and p[0] > p[1]:
            raise ValueError("uniform requires low <= high")
        if self.family == "triangular" and not (p[0] <= p[1] <= p[2]):
            raise ValueError("triangular requires low <= mode <= high")

    @classmethod
    def deterministic(cls, value: float) -> "DistributionSpec":
        return cls("deterministic", (value,))

    @classmethod
    def exponential(cls, rate: float) -> "DistributionSpec":
        return cls("exponential", (rate,))

    @classmethod
    def uniform(cls, low: float, high: float) -> "DistributionSpec":
        return cls("uniform", (low, high))

    @classmethod
    def triangular(cls, low: float, mode: float, high: float) -> "DistributionSpec":
        return cls("triangular", (low, mode, high))

    def support(self) -> tuple[float, float]:
        p = self.params
        if self.family == "deterministic":
            return (p[0], p[0])
        if self.family == "exponential":
            return (0.0, math.inf)
        if self.family == "uniform":
            return (p[0], p[1])
        return (p[0], p[2])

    def mean(self) -> float:
        p = self.params
        if self.family == "exponential":
            return 1.0 / p[0]
        return sum(p) / len(p)

    def values(self, us) -> list[float]:
        """This distribution's values for the uniforms ``us``, in order: the
        inverse CDF of each.  The models read whole blocks of these through
        ReplicationDraws; ``sample`` is the same formula on one draw."""
        p = self.params
        if self.family == "deterministic":
            return [p[0]] * len(us)
        if self.family == "exponential":
            log1p = math.log1p
            scale = 1.0 / p[0]
            return [-log1p(-u) * scale for u in us]
        if self.family == "uniform":
            low, width = p[0], p[1] - p[0]
            return [low + width * u for u in us]
        sqrt = math.sqrt
        low, mode, high = p
        span = high - low
        below, above = span * (mode - low), span * (high - mode)
        cut = (mode - low) / span if span > 0 else 1.0
        return [low + sqrt(u * below) if u < cut else high - sqrt((1.0 - u) * above)
                for u in us]

    def sample(self, stream: RandomStream) -> float:
        if self.family == "deterministic":
            return self.params[0]
        return self.values((stream.uniform(),))[0]


@dataclass(frozen=True)
class ArrivalProfile:
    """Piecewise-constant arrival rates, one per opening hour, times a scale;
    the day may expect at most ``MAX_DAY_ARRIVALS`` arrivals.

    Arrivals form a Poisson process whose rate steps at each hour boundary.
    Sampling spends a single Exp(1) "budget" per arrival: whatever fraction
    of the budget is left when an hour ends carries over into the next hour
    at that hour's rate, so no draw is wasted at boundaries.
    """

    hourly_rates: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        rates = _floats(self.hourly_rates, "hourly rates")
        object.__setattr__(self, "hourly_rates", rates)
        _floats((self.scale,), "arrival scale")  # a check: an int scale stays one
        if len(rates) != OPENING_HOURS:
            raise ValueError(f"need exactly {OPENING_HOURS} hourly rates, got {len(rates)}")
        if any(not math.isfinite(r) or r < 0 for r in rates):
            raise ValueError("hourly rates must be finite and non-negative")
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("arrival scale must be positive and finite")
        for hour, r in enumerate(rates, 1):
            if not math.isfinite(r * self.scale):
                raise ValueError(f"hour {hour}: rate {r:g} times scale "
                                 f"{self.scale:g} is not finite")
        expected = sum(rates) * self.scale
        if expected > MAX_DAY_ARRIVALS:
            raise ValueError(f"the day's {expected:g} expected arrivals (the "
                             f"rates' sum times the scale) exceed "
                             f"{MAX_DAY_ARRIVALS:,}")

    def next_arrival(self, now: float, stream: RandomStream) -> float | None:
        """Time of the next arrival after ``now``, or None if past closing."""
        if now >= HORIZON:
            return None
        budget = -math.log1p(-stream.uniform())
        t = now
        rates = self.hourly_rates
        scale = self.scale
        while True:
            hour = int(t // MINUTES_PER_HOUR)
            if hour >= OPENING_HOURS:
                return None
            rate = rates[hour] * scale / MINUTES_PER_HOUR  # per minute
            boundary = (hour + 1) * MINUTES_PER_HOUR
            if rate > 0.0:
                dt = budget / rate
                if t + dt < boundary:
                    return t + dt
                budget -= (boundary - t) * rate
                if budget < 0.0:
                    budget = 0.0
            t = boundary


class ReplicationDraws:
    """Every random number one replication deals, drawn once and shared by
    all the cells (model, load level, policy) that replay the replication.

    A stream opens through ``RandomStreams.stream`` when a cell first reads
    it, once per (master seed, purpose, distribution); raw uniforms count
    as a distribution.  Its uniforms are drawn in blocks and turned into the
    distribution's values once per block, and a day's arrival times are
    worked out once per arrival profile.  Every reader starts at its
    stream's first draw, so a cell reads exactly the numbers a private
    stream would deal it.  Everything drawn is kept while the object or any
    of its readers lives, so the object should serve one replication only.
    """

    __slots__ = ("replication", "_blocks", "_days")

    def __init__(self, replication: int) -> None:
        self.replication = replication
        self._blocks: dict = {}    # (seed, purpose, spec or None) -> (blocks, maker)
        self._days: dict = {}      # (seed, profile) -> arrival times, then None

    def values(self, seed: int, purpose: str,
               spec: DistributionSpec) -> Callable[[], float]:
        """The next value of ``spec`` on the stream, one per call.  A
        deterministic spec draws nothing, as in ``DistributionSpec.sample``."""
        if spec.family == "deterministic":
            return repeat(spec.params[0]).__next__
        return chain.from_iterable(self._iter_blocks(seed, purpose, spec)).__next__

    def uniforms(self, seed: int, purpose: str) -> RandomStream:
        """A reader of the stream's raw uniforms."""
        return RandomStream(self._iter_blocks(seed, purpose, None).__next__)

    def arrivals(self, seed: int,
                 profile: ArrivalProfile) -> Callable[[], float | None]:
        """The day's arrival times in order, then None, one per call."""
        return chain.from_iterable(self._day(seed, profile)).__next__

    def _day(self, seed: int, profile: ArrivalProfile) -> Iterator[list]:
        key = (seed, profile)
        times = self._days.get(key)
        if times is None:
            stream = self.uniforms(seed, "arrivals")
            times = []
            t = profile.next_arrival(0.0, stream)
            while t is not None:
                times.append(t)
                t = profile.next_arrival(t, stream)
            times.append(None)
            self._days[key] = times
        yield times

    def _iter_blocks(self, seed: int, purpose: str,
                     spec: DistributionSpec | None) -> Iterator:
        """Blocks of ``spec``'s values on the stream (its raw uniforms for
        None), from the first, each made once for every reader."""
        key = (seed, purpose, spec)
        if key not in self._blocks:
            draw = RandomStreams(seed).stream(purpose, self.replication).next_block
            self._blocks[key] = ([], draw if spec is None else lambda: spec.values(draw()))
        blocks, make = self._blocks[key]
        k = 0
        while True:
            if k == len(blocks):
                blocks.append(make())
            yield blocks[k]
            k += 1
