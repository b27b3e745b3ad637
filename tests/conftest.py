"""Fixtures shared by the test modules."""

import gc
import os
import weakref

import pytest
from hypothesis import Phase, settings

from fitroom.engine import RandomStreams

# tests/mutants.py selects this profile: a mutant is killed by its first
# failing example, so shrinking that example only costs time
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))


class Block(list):
    """A block of uniforms that a weak reference can point at."""
    __slots__ = ("__weakref__",)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` lets this process run on n CPUs, whatever the machine
    has, by setting os.sched_getaffinity, which ``harness._processes``
    reads: the runner then shares the replications among up to n
    processes."""
    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_count


@pytest.fixture
def opened_streams(monkeypatch):
    """Every stream opened during the test, as (master seed, purpose,
    replication) in opening order.  Every draw of the models and of
    ReplicationDraws starts by opening its stream through
    RandomStreams.stream, so an empty list means nothing was drawn."""
    opened = []
    real = RandomStreams.stream

    def stream(self, purpose, replication):
        opened.append((self.master_seed, purpose, replication))
        return real(self, purpose, replication)

    monkeypatch.setattr(RandomStreams, "stream", stream)
    return opened


@pytest.fixture
def dealt_blocks(monkeypatch):
    """(replication, weak reference) for every block of uniforms dealt by a
    stream opened during the test; a dead reference means nothing holds the
    block any more."""
    dealt = []
    real = RandomStreams.stream

    def stream(self, purpose, replication):
        s = real(self, purpose, replication)
        draw = s.next_block

        def next_block():
            block = Block(draw())
            dealt.append((replication, weakref.ref(block)))
            return block

        s.next_block = next_block
        return s

    monkeypatch.setattr(RandomStreams, "stream", stream)
    return dealt


@pytest.fixture
def gc_disabled():
    """Keep the cycle collector off, so only reference counts free objects."""
    gc.disable()
    yield
    gc.enable()
