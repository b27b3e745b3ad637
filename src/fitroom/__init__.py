"""Fitting-room service simulator.

Two models of the same store (an event-scheduling one and an agent-based
one), a threshold-triggered service speed-up policy, the statistics to
compare experiments, and a CLI harness to drive replications and sweeps.
"""

__version__ = "0.1.0"
