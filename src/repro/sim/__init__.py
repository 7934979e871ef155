"""Discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.environment.Environment` — the simulation kernel.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Process`,
  :class:`~repro.sim.events.Interrupt` — event primitives.
* :class:`~repro.sim.resources.Gate`, :class:`~repro.sim.resources.Store`
  — a capacity-1 FIFO server in virtual time and a blocking FIFO queue.
* :class:`~repro.sim.network.Network`, :class:`~repro.sim.network.LatencyModel`
  — the simulated replica network; each replica connects a handler that
  runs when a message is delivered.
* :class:`~repro.sim.rng.ZipfGenerator` and seeding helpers.
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Process, Timeout
from repro.sim.network import (LatencyModel, Message, Network, drop_from,
                               drop_kind_from)
from repro.sim.resources import Gate, Store
from repro.sim.rng import ZipfGenerator, derive_rng, make_rng, weighted_choice

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Gate",
    "Interrupt",
    "LatencyModel",
    "Message",
    "Network",
    "Process",
    "Store",
    "Timeout",
    "ZipfGenerator",
    "derive_rng",
    "drop_from",
    "drop_kind_from",
    "make_rng",
    "weighted_choice",
]
