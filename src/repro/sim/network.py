"""Simulated authenticated point-to-point network.

The paper assumes eventual synchrony: messages between honest replicas are
delivered within an unknown global stabilization time (GST).  This module
models that with per-link latency distributions plus an optional pre-GST
penalty, and supports the fault injection the reconfiguration experiments
need (dropping or delaying traffic from specific replicas).

Latency presets mirror the two deployment regimes of the evaluation:

* ``LatencyModel.lan()`` — ~0.5 ms mean, mild jitter (AWS same-region).
* ``LatencyModel.wan()`` — ~75 ms mean, wide jitter (cross-region).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import NetworkError
from repro.sim.environment import Environment
from repro.sim.events import Event


@dataclass(frozen=True)
class LatencyModel:
    """A truncated-normal one-way delay distribution (seconds)."""

    mean: float
    stddev: float
    minimum: float = 1e-6

    def sample(self, rng: random.Random) -> float:
        return max(self.minimum, rng.gauss(self.mean, self.stddev))

    @classmethod
    def lan(cls) -> "LatencyModel":
        """Same-datacenter latency (~0.5 ms)."""
        return cls(mean=0.0005, stddev=0.0001)

    @classmethod
    def wan(cls) -> "LatencyModel":
        """Cross-region latency (~75 ms)."""
        return cls(mean=0.075, stddev=0.015)

    @classmethod
    def fixed(cls, delay: float) -> "LatencyModel":
        """A deterministic delay — useful in tests."""
        return cls(mean=delay, stddev=0.0, minimum=delay)


@dataclass(slots=True)
class Message:
    """An authenticated message travelling between replicas.

    ``payload`` carries a protocol object (block, certificate vote, ...).
    ``kind`` is a short routing tag so handlers can dispatch cheaply;
    ``replayed`` marks an adversary's late clone of a held-back message.
    """

    sender: int
    recipient: int
    kind: str
    payload: Any
    sent_at: float = 0.0
    delivered_at: float = 0.0
    replayed: bool = False


#: A filter deciding whether a message is delivered. Returning ``False``
#: drops the message (used to model censorship / crash faults).
DeliveryFilter = Callable[[Message], bool]


class Network:
    """Connects ``n`` replicas with point-to-point channels.

    Each replica connects a handler; ``send`` samples a latency for the
    link and schedules one event that calls it; ``broadcast`` sends to
    every replica including, by default, the sender itself (DAG protocols
    deliver a replica's own blocks through the same path).
    """

    def __init__(self, env: Environment, n: int, latency: LatencyModel,
                 rng: random.Random, gst: float = 0.0,
                 pre_gst_extra_delay: float = 0.0) -> None:
        if n < 1:
            raise NetworkError(f"network needs at least one replica: {n}")
        self.env = env
        self.n = n
        self.latency = latency
        self.gst = gst
        self.pre_gst_extra_delay = pre_gst_extra_delay
        self._rng = rng
        self._handlers = [self._unconnected] * n
        self._filters: List[DeliveryFilter] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # -- fault injection -----------------------------------------------------

    def add_filter(self, delivery_filter: DeliveryFilter) -> None:
        """Install a delivery filter (all filters must accept a message)."""
        self._filters.append(delivery_filter)

    def remove_filter(self, delivery_filter: DeliveryFilter) -> None:
        self._filters.remove(delivery_filter)

    def discard_filter(self, delivery_filter: DeliveryFilter) -> None:
        """Remove a filter if (still) installed.

        Idempotent, and safe to call from inside the filter itself while a
        message is in flight — windowed behaviours use this to uninstall
        themselves once their window has elapsed.
        """
        try:
            self._filters.remove(delivery_filter)
        except ValueError:
            pass

    # -- plumbing ---------------------------------------------------------------

    def connect(self, replica_id: int,
                handler: Callable[[Message], None]) -> None:
        """Deliver every message addressed to ``replica_id`` by calling
        ``handler(message)`` at its delivery time."""
        self._check_id(replica_id)
        self._handlers[replica_id] = handler

    def send(self, sender: int, recipient: int, kind: str, payload: Any) -> None:
        """Send one message; delivery is scheduled after a sampled latency."""
        if not (0 <= sender < self.n and 0 <= recipient < self.n):
            raise NetworkError(f"replica id out of range [0, {self.n}): "
                               f"{sender} -> {recipient}")
        env = self.env
        message = Message(sender, recipient, kind, payload, env.now)
        self.messages_sent += 1
        if self._filters:
            # Snapshot: a filter may uninstall itself (discard_filter)
            # while we are iterating.
            for delivery_filter in tuple(self._filters):
                if not delivery_filter(message):
                    self.messages_dropped += 1
                    return
        delay = self.latency.sample(self._rng)
        if env.now < self.gst:
            delay += self.pre_gst_extra_delay
        event = Event(env)
        event._value = message
        event.callbacks.append(self._deliver)
        env.schedule(event, delay)

    def broadcast(self, sender: int, kind: str, payload: Any,
                  include_self: bool = True) -> None:
        """Send ``payload`` to every replica (self-delivery has zero latency
        jitter applied as well, matching loopback behaviour approximately)."""
        for recipient in range(self.n):
            if recipient == sender and not include_self:
                continue
            self.send(sender, recipient, kind, payload)

    def multicast(self, sender: int, recipients: Iterable[int], kind: str,
                  payload: Any) -> None:
        """Send to a chosen subset of replicas."""
        for recipient in recipients:
            self.send(sender, recipient, kind, payload)

    # -- internals ------------------------------------------------------------

    def _deliver(self, event: Event) -> None:
        message: Message = event._value
        message.delivered_at = self.env.now
        self.messages_delivered += 1
        self._handlers[message.recipient](message)

    @staticmethod
    def _unconnected(message: Message) -> None:
        raise NetworkError(f"replica {message.recipient} connected no handler")

    def _check_id(self, replica_id: int) -> None:
        if not 0 <= replica_id < self.n:
            raise NetworkError(
                f"replica id {replica_id} out of range [0, {self.n})")


def drop_from(senders: Iterable[int]) -> DeliveryFilter:
    """A filter that silently drops every message sent by ``senders``.

    Models crash-stop replicas and outbound censorship.
    """
    blocked = frozenset(senders)

    def _filter(message: Message) -> bool:
        return message.sender not in blocked

    return _filter


def drop_kind_from(senders: Iterable[int], kind: str) -> DeliveryFilter:
    """Drop only messages of a given ``kind`` from ``senders`` (e.g. suppress
    block proposals while letting votes through — a censorship attack)."""
    blocked = frozenset(senders)

    def _filter(message: Message) -> bool:
        return not (message.sender in blocked and message.kind == kind)

    return _filter
