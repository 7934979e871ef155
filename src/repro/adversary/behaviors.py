"""Byzantine / fault behaviours for experiments (§6, §12 "Failures").

The evaluation needs a bestiary of adversaries:

* **crash-stop** — a replica goes silent (Fig. 17); available directly via
  :meth:`repro.core.replica.Replica.crash`, scheduled here.
* **censorship** — a proposer suppresses its block proposals (dropping the
  shard's transactions) while still voting, the attack §6's reconfiguration
  counters; modelled as a network filter on ``proposal``/``vertex`` traffic.
* **delay** — a proposer's blocks are delayed past the round timeout,
  triggering P6 conversions and, if persistent, Shift blocks (Fig. 6).
* **partition** — a symmetric network split between replica groups that
  optionally heals at a scheduled time (:class:`Partition`).
* **Byzantine executor** — a replica whose Concurrent Executor publishes
  lying preplay read/write sets (:class:`ByzantineExecutor`); commit-time
  validation (§4) must reject the block and deterministically re-execute.
* **gray failure** — a replica that is slow rather than dead
  (:class:`GrayFailure`): all of its outbound traffic arrives late by a
  per-message random extra delay.

Windowed behaviours share one contract: before ``start`` they pass
messages through untouched, and once ``end`` has elapsed they uninstall
their network filter (on the first message observed past the window), so a
healed adversary leaves no residue on the delivery path.

All randomness is drawn from RNGs derived from the cluster seed, keeping
every hostile schedule bit-reproducible.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.cluster import Cluster
from repro.errors import ConfigError
from repro.sim.network import Message, Network
from repro.sim.environment import Environment
from repro.sim.rng import make_rng

#: Message kinds that carry block dissemination (the traffic proposers own).
_BLOCK_KINDS = ("proposal", "vertex")


def _redeliver(network: Network, env: Environment, message: Message,
               delay: float) -> None:
    """Drop ``message`` from the normal path, re-inject a clone later.

    One event ``delay`` from now hands the clone to the recipient's
    connected handler.  The clone re-runs the delivery filters installed at
    replay time (so a concurrent partition or censorship still applies) but
    is marked ``replayed`` so relay-style behaviours do not intercept their
    own clones.
    """
    clone = Message(sender=message.sender, recipient=message.recipient,
                    kind=message.kind, payload=message.payload,
                    sent_at=message.sent_at, replayed=True)

    def arrive(event) -> None:
        for delivery_filter in tuple(network._filters):
            if not delivery_filter(clone):
                network.messages_dropped += 1
                return
        network._deliver(event)
    env.timeout(delay, clone).callbacks.append(arrive)


class Censorship:
    """Suppress block dissemination from ``replicas`` during a window.

    The replicas keep voting (they are not crashed), so the DAG keeps
    growing — but their shards' transactions vanish, which is exactly the
    attack the Shift-block rotation bounds.  After ``end`` the filter
    uninstalls itself: dissemination from the victims resumes and, once a
    reconfiguration has reset the round loop, their shards rejoin.
    """

    def __init__(self, replicas: Iterable[int], start: float = 0.0,
                 end: Optional[float] = None) -> None:
        self.replicas = frozenset(replicas)
        self.start = start
        self.end = end
        self._network: Optional[Network] = None
        self._filter = None

    @property
    def active(self) -> bool:
        """Whether the filter is currently installed on a network."""
        return self._filter is not None

    def install(self, cluster: Cluster) -> None:
        def censor_filter(message: Message) -> bool:
            now = cluster.env.now
            if self.end is not None and now >= self.end:
                # Window elapsed: stop intercepting for good.
                self.uninstall()
                return True
            if message.sender not in self.replicas:
                return True
            if message.kind not in _BLOCK_KINDS:
                return True
            if now < self.start:
                return True
            return False
        self._network = cluster.network
        self._filter = censor_filter
        cluster.network.add_filter(censor_filter)

    def uninstall(self) -> None:
        """Remove the filter (idempotent; called automatically after ``end``)."""
        if self._network is not None and self._filter is not None:
            self._network.discard_filter(self._filter)
        self._network = None
        self._filter = None


class Partition:
    """A symmetric network partition between replica groups, with healing.

    Messages crossing group boundaries are dropped in both directions from
    ``start``; traffic inside a group (and from/to replicas in no group)
    flows normally.  If ``heal_at`` is given, a DES process removes the
    filter at that time and records the heal in the cluster metrics
    (``partition_heals``) — modelling a transient split that the protocol
    must survive without diverging.
    """

    def __init__(self, groups: Sequence[Iterable[int]], start: float = 0.0,
                 heal_at: Optional[float] = None) -> None:
        self.groups: Tuple[frozenset, ...] = tuple(
            frozenset(group) for group in groups)
        seen: set = set()
        for group in self.groups:
            if group & seen:
                raise ConfigError(
                    f"partition groups overlap: {sorted(group & seen)}")
            seen |= group
        if heal_at is not None and heal_at < start:
            raise ConfigError(
                f"heal_at {heal_at} precedes partition start {start}")
        self.start = start
        self.heal_at = heal_at
        self.healed = False
        self._network: Optional[Network] = None
        self._filter = None

    def install(self, cluster: Cluster) -> None:
        group_of: Dict[int, int] = {}
        for index, group in enumerate(self.groups):
            for replica_id in sorted(group):
                group_of[replica_id] = index

        def partition_filter(message: Message) -> bool:
            if cluster.env.now < self.start:
                return True
            side_a = group_of.get(message.sender)
            side_b = group_of.get(message.recipient)
            if side_a is None or side_b is None:
                return True
            return side_a == side_b
        self._network = cluster.network
        self._filter = partition_filter
        cluster.network.add_filter(partition_filter)
        if self.heal_at is not None:
            def healer():
                delay = max(0.0, self.heal_at - cluster.env.now)
                yield cluster.env.timeout(delay)
                self.heal(cluster)
            cluster.env.process(healer())

    def heal(self, cluster: Cluster) -> None:
        """Remove the split now (idempotent) and count the heal event."""
        if self.healed:
            return
        self.healed = True
        if self._network is not None and self._filter is not None:
            self._network.discard_filter(self._filter)
        self._network = None
        self._filter = None
        cluster.metrics.partition_heals += 1


class ByzantineExecutor:
    """Replicas whose executor lies about preplay results.

    The victim replicas execute honestly (their speculative state stays
    correct) but *publish* corrupted read/write sets in their NORMAL
    blocks.  Because the corruption happens before the block is built, the
    block digest covers the lie: every replica — including the liar — sees
    the same forged block, rejects it in commit-time validation, and falls
    back to the same deterministic re-execution, so the cluster stays
    convergent while the per-replica counters expose the attack.

    ``rate`` is the per-entry corruption probability; corruption choices
    are drawn from an RNG derived from the cluster seed and the replica id,
    so the hostile schedule itself is reproducible.
    """

    def __init__(self, replicas: Iterable[int], rate: float = 1.0,
                 seed: int = 0, start: float = 0.0,
                 end: Optional[float] = None) -> None:
        if not 0.0 < rate <= 1.0:
            raise ConfigError(f"corruption rate must be in (0, 1]: {rate}")
        self.replicas = frozenset(replicas)
        self.rate = rate
        self.seed = seed
        self.start = start
        self.end = end

    def install(self, cluster: Cluster) -> None:
        for replica_id in sorted(self.replicas):
            replica = cluster.replicas[replica_id]
            replica.preplay_tamper = self._tamper_fn(cluster, replica_id)

    def _tamper_fn(self, cluster: Cluster, replica_id: int):
        rng = make_rng((cluster.config.seed << 12)
                       ^ (replica_id * 65537) ^ self.seed)

        def tamper(entries: Sequence[Any]) -> Tuple[Any, ...]:
            now = cluster.env.now
            if now < self.start or (self.end is not None and now >= self.end):
                return tuple(entries)
            forged = []
            for entry in entries:
                if rng.random() >= self.rate:
                    forged.append(entry)
                    continue
                forged.append(_corrupt_entry(entry, rng))
            return tuple(forged)
        return tamper


def _corrupt_entry(entry: Any, rng) -> Any:
    """Return a lying copy of one preplay entry (read or write set forged)."""
    if entry.write_set:
        key = sorted(entry.write_set)[rng.randrange(len(entry.write_set))]
        forged_writes = dict(entry.write_set)
        forged_writes[key] = _lie(forged_writes[key])
        return replace(entry, write_set=forged_writes)
    if entry.read_set:
        key = sorted(entry.read_set)[rng.randrange(len(entry.read_set))]
        forged_reads = dict(entry.read_set)
        forged_reads[key] = _lie(forged_reads[key])
        return replace(entry, read_set=forged_reads)
    return replace(entry, read_set={f"forged:{entry.tx_id}": 1})


def _lie(value: Any) -> Any:
    """A value guaranteed to differ from ``value`` (and stay digestible)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return f"forged:{value!r}"


class GrayFailure:
    """Slow-replica gray failure: degraded, not dead (§12 "Failures").

    Every message sent by ``replicas`` (all kinds — the whole host is slow)
    is held back by an extra per-message delay drawn from a truncated
    normal distribution, modelling an overloaded or half-broken node that
    stays below crash-detection thresholds.  Delays come from an RNG
    derived from the cluster seed, so runs stay bit-reproducible.
    """

    def __init__(self, replicas: Iterable[int], extra_mean: float,
                 extra_jitter: float = 0.5, seed: int = 0,
                 start: float = 0.0, end: Optional[float] = None) -> None:
        if extra_mean <= 0:
            raise ConfigError(f"extra_mean must be positive: {extra_mean}")
        self.replicas = frozenset(replicas)
        self.extra_mean = extra_mean
        self.extra_jitter = extra_jitter
        self.seed = seed
        self.start = start
        self.end = end

    def install(self, cluster: Cluster) -> None:
        env = cluster.env
        network = cluster.network
        rng = make_rng((cluster.config.seed << 16) ^ 0x9E3779B9 ^ self.seed)

        def gray_filter(message: Message) -> bool:
            now = env.now
            if self.end is not None and now >= self.end:
                network.discard_filter(gray_filter)
                return True
            if now < self.start:
                return True
            if message.sender not in self.replicas:
                return True
            if message.replayed:
                return True
            extra = max(0.0, rng.gauss(
                self.extra_mean, self.extra_mean * self.extra_jitter))
            _redeliver(network, env, message, extra)
            return False
        network.add_filter(gray_filter)


def schedule_crashes(cluster: Cluster, replicas: Sequence[int],
                     at: float) -> None:
    """Crash-stop ``replicas`` at simulated time ``at``."""
    def crasher():
        yield cluster.env.timeout(at)
        for replica_id in replicas:
            cluster.replicas[replica_id].crash()
    cluster.env.process(crasher())


class CrashStop:
    """Installable wrapper around :func:`schedule_crashes` for the matrix."""

    def __init__(self, replicas: Sequence[int], at: float) -> None:
        self.replicas = tuple(replicas)
        self.at = at

    def install(self, cluster: Cluster) -> None:
        schedule_crashes(cluster, self.replicas, self.at)


def install_proposal_delay(cluster: Cluster, replicas: Iterable[int],
                           extra_delay: float, start: float = 0.0,
                           end: Optional[float] = None):
    """Delay block dissemination from ``replicas`` by ``extra_delay``.

    Implemented by re-delivering the message after the delay
    (:func:`_redeliver`); triggers P6 timeouts at honest proposers when the
    delay exceeds ``leader_timeout``.  Outside the ``[start, end)`` window the
    filter passes messages through, and once ``end`` has elapsed it
    uninstalls itself.  Returns the installed filter (tests use it to
    observe the uninstall).
    """
    blocked = frozenset(replicas)
    env = cluster.env
    network = cluster.network

    def delay_filter(message: Message) -> bool:
        now = env.now
        if end is not None and now >= end:
            network.discard_filter(delay_filter)
            return True
        if now < start:
            return True
        if message.sender not in blocked \
                or message.kind not in _BLOCK_KINDS:
            return True
        if message.replayed:
            return True
        _redeliver(network, env, message, extra_delay)
        return False
    network.add_filter(delay_filter)
    return delay_filter
