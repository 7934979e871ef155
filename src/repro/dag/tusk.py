"""The Tusk commit rule (§2).

A leader vertex of round ``r`` commits during round ``r + 2`` once

1. the replica holds at least ``2f + 1`` vertices of round ``r + 1``, and
2. the leader vertex is referenced by at least ``f + 1`` of them.

Committing a leader commits its entire uncommitted causal history.  Leaders
that missed their support window are *not* lost: when a later leader
commits, any earlier leader vertex found in its causal history is ordered
(and committed) first, which is how all honest replicas converge on one
total order even when their interim views differed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.crypto.certificates import quorum_size, weak_quorum_size
from repro.dag.leader import LeaderSchedule
from repro.dag.store import DagStore
from repro.dag.types import Vertex
from repro.errors import ConsensusError


@dataclass(frozen=True)
class CommitEvent:
    """One committed leader and the blocks its commit delivers, in order."""

    epoch: int
    leader_round: int
    leader: Vertex
    #: Every newly committed vertex in deterministic total order (ascending
    #: round, then author), ending with the leader itself.
    delivered: List[Vertex]


class TuskConsensus:
    """Per-replica commit state machine over one epoch's DAG."""

    def __init__(self, n: int, epoch: int,
                 schedule: Optional[LeaderSchedule] = None) -> None:
        self.n = n
        self.epoch = epoch
        self.schedule = schedule or LeaderSchedule(n)
        self._committed_digests: Set[str] = set()
        self._next_candidate = self.schedule.next_leader_round(1)

    def is_committed(self, digest: str) -> bool:
        return digest in self._committed_digests

    def advance(self, store: DagStore) -> List[CommitEvent]:
        """Scan for newly committable leaders; returns new commit events."""
        if store.epoch != self.epoch:
            raise ConsensusError(
                f"consensus epoch {self.epoch} fed store epoch {store.epoch}")
        events: List[CommitEvent] = []
        leader_round = self._next_candidate
        while True:
            support_round = leader_round + 1
            if store.round_size(support_round) < quorum_size(self.n):
                break  # cannot evaluate this wave yet
            leader_id = self.schedule.leader_of(self.epoch, leader_round)
            leader_vertex = store.vertex_of(leader_round, leader_id)
            committable = (
                leader_vertex is not None
                and store.support(leader_vertex.digest, support_round)
                >= weak_quorum_size(self.n))
            if committable:
                events.extend(self._commit_chain(store, leader_vertex,
                                                 leader_round))
                # Waves up to this one are closed: earlier leaders were
                # either recovered from the causal history just now or
                # stay recoverable through a later leader's history.
                self._next_candidate = self.schedule.next_leader_round(
                    leader_round + self.schedule.wave_length)
            # A wave that is *not* committable stays open — more support
            # vertices may still arrive (the support round reaches 2f+1
            # before it is complete), and an irrevocable early skip would
            # make the commit view-dependent: a replica receiving the DAG
            # in causal order could permanently miss a leader that any
            # late-arriving view commits directly.  Re-evaluate it on the
            # next advance; quorum intersection keeps retries consistent
            # (a directly committed leader is in every later leader's
            # history, so cross-replica order never diverges).
            leader_round = self.schedule.next_leader_round(
                leader_round + self.schedule.wave_length)
        return events

    # ------------------------------------------------------------ internals

    def _commit_chain(self, store: DagStore, anchor: Vertex,
                      anchor_round: int) -> List[CommitEvent]:
        """Commit ``anchor`` plus any earlier uncommitted leaders found in
        its causal history, oldest first.

        Commits deliver whole uncommitted histories, so the committed set is
        causally closed and one walk that stops at it finds every
        uncommitted ancestor of the anchor, already in delivery order.
        """
        committed = self._committed_digests
        uncommitted = store.causal_history(anchor.digest, stop=committed)
        events: List[CommitEvent] = []
        for vertex in uncommitted:
            round_number = vertex.round_number
            if vertex is anchor:
                # What the earlier leaders did not deliver, still in order.
                delivered = [v for v in uncommitted
                             if v.digest not in committed]
            elif (round_number < anchor_round
                    and self.schedule.is_leader_round(round_number)
                    and vertex.author == self.schedule.leader_of(
                        self.epoch, round_number)):
                delivered = store.causal_history(vertex.digest,
                                                 stop=committed)
            else:
                continue
            committed.update(v.digest for v in delivered)
            events.append(CommitEvent(
                epoch=self.epoch,
                leader_round=round_number,
                leader=vertex,
                delivered=delivered,
            ))
        return events
