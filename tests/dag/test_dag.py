"""Unit tests for DAG types, store, leader schedule, and the Tusk rule."""

import random

import pytest

from repro.crypto import (CertificateBuilder, KeyPair, KeyRegistry,
                          vote_message)
from repro.dag import (Block, BlockKind, DagStore, LeaderSchedule,
                       TuskConsensus, Vertex)
from repro.errors import ConsensusError
from repro.txn import Transaction


class DagBuilder:
    """Builds certified synthetic DAGs for tests."""

    def __init__(self, n=4, epoch=0):
        self.n = n
        self.epoch = epoch
        self.registry = KeyRegistry()
        self.pairs = [KeyPair.generate(i, 99) for i in range(n)]
        for pair in self.pairs:
            self.registry.register(pair)
        self.rounds = {}

    def certify(self, block):
        builder = CertificateBuilder(block.digest, block.author,
                                     block.round_number, self.n,
                                     block.vote_payload)
        for pair in self.pairs[:2 * ((self.n - 1) // 3) + 1]:
            builder.add_vote(
                pair.sign(vote_message(block.digest, block.author,
                                       block.round_number)),
                self.registry)
        return Vertex(block=block, certificate=builder.build())

    def make_round(self, round_number, authors=None, kinds=None,
                   parent_authors=None):
        authors = list(range(self.n)) if authors is None else authors
        previous = self.rounds.get(round_number - 1, {})
        if parent_authors is None:
            parents = tuple(v.digest for v in previous.values())
        else:
            parents = tuple(previous[a].digest for a in parent_authors
                            if a in previous)
        vertices = {}
        for author in authors:
            kind = (kinds or {}).get(author, BlockKind.NORMAL)
            block = Block(author=author, shard=author, epoch=self.epoch,
                          round_number=round_number, kind=kind,
                          parents=parents if round_number > 0 else ())
            vertices[author] = self.certify(block)
        self.rounds[round_number] = vertices
        return list(vertices.values())

    def all_vertices(self):
        return [v for r in sorted(self.rounds)
                for v in self.rounds[r].values()]


@pytest.fixture
def builder():
    return DagBuilder()


# -- types -------------------------------------------------------------------


def test_block_digest_deterministic():
    b1 = Block(author=0, shard=0, epoch=0, round_number=1,
               kind=BlockKind.NORMAL, parents=("p",))
    b2 = Block(author=0, shard=0, epoch=0, round_number=1,
               kind=BlockKind.NORMAL, parents=("p",))
    assert b1.digest == b2.digest


def test_block_digest_covers_payload():
    tx = Transaction(1, "smallbank.get_balance", (1,), (0,))
    base = dict(author=0, shard=0, epoch=0, round_number=1,
                kind=BlockKind.NORMAL, parents=())
    assert Block(**base).digest != Block(**base, transactions=(tx,)).digest
    assert Block(**base).digest != Block(**base, converted=(tx,)).digest


def test_block_kind_covered_by_digest():
    base = dict(author=0, shard=0, epoch=0, round_number=1, parents=())
    normal = Block(kind=BlockKind.NORMAL, **base)
    shift = Block(kind=BlockKind.SHIFT, **base)
    assert normal.digest != shift.digest
    assert shift.is_shift and not normal.is_shift


def test_ordered_payload_concatenates():
    tx1 = Transaction(1, "c", (1,), (0,))
    tx2 = Transaction(2, "c", (2,), (1,))
    block = Block(author=0, shard=0, epoch=0, round_number=0,
                  kind=BlockKind.CROSS, parents=(),
                  transactions=(tx1,), converted=(tx2,))
    assert block.ordered_payload() == (tx1, tx2)


def test_vertex_rejects_mismatched_certificate(builder):
    block_a = Block(author=0, shard=0, epoch=0, round_number=0,
                    kind=BlockKind.NORMAL, parents=())
    block_b = Block(author=1, shard=1, epoch=0, round_number=0,
                    kind=BlockKind.NORMAL, parents=())
    vertex_a = builder.certify(block_a)
    with pytest.raises(ValueError):
        Vertex(block=block_b, certificate=vertex_a.certificate)


# -- store -------------------------------------------------------------------


def test_store_insert_and_queries(builder):
    store = DagStore(epoch=0)
    for vertex in builder.make_round(0):
        store.insert(vertex)
    assert store.round_size(0) == 4
    assert store.highest_round() == 0
    v = store.vertex_of(0, 2)
    assert v is not None and v.author == 2
    assert v.digest in store


def test_store_rejects_wrong_epoch(builder):
    store = DagStore(epoch=1)
    vertex = builder.make_round(0)[0]
    with pytest.raises(ConsensusError):
        store.insert(vertex)


def test_store_duplicate_insert_noop(builder):
    store = DagStore(epoch=0)
    vertex = builder.make_round(0)[0]
    assert store.insert(vertex)
    assert store.insert(vertex) == []


def test_store_buffers_until_parents_arrive(builder):
    store = DagStore(epoch=0)
    round0 = builder.make_round(0)
    round1 = builder.make_round(1)
    # insert a round-1 vertex first: buffered
    assert store.insert(round1[0]) == []
    assert store.pending_count() == 1
    added = []
    for vertex in round0:
        added.extend(store.insert(vertex))
    # the buffered vertex flushes once the last parent lands
    assert round1[0].digest in {v.digest for v in added}
    assert store.pending_count() == 0


def test_store_support_counts_references(builder):
    store = DagStore(epoch=0)
    round0 = builder.make_round(0)
    round1 = builder.make_round(1)
    for vertex in round0 + round1:
        store.insert(vertex)
    for vertex in round0:
        assert store.support(vertex.digest, 1) == 4
    assert store.support(round0[0].digest, 2) == 0


def test_store_causal_history_complete(builder):
    store = DagStore(epoch=0)
    for r in range(3):
        builder.make_round(r)
    for vertex in builder.all_vertices():
        store.insert(vertex)
    tip = builder.rounds[2][0]
    history = store.causal_history(tip.digest)
    assert len(history) == 9  # rounds 0 and 1 fully + itself
    rounds = [v.round_number for v in history]
    assert rounds == sorted(rounds)


def test_store_causal_history_stop_set(builder):
    store = DagStore(epoch=0)
    for r in range(2):
        builder.make_round(r)
    for vertex in builder.all_vertices():
        store.insert(vertex)
    tip = builder.rounds[1][0]
    stop = {builder.rounds[0][a].digest for a in range(4)}
    history = store.causal_history(tip.digest, stop=stop)
    assert [v.digest for v in history] == [tip.digest]


def test_store_unknown_digest_raises(builder):
    store = DagStore(epoch=0)
    with pytest.raises(ConsensusError):
        store.causal_history("nope")


def test_round_vertices_sorted_by_author(builder):
    store = DagStore(epoch=0)
    vertices = builder.make_round(0)
    for vertex in reversed(vertices):
        store.insert(vertex)
    assert [v.author for v in store.round_vertices(0)] == [0, 1, 2, 3]


# -- leader schedule ------------------------------------------------------------


def test_leader_rounds_are_odd():
    schedule = LeaderSchedule(4)
    assert not schedule.is_leader_round(0)
    assert schedule.is_leader_round(1)
    assert not schedule.is_leader_round(2)
    assert schedule.is_leader_round(3)


def test_leader_round_robin():
    schedule = LeaderSchedule(4)
    leaders = [schedule.leader_of(0, r) for r in (1, 3, 5, 7, 9)]
    assert leaders == [0, 1, 2, 3, 0]


def test_leader_rotates_with_epoch():
    schedule = LeaderSchedule(4)
    assert schedule.leader_of(1, 1) == 1
    assert schedule.leader_of(2, 1) == 2


def test_leader_of_non_leader_round_raises():
    with pytest.raises(ConsensusError):
        LeaderSchedule(4).leader_of(0, 2)


def test_commit_round_and_next_leader_round():
    schedule = LeaderSchedule(4)
    assert schedule.commit_round(3) == 5
    assert schedule.next_leader_round(1) == 1
    assert schedule.next_leader_round(2) == 3


# -- tusk --------------------------------------------------------------------


def insert_all(vertices, seed=None):
    store = DagStore(epoch=0)
    consensus = TuskConsensus(4, 0)
    if seed is not None:
        vertices = vertices[:]
        random.Random(seed).shuffle(vertices)
    events = []
    for vertex in vertices:
        store.insert(vertex)
        events.extend(consensus.advance(store))
    return store, consensus, events


def test_leader_commits_with_support(builder):
    for r in range(4):
        builder.make_round(r)
    _, consensus, events = insert_all(builder.all_vertices())
    assert [e.leader_round for e in events] == [1]
    leader = events[0].leader
    assert leader.author == LeaderSchedule(4).leader_of(0, 1)
    # delivered includes all of rounds 0 plus the leader vertex
    assert events[0].delivered[-1].digest == leader.digest


def test_total_order_agreement_across_insertion_orders(builder):
    for r in range(8):
        builder.make_round(r)
    reference = None
    for seed in range(6):
        _, _, events = insert_all(builder.all_vertices(), seed=seed)
        order = [v.digest for e in events for v in e.delivered]
        if reference is None:
            reference = order
        assert order == reference


def test_unsupported_leader_skipped_then_recovered(builder):
    """A leader vertex not referenced by round r+1 is skipped, but a later
    committed anchor whose history contains it orders it first."""
    builder.make_round(0)
    builder.make_round(1)
    # round 2 references everyone EXCEPT the round-1 leader (author 0)
    builder.make_round(2, parent_authors=[1, 2, 3])
    builder.make_round(3)
    builder.make_round(4)
    _, consensus, events = insert_all(builder.all_vertices())
    # wave 1: leader 0 has zero support in round 2 -> skipped.
    # wave 3 (leader author 1) commits; leader 1's history includes the
    # round-1 vertex of author 0?  No: round-2 blocks exclude it, round 3
    # references round 2 only, so it stays uncommitted.
    leader_rounds = [e.leader_round for e in events]
    assert 3 in leader_rounds
    committed_digests = {v.digest for e in events for v in e.delivered}
    missing = builder.rounds[1][0]
    assert missing.digest not in committed_digests


def test_crashed_author_dag_still_commits(builder):
    """With one silent replica (3 of 4 proposing), leaders still commit."""
    live = [0, 1, 2]
    builder.make_round(0, authors=live)
    for r in range(1, 6):
        builder.make_round(r, authors=live)
    _, _, events = insert_all(builder.all_vertices())
    assert events, "no commits despite quorum participation"


def test_no_commit_without_quorum_round(builder):
    builder.make_round(0)
    builder.make_round(1)
    # only 2 vertices in round 2: below 2f+1 = 3
    builder.make_round(2, authors=[0, 1])
    _, _, events = insert_all(builder.all_vertices())
    assert events == []


def test_committed_digests_tracked(builder):
    for r in range(4):
        builder.make_round(r)
    _, consensus, events = insert_all(builder.all_vertices())
    for event in events:
        for vertex in event.delivered:
            assert consensus.is_committed(vertex.digest)


def test_consensus_epoch_mismatch_raises(builder):
    store = DagStore(epoch=0)
    consensus = TuskConsensus(4, epoch=1)
    with pytest.raises(ConsensusError):
        consensus.advance(store)


def test_commit_exactly_once(builder):
    for r in range(8):
        builder.make_round(r)
    _, _, events = insert_all(builder.all_vertices())
    delivered = [v.digest for e in events for v in e.delivered]
    assert len(delivered) == len(set(delivered))
