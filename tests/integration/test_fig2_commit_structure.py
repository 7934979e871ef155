"""Figure 2 / §2: structure of Tusk commits on a synthetic 4-replica DAG.

The paper's Figure 2 shows leaders on odd rounds committing the causal
history accumulated since the previous leader; this test reproduces the
wave structure: which vertices each commit event delivers and in what
order.
"""

import pytest

from repro.crypto import (CertificateBuilder, KeyPair, KeyRegistry,
                          quorum_size, vote_message)
from repro.dag import Block, BlockKind, DagStore, TuskConsensus, Vertex


@pytest.fixture
def full_dag():
    """Rounds 0..7, all four replicas, full parent references."""
    n = 4
    registry = KeyRegistry()
    pairs = [KeyPair.generate(i, 55) for i in range(n)]
    for pair in pairs:
        registry.register(pair)

    def certify(block):
        builder = CertificateBuilder(block.digest, block.author,
                                     block.round_number, n,
                                     block.vote_payload)
        for pair in pairs[:quorum_size(n)]:
            builder.add_vote(pair.sign(vote_message(
                block.digest, block.author, block.round_number)), registry)
        return Vertex(block=block, certificate=builder.build())

    rounds = {}
    vertices = []
    for round_number in range(8):
        parents = tuple(v.digest for v in rounds.get(round_number - 1, []))
        current = [certify(Block(author=a, shard=a, epoch=0,
                                 round_number=round_number,
                                 kind=BlockKind.NORMAL,
                                 parents=parents if round_number else ()))
                   for a in range(n)]
        rounds[round_number] = current
        vertices.extend(current)
    return vertices


def run_consensus(vertices):
    store = DagStore(epoch=0)
    consensus = TuskConsensus(4, 0)
    events = []
    for vertex in vertices:
        store.insert(vertex)
        events.extend(consensus.advance(store))
    return events


def test_leaders_every_two_rounds(full_dag):
    events = run_consensus(full_dag)
    assert [event.leader_round for event in events] == [1, 3, 5]


def test_first_wave_delivers_round0_plus_leader(full_dag):
    events = run_consensus(full_dag)
    first = events[0]
    delivered = [(v.round_number, v.author) for v in first.delivered]
    # all four round-0 vertices, then the round-1 leader (author 0)
    assert delivered == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]


def test_second_wave_delivers_remaining_history(full_dag):
    events = run_consensus(full_dag)
    second = events[1]
    delivered = [(v.round_number, v.author) for v in second.delivered]
    # the round-1 non-leaders, all of round 2, then the round-3 leader
    assert delivered == [(1, 1), (1, 2), (1, 3),
                         (2, 0), (2, 1), (2, 2), (2, 3),
                         (3, 1)]


def test_each_wave_ends_with_its_leader(full_dag):
    for event in run_consensus(full_dag):
        last = event.delivered[-1]
        assert last.digest == event.leader.digest
        assert last.round_number == event.leader_round


def test_wave_delivery_in_round_then_author_order(full_dag):
    for event in run_consensus(full_dag):
        keys = [(v.round_number, v.author) for v in event.delivered]
        assert keys == sorted(keys)


def test_total_delivered_matches_committed_rounds(full_dag):
    events = run_consensus(full_dag)
    total = sum(len(event.delivered) for event in events)
    # rounds 0-4 complete (20 vertices) + round-5 leader = 21
    assert total == 21
