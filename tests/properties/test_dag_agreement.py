"""Property-based tests: Tusk total-order agreement.

Whatever subsets of authors participate per round and whatever order
vertices arrive in, replicas that process the same certified DAG commit
*consistent* block sequences: one replica's sequence is always a prefix
of the other's (the §2 consistency property through the commit rule).
Equality is only eventual — whether a wave's leader commits *directly*
depends on which 2f+1 support vertices a replica held at the moment it
decided the wave, which is view-dependent; a skipped leader is recovered
through the causal history of the next leader that does commit, so on a
finite DAG one replica may lawfully sit a few leaders behind but never
disagrees on what it has committed."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import (CertificateBuilder, KeyPair, KeyRegistry,
                          quorum_size, vote_message)
from repro.dag import Block, BlockKind, DagStore, TuskConsensus, Vertex

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

N = 4
_REGISTRY = KeyRegistry()
_PAIRS = [KeyPair.generate(i, 77) for i in range(N)]
for _pair in _PAIRS:
    _REGISTRY.register(_pair)


def certify(block):
    builder = CertificateBuilder(block.digest, block.author,
                                 block.round_number, N,
                                 block.vote_payload)
    for pair in _PAIRS[:quorum_size(N)]:
        builder.add_vote(pair.sign(vote_message(
            block.digest, block.author, block.round_number)), _REGISTRY)
    return Vertex(block=block, certificate=builder.build())


@st.composite
def random_dags(draw):
    """A certified DAG where each round has a random >= 2f+1 author subset
    and each block references a random >= 2f+1 subset of the previous
    round."""
    n_rounds = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    rng = random.Random(seed)
    quorum = quorum_size(N)
    vertices = []
    previous = []
    for round_number in range(n_rounds):
        authors = sorted(rng.sample(range(N), rng.randint(quorum, N)))
        current = []
        for author in authors:
            if round_number == 0:
                parents = ()
            else:
                k = rng.randint(quorum, len(previous))
                parents = tuple(v.digest
                                for v in sorted(rng.sample(previous, k),
                                                key=lambda v: v.author))
            block = Block(author=author, shard=author, epoch=0,
                          round_number=round_number, kind=BlockKind.NORMAL,
                          parents=parents)
            current.append(certify(block))
        vertices.extend(current)
        previous = current
    return vertices, seed


def committed_sequence(vertices, shuffle_seed):
    store = DagStore(epoch=0)
    consensus = TuskConsensus(N, 0)
    ordered = vertices[:]
    random.Random(shuffle_seed).shuffle(ordered)
    sequence = []
    for vertex in ordered:
        store.insert(vertex)
        for event in consensus.advance(store):
            sequence.extend(v.digest for v in event.delivered)
    return sequence


def canonical_sequence(vertices):
    """The commit sequence of a replica that receives the DAG in causal
    (round) order — the maximal view: every wave is decided with its full
    support round present, so it commits every directly-committable
    leader.  Any partial view's sequence must be a prefix of this one."""
    store = DagStore(epoch=0)
    consensus = TuskConsensus(N, 0)
    sequence = []
    for vertex in vertices:
        store.insert(vertex)
        for event in consensus.advance(store):
            sequence.extend(v.digest for v in event.delivered)
    return sequence


@given(random_dags(), st.integers(0, 1000), st.integers(0, 1000))
@SETTINGS
def test_agreement_across_insertion_orders(dag, seed_a, seed_b):
    """Every delivery order yields a prefix of the canonical (causal
    delivery) commit sequence — hence any two orders are prefix-consistent
    with each other.  See the module docstring for why equality would be
    too strong (direct commits are view-dependent); anchoring on the
    canonical sequence keeps the assertion non-vacuous when one order
    commits little or nothing: whatever *is* committed must match the
    canonical order exactly."""
    vertices, _ = dag
    canonical = canonical_sequence(vertices)
    a = committed_sequence(vertices, seed_a)
    b = committed_sequence(vertices, seed_b)
    assert len(a) <= len(canonical) and len(b) <= len(canonical)
    assert canonical[:len(a)] == a
    assert canonical[:len(b)] == b


@given(random_dags(), st.integers(0, 1000))
@SETTINGS
def test_no_double_commit(dag, shuffle_seed):
    vertices, _ = dag
    sequence = committed_sequence(vertices, shuffle_seed)
    assert len(sequence) == len(set(sequence))


@given(random_dags(), st.integers(0, 1000))
@SETTINGS
def test_commit_respects_causality(dag, shuffle_seed):
    """A block never commits before any block in its causal history."""
    vertices, _ = dag
    by_digest = {v.digest: v for v in vertices}
    sequence = committed_sequence(vertices, shuffle_seed)
    position = {digest: i for i, digest in enumerate(sequence)}
    for digest in sequence:
        for parent in by_digest[digest].block.parents:
            if parent in position:
                assert position[parent] < position[digest]


@given(random_dags())
@SETTINGS
def test_prefix_property_under_partial_delivery(dag):
    """Processing only a prefix of the vertices yields a prefix of the
    full commit sequence (safety under lag)."""
    vertices, seed = dag
    full = committed_sequence(vertices, 0)
    rng = random.Random(seed)
    cut = rng.randint(0, len(vertices))
    ordered = vertices[:]
    random.Random(0).shuffle(ordered)
    store = DagStore(epoch=0)
    consensus = TuskConsensus(N, 0)
    partial = []
    for vertex in ordered[:cut]:
        store.insert(vertex)
        for event in consensus.advance(store):
            partial.extend(v.digest for v in event.delivered)
    assert partial == full[:len(partial)]
