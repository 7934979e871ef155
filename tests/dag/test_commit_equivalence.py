"""The bounded commit walk and the scanned ``support`` against reference
forms kept here: the seed's full commit walk, verbatim, and a reverse
parent index for ``support``.

The seed re-walked an anchor's whole causal history back to round 0 on every
commit.  Its replacement must yield the identical sequence of
``CommitEvent``s (leader, round, delivery order) for every DAG and every
arrival order, and the walks must cost what a commit newly delivers, not
the length of the run.  ``support`` scans a round's parent tuples (the
seed's form); the index it once used, a list of children per parent written
on every insert, must give the identical counts.  ``insert`` is the seed's;
it is held to the validity property under adversarial arrival orders.
"""

import random
from collections import defaultdict
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import Certificate
from repro.dag import (Block, BlockKind, CommitEvent, DagStore,
                       TuskConsensus, Vertex)

from tests.dag.test_dag import DagBuilder
from tests.properties.test_dag_agreement import N, random_dags

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- the reference forms ------------------------------------------------


class IndexedDagStore(DagStore):
    """``support`` from a reverse parent index: every inserted vertex is
    appended to the children list of each distinct parent it cites."""

    def __init__(self, epoch: int) -> None:
        super().__init__(epoch)
        self._children: Dict[str, List[Vertex]] = defaultdict(list)

    def _insert_ready(self, vertex: Vertex) -> Vertex:
        super()._insert_ready(vertex)
        for parent in dict.fromkeys(vertex.block.parents):
            self._children[parent].append(vertex)
        return vertex

    def support(self, digest: str, round_number: int) -> int:
        return sum(1 for child in self._children.get(digest, ())
                   if child.block.round_number == round_number)


class SeedTuskConsensus(TuskConsensus):
    """``_commit_chain`` as the seed shipped it: a full walk per commit."""

    def _commit_chain(self, store: DagStore, anchor: Vertex,
                      anchor_round: int) -> List[CommitEvent]:
        history_digests = {v.digest
                           for v in store.causal_history(anchor.digest)}
        chain: List[Vertex] = []
        round_cursor = self.schedule.next_leader_round(1)
        while round_cursor < anchor_round:
            leader_id = self.schedule.leader_of(self.epoch, round_cursor)
            candidate = store.vertex_of(round_cursor, leader_id)
            if (candidate is not None
                    and candidate.digest in history_digests
                    and candidate.digest not in self._committed_digests):
                chain.append(candidate)
            round_cursor += self.schedule.wave_length
        chain.append(anchor)
        events: List[CommitEvent] = []
        for leader_vertex in chain:
            delivered = [
                vertex for vertex
                in store.causal_history(leader_vertex.digest,
                                        stop=self._committed_digests)
            ]
            self._committed_digests.update(v.digest for v in delivered)
            events.append(CommitEvent(
                epoch=self.epoch,
                leader_round=leader_vertex.round_number,
                leader=leader_vertex,
                delivered=delivered,
            ))
        return events


# -- helpers ------------------------------------------------------------------


def digests(vertices):
    return [vertex.digest for vertex in vertices]


def event_key(event: CommitEvent):
    return (event.epoch, event.leader_round, event.leader.digest,
            digests(event.delivered))


def run_side_by_side(arrivals, n):
    """Feed ``arrivals`` to the shipped pair and to the reference pair; every
    ``advance`` result and the parents' support counts must agree step by
    step, and no vertex may land before its parents.  Returns the shipped
    side."""
    store, consensus = DagStore(epoch=0), TuskConsensus(n, 0)
    ref_store, ref_consensus = (IndexedDagStore(epoch=0),
                                SeedTuskConsensus(n, 0))
    events = []
    landed_so_far = set()
    for vertex in arrivals:
        added = store.insert(vertex)
        ref_store.insert(vertex)
        for landed in added:
            assert landed_so_far.issuperset(landed.block.parents)
            assert landed.digest not in landed_so_far
            landed_so_far.add(landed.digest)
            for parent in landed.block.parents:
                assert (store.support(parent, landed.round_number)
                        == ref_store.support(parent, landed.round_number))
        new = consensus.advance(store)
        ref_new = ref_consensus.advance(ref_store)
        assert [event_key(e) for e in new] == [event_key(e) for e in ref_new]
        events.extend(new)
    return store, consensus, events


def uncertified(block: Block) -> Vertex:
    """A vertex with an empty certificate: the store and the commit rule
    never look inside it, and large synthetic DAGs need not pay for votes."""
    return Vertex(block=block, certificate=Certificate(
        digest=block.digest, origin=block.author,
        round_number=block.round_number, signatures=()))


def synthetic_dag(n, rounds, rng=None, fan_in=None):
    """``rounds`` full rounds of ``n`` authors; each block cites all of the
    previous round, or a random ``fan_in`` of it."""
    by_round, previous = [], []
    for round_number in range(rounds):
        current = []
        for author in range(n):
            cited = previous if fan_in is None or not previous else sorted(
                rng.sample(previous, fan_in), key=lambda v: v.author)
            current.append(uncertified(Block(
                author=author, shard=author, epoch=0,
                round_number=round_number, kind=BlockKind.NORMAL,
                parents=tuple(v.digest for v in cited))))
        by_round.append(current)
        previous = current
    return by_round


# -- commit chain ---------------------------------------------------------


@given(random_dags(), st.integers(0, 1000))
@SETTINGS
def test_commit_events_match_seed_on_random_dags(dag, shuffle_seed):
    vertices, _ = dag
    arrivals = vertices[:]
    random.Random(shuffle_seed).shuffle(arrivals)
    run_side_by_side(arrivals, N)
    run_side_by_side(vertices, N)


def test_skipped_leader_recovered_through_later_anchor_matches_seed():
    """Wave 1's leader gets one reference (< f+1) so it is not committed
    directly; wave 3's anchor has it in its history and orders it first —
    two events from one ``advance``, the chained walk reusing the anchor's."""
    builder = DagBuilder()
    builder.make_round(0)
    builder.make_round(1)
    round2 = builder.make_round(2, parent_authors=[1, 2, 3])
    # One round-2 block does cite the round-1 leader (author 0).
    everyone = tuple(v.digest for v in builder.rounds[1].values())
    builder.rounds[2][3] = builder.certify(Block(
        author=3, shard=3, epoch=0, round_number=2, kind=BlockKind.NORMAL,
        parents=everyone))
    assert round2[3].digest != builder.rounds[2][3].digest
    for r in (3, 4, 5, 6):
        builder.make_round(r)
    for seed in (None, 0, 1, 2):
        arrivals = builder.all_vertices()
        if seed is not None:
            random.Random(seed).shuffle(arrivals)
        _, consensus, events = run_side_by_side(arrivals, 4)
        assert [e.leader_round for e in events][:2] == [1, 3]
        assert consensus.is_committed(builder.rounds[1][0].digest)


def test_unreferenced_leader_stays_uncommitted_matches_seed():
    builder = DagBuilder()
    builder.make_round(0)
    builder.make_round(1)
    builder.make_round(2, parent_authors=[1, 2, 3])
    for r in (3, 4, 5, 6):
        builder.make_round(r)
    _, consensus, events = run_side_by_side(builder.all_vertices(), 4)
    assert [e.leader_round for e in events] == [3, 5]
    assert not consensus.is_committed(builder.rounds[1][0].digest)


def test_crashed_author_matches_seed():
    builder = DagBuilder()
    for r in range(10):
        builder.make_round(r, authors=[0, 1, 2])
    for seed in range(4):
        arrivals = builder.all_vertices()
        random.Random(seed).shuffle(arrivals)
        _, _, events = run_side_by_side(arrivals, 4)
        # Author 3's waves have no leader vertex; the others commit.
        assert [e.leader_round for e in events] == [1, 3, 5]


@pytest.mark.parametrize("seed", range(5))
def test_sparse_wide_dag_matches_seed(seed):
    """7 authors citing a random 2f+1 of the previous round: leaders miss
    their window often and come back through later anchors."""
    rng = random.Random(seed)
    by_round = synthetic_dag(7, 24, rng=rng, fan_in=5)
    arrivals = [v for current in by_round for v in current]
    rng.shuffle(arrivals)
    _, _, events = run_side_by_side(arrivals, 7)
    assert events


# -- insert under adversarial arrival orders ------------------------------


def arrival_orders(by_round, rng):
    flat = [v for current in by_round for v in current]
    yield "causal", flat
    yield "rounds reversed", [v for current in reversed(by_round)
                              for v in current]
    yield "fully reversed", flat[::-1]
    yield "children before parents", [
        v for pair in zip(by_round[1::2], by_round[0::2])
        for current in pair for v in current]
    shuffled = flat[:]
    rng.shuffle(shuffled)
    yield "shuffled", shuffled
    with_duplicates = shuffled + flat[::-1]
    rng.shuffle(with_duplicates)
    yield "duplicates of buffered and inserted", with_duplicates


@pytest.mark.parametrize("fan_in", [None, 3])
def test_insert_under_adversarial_arrivals(fan_in):
    rng = random.Random(fan_in or 0)
    by_round = synthetic_dag(4, 12, rng=rng, fan_in=fan_in)
    total = sum(len(current) for current in by_round)
    for _label, arrivals in arrival_orders(by_round, rng):
        store, _, _ = run_side_by_side(arrivals, 4)
        assert store.pending_count() == 0
        assert sum(store.round_size(r) for r in range(12)) == total


def test_duplicate_of_a_buffered_vertex_lands_once():
    by_round = synthetic_dag(4, 2)
    child = by_round[1][0]
    store = DagStore(epoch=0)
    assert store.insert(child) == [] and store.insert(child) == []
    assert store.pending_count() == 1
    added = [v for parent in by_round[0] for v in store.insert(parent)]
    assert digests(added).count(child.digest) == 1


def test_support_counts_a_vertex_once_and_only_in_the_asked_round():
    by_round = synthetic_dag(4, 2)
    parent = by_round[0][0]
    doubled = uncertified(Block(
        author=0, shard=0, epoch=0, round_number=2, kind=BlockKind.NORMAL,
        parents=(parent.digest, parent.digest)))
    for store in (DagStore(epoch=0), IndexedDagStore(epoch=0)):
        for vertex in by_round[0] + by_round[1] + [doubled]:
            store.insert(vertex)
        assert store.support(parent.digest, 1) == 4
        assert store.support(parent.digest, 2) == 1
        assert store.support(parent.digest, 3) == 0
        assert store.support("unknown", 1) == 0


# -- linearity ----------------------------------------------------------------


def test_commit_walks_visit_each_vertex_a_constant_number_of_times():
    """16 authors x 200 rounds: the walks of all commits together visit
    about as many vertices as were inserted, and a late commit visits what
    an early one did.  The seed's anchor walk went back to round 0 each
    time: ~100 commits x up to 3,200 vertices."""
    n, rounds = 16, 200
    store, consensus = DagStore(epoch=0), TuskConsensus(n, 0)
    per_commit = []
    inserted = 0
    for current in synthetic_dag(n, rounds):
        for vertex in current:
            inserted += len(store.insert(vertex))
            before = store.walk_visits
            if consensus.advance(store):
                per_commit.append(store.walk_visits - before)
    assert inserted == n * rounds
    assert len(per_commit) >= rounds // 2 - 2
    assert store.walk_visits <= 2 * inserted
    one_wave = 2 * n
    assert abs(per_commit[-1] - per_commit[2]) <= one_wave
    assert max(per_commit) <= 2 * one_wave
