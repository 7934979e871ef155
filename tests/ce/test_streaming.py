"""Tests for the execution session over batch streams and committed-node
pruning.

Two properties carry the session:

* **Invisible boundaries** — per-batch committed results of one session
  serving a stream are byte-identical to running the same batches through
  ``CERunner.run_batch`` one at a time, each a one-batch session (same
  environment, same runner, same RNG).
* **Boundedness** — a session serves one batch at a time, each on its
  own controller whose graph the boundary prune empties, so the node
  count just before each prune (``BatchResult.graph_nodes``) is the
  batch size over a long stream instead of growing linearly.
"""

import pytest

from repro.ce import (CEConfig, CERunner, ConcurrencyController,
                      DependencyGraph, NodeStatus, StreamSession)
from repro.contracts import default_registry, initial_state
from repro.contracts.replay import OverlayView
from repro.core import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.core.shards import ShardMap
from repro.errors import SerializationError
from repro.sim import Environment, make_rng
from repro.txn import Transaction
from repro.workloads import SmallBankWorkload, WorkloadConfig
from repro.workloads.ycsb import (YCSBConfig, YCSBWorkload, register_ycsb,
                                  initial_state as ycsb_state)
from repro.contracts.contract import ContractRegistry


def smallbank_batches(seed, n_batches, batch_size, accounts=64, theta=0.9):
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=accounts, read_probability=0.5, theta=theta),
        ShardMap(1), seed=seed)
    return [workload.batch(batch_size) for _ in range(n_batches)]


def run_batch_at_a_time(registry, batches, base_state, seed, executors):
    """The reference: sequential run_batch calls in one environment,
    feeding committed writes forward."""
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=executors), make_rng(seed))
    state = dict(base_state)
    results = []
    for txs in batches:
        proc = runner.run_batch(env, txs, state)
        env.run()
        state.update(proc.value.final_writes())
        results.append(proc.value)
    return results


def run_streaming(registry, batches, base_state, seed, executors):
    """One session over the stream, batch k+1 admitted as soon as batch
    k's drain returns, as a replica's round loop does.  Every admit hands
    the session a view of the committed state: an overlay the caller
    folds each drained batch's writes into, over ``base_state``.  Returns
    the drained results and the closed session."""
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=executors),
                      make_rng(seed))
    session = runner.open_session(env)
    overlay = {}
    results = []

    def pump():
        for batch in batches:
            session.admit(batch, OverlayView(overlay, base_state))
            result = yield session.drain()
            overlay.update(result.final_writes())
            results.append(result)

    proc = env.process(pump())
    env.run()
    assert proc.triggered, "stream deadlocked"
    session.close()
    return results, session


def fingerprint(result):
    """Everything the preplay block publishes, per committed transaction."""
    return [(entry.tx_id, entry.order_index,
             tuple(sorted(entry.read_set.items())),
             tuple(sorted(entry.write_set.items())),
             entry.result, entry.attempts)
            for entry in result.committed]


# ---------------------------------------------------------------- equivalence

@pytest.mark.usefixtures("graph_cls")
def test_strict_mode_byte_identical_on_every_backend():
    """The byte-identity guarantee holds with or without the closure rows
    checked against the word layouts (``tests/ce/word_rows.py``)."""
    registry = default_registry()
    batches = smallbank_batches(seed=5, n_batches=6, batch_size=30)
    state = initial_state(64)
    reference = run_batch_at_a_time(registry, batches, state, 5, 8)
    streamed, _ = run_streaming(registry, batches, state, 5, 8)
    for expected, actual in zip(reference, streamed):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.elapsed == expected.elapsed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("executors", [4, 16])
def test_stream_matches_batch_at_a_time(seed, executors):
    registry = default_registry()
    batches = smallbank_batches(seed, n_batches=8, batch_size=30)
    state = initial_state(64)
    reference = run_batch_at_a_time(registry, batches, state, seed, executors)
    streamed, _ = run_streaming(registry, batches, state, seed, executors)
    assert len(streamed) == len(reference)
    for expected, actual in zip(reference, streamed):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.re_executions == expected.re_executions
        assert actual.latencies == expected.latencies
        assert actual.elapsed == expected.elapsed
        assert actual.started_at == expected.started_at


@pytest.mark.parametrize("seed", [0, 3])
def test_stream_matches_under_abort_storm(seed):
    """High-contention YCSB: hundreds of re-executions, identical output."""
    registry = ContractRegistry()
    register_ycsb(registry)
    workload = YCSBWorkload(
        YCSBConfig(records=4, theta=0.99, read_fraction=0.5,
                   update_fraction=0.0), ShardMap(1), seed=seed)
    batches = [workload.batch(40) for _ in range(6)]
    state = ycsb_state(4)
    reference = run_batch_at_a_time(registry, batches, state, seed, 16)
    assert sum(r.re_executions for r in reference) > 50  # storm happened
    streamed, _ = run_streaming(registry, batches, state, seed, 16)
    for expected, actual in zip(reference, streamed):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.re_executions == expected.re_executions


# --------------------------------------------------------------- boundedness

def test_replica_style_session_matches_run_batch_per_batch():
    """Twenty contended batches through one session with a base view on
    every admit, as a replica passes them, commit byte-identically to a
    fresh one-batch session per batch, report the same controller
    counters field for field (each batch's own, never a running total),
    and the graph holds exactly the batch at every boundary."""
    registry = default_registry()
    batch_size = 25
    batches = smallbank_batches(7, n_batches=20, batch_size=batch_size)
    state = initial_state(64)
    reference = run_batch_at_a_time(registry, batches, state, 7, 8)
    streamed, _ = run_streaming(registry, batches, state, 7, 8)
    assert len(streamed) == len(reference) == 20
    for expected, actual in zip(reference, streamed):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.re_executions == expected.re_executions
        assert actual.elapsed == expected.elapsed
        assert actual.graph_nodes == batch_size
        assert vars(actual.stats) == vars(expected.stats)
        assert actual.stats.commits == batch_size
    assert sum(r.re_executions for r in reference) > 20  # contended


def test_graph_stays_bounded_over_twenty_batches():
    registry = default_registry()
    batch_size = 25
    batches = smallbank_batches(7, n_batches=20, batch_size=batch_size)
    streamed, session = run_streaming(registry, batches, initial_state(64),
                                      7, 8)
    # Plateau: the graph holds the committed batch, never more.
    assert [r.graph_nodes for r in streamed] == [batch_size] * 20
    # After the final batch there is nothing left to admit or retain.
    assert len(session.cc.graph.nodes) == 0
    # Summed per-batch counters cover the stream exactly once.
    assert sum(r.stats.commits for r in streamed) == 20 * batch_size
    assert sum(r.stats.aborts for r in streamed) \
        == sum(r.re_executions for r in streamed)


# ------------------------------------------------------------ prune unit tests

def test_prune_quiescent_controller_evicts_everything():
    cc = ConcurrencyController({"A": 1, "B": 2})
    for tx_id, key, value in ((1, "A", 10), (2, "B", 20)):
        node = cc.begin(tx_id)
        assert cc.read(node, key) in (1, 2)
        cc.write(node, key, value)
        cc.finish(node)
    assert len(cc.graph.nodes) == 2
    assert cc.graph.prune_committed() == 2
    assert len(cc.graph.nodes) == 0
    # Reads fall through to the overlay and see the committed values.
    probe = cc.begin(3)
    assert cc.read(probe, "A") == 10
    assert cc.read(probe, "B") == 20


def test_prune_with_a_live_node_raises_and_changes_nothing():
    """A prune before every node committed names the first node that has
    not, and leaves every node, record and edge in place."""
    cc = ConcurrencyController({"K": 0})
    writer = cc.begin(1)
    cc.write(writer, "K", 5)
    cc.finish(writer)
    reader = cc.begin(2)
    assert cc.read(reader, "K") == 5   # rf edge writer -> reader
    with pytest.raises(SerializationError,
                       match=r"transaction 2 \(running\)"):
        cc.graph.prune_committed()
    assert cc.graph.nodes == {1: writer, 2: reader}
    assert cc.graph.has_edge(writer, reader)
    assert cc.graph.has_path(writer, reader)
    assert cc.graph.writers_of("K") == [writer]
    assert cc.graph.readers_of("K") == [reader]
    cc.finish(reader)
    assert cc.graph.prune_committed() == 2   # quiescent: both go
    assert cc.graph.writers_of("K") == cc.graph.readers_of("K") == []


# ---------------------------------------------------------------- edge cases

def test_empty_stream_and_empty_batches():
    registry = default_registry()
    streamed, _ = run_streaming(registry, [], initial_state(8), 0, 4)
    assert streamed == []
    batches = smallbank_batches(5, n_batches=2, batch_size=10)
    with_gaps = [batches[0], [], batches[1], []]
    streamed, _ = run_streaming(registry, with_gaps, initial_state(64), 5, 4)
    assert [len(b.committed) for b in streamed] == [10, 0, 10, 0]
    reference = run_batch_at_a_time(registry, with_gaps, initial_state(64),
                                    5, 4)
    for expected, actual in zip(reference, streamed):
        assert fingerprint(actual) == fingerprint(expected)


# ------------------------------------------------------------- session API

def make_session(seed=3, executors=4, accounts=64):
    env = Environment()
    runner = CERunner(default_registry(), CEConfig(executors=executors),
                      make_rng(seed))
    session = runner.open_session(env)
    return env, runner, session


def test_session_admit_drain_matches_batch_at_a_time():
    """Driving the session by hand from outside a process — one admit,
    drain and ``env.run()`` per batch — produces the same per-batch
    results as the sequential run_batch reference."""
    registry = default_registry()
    batches = smallbank_batches(2, n_batches=5, batch_size=25)
    state = initial_state(64)
    reference = run_batch_at_a_time(registry, batches, state, 2, 8)
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(2))
    session = runner.open_session(env)
    state = dict(state)
    results = []
    for batch in batches:
        session.admit(batch, dict(state))
        proc = session.drain()
        env.run()
        state.update(proc.value.final_writes())
        results.append(proc.value)
    assert len(results) == len(reference)
    for expected, actual in zip(reference, results):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.latencies == expected.latencies
    session.close()                       # every admitted batch drained


def test_session_base_view_switching_matches_fresh_state():
    """``admit(batch, base_view)`` runs each batch on a controller over
    caller-owned state: results match the reference that feeds committed
    writes forward through its own state dict — including when the caller
    mutates that state between batches (the replica's
    overlay-discard-on-cross-shard-commit case)."""
    registry = default_registry()
    batches = smallbank_batches(6, n_batches=4, batch_size=20)
    state0 = initial_state(64)

    def external_write(state, k):
        if k == 2:  # committed state moved underneath before batch 2
            for key in list(state)[:5]:
                state[key] = state[key] + 17

    # Reference: one env + runner, per-batch run_batch against an evolving
    # caller-owned dict.
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(6))
    state = dict(state0)
    reference = []
    for k, txs in enumerate(batches):
        external_write(state, k)
        proc = runner.run_batch(env, txs, dict(state))
        env.run()
        state.update(proc.value.final_writes())
        reference.append(proc.value)

    # Session: same evolution, every batch through one worker pool.
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(6))
    session = runner.open_session(env)
    state = dict(state0)
    results = []
    for k, txs in enumerate(batches):
        external_write(state, k)
        session.admit(txs, dict(state))
        proc = session.drain()
        env.run()
        state.update(proc.value.final_writes())
        results.append(proc.value)
    for expected, actual in zip(reference, results):
        assert fingerprint(actual) == fingerprint(expected)
    # Each batch's controller saw only its own commits: earlier values
    # were observable only through the caller's views.
    assert session.cc._overlay == results[-1].final_writes()


def test_session_admit_is_atomic_on_duplicate_ids():
    """A rejected admit leaves no nodes or batch behind: the
    valid prefix of the bad batch can be re-admitted afterwards."""
    env, runner, session = make_session()
    (batch,) = smallbank_batches(1, n_batches=1, batch_size=6)
    bad = batch[:4] + [batch[2]]          # duplicate inside the batch
    with pytest.raises(SerializationError):
        session.admit(bad, dict(initial_state(64)))
    assert session.cc is None             # no controller was built
    session.admit(batch, dict(initial_state(64)))  # same ids, accepted
    proc = session.drain()
    env.run()
    assert len(proc.value.committed) == len(batch)
    session.close()


def test_session_lifecycle_errors():
    env, runner, session = make_session()
    with pytest.raises(SerializationError):
        session.drain()                      # nothing admitted
    (batch,) = smallbank_batches(0, n_batches=1, batch_size=5)
    view = dict(initial_state(64))
    session.admit(batch, view)
    with pytest.raises(SerializationError):
        session.close()                      # batch still in flight
    proc = session.drain()
    env.run()
    assert proc.value is not None
    session.close()
    with pytest.raises(SerializationError):
        session.admit(batch, view)           # closed
    with pytest.raises(SerializationError):
        session.close()                      # already closed


def test_session_abort_mid_drain_leaves_no_orphans():
    """An abort while a batch drains: the batch finishes in the background
    (its RNG draws belong to the seeded schedule), the drain then wakes
    with ``None``, every worker shuts down, and the runner's
    ``last_session`` reads as closed; a fresh session on the same runner
    starts with no controller."""
    registry = default_registry()
    batches = smallbank_batches(9, n_batches=2, batch_size=40,
                                theta=0.99)
    view = dict(initial_state(64))
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(9))
    session = runner.open_session(env)
    session.admit(batches[0], view)
    proc = session.drain()

    def aborter():
        yield env.timeout(2e-5)              # mid-flight
        assert not proc.triggered
        session.abort()
        with pytest.raises(SerializationError):
            session.admit(batches[1], view)  # the epoch is over

    env.process(aborter())
    env.run()
    assert proc.triggered
    assert proc.value is None                # no result for a dead epoch
    assert session.closed
    # The batch ran to completion in the background — that is what keeps
    # the shared engine RNG on the seeded schedule — and nothing else
    # reached the pool.
    assert session.cc.stats.commits == len(batches[0])
    assert all(not worker.is_alive for worker in session.workers)
    assert runner.last_session.closed
    # The next session is clean and fully functional.
    fresh = runner.open_session(env)
    assert fresh.cc is None
    fresh.admit(batches[0], view)
    proc = fresh.drain()
    env.run()
    assert len(proc.value.committed) == len(batches[0])
    fresh.close()


def test_orphan_finishes_on_its_own_controller_while_next_session_runs():
    """An epoch change while a batch drains, as a replica's does: the
    orphaned batch finishes on its own controller in the background while
    the next session admits on a fresh one, and each controller commits
    exactly its own batch."""
    registry = default_registry()
    first, second = smallbank_batches(9, n_batches=2, batch_size=40,
                                      theta=0.99)
    view = dict(initial_state(64))
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(9))
    session = runner.open_session(env)
    session.admit(first, view)
    orphan_cc = session.cc
    orphan = session.drain()
    fresh = []

    def reconfigure():
        yield env.timeout(2e-5)              # mid-flight
        assert orphan_cc.stats.commits < len(first)
        session.abort()
        fresh.append(runner.open_session(env))
        fresh[0].admit(second, view)
        result = yield fresh[0].drain()
        fresh.append(result)

    env.process(reconfigure())
    env.run()
    assert orphan.value is None
    next_session, result = fresh
    assert next_session.cc is not orphan_cc
    assert session.cc is orphan_cc
    assert orphan_cc.stats.commits == len(first)
    assert sorted(e.tx_id for e in orphan_cc.committed) \
        == sorted(tx.tx_id for tx in first)
    assert next_session.cc.committed == result.committed
    assert sorted(result.order) == sorted(tx.tx_id for tx in second)
    assert result.stats is next_session.cc.stats
    assert all(not worker.is_alive for worker in session.workers)
    next_session.close()


def test_abort_mid_preplay_preserves_engine_rng_lockstep():
    """The divergence hazard the orphan semantics exist for: interrupt a
    session mid-batch, then run a second batch through a *new* session of
    the same runner — the second batch's schedule must equal what it is
    when the first batch instead runs to completion through ``run_batch``
    (the orphan consumes the same RNG draws before round two starts)."""
    registry = default_registry()
    batches = smallbank_batches(12, n_batches=2, batch_size=30, theta=0.95)

    # Reference: two one-batch runs; batch 0's result is simply discarded
    # (the replica's epoch check), batch 1 runs afterwards.
    env = Environment()
    reference = CERunner(registry, CEConfig(executors=8), make_rng(12))
    reference.run_batch(env, batches[0], dict(initial_state(64)))
    env.run()
    ref = reference.run_batch(env, batches[1], dict(initial_state(64)))
    env.run()

    # Session path: abort mid-batch-0, fresh session for batch 1.
    view = dict(initial_state(64))
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(12))
    session = runner.open_session(env)
    session.admit(batches[0], view)
    proc = session.drain()

    def aborter():
        yield env.timeout(3e-5)
        assert not proc.triggered
        session.abort()

    env.process(aborter())
    env.run()                               # orphan completes here
    assert proc.value is None
    fresh = runner.open_session(env)
    fresh.admit(batches[1], view)
    proc = fresh.drain()
    env.run()
    assert fingerprint(proc.value) == fingerprint(ref.value)
    fresh.close()


def test_session_abort_idle_is_clean_and_idempotent():
    env, runner, session = make_session()
    session.abort()
    assert session.closed
    session.abort()                          # idempotent
    env.run()
    assert all(not worker.is_alive for worker in session.workers)
    assert runner.last_session.closed


def test_duplicate_ids_in_stream_window_rejected():
    """A batch reusing ids of a batch still in the session is refused
    (as is any admit before the earlier batch's drain returned)."""
    env, runner, session = make_session(executors=2)
    (batch,) = smallbank_batches(0, n_batches=1, batch_size=5)
    session.admit(batch, dict(initial_state(64)))
    with pytest.raises(SerializationError):
        session.admit(batch, dict(initial_state(64)))


def test_stream_reports_bounded_controller_buffers():
    """Each admit builds a distinct controller that holds its own batch
    alone — its commits (order indexes from 0), attempt counters and
    counters — so a long stream accumulates nothing; and the runner's
    ``last_session`` reads as closed after close(), so post-run reads
    can't mistake the dead controller's counters for live ones."""
    registry = default_registry()
    batches = smallbank_batches(3, n_batches=6, batch_size=15)
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=4), make_rng(3))
    session = runner.open_session(env)
    controllers = []
    for batch in batches:
        session.admit(batch, dict(initial_state(64)))
        controllers.append(session.cc)
        proc = session.drain()
        env.run()
        result = proc.value
        cc = session.cc
        assert cc is controllers[-1]
        assert cc.committed == result.committed
        assert [e.order_index for e in result.committed] \
            == list(range(len(batch)))
        assert set(cc._attempts) == {tx.tx_id for tx in batch}
        assert result.stats is cc.stats
        assert cc.stats.commits == len(batch)
        assert len(cc.graph.nodes) == 0
    assert len({id(cc) for cc in controllers}) == len(batches)
    assert runner.last_session is session and not session.closed
    session.close()
    assert runner.last_session.closed  # staleness guard after teardown


# ------------------------------------------------------ one batch at a time

def graph_state(graph):
    """Everything a prune could change: nodes, statuses, adjacency,
    per-key indexes, closure rows and counters."""
    return ({tx_id: (node, node.status, list(node.out_edges),
                     list(node.in_edges), node._index_serial)
             for tx_id, node in graph.nodes.items()},
            {key: list(holders) for key, holders in graph._writers.items()},
            {key: list(holders) for key, holders in graph._readers.items()},
            list(graph._indexed), list(graph._down), list(graph._up),
            graph._live, graph._open)


def test_second_admit_before_drain_is_refused_and_changes_nothing():
    """An admit while the earlier batch has not passed its boundary —
    running, or finished with its drain not yet returned — raises, and
    the in-flight batch commits what it commits alone."""
    registry = default_registry()
    first, second = smallbank_batches(4, n_batches=2, batch_size=20)
    (reference,) = run_batch_at_a_time(registry, [first],
                                       initial_state(64), 4, 8)
    view = dict(initial_state(64))
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(4))
    session = runner.open_session(env)
    session.admit(first, view)
    cc = session.cc
    before = graph_state(cc.graph)
    with pytest.raises(SerializationError, match="drain returned"):
        session.admit(second, view)
    assert session.cc is cc
    assert graph_state(cc.graph) == before
    env.run()                                # finished, boundary not run
    with pytest.raises(SerializationError, match="drain returned"):
        session.admit(second, view)
    proc = session.drain()
    env.run()
    assert fingerprint(proc.value) == fingerprint(reference)
    assert proc.value.latencies == reference.latencies
    assert proc.value.elapsed == reference.elapsed
    session.admit(second, view)              # past the boundary: accepted
    proc = session.drain()
    env.run()
    assert len(proc.value.committed) == len(second)
    session.close()


def test_mid_batch_prune_raises_and_leaves_the_graph_intact(monkeypatch):
    """A prune planted after a mid-batch commit, while other nodes still
    run, names the first uncommitted transaction and changes nothing: the
    batch still commits what it commits without the plant."""
    registry = default_registry()
    (batch,) = smallbank_batches(8, n_batches=1, batch_size=30)
    (reference,) = run_batch_at_a_time(registry, [batch], initial_state(64),
                                       8, 8)
    finish = ConcurrencyController.finish
    prune = DependencyGraph.prune_committed
    planted, prunes = [], []

    def counted_prune(graph):
        prunes.append(len(graph.nodes))
        return prune(graph)

    def finish_then_prune(cc, node, result=None, now=0.0):
        committed = finish(cc, node, result=result, now=now)
        graph = cc.graph
        if committed and not planted and len(graph.nodes) > 10:
            first_open = next(other for other in graph.nodes.values()
                              if other.status is not NodeStatus.COMMITTED)
            before = graph_state(graph)
            with pytest.raises(SerializationError) as info:
                cc.graph.prune_committed()
            assert f"transaction {first_open.tx_id} " \
                f"({first_open.status.value})" in str(info.value)
            assert graph_state(graph) == before
            planted.append(first_open.tx_id)
        return committed

    monkeypatch.setattr(ConcurrencyController, "finish", finish_then_prune)
    monkeypatch.setattr(DependencyGraph, "prune_committed", counted_prune)
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(8))
    proc = runner.run_batch(env, batch, initial_state(64))
    env.run()
    assert len(planted) == 1
    assert fingerprint(proc.value) == fingerprint(reference)
    # The plant, then the boundary's own prune of the whole batch.
    assert len(prunes) == 2 and prunes[1] == len(batch)


def test_ce_cluster_graph_holds_one_batch_at_every_boundary(monkeypatch):
    """On a CE cluster with reconfigurations, every boundary finds exactly
    its own batch in the graph, and ``BatchResult.graph_nodes`` says so."""
    boundary = StreamSession._boundary
    seen = []

    def counted(session, batch):
        nodes = len(batch.cc.graph.nodes)
        result = boundary(session, batch)
        seen.append((nodes, result.graph_nodes, len(result.committed),
                     batch.total))
        return result

    monkeypatch.setattr(StreamSession, "_boundary", counted)
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=6,
                               k_prime=15, k_silent=10)
    result = Cluster(config, WorkloadConfig(accounts=200,
                                            cross_shard_ratio=0.1)).run(0.3)
    assert result.reconfigurations >= 1
    assert len(seen) > 20
    assert all(len(set(counts)) == 1 for counts in seen), seen
    assert max(counts[0] for counts in seen) == result.ce_peak_graph_nodes
