"""Tests for the streaming multi-batch runner and committed-node pruning.

Two properties carry the feature:

* **Equivalence** — per-batch committed results from the streaming runner
  are byte-identical to running the same batches through
  ``CERunner.run_batch`` one at a time (same environment, same runner,
  same RNG), with and without pruning.
* **Boundedness** — with pruning, the dependency graph's node count
  plateaus over a long stream instead of growing linearly.
"""

import pytest

from repro.ce import (CCStats, CEConfig, CERunner, ConcurrencyController,
                      NodeStatus, StreamingRunner)
from repro.contracts import default_registry, initial_state
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


def run_streaming(registry, batches, base_state, seed, executors,
                  prune=True):
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=executors),
                             make_rng(seed), prune=prune)
    proc = runner.run_stream(env, batches, dict(base_state))
    env.run()
    assert proc.triggered, "stream deadlocked"
    return proc.value, runner


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
    streamed, _runner = run_streaming(registry, batches, state, 5, 8)
    for expected, actual in zip(reference, streamed.batches):
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
    assert len(streamed.batches) == len(reference)
    for expected, actual in zip(reference, streamed.batches):
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
    for expected, actual in zip(reference, streamed.batches):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.re_executions == expected.re_executions


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_pruning_does_not_change_committed_orders(seed):
    """The pruning path commits exactly what the non-pruning path commits."""
    registry = default_registry()
    batches = smallbank_batches(seed, n_batches=8, batch_size=30)
    state = initial_state(64)
    pruned, _ = run_streaming(registry, batches, state, seed, 8, prune=True)
    plain, _ = run_streaming(registry, batches, state, seed, 8, prune=False)
    assert [fingerprint(b) for b in pruned.batches] \
        == [fingerprint(b) for b in plain.batches]
    assert pruned.stats.nodes_pruned > 0
    assert plain.stats.nodes_pruned == 0


# --------------------------------------------------------------- boundedness

def test_graph_stays_bounded_over_twenty_batches():
    registry = default_registry()
    batch_size = 25
    batches = smallbank_batches(7, n_batches=20, batch_size=batch_size)
    state = initial_state(64)
    streamed, _ = run_streaming(registry, batches, state, 7, 8, prune=True)
    assert len(streamed.graph_nodes_pre_prune) == 20
    # Plateau: committed batch + the next admitted batch, never more.
    assert streamed.peak_graph_nodes <= 2 * batch_size
    assert max(streamed.graph_nodes_post_prune) <= batch_size
    # After the final batch there is nothing left to admit or retain.
    assert streamed.graph_nodes_post_prune[-1] == 0
    assert streamed.stats.nodes_pruned == 20 * batch_size
    # Contrast: without pruning the graph grows with the stream.
    plain, _ = run_streaming(registry, batches, state, 7, 8, prune=False)
    assert plain.peak_graph_nodes == 20 * batch_size


def test_next_batch_admitted_while_current_drains():
    """At each boundary the graph already holds batch k+1's nodes: the
    pre-prune sample counts both the committed batch and the admitted one."""
    registry = default_registry()
    batches = smallbank_batches(11, n_batches=4, batch_size=20)
    streamed, _ = run_streaming(registry, batches, initial_state(64), 11, 8)
    assert streamed.graph_nodes_pre_prune[:-1] == [40, 40, 40]
    assert streamed.graph_nodes_pre_prune[-1] == 20  # no batch to admit


# ------------------------------------------------------------ prune unit tests

def test_prune_quiescent_controller_evicts_everything():
    cc = ConcurrencyController({"A": 1, "B": 2})
    for tx_id, key, value in ((1, "A", 10), (2, "B", 20)):
        node = cc.begin(tx_id)
        assert cc.read(node, key) in (1, 2)
        cc.write(node, key, value)
        cc.finish(node)
    assert len(cc.graph.nodes) == 2
    assert cc.prune_committed() == 2
    assert len(cc.graph.nodes) == 0
    # Reads fall through to the overlay and see the committed values.
    probe = cc.begin(3)
    assert cc.read(probe, "A") == 10
    assert cc.read(probe, "B") == 20
    assert cc.stats.nodes_pruned == 2
    assert cc.stats.prune_passes == 1


def test_prune_spares_keys_with_live_holders():
    """A committed writer whose key a live transaction read must stay: the
    key cohort includes a non-committed holder."""
    cc = ConcurrencyController({"K": 0, "L": 0})
    writer = cc.begin(1)
    cc.write(writer, "K", 5)
    cc.finish(writer)
    other = cc.begin(2)
    cc.write(other, "L", 7)
    cc.finish(other)
    reader = cc.begin(3)
    assert cc.read(reader, "K") == 5  # live read record on K
    assert cc.prune_committed() == 1  # only the L writer is safe
    assert cc.graph.get(1) is writer
    assert cc.graph.get(2) is None
    assert writer.status is NodeStatus.COMMITTED


def test_prune_spares_nodes_with_edges_to_survivors():
    """Edge-closure: a committed node wired to a retained node survives."""
    cc = ConcurrencyController({"K": 0})
    writer = cc.begin(1)
    cc.write(writer, "K", 5)
    cc.finish(writer)
    reader = cc.begin(2)
    assert cc.read(reader, "K") == 5   # rf edge writer -> reader
    cc.finish(reader)                  # both committed, edge between them
    live = cc.begin(3)
    assert cc.read(live, "K") == 5     # live holder pins the K cohort
    assert cc.prune_committed() == 0
    cc.finish(live)
    assert cc.prune_committed() == 3   # quiescent again: all three go


def test_harvest_committed_keeps_order_indexes_monotonic():
    cc = ConcurrencyController({"A": 0})
    for tx_id in (1, 2):
        node = cc.begin(tx_id)
        cc.write(node, "A", tx_id)
        cc.finish(node)
    first = cc.harvest_committed()
    assert [entry.order_index for entry in first] == [0, 1]
    assert cc.committed == []
    node = cc.begin(3)
    cc.write(node, "A", 3)
    cc.finish(node)
    second = cc.harvest_committed()
    assert [entry.order_index for entry in second] == [2]
    assert cc.attempts_of(3) == 0  # attempt counters released


# ---------------------------------------------------------------- edge cases

def test_empty_stream_and_empty_batches():
    registry = default_registry()
    streamed, _ = run_streaming(registry, [], initial_state(8), 0, 4)
    assert streamed.batches == []
    assert streamed.committed_count == 0
    batches = smallbank_batches(5, n_batches=2, batch_size=10)
    with_gaps = [batches[0], [], batches[1], []]
    streamed, _ = run_streaming(registry, with_gaps, initial_state(64), 5, 4)
    assert [len(b.committed) for b in streamed.batches] == [10, 0, 10, 0]
    reference = run_batch_at_a_time(registry, with_gaps, initial_state(64),
                                    5, 4)
    for expected, actual in zip(reference, streamed.batches):
        assert fingerprint(actual) == fingerprint(expected)


# ------------------------------------------------------------- session API

def make_session(seed=3, executors=4, accounts=64):
    env = Environment()
    runner = StreamingRunner(default_registry(),
                             CEConfig(executors=executors), make_rng(seed))
    session = runner.open_session(env, dict(initial_state(accounts)))
    return env, runner, session


def test_session_admit_drain_matches_batch_at_a_time():
    """Driving the session by hand — one admit/drain per batch, no
    pipelined admission — produces the same per-batch results as the
    sequential run_batch reference."""
    registry = default_registry()
    batches = smallbank_batches(2, n_batches=5, batch_size=25)
    state = initial_state(64)
    reference = run_batch_at_a_time(registry, batches, state, 2, 8)
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=8), make_rng(2))
    session = runner.open_session(env, dict(state))
    results = []

    def pump():
        for batch in batches:
            result = yield session.drain()
            results.append(result)

    for batch in batches:
        session.admit(batch)
    env.process(pump())
    env.run()
    assert len(results) == len(reference)
    for expected, actual in zip(reference, results):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.latencies == expected.latencies
    assert session.in_flight == 0
    stream = session.close()
    assert [fingerprint(b) for b in stream.batches] \
        == [fingerprint(b) for b in reference]


def test_session_base_view_switching_matches_fresh_state():
    """``admit(batch, base_view=...)`` rebases the controller onto
    caller-owned state at each boundary: results match the reference that
    feeds committed writes forward through its own state dict — including
    when the caller mutates that state between batches (the replica's
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

    # Session: same evolution, but every batch through one controller.
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=8), make_rng(6))
    session = runner.open_session(env, dict(state0))
    state = dict(state0)
    results = []
    for k, txs in enumerate(batches):
        external_write(state, k)
        session.admit(txs, base_view=dict(state))
        proc = session.drain()
        env.run()
        state.update(proc.value.final_writes())
        results.append(proc.value)
    for expected, actual in zip(reference, results):
        assert fingerprint(actual) == fingerprint(expected)
    # The rebase dropped the controller overlay each boundary: committed
    # values were observable only through the caller's views.
    assert session.cc._overlay == results[-1].final_writes()


def test_session_rebase_requires_quiescence():
    """Rebasing under a transaction that already recorded operations is
    rejected — the ground cannot change under a live read."""
    cc = ConcurrencyController({"A": 1})
    node = cc.begin(1)
    assert cc.read(node, "A") == 1
    with pytest.raises(SerializationError):
        cc.rebase({"A": 2})
    # Admitted-but-unreleased nodes (no records) do not block a rebase.
    cc2 = ConcurrencyController({"A": 1})
    cc2.begin(7)
    cc2.rebase({"A": 2})
    probe = cc2.begin(8)
    assert cc2.read(probe, "A") == 2


def test_session_base_view_requires_pruning():
    """Without boundary pruning the graph never empties, so rebasing is
    rejected at the admit call site instead of exploding inside a later
    drain process."""
    env = Environment()
    runner = StreamingRunner(default_registry(), CEConfig(executors=2),
                             make_rng(0), prune=False)
    session = runner.open_session(env, dict(initial_state(8)))
    (batch,) = smallbank_batches(0, n_batches=1, batch_size=5)
    with pytest.raises(SerializationError):
        session.admit(batch, base_view=dict(initial_state(8)))
    session.abort()


def test_rebase_failure_detaches_session_and_resets_last_cc():
    """A rebase that explodes at dispatch time (a record-holding node the
    boundary prune could not evict) must not leave a half-dead session
    behind: the session closes, ``runner.last_cc`` drops its pointer —
    it resets at close/abort, and a failed rebase is the same death —
    and the idle worker pool is shut down instead of parking forever."""
    env, runner, session = make_session()
    # A record-holding node the session does not know about, standing in
    # for any bug that leaves the graph non-quiescent at a rebase.
    stray = session.cc.begin(10_001)
    session.cc.read(stray, "checking:0")
    (batch,) = smallbank_batches(2, n_batches=1, batch_size=5)
    with pytest.raises(SerializationError):
        session.admit(batch, base_view=dict(initial_state(64)))
    assert session.closed
    assert runner.last_cc is None
    env.run()
    assert all(not worker.is_alive for worker in session.workers)


def test_session_admit_is_atomic_on_duplicate_ids():
    """A rejected admit leaves no ghost routes or pre-begun nodes: the
    valid prefix of the bad batch can be re-admitted afterwards."""
    env, runner, session = make_session()
    (batch,) = smallbank_batches(1, n_batches=1, batch_size=6)
    bad = batch[:4] + [batch[2]]          # duplicate inside the batch
    with pytest.raises(SerializationError):
        session.admit(bad)
    assert len(session.cc.graph.nodes) == 0
    session.admit(batch)                  # same ids, now accepted
    proc = session.drain()
    env.run()
    assert len(proc.value.committed) == len(batch)
    session.close()


def test_session_without_history_recording_stays_lean():
    """``record_history=False`` (the replica's epoch session): drain still
    hands out every result, but nothing accumulates for close()."""
    registry = default_registry()
    batches = smallbank_batches(4, n_batches=5, batch_size=10)
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=4), make_rng(4))
    session = runner.open_session(env, dict(initial_state(64)),
                                  record_history=False)
    for batch in batches:
        session.admit(batch)
        proc = session.drain()
        env.run()
        assert len(proc.value.committed) == len(batch)
        assert session._results == []     # nothing retained per batch
    stream = session.close()
    assert stream.batches == []
    assert stream.graph_nodes_pre_prune == []
    assert stream.stats.commits == 5 * 10  # cumulative stats stay exact


def test_session_lifecycle_errors():
    env, runner, session = make_session()
    with pytest.raises(SerializationError):
        session.drain()                      # nothing admitted
    (batch,) = smallbank_batches(0, n_batches=1, batch_size=5)
    session.admit(batch)
    with pytest.raises(SerializationError):
        session.close()                      # batch still in flight
    proc = session.drain()
    env.run()
    assert proc.value is not None
    session.close()
    with pytest.raises(SerializationError):
        session.admit(batch)                 # closed
    with pytest.raises(SerializationError):
        session.close()                      # already closed


def test_session_abort_mid_drain_leaves_no_orphans():
    """An abort while a batch drains: the batch finishes in the background
    (RNG parity with the per-round engine's doomed ``run_batch``), the
    drain then wakes with ``None``, every worker shuts down, and the
    runner's ``last_cc`` is cleared; a fresh session on the same runner
    starts from a clean graph."""
    registry = default_registry()
    batches = smallbank_batches(9, n_batches=2, batch_size=40,
                                theta=0.99)
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=8), make_rng(9))
    session = runner.open_session(env, dict(initial_state(64)))
    session.admit(batches[0])
    session.admit(batches[1])                # pending, pre-admitted nodes
    proc = session.drain()

    def aborter():
        yield env.timeout(2e-5)              # mid-flight
        assert not proc.triggered
        session.abort()

    env.process(aborter())
    env.run()
    assert proc.triggered
    assert proc.value is None                # no result for a dead epoch
    assert session.closed
    # The dispatched batch ran to completion in the background — that is
    # what keeps the shared engine RNG in lockstep with the per-round
    # path — while the never-dispatched batch stayed off the pool.
    assert session.cc.stats.commits == len(batches[0])
    assert all(not worker.is_alive for worker in session.workers)
    assert runner.last_cc is None
    # The next session is clean and fully functional.
    fresh = runner.open_session(env, dict(initial_state(64)))
    assert len(fresh.cc.graph.nodes) == 0
    fresh.admit(batches[0])
    proc = fresh.drain()
    env.run()
    assert len(proc.value.committed) == len(batches[0])
    fresh.close()


def test_abort_mid_preplay_preserves_engine_rng_lockstep():
    """The divergence hazard the orphan semantics exist for: interrupt a
    session mid-batch, then run a second batch through a *new* session of
    the same runner — the second batch's schedule must equal what the
    per-round engine produces when its first batch is doomed the same
    way (its run_batch also runs to completion, consuming the same RNG
    draws before round two starts)."""
    registry = default_registry()
    batches = smallbank_batches(12, n_batches=2, batch_size=30, theta=0.95)

    # Reference: per-round engine; batch 0's result is simply discarded
    # (the replica's epoch check), batch 1 runs afterwards.
    env = Environment()
    per_round = CERunner(registry, CEConfig(executors=8), make_rng(12))
    per_round.run_batch(env, batches[0], dict(initial_state(64)))
    env.run()
    ref = per_round.run_batch(env, batches[1], dict(initial_state(64)))
    env.run()

    # Session path: abort mid-batch-0, fresh session for batch 1.
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=8), make_rng(12))
    session = runner.open_session(env, dict(initial_state(64)))
    session.admit(batches[0])
    proc = session.drain()

    def aborter():
        yield env.timeout(3e-5)
        assert not proc.triggered
        session.abort()

    env.process(aborter())
    env.run()                               # orphan completes here
    assert proc.value is None
    fresh = runner.open_session(env, dict(initial_state(64)))
    fresh.admit(batches[1])
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
    assert runner.last_cc is None


def test_ccstats_snapshot_and_delta():
    cc = ConcurrencyController({"A": 0})
    node = cc.begin(1)
    cc.write(node, "A", 1)
    cc.finish(node)
    mark = cc.stats.snapshot()
    node = cc.begin(2)
    assert cc.read(node, "A") == 1
    cc.write(node, "A", 2)
    cc.finish(node)
    delta = cc.stats.delta(mark)
    assert (delta.commits, delta.reads, delta.writes) == (1, 1, 1)
    # The snapshot is frozen: later activity doesn't leak into it.
    assert mark.commits == 1 and mark.reads == 0
    # Sanity: delta against itself zeroes every counter; the non-counter
    # field (peak row width) carries its current value.
    zero = cc.stats.delta(cc.stats.snapshot())
    assert all(value == 0 for name, value in vars(zero).items()
               if name not in CCStats._NON_COUNTERS)
    assert zero.bitset_words == cc.graph.peak_bitset_words


def test_duplicate_ids_in_stream_window_rejected():
    registry = default_registry()
    (batch,) = smallbank_batches(0, n_batches=1, batch_size=5)
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=2), make_rng(0))
    runner.run_stream(env, [batch, batch], initial_state(64))
    with pytest.raises(SerializationError):
        env.run()


def test_stream_reports_bounded_controller_buffers():
    """The controller's committed buffer and attempt map are drained per
    batch, so a long stream doesn't accumulate them — and ``last_cc`` is
    cleared at session close so post-run reads can't mistake the dead
    controller's counters for live ones."""
    registry = default_registry()
    batches = smallbank_batches(3, n_batches=6, batch_size=15)
    env = Environment()
    runner = StreamingRunner(registry, CEConfig(executors=4), make_rng(3))
    session = runner.open_session(env, dict(initial_state(64)))
    for batch in batches:
        session.admit(batch)
        proc = session.drain()
        env.run()
        assert proc.value is not None
    cc = session.cc
    assert runner.last_cc is cc  # live while the session is open
    assert cc.committed == []
    assert cc._attempts == {}
    assert len(cc.graph.nodes) == 0
    session.close()
    assert runner.last_cc is None  # staleness guard after teardown
