"""Tests for overlapped drains (``CEConfig(strict_order=False)``) and the
serializability oracle that replaces the byte-identity guarantee there.

Three layers:

* **Oracle unit tests** — hand-crafted footprint histories (lost update,
  write skew, serial chains) drive the MVSG cycle check directly.
* **Equivalence sweep** — strict mode stays byte-identical to the
  batch-at-a-time reference on every row backend id
  (``tests/ce/word_rows.py``); relaxed mode commits the same per-batch
  transaction sets with the oracle passing at every boundary, across
  seeds × executor counts × theta.
* **Adversarial sensitivity** — a deliberately broken release rule (the
  test-only ``_unsafe_release_all`` / ``_unsafe_skip_r1`` hooks) commits
  genuinely non-serializable histories, and the oracle catches them; a
  Hypothesis property drives randomized interleaved admit/drain/abort
  schedules and asserts no committed footprint-precedence cycle ever
  slips through an un-sabotaged session.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ce import CEConfig, SerializabilityOracle, StreamingRunner
from repro.contracts import default_registry, initial_state
from repro.contracts.smallbank import checking_key, savings_key
from repro.errors import ValidationError
from repro.sim import Environment, make_rng

from tests.ce.test_streaming import (fingerprint, run_batch_at_a_time,
                                     smallbank_batches)


def run_stream_with(registry, batches, base_state, seed, executors,
                    **config_kwargs):
    env = Environment()
    runner = StreamingRunner(
        registry, CEConfig(executors=executors, **config_kwargs),
        make_rng(seed))
    proc = runner.run_stream(env, [list(b) for b in batches],
                             dict(base_state))
    env.run()
    assert proc.triggered, "stream deadlocked"
    return proc.value


def total_money(stream_result, base_state, accounts):
    """The conserved quantity after applying the stream's writes."""
    state = dict(base_state)
    for batch in stream_result.batches:
        state.update(batch.final_writes())
    return sum(state.get(checking_key(a), 0) + state.get(savings_key(a), 0)
               for a in range(accounts))


# ------------------------------------------------------- oracle unit tests

def test_oracle_accepts_a_serial_chain():
    oracle = SerializabilityOracle()
    oracle.record(1, 0, read_keys=[], write_keys=["x"], read_sources={})
    oracle.record(2, 1, read_keys=["x"], write_keys=["y"],
                  read_sources={"x": 1})
    oracle.record(3, 2, read_keys=["y"], write_keys=["z"],
                  read_sources={"y": 2})
    assert oracle.check() == 3
    assert oracle.checks == 1


def test_oracle_accepts_concurrent_read_only():
    oracle = SerializabilityOracle()
    oracle.record(1, 0, read_keys=["x", "y"], write_keys=[],
                  read_sources={"x": None, "y": None})
    oracle.record(2, 1, read_keys=["x", "y"], write_keys=[],
                  read_sources={"x": None, "y": None})
    oracle.check()


def test_oracle_rejects_a_lost_update():
    """Two read-modify-writes of the same key that both read the base
    version: ww orders T1 before T2, but T2's stale read must precede
    T1's overwrite — a cycle."""
    oracle = SerializabilityOracle()
    oracle.record(1, 0, read_keys=["x"], write_keys=["x"],
                  read_sources={"x": None})
    oracle.record(2, 1, read_keys=["x"], write_keys=["x"],
                  read_sources={"x": None})
    with pytest.raises(ValidationError, match="non-serializable"):
        oracle.check()


def test_oracle_rejects_write_skew():
    """The classic: T1 reads {x, y} and writes y; T2 reads {x, y} and
    writes x; both read the base versions.  Each anti-depends on the
    other — a two-cycle no serial order satisfies."""
    oracle = SerializabilityOracle()
    oracle.record(1, 0, read_keys=["x", "y"], write_keys=["y"],
                  read_sources={"x": None, "y": None})
    oracle.record(2, 1, read_keys=["x", "y"], write_keys=["x"],
                  read_sources={"x": None, "y": None})
    with pytest.raises(ValidationError, match="precedence cycle"):
        oracle.check()


def test_oracle_read_from_committed_writer_is_clean():
    """The same two-writer shape is serializable when the second reader
    observed the first writer's version instead of the base."""
    oracle = SerializabilityOracle()
    oracle.record(1, 0, read_keys=["x"], write_keys=["x"],
                  read_sources={"x": None})
    oracle.record(2, 1, read_keys=["x"], write_keys=["x"],
                  read_sources={"x": 1})
    oracle.check()


def test_oracle_compaction_forgets_the_window():
    """After a quiescent-point compaction the same footprint that closed a
    cycle before is judged against an empty window: the old writer is an
    ancestor version, so no edge reaches back."""
    oracle = SerializabilityOracle()
    oracle.record(1, 0, read_keys=["x"], write_keys=["x"],
                  read_sources={"x": None})
    assert oracle.compact() == 1
    assert len(oracle) == 0
    oracle.record(2, 1, read_keys=["x"], write_keys=["x"],
                  read_sources={"x": None})
    oracle.check()   # T1 is out of the window: reading "base" is fine
    assert oracle.peak_window == 1


# --------------------------------------------------- equivalence: strict

@pytest.mark.usefixtures("graph_cls")
def test_strict_mode_byte_identical_on_every_backend():
    """``strict_order=True`` (the default) keeps the byte-identity
    guarantee intact, with or without the closure rows checked against
    the word layouts — the relaxed-drain machinery must be completely
    inert there."""
    registry = default_registry()
    batches = smallbank_batches(seed=5, n_batches=6, batch_size=30)
    state = initial_state(64)
    reference = run_batch_at_a_time(registry, batches, state, 5, 8)
    streamed = run_stream_with(registry, batches, state, 5, 8)
    for expected, actual in zip(reference, streamed.batches):
        assert fingerprint(actual) == fingerprint(expected)
        assert actual.elapsed == expected.elapsed
    assert streamed.stats.overlap_released == 0
    assert streamed.stats.overlap_parked == 0
    assert streamed.stats.oracle_checks == 0


# -------------------------------------------------- equivalence: relaxed

@pytest.mark.parametrize("theta", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("executors", [4, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_relaxed_mode_passes_oracle_and_preserves_commits(seed, executors,
                                                          theta):
    """Relaxed drains commit exactly the same transactions per batch as
    strict mode (schedules may differ), conserve the total balance, and
    pass the serializability obligation at every boundary."""
    registry = default_registry()
    accounts = 128
    batches = smallbank_batches(seed, n_batches=6, batch_size=30,
                                accounts=accounts, theta=theta)
    state = initial_state(accounts)
    strict = run_stream_with(registry, batches, state, seed, executors)
    relaxed = run_stream_with(registry, batches, state, seed, executors,
                              strict_order=False)
    assert relaxed.stats.oracle_checks == len(batches)
    for strict_batch, relaxed_batch in zip(strict.batches, relaxed.batches):
        assert sorted(strict_batch.order) == sorted(relaxed_batch.order)
    assert total_money(relaxed, state, accounts) \
        == total_money(strict, state, accounts)
    assert relaxed.stats.overlap_released \
        + relaxed.stats.overlap_parked > 0   # admissions did overlap


def test_relaxed_mode_actually_releases_early():
    """At moderate contention a measurable fraction of admissions beats
    the boundary — the whole point of the mode."""
    registry = default_registry()
    batches = smallbank_batches(seed=7, n_batches=8, batch_size=40,
                                accounts=256, theta=0.5)
    state = initial_state(256)
    relaxed = run_stream_with(registry, batches, state, 7, 8,
                              strict_order=False)
    assert relaxed.stats.overlap_released > 0


# ------------------------------------------------ adversarial sensitivity

def _sabotaged_session(seed=0, accounts=64, theta=0.9, executors=8,
                       n_batches=4, batch_size=20):
    registry = default_registry()
    batches = smallbank_batches(seed=seed, n_batches=n_batches,
                                batch_size=batch_size, accounts=accounts,
                                theta=theta)
    env = Environment()
    runner = StreamingRunner(
        registry, CEConfig(executors=executors, strict_order=False),
        make_rng(seed))
    session = runner.open_session(env, dict(initial_state(accounts)))
    return env, session, batches


def test_broken_release_rule_is_caught_by_the_oracle():
    """Sabotage both safety layers — release everything regardless of the
    frontier AND skip rule R1, so stale readers can commit after the
    writers that invalidated them — and the oracle must refuse the
    resulting history."""
    env, session, batches = _sabotaged_session()
    session._unsafe_release_all = True
    session.cc._unsafe_skip_r1 = True

    def drive():
        for batch in batches:
            session.admit(list(batch))
        for _ in batches:
            yield session.drain()

    env.process(drive())
    with pytest.raises(ValidationError, match="non-serializable"):
        env.run()


def test_unsabotaged_control_run_passes():
    """The identical workload with the safety layers intact is clean —
    the sensitivity test above fails for the right reason."""
    env, session, batches = _sabotaged_session()

    def drive():
        for batch in batches:
            session.admit(list(batch))
        for _ in batches:
            yield session.drain()
        session.close()

    env.process(drive())
    env.run()
    assert session.cc is not None


# ------------------------------------------- property: interleaved drains

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def relaxed_schedules(draw):
    accounts = draw(st.integers(min_value=4, max_value=24))
    n_batches = draw(st.integers(min_value=2, max_value=5))
    batch_size = draw(st.integers(min_value=5, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    executors = draw(st.sampled_from([2, 4, 8]))
    theta = draw(st.sampled_from([0.5, 0.9, 0.99]))
    abort_at = draw(st.one_of(st.none(),
                              st.floats(min_value=1e-5, max_value=3e-4)))
    return accounts, n_batches, batch_size, seed, executors, theta, abort_at


@given(relaxed_schedules())
@SETTINGS
def test_relaxed_interleavings_never_commit_a_cycle(params):
    """Whatever the interleaving — deep pipelined admission, mid-drain
    aborts at arbitrary instants — a relaxed session never commits a
    footprint-precedence cycle, and its worker pool always terminates.

    Compaction is disabled so the final boundary's check covers the whole
    committed history, not just the tail window."""
    accounts, n_batches, batch_size, seed, executors, theta, abort_at = params
    registry = default_registry()
    batches = smallbank_batches(seed=seed, n_batches=n_batches,
                                batch_size=batch_size, accounts=accounts,
                                theta=theta)
    env = Environment()
    runner = StreamingRunner(
        registry, CEConfig(executors=executors, strict_order=False),
        make_rng(seed))
    session = runner.open_session(env, dict(initial_state(accounts)))
    session.oracle.compact = lambda: 0   # keep the whole history in view
    results = []

    def drive():
        for batch in batches:          # admit everything up front: the
            session.admit(list(batch))  # deepest possible overlap
        for _ in batches:
            if session.closed:
                return
            proc = yield session.drain()
            results.append(proc)
        if not session.closed:   # the abort may land mid-final-drain
            session.close()

    def interrupt():
        yield env.timeout(abort_at)
        session.abort()

    env.process(drive())
    if abort_at is not None:
        env.process(interrupt())
    env.run()   # a committed cycle would raise ValidationError here
    assert all(not worker.is_alive for worker in session.workers)
    if abort_at is None:
        assert len(results) == n_batches
        committed = sum(len(result.committed) for result in results)
        assert committed == sum(len(batch) for batch in batches)


def test_relaxed_abort_mid_overlap_orphans_no_worker():
    """abort() while several batches hold released-but-uncommitted work:
    every orphan finishes in the background, the pool drains, and no
    worker process survives."""
    registry = default_registry()
    batches = smallbank_batches(seed=9, n_batches=4, batch_size=30,
                                accounts=256, theta=0.5)
    env = Environment()
    runner = StreamingRunner(
        registry, CEConfig(executors=8, strict_order=False), make_rng(9))
    session = runner.open_session(env, dict(initial_state(256)))

    def drive():
        for batch in batches:
            session.admit(list(batch))
        yield session.drain()

    def interrupt():
        yield env.timeout(2e-5)
        assert not session.closed
        session.abort()

    env.process(drive())
    env.process(interrupt())
    env.run()
    assert session.closed
    assert runner.last_cc is None
    assert all(not worker.is_alive for worker in session.workers)
    assert not session._orphans
