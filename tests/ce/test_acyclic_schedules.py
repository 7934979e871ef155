"""The controller keeps its dependency graph acyclic by construction.

A commit takes its node out of the graph and a read of committed data
is served by the batch's overlay, so no rule adds an edge with a
committed endpoint and R4's write-write edges never close a cycle.
``DependencyGraph.add_edge`` checks both at every edge, raising
:class:`~repro.errors.SerializationError` at the edge itself.

Three properties hold the controller to that, with the check always on:

* the seeded direct schedules of ``tests/ce/test_cohort_rows.py``
  (``drive``) over seeds 0-999 (seeds past the first 60 are slow), which
  also check after every call that the graph holds live attempts only;
* the same schedules against ``drive_prefixes.json``, recorded from the
  controller that kept committed nodes in the graph (commit da939d5):
  per seed, the index of the first call at which it aborted because of
  a committed writer (``"read past committed write"``, or ``"read
  cycle"`` against a committed writer; -1 if it never did) and a digest
  of the calls before it (all of them for -1).  Both aborts were
  spurious, since commit order puts a committed writer before every
  live one; the schedule may branch after the first, not before;
* seeded executor-pool batches (``CERunner.run_batch``) over SmallBank at
  theta = 0.99, with 4-8 accounts and 8-16 executors.

The direct schedules and the batches replay the committed entries
serially in commit order: every first read sees the value the earlier
committed writes left, and the last write of each key is the
controller's final write.  An eviction that leaves the committed node
in the reader index, planted back, fails ``drive``'s check.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.ce import CEConfig, CERunner, ConcurrencyController
from repro.ce.depgraph import DependencyGraph
from repro.contracts import default_registry, initial_state
from repro.core.shards import ShardMap
from repro.sim import Environment, make_rng
from repro.workloads import SmallBankWorkload, WorkloadConfig
from tests.ce.test_cohort_rows import drive

FAST_SEEDS = range(60)
DRIVE_SEEDS = [*FAST_SEEDS, *(pytest.param(seed, marks=pytest.mark.slow)
                              for seed in range(60, 1000))]

#: seed -> [first call aborted because of a committed writer, or -1;
#: digest of the calls before it], recorded before commits left the graph.
PREFIXES = json.loads(
    (Path(__file__).parent / "drive_prefixes.json").read_text())


def assert_serial_in_commit_order(committed, base, final_writes):
    """Replay ``committed`` serially over ``base``: each first read sees
    the state the earlier entries left, and the last writes are
    ``final_writes``."""
    state = dict(base)
    written = {}
    for entry in sorted(committed, key=lambda entry: entry.order_index):
        for key, value in entry.read_set.items():
            assert state.get(key, 0) == value, \
                (entry.tx_id, entry.order_index, key)
        state.update(entry.write_set)
        written.update(entry.write_set)
    assert written == final_writes


def check_direct_schedule(seed):
    _, cc = drive(ConcurrencyController, seed)
    assert_serial_in_commit_order(cc.committed, {}, cc.final_writes())


@pytest.mark.parametrize("seed", DRIVE_SEEDS)
def test_direct_schedules_stay_acyclic(seed):
    check_direct_schedule(seed)


@pytest.mark.parametrize("seed", DRIVE_SEEDS)
def test_direct_schedules_keep_the_recorded_prefix(seed):
    first, digest = PREFIXES[str(seed)]
    calls, _ = drive(ConcurrencyController, seed)
    prefix = repr(calls if first < 0 else calls[:first])
    assert hashlib.sha256(prefix.encode()).hexdigest()[:16] == digest


def batch_case(seed):
    """Accounts 4-8 and executors 8-16, varied with the seed."""
    return 4 + seed % 5, 8 + 2 * (seed % 5)


POOL_SEEDS = [*range(4), *(pytest.param(seed, marks=pytest.mark.slow)
                           for seed in range(4, 40))]


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_executor_pool_batches_stay_acyclic(seed):
    accounts, executors = batch_case(seed)
    workload = SmallBankWorkload(WorkloadConfig(accounts=accounts,
                                                theta=0.99),
                                 ShardMap(1), seed=seed)
    runner = CERunner(default_registry(), CEConfig(executors=executors),
                      make_rng(seed))
    state = initial_state(accounts)
    env = Environment()
    proc = runner.run_batch(env, workload.batch(60), state)
    env.run()
    result = proc.value
    assert len(result.committed) == 60
    assert result.stats.aborts > 0, "no conflict in this batch"
    assert_serial_in_commit_order(result.committed, state,
                                  result.final_writes())


def test_planted_eviction_that_keeps_a_reader_is_caught(monkeypatch):
    evict = DependencyGraph.evict

    def evict_keeping_readers(graph, node):
        readers = {key: dict(holders)
                   for key, holders in graph._readers.items()}
        evict(graph, node)
        graph._readers = readers

    monkeypatch.setattr(DependencyGraph, "evict", evict_keeping_readers)
    with pytest.raises(AssertionError):
        check_direct_schedule(0)
