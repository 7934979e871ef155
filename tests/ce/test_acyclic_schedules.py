"""The controller keeps its dependency graph acyclic by construction.

A read takes the newest committed version when no live writer can serve
it, no rule adds an edge into a committed node, and R4's write-write
edges therefore never close a cycle.  ``DependencyGraph.add_edge``
checks both facts at every edge, so a schedule that breaks them raises
:class:`~repro.errors.SerializationError` at the edge itself.

Two properties hold the controller to that, with the edge check always
on:

* the seeded direct schedules of ``tests/ce/test_cohort_rows.py``
  (``drive``) over seeds 0-999 (seeds past the first 60 are slow);
* seeded executor-pool batches (``CERunner.run_batch``) over SmallBank at
  theta = 0.99, with 4-8 accounts and 8-16 executors.

Both also replay the committed entries serially in commit order: every
first read must see the value the earlier committed writes left, and the
last write of each key must be the controller's final write.  An edge
into a committed node would order its source before it, against commit
order, so this replay catches what the edge check refuses.

The read rule tried writers in registration order, not serialization
order, so a read could take an older committed version.  Planted back
alone, it fails the direct-schedule property on the first seeds that
closed a cycle with it (4, 12, 13 and 33).
"""

import pytest

from repro.ce import CEConfig, CERunner, ConcurrencyController
from repro.contracts import default_registry, initial_state
from repro.core.shards import ShardMap
from repro.errors import SerializationError
from repro.sim import Environment, make_rng
from repro.workloads import SmallBankWorkload, WorkloadConfig
from tests.ce.test_cohort_rows import drive

FAST_SEEDS = range(60)
DRIVE_SEEDS = [*FAST_SEEDS, *(pytest.param(seed, marks=pytest.mark.slow)
                              for seed in range(60, 1000))]

#: Seeds whose schedules closed a cycle when reads tried writers in
#: registration order.
CYCLIC_UNDER_REGISTRATION_ORDER = (4, 12, 13, 33, 127, 150, 163, 182, 189,
                                   197)


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


def registration_order_read(self, node, key):
    """The read rule before serialization order: live and committed
    writers alike, latest registered first."""
    for writer in reversed(self.graph.writers_of(key)):
        if writer is not node and not self.graph.has_path(node, writer):
            return writer.records[key].last_write, writer
    return self.read_root(key), None


def test_planted_registration_order_read_is_caught(monkeypatch):
    monkeypatch.setattr(ConcurrencyController, "_choose_read_source",
                        registration_order_read)
    for seed in CYCLIC_UNDER_REGISTRATION_ORDER[:4]:
        with pytest.raises((AssertionError, SerializationError)):
            check_direct_schedule(seed)
