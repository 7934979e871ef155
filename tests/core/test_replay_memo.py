"""Soundness of the cluster's replay memo (`repro.contracts.replay`).

Each test plants a way in which one replica's outcome would be *wrong* for
another — a reused id, a diverged store, a value of another type, an evicted
entry, a shared result written through — and checks that the memo does not
hide it: `replay` must return exactly what the computation returns on the
caller's own store.  `MEMO_ENTRIES = 0` keeps nothing, which makes every
lookup compute: the un-memoised program, used here as the reference.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.ce.validation import reexecute_block, validate_block
from repro.contracts import (AMALGAMATE, DEPOSIT_CHECKING, SEND_PAYMENT,
                             TRANSACT_SAVINGS, WRITE_CHECK, OverlayView,
                             ReplayMemo, contract, default_registry,
                             initial_state)
from repro.contracts import replay as replay_module
from repro.contracts.ops import WriteOp
from repro.contracts.replay import MEMO_ENTRIES
from repro.core import CrossShardExecutor
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.crypto.digest import canonical_encode, digest_of
from repro.scenarios import (SafetyChecker, Scenario, default_adversaries,
                             default_workloads)
from repro.storage.kvstore import KVStore
from repro.txn import Transaction
from repro.workloads import WorkloadConfig

from tests.conftest import count_calls

ADVERSARIES = {case.name: case for case in default_adversaries()}
SMALLBANK_FLASH = default_workloads()[0]


def executor():
    """An executor with a memo of its own: shared between "replicas" it is
    the thing under test, fresh it is the reference."""
    return CrossShardExecutor(default_registry(), ReplayMemo(), op_cost=1e-6)


def payment(tx_id, src, dst, amount, shards=(0, 1)):
    return Transaction(tx_id, SEND_PAYMENT, (src, dst, amount), shards)


def store_of(state):
    store = KVStore()
    store.apply_batch(state)
    return store


def exact(outcome):
    """An outcome as bytes that tell ``1`` from ``True`` from ``1.0``."""
    return canonical_encode([dict(outcome.writes), outcome.simulated_cost])


# ------------------------------------------------------------ the key

@pytest.mark.parametrize("other", [
    payment(0, 0, 1, 99),                                   # other args
    Transaction(0, DEPOSIT_CHECKING, (0, 5), (0, 1)),       # other contract
    payment(0, 0, 1, 5, shards=(2, 3)),                     # other shards
])
def test_equal_ids_are_not_equal_work(other):
    shared = executor()
    state = initial_state(4)
    first = [payment(0, 0, 1, 5), payment(1, 2, 3, 5, shards=(0, 1))]
    second = [other, first[1]]
    assert [tx.tx_id for tx in first] == [tx.tx_id for tx in second]
    shared.execute(first, state)
    outcome = shared.execute(second, state)
    assert shared.memo.reused == 0
    assert exact(outcome) == exact(executor().execute(second, state))
    assert exact(outcome) != exact(executor().execute(first, state))


def test_cost_models_do_not_share_an_entry():
    shared = executor()
    state = initial_state(4)
    txs = [payment(0, 0, 1, 5), payment(1, 2, 3, 5, shards=(2, 3))]
    lanes = shared.execute(txs, state)
    serial = shared.execute_serial(txs, state)
    assert shared.memo.reused == 0
    assert serial.simulated_cost == pytest.approx(2 * lanes.simulated_cost)


# ------------------------------------------------- the recorded base reads

def test_a_store_diverged_on_a_read_key_gets_its_own_result():
    shared = executor()
    txs = [payment(0, 0, 1, 5), payment(1, 1, 2, 7)]
    ahead = store_of(initial_state(4))
    behind = store_of(initial_state(4))
    behind.put("checking:1", 1)
    theirs = shared.execute(txs, ahead)
    mine = shared.execute(txs, behind)
    assert shared.memo.reused == 0
    assert exact(mine) == exact(executor().execute(txs, behind))
    # Account 1 cannot cover the second payment there; it can here.
    assert "checking:2" in theirs.writes and "checking:2" not in mine.writes


def test_a_store_diverged_on_an_unread_key_reuses_the_result():
    shared = executor()
    txs = [payment(0, 0, 1, 5), payment(1, 1, 2, 7)]
    one = store_of(initial_state(4))
    other = store_of(initial_state(4))
    other.put("checking:3", 1)          # no transaction above reads it
    other.put("savings:0", 2)
    theirs = shared.execute(txs, one)
    mine = shared.execute(txs, other)
    assert shared.memo.reused == 1 and mine is theirs
    assert exact(mine) == exact(executor().execute(txs, other))


def test_a_key_written_before_it_is_read_is_no_base_read():
    """What the batch wrote itself depends on no store: a store diverged
    on such a key alone still gets the shared result, and it is right."""
    def close_account(account):
        yield WriteOp(f"checking:{account}", 0)

    def with_memo(memo):
        registry = default_registry()
        registry.register("test.close_account", close_account)
        return CrossShardExecutor(registry, memo)

    shared = with_memo(ReplayMemo())
    txs = [Transaction(0, "test.close_account", (1,), (0,)),
           payment(1, 0, 1, 5)]
    one = store_of(initial_state(2))
    other = store_of(initial_state(2))
    other.put("checking:1", 123)
    theirs = shared.execute(txs, one)
    mine = shared.execute(txs, other)
    assert shared.memo.reused == 1 and mine is theirs
    assert mine.writes["checking:1"] == 5
    assert exact(mine) == exact(with_memo(ReplayMemo()).execute(txs, other))


@pytest.mark.parametrize("seen, mine", [
    (1, True), (True, 1), (1, 1.0), (1.0, 1), (True, 1.0), (0, None),
    ((1,), (True,)), ([1], [1]),
])
def test_an_equal_value_of_another_type_is_another_read(seen, mine):
    """``1 == True == 1.0``, yet a contract can tell them apart; inside a
    container ``==`` would look through the types, so an equal container
    that is not the same object is another read too."""
    memo = ReplayMemo()

    def observe(view):
        return repr(view.get("k"))

    assert memo.replay("item", "subject", {"k": seen}, observe) == repr(seen)
    assert memo.replay("item", "subject", {"k": mine}, observe) == repr(mine)
    assert memo.reused == 0
    assert memo.replay("item", "subject", {"k": mine}, observe) == repr(mine)
    assert memo.reused == 1


def test_an_absent_key_is_not_a_stored_default():
    memo = ReplayMemo()

    def observe(view):
        return view.get("k", 0)

    assert memo.replay("item", "subject", {}, observe) == 0
    assert memo.replay("item", "subject", {"k": 0}, observe) == 0
    assert memo.reused == 0             # conservative: the stores differ
    assert memo.replay("item", "subject", {}, observe) == 0
    assert memo.reused == 0             # ... and the entry was replaced
    assert memo.replay("item", "subject", {}, observe) == 0
    assert memo.reused == 1


# --------------------------------------------------------- the FIFO bound

def test_an_evicted_entry_is_recomputed():
    memo = ReplayMemo()
    computed = []

    def compute_for(item):
        def compute(view):
            computed.append(item)
            return view.get("k")
        return compute

    state = {"k": 7}
    for item in range(MEMO_ENTRIES + 1):
        memo.replay(item, "subject", state, compute_for(item))
        assert len(memo) <= MEMO_ENTRIES
    assert memo.replay(MEMO_ENTRIES, "subject", state,
                       compute_for("late")) == 7
    assert memo.reused == 1             # the newest entry is still there,
    memo.replay(0, "subject", state, compute_for("lagging"))
    assert computed[-1] == "lagging"    # the oldest one went first
    assert len(memo) == MEMO_ENTRIES


def watch_memo(monkeypatch):
    """Per work item, how many lookups it got and how many of them
    computed; and the most entries any memo held after a lookup."""
    seen = {"lookups": Counter(), "computes": Counter(), "peak": 0}
    original = ReplayMemo.replay

    def watched(self, key, subject, state, compute):
        def counted(view):
            seen["computes"][key] += 1
            return compute(view)

        seen["lookups"][key] += 1
        outcome = original(self, key, subject, state, counted)
        seen["peak"] = max(seen["peak"], len(self))
        return outcome

    monkeypatch.setattr(ReplayMemo, "replay", watched)
    return seen


def run_cell(adversary):
    """One cell of the hostile-world matrix, built as ``run_scenario``
    builds it, but handing back the cluster."""
    scenario = Scenario(adversary=ADVERSARIES[adversary],
                        workload=SMALLBANK_FLASH, duration=0.2, drain=0.08)
    bundle = scenario.workload.build(scenario)
    config = ThunderboltConfig(
        n_replicas=scenario.n_replicas, batch_size=scenario.batch_size,
        seed=scenario.seed,
        **dict(scenario.adversary.config_overrides))
    cluster = Cluster(config, bundle.workload_config,
                      initial_state=bundle.initial_state,
                      source_factory=bundle.source_factory)
    scenario.adversary.install(cluster, scenario)
    result = cluster.run(scenario.duration, drain=scenario.drain)
    assert SafetyChecker(conserved=bundle.conserved).check(cluster).ok
    return cluster, result


def decided(cluster):
    """What every replica committed and holds."""
    return [(digest_of(replica.commit_log.digests()),
             replica.store.checksum(), sorted(replica.executed),
             replica.validation_failures)
            for replica in cluster.replicas]


@pytest.mark.parametrize("adversary", ["partition-heal", "shard-split-heal"])
def test_replicas_arriving_after_the_eviction_recompute_and_converge(
        adversary, monkeypatch):
    """With room for one entry, a replica that trails its neighbours by a
    single work item finds the entry gone.  It recomputes; nothing that
    the cluster decides moves, against the memo at its size and against no
    memo at all."""
    reference, full = run_cell(adversary)
    assert full.replays_reused > 0
    monkeypatch.setattr(replay_module, "MEMO_ENTRIES", 1)
    starved, tight = run_cell(adversary)
    assert tight.replays_executed > full.replays_executed     # misses,
    assert tight.replays_reused > 0                           # not only
    assert tight.replays_executed + tight.replays_reused == \
        full.replays_executed + full.replays_reused
    monkeypatch.setattr(replay_module, "MEMO_ENTRIES", 0)
    unmemoised, none = run_cell(adversary)
    assert none.replays_reused == 0
    assert decided(starved) == decided(reference) == decided(unmemoised)
    assert tight.events_processed == full.events_processed \
        == none.events_processed


def test_the_bound_holds_through_rotations_and_a_crash(monkeypatch):
    """A `rotation_crash`-shaped run: epoch changes every 20 rounds and
    replica 3 crashed a third in."""
    seen = watch_memo(monkeypatch)
    cluster = Cluster(
        ThunderboltConfig(n_replicas=4, batch_size=50, k_prime=20, seed=1),
        WorkloadConfig(accounts=200), crash_replicas=(3,), crash_at=0.2 / 3)
    result = cluster.run(0.2, drain=0.06)
    assert result.reconfigurations >= 2
    assert result.replays_executed > 4 * MEMO_ENTRIES
    assert seen["peak"] == MEMO_ENTRIES
    assert set(seen["computes"].values()) == {1}
    # Three live replicas of four: the share reused sits between the two.
    lookups = result.replays_executed + result.replays_reused
    assert 2 / 3 < result.replays_reused / lookups < 3 / 4


# -------------------------------------------------------- frozen sharing

def test_a_shared_outcome_cannot_be_written_through():
    shared = executor()
    state = initial_state(4)
    txs = [payment(0, 0, 1, 5), payment(1, 2, 3, 5)]
    declared = []
    view = OverlayView({}, state)
    for index, tx in enumerate(txs):
        entry, _cost = shared.replay_one(tx, view, order_index=index)
        view.overlay.update(entry.write_set)
        declared.append(entry)
    by_id = {tx.tx_id: tx for tx in txs}
    outcomes = [
        shared.execute(txs, state),
        shared.execute_serial(txs, state),
        validate_block(declared, by_id, default_registry(), state),
        reexecute_block(declared, by_id, default_registry(), state),
    ]
    for outcome in outcomes:
        assert outcome.writes["checking:0"] == 9995
        with pytest.raises(TypeError):
            outcome.writes["checking:0"] = 0
        with pytest.raises((TypeError, AttributeError)):
            outcome.writes.update({"checking:0": 0})
        assert outcome.writes["checking:0"] == 9995
    # ... and applying one leaves it as it was for the next replica.
    store = store_of(state)
    store.apply_batch(outcomes[0].writes)
    assert store.get("checking:1") == 10005 == outcomes[0].writes["checking:1"]


# ------------------------------------------------------- a lying proposer

def test_a_forged_preplay_is_rejected_everywhere_from_one_computation(
        monkeypatch):
    """Replica 1 publishes forged preplay sets in every block.  The block
    digest covers the lie, so one validation rejects it and one recovery
    repairs it for the whole cluster — and every replica still counts the
    failure and applies the recovery writes to its own store."""
    seen = watch_memo(monkeypatch)
    inline_runs = count_calls(monkeypatch, contract, "run_inline")
    cluster, result = run_cell("byzantine-exec")
    n = len(cluster.replicas)
    # Every replica reached every work item; one of them computed it.
    assert set(seen["lookups"].values()) == {n}
    assert set(seen["computes"].values()) == {1}
    rejected = [digest for kind, digest in seen["computes"]
                if kind == "reexecute"]
    assert rejected
    assert all(("validate", digest) in seen["computes"]
               for digest in rejected)
    for replica in cluster.replicas:
        assert replica.validation_failures == len(rejected)
    assert result.validation_failures == n * len(rejected)
    assert result.validation_reexecutions > 0
    assert len({replica.store.checksum()
                for replica in cluster.replicas}) == 1
    with_memo = inline_runs[0]

    monkeypatch.setattr(replay_module, "MEMO_ENTRIES", 0)
    inline_runs[0] = 0
    unmemoised, without = run_cell("byzantine-exec")
    assert without.replays_reused == 0
    assert decided(unmemoised) == decided(cluster)
    assert inline_runs[0] == n * with_memo


# ------------------------------------------------------------ the property

ACCOUNTS = 3
_accounts = st.integers(0, ACCOUNTS - 1)
_amounts = st.integers(0, 12)
_calls = st.one_of(
    st.tuples(st.just(SEND_PAYMENT),
              st.tuples(_accounts, _accounts, _amounts)),
    st.tuples(st.just(DEPOSIT_CHECKING), st.tuples(_accounts, _amounts)),
    st.tuples(st.just(TRANSACT_SAVINGS),
              st.tuples(_accounts, st.integers(-12, 12))),
    st.tuples(st.just(WRITE_CHECK), st.tuples(_accounts, _amounts)),
    st.tuples(st.just(AMALGAMATE), st.tuples(_accounts, _accounts)),
)
_shards = st.sampled_from([(0,), (0, 1), (1, 2), (0, 2)])


def _batch_of(tx_ids):
    return st.tuples(st.booleans(), st.tuples(*(
        st.builds(lambda call, shards, tx_id=tx_id:
                  Transaction(tx_id, call[0], call[1], shards),
                  _calls, _shards)
        for tx_id in tx_ids)).map(list))


#: (serial cost model?, transactions).  Two id tuples only, so batches keep
#: reusing one with other contracts, arguments and shards.
_batches = st.lists(st.sampled_from([(0,), (0, 1)]).flatmap(_batch_of),
                    min_size=1, max_size=6)
_keys = st.sampled_from(sorted(initial_state(ACCOUNTS)))
#: How one replica's store differs from the common one, per key: the equal
#: value as another type (``1 == True == 1.0``), another value, or no value
#: (the key then reads the contracts' default).
_divergence = st.dictionaries(
    _keys, st.sampled_from([float, bool, lambda value: value + 1, None]),
    max_size=2)


def diverged(state, divergence):
    state = dict(state)
    for key, change in divergence.items():
        if key in state:
            if change is None:
                del state[key]
            else:
                state[key] = change(state[key])
    return state


@settings(max_examples=150, deadline=None)
@given(batches=_batches,
       common=st.dictionaries(_keys, st.integers(0, 3)),
       divergences=st.lists(_divergence, min_size=2, max_size=4),
       turns=st.lists(st.integers(0, 3), max_size=24))
def test_replay_returns_what_the_caller_would_compute_itself(
        batches, common, divergences, turns):
    """Random batches x random stores x random replica interleavings: every
    replica works through the same batches at its own pace, over a store
    that may or may not agree with its neighbours', and each lookup returns
    byte for byte what an executor with a memo of its own returns there."""
    shared = executor()
    replicas = [(store_of(diverged(common, divergence)), iter(batches))
                for divergence in divergences]
    for turn in turns + list(range(len(replicas))) * len(batches):
        store, todo = replicas[turn % len(replicas)]
        serial, batch = next(todo, (None, None))
        if batch is None:
            continue
        run = "execute_serial" if serial else "execute"
        outcome = getattr(shared, run)(batch, store)
        assert exact(outcome) == exact(getattr(executor(), run)(batch, store))
        store.apply_batch(outcome.writes)
    assert len(shared.memo) <= MEMO_ENTRIES
    if not any(divergences):
        assert len({store.checksum() for store, _todo in replicas}) == 1
