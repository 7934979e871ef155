"""Property-based tests for the substrate data structures."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ce import ConcurrencyController
from repro.contracts import run_inline
from repro.contracts.ops import ReadOp, WriteOp
from repro.crypto import digest_of
from repro.errors import TransactionAborted
from repro.sim import ZipfGenerator, make_rng
from repro.storage import KVStore
from tests.ce.graph_reference import is_acyclic

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

keys = st.text(alphabet="abcde", min_size=1, max_size=2)
values = st.integers(min_value=-100, max_value=100)


store_operations = st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("batch"), st.dictionaries(keys, values, max_size=4)))


@given(st.lists(store_operations, max_size=50))
@SETTINGS
def test_kvstore_matches_dict_model(operations):
    """The store behaves like a dict with version counters: a delete
    forgets the version, a batch bumps each of its keys once, and the
    checksum digests the model's ``{key: [value, version]}``."""
    store = KVStore()
    model = {}
    versions = {}
    for operation in operations:
        if operation[0] == "delete":
            store.delete(operation[1])
            model.pop(operation[1], None)
            versions.pop(operation[1], None)
            continue
        if operation[0] == "put":
            writes = {operation[1]: operation[2]}
            store.put(operation[1], operation[2])
        else:
            writes = operation[1]
            store.apply_batch(writes)
        for key, value in writes.items():
            model[key] = value
            versions[key] = versions.get(key, 0) + 1
    for key in model:
        assert store.get(key) == model[key]
        assert store.version(key) == versions[key]
    assert store.version("zz") == 0 and store.get("zz", "d") == "d"
    assert len(store) == len(model)
    assert [k for k, _ in store.scan()] == sorted(model)
    assert store.checksum() == digest_of(
        {key: [value, versions[key]] for key, value in model.items()})


@given(st.lists(st.tuples(keys, values), max_size=30), keys, values)
@SETTINGS
def test_kvstore_snapshot_immutable(operations, extra_key, extra_value):
    store = KVStore()
    for key, value in operations:
        store.put(key, value)
    snapshot = store.snapshot()
    frozen = {key: snapshot.get(key) for key, _ in operations}
    store.put(extra_key, extra_value)
    store.put(extra_key, extra_value + 1)
    for key, value in frozen.items():
        assert snapshot.get(key) == value


@given(st.integers(2, 500), st.floats(0.0, 1.2), st.integers(0, 2 ** 16))
@SETTINGS
def test_zipf_always_in_range(population, theta, seed):
    zipf = ZipfGenerator(population, theta, make_rng(seed))
    for _ in range(50):
        assert 0 <= zipf.sample() < population


@given(st.integers(10, 200), st.integers(0, 2 ** 16))
@SETTINGS
def test_zipf_monotone_popularity(population, seed):
    """Rank-0 items are sampled at least as often as rank-(n-1) items."""
    zipf = ZipfGenerator(population, 0.9, make_rng(seed))
    samples = [zipf.sample() for _ in range(500)]
    first_half = sum(1 for s in samples if s < population // 2)
    assert first_half >= len(samples) // 2


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=10)


@given(json_like)
@SETTINGS
def test_digest_stable_and_sensitive(value):
    assert digest_of(value) == digest_of(value)


@given(st.lists(json_like, min_size=2, max_size=2, unique_by=repr))
@SETTINGS
def test_digest_distinguishes_distinct_values(pair):
    a, b = pair
    if a != b and not (isinstance(a, (list, tuple))
                       and isinstance(b, (list, tuple)) and list(a) == list(b)):
        if type(a) != type(b) and a == b:
            return  # e.g. 1 == True: equal values may share digests
        assert digest_of(a) != digest_of(b)


# -- controller fuzz ----------------------------------------------------------

op_strategy = st.lists(
    st.tuples(st.integers(0, 7),            # transaction id
              st.sampled_from(["r", "w", "f"]),
              keys, values),
    min_size=1, max_size=80)


@given(op_strategy)
@SETTINGS
def test_controller_never_cycles_and_commits_match_replay(script):
    """Fuzz the CC with an arbitrary operation script.

    Whatever interleaving the script encodes, the graph stays acyclic and
    the committed schedule replays exactly."""
    base = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}
    cc = ConcurrencyController(dict(base))
    handles = {}
    log = {}
    for tx_id, action, key, value in script:
        try:
            if tx_id not in handles or handles[tx_id] is None:
                handles[tx_id] = cc.begin(tx_id)
                log[tx_id] = []
            node = handles[tx_id]
            if node.status.value in ("committed", "finished", "aborted"):
                continue
            if action == "r":
                observed = cc.read(node, key)
                log[tx_id].append(("r", key, observed))
            elif action == "w":
                cc.write(node, key, value)
                log[tx_id].append(("w", key, value))
            else:
                cc.finish(node)
        except TransactionAborted:
            handles[tx_id] = None  # would re-execute; fuzz just drops it
        assert is_acyclic(cc.graph)
    # serial replay of the committed schedule
    replay = dict(base)
    for entry in cc.committed:
        for key, observed in entry.read_set.items():
            assert replay.get(key, 0) == observed, \
                f"tx {entry.tx_id} read {key}={observed}, replay has " \
                f"{replay.get(key, 0)}"
        replay.update(entry.write_set)
