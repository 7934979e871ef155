"""Byte pins for the canonical encoder, a block's own encoding and the
carried vote payload.

The encoder dispatches on exact ``type()``, a block writes its own bytes,
and a vote's payload is encoded once per vertex and shared; none of them may
move one encoded byte, one digest or one MAC.  The golden strings below were
produced by the seed encoder, which is also kept verbatim as the reference
for the Hypothesis comparisons, next to the dict form a block's digest was
once computed from.
"""

import enum
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.ce import CommittedTx
from repro.crypto import (CertificateBuilder, Encoded, KeyPair, KeyRegistry,
                          canonical_encode, digest_of, quorum_size,
                          vote_message, vote_payload)
from repro.crypto import certificates, digest, keys
from repro.dag import Block, BlockKind, Vertex
from repro.errors import CryptoError
from repro.txn import Transaction


def seed_encode(value) -> bytes:
    parts: list = []
    _seed_encode_into(value, parts)
    return b"".join(parts)


def _seed_encode_into(value, parts: list) -> None:
    """The encoder as the seed shipped it: one ``isinstance`` chain."""
    if value is None:
        parts.append(b"N")
    elif isinstance(value, bool):
        parts.append(b"T" if value else b"F")
    elif isinstance(value, int):
        parts.append(b"I" + str(value).encode() + b";")
    elif isinstance(value, float):
        parts.append(b"D" + repr(value).encode() + b";")
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        parts.append(b"S" + str(len(encoded)).encode() + b":" + encoded)
    elif isinstance(value, bytes):
        parts.append(b"B" + str(len(value)).encode() + b":" + value)
    elif isinstance(value, (list, tuple)):
        parts.append(b"L" + str(len(value)).encode() + b"[")
        for item in value:
            _seed_encode_into(item, parts)
        parts.append(b"]")
    elif isinstance(value, dict):
        keys = sorted(value, key=str)
        parts.append(b"M" + str(len(keys)).encode() + b"{")
        for key in keys:
            _seed_encode_into(str(key), parts)
            _seed_encode_into(value[key], parts)
        parts.append(b"}")
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


class Color(enum.IntEnum):
    RED = 1


class Count(int):
    pass


class Name(str):
    pass


class Flags(enum.IntFlag):
    A = 1
    B = 2


GOLDEN = [
    # one value of each supported type
    (None, b"N"),
    (True, b"T"),
    (False, b"F"),
    (1, b"I1;"),
    (2.5, b"D2.5;"),
    ("abc", b"S3:abc"),
    (b"\x00\xff", b"B2:\x00\xff"),
    ([1, "a"], b"L2[I1;S1:a]"),
    ((1, "a"), b"L2[I1;S1:a]"),  # tuple == list
    ({"b": 1, "a": 2}, b"M2{S1:aI2;S1:bI1;}"),
    # bool is not int, also inside containers
    ([True, 1], b"L2[TI1;]"),
    # ints: zero, negative, beyond 64 bits
    (0, b"I0;"),
    (-17, b"I-17;"),
    (2 ** 70, b"I1180591620717411303424;"),
    # floats go through repr
    (-0.0, b"D-0.0;"),
    (1e300, b"D1e+300;"),
    (float("inf"), b"Dinf;"),
    # string lengths are UTF-8 byte lengths
    ("", b"S0:"),
    ("é€😀", b"S9:\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"),
    # empty containers
    (b"", b"B0:"),
    ([], b"L0[]"),
    ((), b"L0[]"),
    ({}, b"M0{}"),
    # non-str and mixed-type keys are ordered and written by str()
    ({10: "x", 9: "y"}, b"M2{S2:10S1:xS1:9S1:y}"),
    ({1: "i", "1x": "s", None: 0}, b"M3{S1:1S1:iS2:1xS1:sS4:NoneI0;}"),
    ({True: 1, "A": 2}, b"M2{S1:AI2;S4:TrueI1;}"),
    # nesting
    ({"k": (1, [2, (3,)])}, b"M1{S1:kL2[I1;L2[I2;L1[I3;]]]}"),
]

BLOCK_SHAPED = {
    "author": 3, "shard": 3, "epoch": 0, "round": 7, "kind": "normal",
    "parents": ["aa", "bb"],
    "transactions": [{"id": 12, "contract": "smallbank.send_payment",
                      "args": [4, 9, 5], "shards": [3]}],
    "preplay": [{"tx": 11, "order": 0, "reads": {"checking:4": 100},
                 "writes": {"checking:4": 95, "savings:9": 5.5},
                 "result": None}],
    "preplayed_txs": [], "converted": [],
}
BLOCK_SHAPED_BYTES = (
    b"M10{S6:authorI3;S9:convertedL0[]S5:epochI0;S4:kindS6:normal"
    b"S7:parentsL2[S2:aaS2:bb]S7:preplayL1[M5{S5:orderI0;S5:readsM1{"
    b"S10:checking:4I100;}S6:resultNS2:txI11;S6:writesM2{S10:checking:4I95;"
    b"S9:savings:9D5.5;}}]S13:preplayed_txsL0[]S5:roundI7;S5:shardI3;"
    b"S12:transactionsL1[M4{S4:argsL3[I4;I9;I5;]S8:contract"
    b"S22:smallbank.send_paymentS2:idI12;S6:shardsL1[I3;]}]}")


@pytest.mark.parametrize("value, expected", GOLDEN,
                         ids=[repr(value) for value, _ in GOLDEN])
def test_golden_bytes(value, expected):
    assert canonical_encode(value) == expected
    assert seed_encode(value) == expected


def test_block_shaped_dict_pinned():
    assert canonical_encode(BLOCK_SHAPED) == BLOCK_SHAPED_BYTES
    assert digest_of(BLOCK_SHAPED) == "2c640adb28fb7308ff6fe8b76c5c6768"


@pytest.mark.parametrize("value", [
    Color.RED, Flags.A | Flags.B, Count(7), Name("abc"),
    OrderedDict([("b", 1), ("a", Color.RED)]),
    {Color.RED: "enum key", Name("n"): Count(2)},
    [Count(1), (Name("x"), True)],
], ids=repr)
def test_subclasses_take_the_isinstance_chain(value):
    """Exact-type dispatch must not decide how a subclass encodes: an
    ``IntEnum`` is written through its own ``str()``, as the seed did."""
    assert canonical_encode(value) == seed_encode(value)


def test_unsupported_types_still_raise_inside_containers():
    with pytest.raises(TypeError):
        canonical_encode({"a": [object()]})
    with pytest.raises(TypeError):
        canonical_encode({1, 2})


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False), st.text(), st.binary(),
    st.sampled_from([Color.RED, Count(3), Name("sub")]))
_keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                  st.sampled_from([Color.RED, Name("k")]))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4)),
    max_leaves=20)


@given(_values)
@settings(max_examples=300, deadline=None)
def test_encoder_matches_seed_encoder(value):
    assert canonical_encode(value) == seed_encode(value)


# -- a block's own encoding -----------------------------------------------

def encode_transaction(tx):
    return {"id": tx.tx_id, "contract": tx.contract,
            "args": list(tx.args), "shards": list(tx.shard_ids)}


def encode_entry(entry):
    return {"tx": entry.tx_id, "order": entry.order_index,
            "reads": entry.read_set, "writes": entry.write_set,
            "result": entry.result}


def dict_form(block):
    """What ``Block.digest`` hashed before the block wrote its own bytes."""
    return {
        "author": block.author,
        "shard": block.shard,
        "epoch": block.epoch,
        "round": block.round_number,
        "kind": block.kind.value,
        "parents": list(block.parents),
        "transactions": [encode_transaction(tx)
                         for tx in block.transactions],
        "preplay": [encode_entry(entry) for entry in block.preplay],
        "preplayed_txs": [encode_transaction(tx)
                          for tx in block.preplayed_txs],
        "converted": [encode_transaction(tx) for tx in block.converted],
    }


PINNED_BLOCK = Block(
    author=3, shard=3, epoch=0, round_number=7, kind=BlockKind.NORMAL,
    parents=("aa", "bb"),
    transactions=(Transaction(12, "smallbank.send_payment", (4, 9, 5),
                              (3,)),),
    preplay=(CommittedTx(11, 0, {"checking:4": 100},
                         {"checking:4": 95, "savings:9": 5.5}, None, 4),))


def test_block_bytes_and_digest_pinned():
    """The block behind ``BLOCK_SHAPED``; ``attempts`` is not hashed."""
    assert dict_form(PINNED_BLOCK) == BLOCK_SHAPED
    assert canonical_encode(PINNED_BLOCK) == BLOCK_SHAPED_BYTES
    assert PINNED_BLOCK.digest == "2c640adb28fb7308ff6fe8b76c5c6768"


_ints = st.one_of(st.integers(), st.sampled_from([Color.RED, Count(3)]))
_transactions = st.builds(
    Transaction, tx_id=_ints, contract=st.text(),
    args=st.one_of(st.lists(_values, max_size=4).map(tuple),
                   st.lists(_values, max_size=4)),
    shard_ids=st.lists(st.one_of(st.integers(0, 64),
                                 st.sampled_from([Color.RED, Count(3)])),
                       min_size=1, max_size=3).map(tuple))
_entries = st.builds(
    CommittedTx, tx_id=_ints, order_index=_ints,
    read_set=st.dictionaries(_keys, _values, max_size=4),
    write_set=st.dictionaries(_keys, _values, max_size=4),
    result=_values, attempts=st.integers(1, 5))
_tx_tuples = st.lists(_transactions, max_size=3).map(tuple)
_blocks = st.builds(
    Block, author=_ints, shard=_ints, epoch=_ints, round_number=_ints,
    kind=st.sampled_from(BlockKind),
    parents=st.lists(st.text(), max_size=3).map(tuple),
    transactions=_tx_tuples,
    preplay=st.lists(_entries, max_size=3).map(tuple),
    preplayed_txs=_tx_tuples, converted=_tx_tuples)


def assert_block_encodes_as_its_dict_form(block):
    form = dict_form(block)
    assert canonical_encode(block) == seed_encode(form)
    assert block.digest == digest_of(form)


@given(_blocks)
@settings(max_examples=300, deadline=None)
def test_block_encodes_as_its_dict_form(block):
    assert_block_encodes_as_its_dict_form(block)


def test_swapped_field_prefixes_fail_the_block_property(monkeypatch):
    """A planted bug: ``epoch`` and ``round`` written under each other's
    names.  The property must catch it."""
    swap = {b"S5:epoch": b"S5:round", b"S5:round": b"S5:epoch"}
    original = Block.canonical_into

    def swapped(self, parts):
        scratch = []
        original(self, scratch)
        parts.extend(swap.get(part, part) for part in scratch)

    monkeypatch.setattr(Block, "canonical_into", swapped)
    planted = settings(max_examples=300, deadline=None, database=None)(
        given(_blocks)(assert_block_encodes_as_its_dict_form))
    with pytest.raises(AssertionError):
        planted()


# -- the carried vote payload ---------------------------------------------

DIGEST = "ab" * 16


def test_vote_payload_is_the_encoded_vote_message():
    payload = vote_payload(DIGEST, 5, 9)
    assert type(payload) is Encoded
    assert payload == canonical_encode(vote_message(DIGEST, 5, 9)) == (
        b"M3{S6:originI5;S5:roundI9;S4:voteS32:" + DIGEST.encode() + b"}")


def test_mac_over_carried_payload_pinned():
    """``sign`` over the carried payload is the MAC the seed computed by
    encoding ``vote_message`` itself; plain ``bytes`` are still a message
    to encode, only :class:`Encoded` is taken as already encoded."""
    pair = KeyPair.generate(3, entropy=2024)
    registry = KeyRegistry()
    registry.register(pair)
    assert pair.public.key_id == "0228e7c61917d463"
    by_message = pair.sign(vote_message(DIGEST, 5, 9))
    by_payload = pair.sign(vote_payload(DIGEST, 5, 9))
    assert by_message.mac == by_payload.mac \
        == "53ce210ee5b44c3f6f96030fc1339797"
    assert registry.verify(vote_payload(DIGEST, 5, 9), by_message)
    assert registry.verify(vote_message(DIGEST, 5, 9), by_payload)
    assert pair.sign(bytes(vote_payload(DIGEST, 5, 9))).mac != by_payload.mac


def test_block_carries_its_vote_payload():
    block = Block(author=2, shard=2, epoch=0, round_number=4,
                  kind=BlockKind.NORMAL, parents=("p", "q"))
    assert block.vote_payload == vote_payload(block.digest, 2, 4)
    assert block.vote_payload is block.vote_payload


def test_builder_with_carried_payload_rejects_foreign_votes():
    n = 4
    registry = KeyRegistry()
    pairs = [KeyPair.generate(i, 5) for i in range(n)]
    for pair in pairs:
        registry.register(pair)
    block = Block(author=1, shard=1, epoch=0, round_number=2,
                  kind=BlockKind.NORMAL, parents=())
    builder = CertificateBuilder(block.digest, 1, 2, n,
                                 block.vote_payload)
    builder.add_vote(pairs[0].sign(block.vote_payload), registry)
    builder.add_vote(pairs[1].sign(vote_message(block.digest, 1, 2)),
                     registry)
    with pytest.raises(CryptoError):
        builder.add_vote(pairs[2].sign(vote_message(block.digest, 1, 3)),
                         registry)
    assert builder.vote_count == 2


def test_certifying_a_vertex_encodes_at_most_twice(monkeypatch):
    """n = 16: sixteen signers and a 2f+1 quorum of checks share one block
    digest and one vote payload — two ``canonical_encode`` calls, where the
    seed made 1 + 16 + 11."""
    n = 16
    registry = KeyRegistry()
    pairs = [KeyPair.generate(i, 11) for i in range(n)]
    for pair in pairs:
        registry.register(pair)
    calls = []

    def counting(value):
        calls.append(value)
        return canonical_encode(value)

    for module in (digest, keys, certificates):
        monkeypatch.setattr(module, "canonical_encode", counting)
    block = Block(author=0, shard=0, epoch=0, round_number=3,
                  kind=BlockKind.NORMAL,
                  parents=tuple(f"{i:032x}" for i in range(11)))
    builder = CertificateBuilder(block.digest, 0, 3, n,
                                 block.vote_payload)
    for pair in pairs:  # every replica votes, as on the wire
        signature = pair.sign(block.vote_payload)
        if not builder.complete:
            builder.add_vote(signature, registry)
    assert builder.vote_count == quorum_size(n)
    vertex = Vertex(block=block, certificate=builder.build())
    assert len(calls) <= 2
    assert calls[0] is block
    assert calls[1] == vote_message(block.digest, 0, 3)
    # Checking the finished certificate encodes its message once, not once
    # per signature.
    vertex.certificate.verify(registry, n)
    assert len(calls) <= 3
