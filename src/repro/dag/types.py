"""DAG vertex types.

Every vertex carries a *block* (the data payload: transactions and/or
preplay outcomes plus references to 2f+1 certificates of the previous
round) and becomes usable once paired with its quorum *certificate* (§2).

Thunderbolt distinguishes four block kinds (§4–6):

* ``NORMAL`` — single-shard transactions with their preplay outcomes (EOV),
* ``CROSS``  — cross-shard transactions submitted raw for post-order
  execution (OE),
* ``SKIP``   — placeholder proposed while conflicting cross-shard
  transactions are pending, to keep the DAG advancing (§5.4, Fig. 5),
* ``SHIFT``  — reconfiguration votes (§6, Fig. 6).

A ``NORMAL`` block may additionally carry ``converted`` cross-shard
transactions — single-shard transactions promoted by rules P3/P4/P6.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Tuple

from repro.ce.controller import CommittedTx
from repro.crypto.certificates import Certificate, vote_payload
from repro.crypto.digest import Encoded, digest_of, encode_into
from repro.txn import Transaction


class BlockKind(Enum):
    NORMAL = "normal"
    CROSS = "cross"
    SKIP = "skip"
    SHIFT = "shift"


def _transactions_into(prefix: bytes, txs: Tuple[Transaction, ...],
                       parts: list) -> None:
    """Append ``prefix`` and the encoding of ``[{"args": ..., "contract":
    ..., "id": ..., "shards": ...}, ...]`` for ``txs``."""
    parts.append(b"%bL%d[" % (prefix, len(txs)))
    for tx in txs:
        parts.append(b"M4{S4:args")
        encode_into(tx.args, parts)
        parts.append(b"S8:contract")
        encode_into(tx.contract, parts)
        parts.append(b"S2:id")
        encode_into(tx.tx_id, parts)
        parts.append(b"S6:shards")
        encode_into(tx.shard_ids, parts)
        parts.append(b"}")
    parts.append(b"]")


@dataclass(frozen=True)
class Block:
    """A DAG vertex's data payload."""

    author: int
    shard: int
    epoch: int
    round_number: int
    kind: BlockKind
    parents: Tuple[str, ...]
    transactions: Tuple[Transaction, ...] = ()
    #: Each committed preplay transaction's order, read set, write set and
    #: result (§4); ``attempts`` rides along unhashed.
    preplay: Tuple[CommittedTx, ...] = ()
    #: The single-shard transactions behind ``preplay`` — validators need
    #: the contract invocations to re-execute (§4).
    preplayed_txs: Tuple[Transaction, ...] = ()
    #: Single-shard transactions converted to cross-shard handling by rules
    #: P3/P4/P6; they execute post-order like any cross-shard transaction.
    converted: Tuple[Transaction, ...] = ()
    created_at: float = 0.0

    @cached_property
    def digest(self) -> str:
        return digest_of(self)

    def canonical_into(self, parts: list) -> None:
        """Append the canonical encoding of the block's map form: the keys
        ``author`` … ``transactions`` in sorted order, a transaction as
        ``{args, contract, id, shards}``, a preplay entry as ``{order,
        reads, result, tx, writes}``."""
        parts.append(b"M10{S6:author")
        encode_into(self.author, parts)
        _transactions_into(b"S9:converted", self.converted, parts)
        parts.append(b"S5:epoch")
        encode_into(self.epoch, parts)
        parts.append(b"S4:kind")
        encode_into(self.kind.value, parts)
        parts.append(b"S7:parents")
        encode_into(self.parents, parts)
        parts.append(b"S7:preplayL%d[" % len(self.preplay))
        for entry in self.preplay:
            parts.append(b"M5{S5:order")
            encode_into(entry.order_index, parts)
            parts.append(b"S5:reads")
            encode_into(entry.read_set, parts)
            parts.append(b"S6:result")
            encode_into(entry.result, parts)
            parts.append(b"S2:tx")
            encode_into(entry.tx_id, parts)
            parts.append(b"S6:writes")
            encode_into(entry.write_set, parts)
            parts.append(b"}")
        parts.append(b"]")
        _transactions_into(b"S13:preplayed_txs", self.preplayed_txs, parts)
        parts.append(b"S5:round")
        encode_into(self.round_number, parts)
        parts.append(b"S5:shard")
        encode_into(self.shard, parts)
        _transactions_into(b"S12:transactions", self.transactions, parts)
        parts.append(b"}")

    @cached_property
    def vote_payload(self) -> Encoded:
        """What a vote for this block signs, encoded once like ``digest``
        for every voter and check (replicas share the block object)."""
        return vote_payload(self.digest, self.author, self.round_number)

    @property
    def is_shift(self) -> bool:
        return self.kind is BlockKind.SHIFT

    def ordered_payload(self) -> Tuple[Transaction, ...]:
        """Transactions this block contributes to post-order (OE) execution:
        raw cross-shard submissions plus converted single-shard ones."""
        return self.transactions + self.converted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Block e{self.epoch} r{self.round_number} "
                f"author={self.author} {self.kind.value} "
                f"{self.digest[:8]}>")


@dataclass(frozen=True)
class Vertex:
    """A certified block: what actually enters the local DAG."""

    block: Block
    certificate: Certificate

    def __post_init__(self) -> None:
        if self.certificate.digest != self.block.digest:
            raise ValueError("certificate does not match block digest")

    @property
    def digest(self) -> str:
        return self.block.digest

    @property
    def round_number(self) -> int:
        return self.block.round_number

    @property
    def author(self) -> int:
        return self.block.author
