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

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.ce.controller import CommittedTx
from repro.crypto.certificates import Certificate, vote_payload
from repro.crypto.digest import Encoded, digest_of
from repro.txn import Transaction


class BlockKind(Enum):
    NORMAL = "normal"
    CROSS = "cross"
    SKIP = "skip"
    SHIFT = "shift"


@dataclass(frozen=True)
class PreplayEntry:
    """One transaction's preplay outcome as published in a block (§4)."""

    tx_id: int
    order_index: int
    read_set: Dict[str, Any]
    write_set: Dict[str, Any]
    result: Any

    @classmethod
    def from_committed(cls, entry: CommittedTx) -> "PreplayEntry":
        return cls(tx_id=entry.tx_id, order_index=entry.order_index,
                   read_set=dict(entry.read_set),
                   write_set=dict(entry.write_set), result=entry.result)

    def encode(self) -> dict:
        return {"tx": self.tx_id, "order": self.order_index,
                "reads": self.read_set, "writes": self.write_set,
                "result": self.result}


def encode_transaction(tx: Transaction) -> dict:
    return {"id": tx.tx_id, "contract": tx.contract,
            "args": list(tx.args), "shards": list(tx.shard_ids)}


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
    preplay: Tuple[PreplayEntry, ...] = ()
    #: The single-shard transactions behind ``preplay`` — validators need
    #: the contract invocations to re-execute (§4).
    preplayed_txs: Tuple[Transaction, ...] = ()
    #: Single-shard transactions converted to cross-shard handling by rules
    #: P3/P4/P6; they execute post-order like any cross-shard transaction.
    converted: Tuple[Transaction, ...] = ()
    created_at: float = 0.0

    @cached_property
    def digest(self) -> str:
        return digest_of({
            "author": self.author,
            "shard": self.shard,
            "epoch": self.epoch,
            "round": self.round_number,
            "kind": self.kind.value,
            "parents": list(self.parents),
            "transactions": [encode_transaction(tx)
                             for tx in self.transactions],
            "preplay": [entry.encode() for entry in self.preplay],
            "preplayed_txs": [encode_transaction(tx)
                              for tx in self.preplayed_txs],
            "converted": [encode_transaction(tx) for tx in self.converted],
        })

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
