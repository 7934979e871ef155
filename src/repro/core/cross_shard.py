"""Deterministic cross-shard execution (§5.2).

Cross-shard transactions reach every replica in the DAG total order (OE
model).  Rather than executing them serially, Thunderbolt builds a
QueCC-style plan from the sharding metadata (SIDs): each shard is an
execution lane, a transaction occupies every lane in its SID set, and
transactions with disjoint SID sets run concurrently.  Execution itself is
the deterministic serial semantics (the plan only changes *when* work
happens, never the outcome), so no aborts are possible post-ordering.

One ordered replay, two cost models.  Both entry points run the whole
ordered batch inline against a read-only view, once per cluster
(:class:`~repro.contracts.replay.ReplayMemo`), and charge the caller one
simulated cost:

* :meth:`CrossShardExecutor.execute` — the lane plan's critical path.
* :meth:`CrossShardExecutor.execute_serial` — the serial sum, the Tusk
  baseline's post-order execution.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, Mapping, Sequence, Tuple

from dataclasses import dataclass

from repro.ce.controller import CommittedTx
from repro.contracts.contract import ContractRegistry, run_inline
from repro.contracts.replay import OverlayView, ReplayMemo
from repro.txn import Transaction


@dataclass
class CrossShardOutcome:
    """What one ordered batch of cross-shard transactions leaves a replica
    to apply; the replicas of a cluster share it (:class:`ReplayMemo`)."""

    #: Final value per key, read-only.
    writes: Mapping[str, Any]
    #: Simulated seconds the batch takes under its cost model.
    simulated_cost: float


class CrossShardExecutor:
    """Executes ordered cross-shard transactions with a per-SID lane plan."""

    def __init__(self, registry: ContractRegistry, memo: ReplayMemo,
                 op_cost: float = 5e-6, default: Any = 0) -> None:
        self.registry = registry
        self.memo = memo
        self.op_cost = op_cost
        self.default = default

    def replay_one(self, tx: Transaction, view: Any,
                   order_index: int = 0) -> Tuple[CommittedTx, float]:
        """Inline-run one transaction against ``view`` (read-only).

        Returns the committed entry plus its simulated execution cost.
        The caller owns write application — nothing is mutated here.
        """
        body = self.registry.get(tx.contract)
        record = run_inline(body, tx.args, view, default=self.default)
        entry = CommittedTx(
            tx_id=tx.tx_id, order_index=order_index,
            read_set=record.read_set, write_set=record.write_set,
            result=record.result, attempts=1)
        return entry, max(1, record.op_count) * self.op_cost

    def _replay(self, transactions: Sequence[Transaction],
                view: OverlayView) -> Iterator[Tuple[Transaction, float]]:
        """Shared replay loop behind both batch cost models.

        Yields ``(tx, cost)`` in total order, folding each transaction's
        writes into the view's overlay before the next transaction runs
        (read-your-predecessors semantics).
        """
        for index, tx in enumerate(transactions):
            entry, cost = self.replay_one(tx, view, order_index=index)
            view.overlay.update(entry.write_set)
            yield tx, cost

    def _batch(self, transactions: Sequence[Transaction],
               state: Mapping[str, Any],
               cost_model: Callable[..., float]) -> CrossShardOutcome:
        """Replay the batch under ``cost_model``, once per cluster.  The
        ids alone are no key — two batches may reuse them with other
        contracts or arguments — so the memo compares the transactions."""
        subject = tuple(transactions)
        return self.memo.replay(
            (cost_model, tuple(tx.tx_id for tx in subject)), subject, state,
            lambda view: CrossShardOutcome(
                simulated_cost=cost_model(self._replay(subject, view)),
                writes=MappingProxyType(view.overlay)))

    def execute(self, transactions: Sequence[Transaction],
                state: Mapping[str, Any]) -> CrossShardOutcome:
        """Run ``transactions`` in their given total order against ``state``.

        ``state`` is read-only here; apply ``outcome.writes`` on commit.
        """
        return self._batch(transactions, state, _lane_makespan)

    def execute_serial(self, transactions: Sequence[Transaction],
                       state: Mapping[str, Any]) -> CrossShardOutcome:
        """Run ``transactions`` with a strictly serial cost model — the
        Tusk baseline's post-order execution (§12)."""
        return self._batch(transactions, state, _serial_cost)


def _lane_makespan(replayed: Iterator[Tuple[Transaction, float]]) -> float:
    """Critical path over the shard lanes: a transaction starts when every
    lane it touches is free and occupies them all until it finishes (QueCC
    queue semantics)."""
    #: lane (SID) -> simulated time the lane is busy until.
    lane_clock: Dict[int, float] = {}
    makespan = 0.0
    for tx, cost in replayed:
        start = max((lane_clock.get(sid, 0.0) for sid in tx.shard_ids),
                    default=0.0)
        finish = start + cost
        for sid in tx.shard_ids:
            lane_clock[sid] = finish
        makespan = max(makespan, finish)
    return makespan


def _serial_cost(replayed: Iterator[Tuple[Transaction, float]]) -> float:
    total_cost = 0.0
    for _tx, cost in replayed:
        total_cost += cost
    return total_cost

