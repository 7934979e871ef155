"""Commit-time parallel validation of preplay results (§4).

A validator receives a block containing, for each transaction, the scheduled
execution order, the read set (key → value observed) and the write set
(key → final value).  It re-executes the contracts in the scheduled order
against its local state and confirms every declared read matches; any
discrepancy flags the whole block invalid and it is discarded.

Validation parallelism ("parallel transaction validation rather than
sequential checks", §4): because the read/write *sets are declared*, each
transaction's input view can be reconstructed from the predecessors'
declared writes without executing them — so every transaction validates
independently and the block parallelises perfectly across the validator
pool, **regardless of data contention**.  The simulated cost is therefore a
makespan of per-transaction costs over the validators; the dependency
*levels* are still computed as a structural metric (and for tests), but
they do not serialise validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Sequence

from repro.ce.controller import CommittedTx
from repro.contracts.contract import ContractRegistry, run_inline
from repro.contracts.replay import OverlayView
from repro.txn import Transaction


@dataclass
class ValidationOutcome:
    """Result of validating one block of preplayed transactions."""

    valid: bool
    reason: str = ""
    #: Simulated seconds the validation would take on ``validators`` workers.
    simulated_cost: float = 0.0
    #: State updates to apply if valid (final value per key, read-only).
    writes: Mapping[str, Any] = field(default_factory=dict)
    #: Number of dependency-graph levels (critical path length in txs).
    critical_path: int = 0


def build_validation_levels(entries: Sequence[CommittedTx]) -> List[List[CommittedTx]]:
    """Group transactions into dependency levels using declared r/w sets.

    Transactions in the same level touch pairwise-disjoint keys relative to
    all *conflicting* predecessors, so a level can be validated in parallel.
    The grouping respects the scheduled order: a transaction lands in the
    first level after the last conflicting predecessor.
    """
    level_of: Dict[int, int] = {}
    last_writer_level: Dict[str, int] = {}
    last_reader_level: Dict[str, int] = {}
    levels: List[List[CommittedTx]] = []
    for entry in entries:
        # Sorted key order keeps level assignment (and therefore validator
        # scheduling) independent of PYTHONHASHSEED.
        keys_read = sorted(set(entry.read_set))
        keys_written = sorted(set(entry.write_set))
        level = 0
        for key in sorted(set(keys_read) | set(keys_written)):
            if key in last_writer_level:
                level = max(level, last_writer_level[key] + 1)
        for key in keys_written:
            if key in last_reader_level:
                level = max(level, last_reader_level[key] + 1)
        level_of[entry.tx_id] = level
        while len(levels) <= level:
            levels.append([])
        levels[level].append(entry)
        for key in keys_written:
            last_writer_level[key] = level
        for key in keys_read:
            last_reader_level[key] = max(last_reader_level.get(key, -1), level)
    return levels


def validate_block(entries: Sequence[CommittedTx],
                   transactions: Mapping[int, Transaction],
                   registry: ContractRegistry,
                   state: Mapping[str, Any],
                   default: Any = 0,
                   validators: int = 16,
                   op_cost: float = 5e-6) -> ValidationOutcome:
    """Re-execute a block in its scheduled order and check the read sets.

    ``state`` is the validator's current view (already including previously
    committed blocks).  Returns an outcome carrying the simulated cost of
    the parallel validation and, when valid, the writes to apply.
    """
    view = OverlayView({}, state)
    for entry in entries:
        tx = transactions.get(entry.tx_id)
        if tx is None:
            return ValidationOutcome(
                valid=False, reason=f"unknown transaction {entry.tx_id}")
        body = registry.get(tx.contract)
        record = run_inline(body, tx.args, view, default=default)
        if record.read_set != entry.read_set:
            return ValidationOutcome(
                valid=False,
                reason=(f"tx {entry.tx_id}: read set mismatch "
                        f"(declared {entry.read_set}, observed "
                        f"{record.read_set})"))
        if record.write_set != entry.write_set:
            return ValidationOutcome(
                valid=False,
                reason=(f"tx {entry.tx_id}: write set mismatch"))
        view.overlay.update(record.write_set)
    levels = build_validation_levels(entries)
    cost = _parallel_cost(entries, validators, op_cost)
    return ValidationOutcome(valid=True, simulated_cost=cost,
                             writes=MappingProxyType(view.overlay),
                             critical_path=len(levels))


@dataclass
class ReexecutionOutcome:
    """Result of the deterministic fallback for an invalid block (§4).

    When validation rejects a block (forged or inconsistent preplay sets),
    the block's transactions are re-executed serially in the canonical
    order against the validator's own state — every honest replica derives
    the identical outcome, so the cluster converges even though the
    published preplay was a lie.
    """

    #: Final value per key after the canonical serial replay (read-only).
    writes: Mapping[str, Any] = field(default_factory=dict)
    #: Contract result per transaction id.
    results: Dict[int, Any] = field(default_factory=dict)
    #: Transaction ids executed, in canonical order.
    executed: List[int] = field(default_factory=list)
    #: Simulated seconds of the serial replay (declared sets are untrusted,
    #: so no parallel validation schedule can be derived from them).
    simulated_cost: float = 0.0


def reexecute_block(entries: Sequence[CommittedTx],
                    transactions: Mapping[int, Transaction],
                    registry: ContractRegistry,
                    state: Mapping[str, Any],
                    default: Any = 0,
                    op_cost: float = 5e-6) -> ReexecutionOutcome:
    """Serially re-execute a rejected block in its canonical order.

    The canonical order is the declared schedule restricted to known
    transactions (ties broken by tx id), followed by any block transaction
    the forged preplay omitted, in block order.  It depends only on the
    block contents, so every replica reaches the same state.
    """
    ordered: Dict[int, None] = {}
    for entry in sorted(entries, key=lambda e: (e.order_index, e.tx_id)):
        if entry.tx_id in transactions:
            ordered.setdefault(entry.tx_id, None)
    for tx_id in transactions:
        ordered.setdefault(tx_id, None)
    view = OverlayView({}, state)
    results: Dict[int, Any] = {}
    total_ops = 0
    for tx_id in ordered:
        tx = transactions[tx_id]
        body = registry.get(tx.contract)
        record = run_inline(body, tx.args, view, default=default)
        view.overlay.update(record.write_set)
        results[tx_id] = record.result
        total_ops += len(record.operations)
    return ReexecutionOutcome(writes=MappingProxyType(view.overlay),
                              results=results, executed=list(ordered),
                              simulated_cost=total_ops * op_cost)


def estimate_validation_cost(entries: Sequence[CommittedTx],
                             validators: int = 16,
                             op_cost: float = 5e-6) -> float:
    """Simulated cost of validating ``entries`` without re-executing them.

    Per-transaction parallel validation: op counts come from the declared
    read/write sets, and the block's cost is their makespan over the
    validator pool (no level barriers — see the module docstring).
    """
    return _parallel_cost(entries, validators, op_cost)


def _parallel_cost(entries: Sequence[CommittedTx],
                   validators: int, op_cost: float) -> float:
    """Makespan of independent per-transaction validations over the pool."""
    tx_costs = []
    for entry in entries:
        ops = len(entry.read_set) + len(entry.write_set)
        tx_costs.append(max(1, ops) * op_cost)
    return _makespan(tx_costs, validators)


def _makespan(costs: List[float], workers: int) -> float:
    """Greedy longest-processing-time makespan over ``workers`` lanes."""
    if not costs:
        return 0.0
    lanes = [0.0] * max(1, workers)
    for cost in sorted(costs, reverse=True):
        lane = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[lane] += cost
    return max(lanes)

