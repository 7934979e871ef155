"""Commit-time parallel validation of preplay results (§4).

A validator receives a block containing, for each transaction, the scheduled
execution order, the read set (key → value observed) and the write set
(key → final value).  It re-executes the contracts in the scheduled order
against its local state and confirms every declared read and write matches,
value and exact type; any discrepancy flags the whole block invalid and it
is discarded.

Validation parallelism ("parallel transaction validation rather than
sequential checks", §4): because the read/write *sets are declared*, each
transaction's input view can be reconstructed from the predecessors'
declared writes without executing them — so every transaction validates
independently and the block parallelises perfectly across the validator
pool, **regardless of data contention**.  The simulated cost is therefore a
makespan of per-transaction costs over the validators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapreplace
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Sequence

from repro.ce.controller import CommittedTx
from repro.contracts.contract import ContractRegistry, run_inline
from repro.contracts.replay import _SCALARS, OverlayView
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


def _alike(declared: Any, observed: Any) -> bool:
    """Whether two equal values have the same exact type at every level:
    ``==`` forgives what a block's digest does not (``1.0 == 1 == True``,
    ``[1] == [True]``), so such a declared value is not what ran."""
    kind = type(observed)
    if type(declared) is not kind:
        return False
    if kind is dict:
        for key, value in observed.items():
            seen = declared[key]
            if type(seen) is not type(value) or (
                    type(value) not in _SCALARS and not _alike(seen, value)):
                return False
    elif kind is list or kind is tuple:
        return all(map(_alike, declared, observed))
    return True


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
        if record.read_set != entry.read_set \
                or not _alike(entry.read_set, record.read_set):
            return ValidationOutcome(
                valid=False,
                reason=(f"tx {entry.tx_id}: read set mismatch "
                        f"(declared {entry.read_set}, observed "
                        f"{record.read_set})"))
        if record.write_set != entry.write_set \
                or not _alike(entry.write_set, record.write_set):
            return ValidationOutcome(
                valid=False,
                reason=(f"tx {entry.tx_id}: write set mismatch"))
        view.overlay.update(record.write_set)
    cost = _parallel_cost(entries, validators, op_cost)
    return ValidationOutcome(valid=True, simulated_cost=cost,
                             writes=MappingProxyType(view.overlay))


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
        total_ops += record.op_count
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
    """Greedy longest-processing-time makespan over ``workers`` lanes (the
    least loaded, lowest first; no more lanes than costs can be reached)."""
    if not costs:
        return 0.0
    lanes = [(0.0, lane) for lane in range(min(max(1, workers), len(costs)))]
    for cost in sorted(costs, reverse=True):
        load, lane = lanes[0]
        heapreplace(lanes, (load + cost, lane))
    return max(lanes)[0]
