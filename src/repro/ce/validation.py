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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ce.controller import CommittedTx
from repro.contracts.contract import ContractRegistry, run_inline
from repro.contracts.replay import OverlayView
from repro.errors import ValidationError
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


@dataclass(frozen=True)
class FootprintRecord:
    """One committed transaction's observed footprint, as the
    :class:`SerializabilityOracle` stores it.

    ``read_sources`` maps each first-read key to the tx id of the
    committed writer whose version the read observed — ``None`` for the
    pristine base state, and possibly an id the oracle has already
    compacted away (then treated as an ancestor version, older than every
    in-window write of that key).
    """

    tx_id: int
    order_index: int
    read_keys: Tuple[str, ...]
    write_keys: Tuple[str, ...]
    read_sources: Mapping[str, Optional[int]]


class SerializabilityOracle:
    """Commit-time serializability proof obligation for relaxed drains.

    The strict streaming mode's guarantee is byte-identity with
    batch-at-a-time execution; ``strict_order=False`` trades that for
    "equivalent to *some* serial order", and this oracle is the machine
    check of that weaker contract.  The session records every committed
    transaction's observed footprint (:meth:`record`), and :meth:`check`
    builds the multi-version serialization graph over the recorded
    window and raises :class:`~repro.errors.ValidationError` on a cycle.

    Edges (commit order doubles as version order per key — the
    controller's rule R4 fixes write-write order at commit):

    * **wr** — version source → reader, for every read whose source is in
      the window;
    * **ww** — consecutive committed writers of each key;
    * **rw** — reader → the writer immediately following its source
      version (the read must precede the overwrite).  A source outside
      the window (the base state, or a compacted ancestor) is older than
      every in-window version, so the anti-dependency targets the first
      in-window writer.

    :meth:`compact` drops the recorded window; it is sound exactly at
    quiescent points — every released transaction committed — because
    nothing still running can have observed an in-window version, so no
    future edge can reach back into the dropped entries.
    """

    def __init__(self) -> None:
        self._entries: List[FootprintRecord] = []
        #: Serializability checks run (mirrored into ``CCStats`` by the
        #: session as ``oracle_checks``).
        self.checks = 0
        #: Largest window a single check covered (observability).
        self.peak_window = 0

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, tx_id: int, order_index: int,
               read_keys: Sequence[str], write_keys: Sequence[str],
               read_sources: Mapping[str, Optional[int]]) -> None:
        """Record one committed transaction's footprint.  Keys are stored
        sorted so the precedence graph (and any failure report) is
        independent of dict iteration history."""
        self._entries.append(FootprintRecord(
            tx_id=tx_id, order_index=order_index,
            read_keys=tuple(sorted(read_keys)),
            write_keys=tuple(sorted(write_keys)),
            read_sources=dict(read_sources)))

    def compact(self) -> int:
        """Forget the recorded window (quiescent points only — see the
        class docstring); returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries = []
        return dropped

    def check(self) -> int:
        """Assert the recorded commit log is equivalent to some serial
        order; returns the window size checked.  Raises
        :class:`~repro.errors.ValidationError` on a precedence cycle."""
        entries = self._entries
        self.checks += 1
        self.peak_window = max(self.peak_window, len(entries))
        in_window = {entry.tx_id for entry in entries}
        #: key -> committed writer tx ids in commit order (= version order).
        versions: Dict[str, List[int]] = {}
        for entry in entries:
            for key in entry.write_keys:
                versions.setdefault(key, []).append(entry.tx_id)
        successors: Dict[int, List[int]] = {
            entry.tx_id: [] for entry in entries}

        def add_edge(src: int, dst: int) -> None:
            if src != dst:
                successors[src].append(dst)

        for chain in versions.values():
            for earlier, later in zip(chain, chain[1:]):
                add_edge(earlier, later)                       # ww
        for entry in entries:
            for key in entry.read_keys:
                source = entry.read_sources.get(key)
                if source is not None and source in in_window:
                    add_edge(source, entry.tx_id)              # wr
                    chain = versions.get(key, [])
                    position = chain.index(source) + 1
                else:
                    # Base state or compacted ancestor: older than every
                    # in-window version of the key.
                    chain = versions.get(key, [])
                    position = 0
                if position < len(chain):
                    add_edge(entry.tx_id, chain[position])     # rw
        cycle = _find_cycle(successors)
        if cycle is not None:
            raise ValidationError(
                "relaxed drain committed a non-serializable history: "
                f"precedence cycle {' -> '.join(map(str, cycle))} "
                f"over a window of {len(entries)} transactions")
        return len(entries)


def _find_cycle(successors: Dict[int, List[int]]) -> Optional[List[int]]:
    """A precedence cycle in ``successors`` (as a closed node walk), or
    ``None``.  Iterative colouring DFS in insertion order, so reports are
    deterministic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in successors}
    for root in successors:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        path: List[int] = []
        while stack:
            node, edge_index = stack.pop()
            if edge_index == 0:
                colour[node] = GRAY
                path.append(node)
            out = successors[node]
            advanced = False
            while edge_index < len(out):
                succ = out[edge_index]
                edge_index += 1
                if colour[succ] == GRAY:
                    return path[path.index(succ):] + [succ]
                if colour[succ] == WHITE:
                    stack.append((node, edge_index))
                    stack.append((succ, 0))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                path.pop()
    return None

