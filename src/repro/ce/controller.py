"""The nondeterministic concurrency controller (CC) of the Concurrent
Executor (§7–8).

The CC receives operations from executors *as they happen*, with no prior
knowledge of read/write sets, and maintains the dependency graph of
:mod:`repro.ce.depgraph`.  Its contract:

* **Execution phase** — ``read``/``write`` record operations, serve reads
  (including reads of uncommitted data along read-from edges), and wire the
  ordering edges of §8.2–8.3.  Conflicts trigger the §8.4 repair-then-abort
  process; aborted transactions raise :class:`TransactionAborted` and must be
  re-executed by their executor.
* **Finalization phase** — ``finish`` declares a transaction complete; it
  commits (receives its position in the serialized execution order and
  surfaces its write set) as soon as every dependency has committed, exactly
  like Table 1's "Wait for T1".

Edge-wiring rules implemented (with the paper section they come from):

R1 (§8.2, Fig. 9a): a new writer of K receives an anti-edge from every live
    node holding a read record on K (the reader saw the pre-write version,
    so it must precede the writer).  If the reader is already ordered
    *after* the writer, its read is stale — the reader aborts (cascading).

R2 (§8.2, Fig. 9b): a read of K attaches to the writer of K latest in
    serialization order that does not create a cycle — live writers,
    latest registered first (walking back is the "read from ancestor"
    repair of §8.4), then the root: the batch's committed overlay, whose
    value for K is the newest committed write, then storage.  Then every
    other live writer of K is pinned: either a path into the chosen
    writer, or an anti-edge putting it after the reader.  Writers that
    can do neither are conflicting and abort (or, per §8.4 case 1, if the
    reading transaction has no writes it aborts itself instead of killing
    a writer).

R3 (§8.3, Table 1 t5/t9, Fig. 10b): a repeated write to K by T invalidates
    every transaction that read T's previous value on K — they abort with
    cascading (rf-descendants go too).

R4 (commit): when T commits, every other live writer of each key T wrote
    receives a write-write edge ``T -> v`` (Write-Complete, Def. 5: commit
    order is write order).  This edge can never cycle: T commits only
    once every predecessor has committed and left the graph, so T has no
    in-edge and live v cannot reach it.  Then T leaves the graph too
    (:meth:`~repro.ce.depgraph.DependencyGraph.evict`): its commit-order
    position orders it before every live node, and its writes are read
    from the overlay.

The graph is therefore acyclic by construction, and
:meth:`~repro.ce.depgraph.DependencyGraph.add_edge` checks it at every
edge in O(1): an edge with a committed endpoint, or one that closes a
cycle, raises :class:`~repro.errors.SerializationError`.

Every rule above is a reachability question; the graph answers it from an
incremental transitive-closure index (one closure row of descendants and
one of ancestors per node, masked Italiano-style propagation on
``add_edge``, an O(1) tombstone when an abort detaches a node — see the
:mod:`repro.ce.depgraph` module docstring and ``docs/REACHABILITY.md``).

Cohort classification
---------------------
R1, R2's pinning and R4 each walk a key's whole cohort (its readers or
its writers), and most members need nothing: they are already ordered
the way the rule wants.  Instead of asking ``has_path`` per member, the
rule reads the node's rows once and skips every member whose bit falls
in the rule's no-op class — R1: ``up[node]`` (the reader already
precedes the writer); R2: ``down[node] | up[chosen]`` (the writer
already follows the reader or precedes the version read); R4:
``down[node]`` (the writer already follows the committer).  The other
members are visited in cohort order with the rule's remaining point
queries.  One rule keeps this exact: *reclassify on mutation* — an
``add_edge`` or abort inside the loop changes the closure, so the rows
are read again before the next test.  A row may still hold the bit of a
departed serial; the rules only test the bits of live indexed members.
An abort inside R2's loop can also commit (and so evict) a later
writer of the loop's snapshot of the cohort, so R1 and R2 skip every
member that is no longer alive.

A member the graph has not indexed has no edge, so it is in no class and
is visited.  The point-query forms survive as test-only references
(``tests/ce/test_cohort_rows.py``), which pin edge insertions, aborts and
commit orders to them.  :class:`CCStats` surfaces the remaining point
queries as ``path_queries``, the indexed detaches as ``index_repairs``,
and the compactions as ``index_rebuilds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.ce.depgraph import (DependencyGraph, EdgeKind, KeyRecord,
                               NodeStatus, TxNode, _ABORTED, _COMMITTED,
                               _FINISHED, _RUNNING, _UNSET)
from repro.errors import SerializationError, TransactionAborted


@dataclass
class CCStats:
    """Counters the Fig. 11 experiments report."""

    reads: int = 0
    writes: int = 0
    aborts: int = 0
    cascading_aborts: int = 0
    commits: int = 0
    conflict_repairs: int = 0  # reads repaired by the ancestor fallback
    path_queries: int = 0      # has_path() calls answered by the index
    index_rebuilds: int = 0    # compactions of the closure's serial space
    index_repairs: int = 0     # indexed detaches (each an O(1) tombstone)
    bitset_words: int = 0      # peak closure row width, in 64-bit words


@dataclass
class CommittedTx:
    """Preplay outcome for one committed transaction (§4: the block carries
    read/write sets, results, and the scheduled order)."""

    tx_id: int
    order_index: int
    read_set: Dict[str, Any]
    write_set: Dict[str, Any]
    result: Any
    attempts: int


class ConcurrencyController:
    """Dependency-graph concurrency control without a-priori read/write sets.

    ``base_state`` is the root: reads that no live writer can serve fall
    through to it (missing keys read ``default``).  Committed write sets
    accumulate in an overlay, which :meth:`final_writes` reports and root
    reads consult first: it serves every read of committed data.  The execution session builds
    one controller per batch (see :mod:`repro.ce.streaming`).
    """

    def __init__(self, base_state: Mapping[str, Any],
                 default: Any = 0,
                 on_abort: Optional[Callable[[int], None]] = None,
                 on_commit: Optional[Callable[[CommittedTx], None]] = None
                 ) -> None:
        self.graph = DependencyGraph()
        self._base_state = base_state
        self._default = default
        self._on_abort = on_abort
        self._on_commit = on_commit
        self._overlay: Dict[str, Any] = {}
        self._order_counter = 0
        self._committed: List[CommittedTx] = []
        self._attempts: Dict[int, int] = {}
        self._finish_time = 0.0
        self._stats = CCStats()

    @property
    def stats(self) -> CCStats:
        """Live counters; graph-owned index counters are synced on access."""
        self._stats.path_queries = self.graph.path_queries
        self._stats.index_rebuilds = self.graph.index_rebuilds
        self._stats.index_repairs = self.graph.index_repairs
        self._stats.bitset_words = self.graph.peak_bitset_words
        return self._stats

    # ------------------------------------------------------------------ API

    def begin(self, tx_id: int, now: float = 0.0) -> TxNode:
        """Start (or restart) a transaction attempt."""
        attempt = self._attempts.get(tx_id, 0) + 1
        self._attempts[tx_id] = attempt
        node = TxNode(tx_id=tx_id, attempt=attempt, started_at=now)
        self.graph.add_node(node)
        return node

    def read(self, node: TxNode, key: str) -> Any:
        """Perform ``<Read, key>`` for ``node``; returns the value."""
        self._require_live(node, "read")
        self._stats.reads += 1
        record = node.records.get(key)
        if record is not None and (record.has_read or record.wrote):
            # §8.3: the node already holds the value for this key.
            return record.read_value()
        value, source = self._choose_read_source(node, key)
        record = node.records.setdefault(key, KeyRecord())
        record.first_read = value
        record.read_from = source
        self.graph.register_reader(key, node)
        if source is not None:
            source.records[key].readers[node] = None
            self.graph.add_edge(source, node, key, EdgeKind.READ_FROM)
        self._pin_other_writers(node, key, source)
        self._require_live(node, "read")  # pinning may have aborted us
        return value

    def write(self, node: TxNode, key: str, value: Any) -> None:
        """Perform ``<Write, key, value>`` for ``node``."""
        self._require_live(node, "write")
        self._stats.writes += 1
        record = node.records.get(key)
        if record is not None and record.wrote:
            # R3: repeated write — readers of our previous value are stale.
            for reader in list(record.readers):
                self._abort(reader, reason=f"stale read of {key}",
                            cascading=True)
            record.readers.clear()
            record.last_write = value
            return
        if record is None:
            record = node.records.setdefault(key, KeyRecord())
        record.wrote = True
        record.last_write = value
        self.graph.register_writer(key, node)
        self._order_readers_before_writer(node, key)
        self._require_live(node, "write")

    def finish(self, node: TxNode, result: Any = None, now: float = 0.0) -> bool:
        """Enter the finalization phase; returns True if committed now.

        The commit may be deferred until dependencies commit (Table 1 t4);
        it then happens automatically inside the dependency's own commit.
        """
        self._require_live(node, "finish")
        node.result = result
        node.status = NodeStatus.FINISHED
        node.committed_at = None
        self._finish_time = now
        return self._try_commit(node, now)

    def abort_transaction(self, tx_id: int, reason: str = "external") -> None:
        """Externally abort a live transaction (used by tests/fault drills)."""
        node = self.graph.get(tx_id)
        if node is not None and node.alive:
            self._abort(node, reason=reason, cascading=True)

    # -- results -----------------------------------------------------------

    @property
    def committed(self) -> List[CommittedTx]:
        """Committed transactions in execution (serialization) order."""
        return list(self._committed)

    def committed_count(self) -> int:
        return len(self._committed)

    def execution_order(self) -> List[int]:
        """The serialized schedule the preplay block publishes."""
        return [entry.tx_id for entry in self._committed]

    def final_writes(self) -> Dict[str, Any]:
        """Final value of every key written by committed transactions."""
        return dict(self._overlay)

    def attempts_of(self, tx_id: int) -> int:
        return self._attempts.get(tx_id, 0)

    def read_root(self, key: str) -> Any:
        """What the root currently answers for ``key`` (overlay then base)."""
        if key in self._overlay:
            return self._overlay[key]
        return self._base_state.get(key, self._default)

    # ------------------------------------------------------------- internals

    def _require_live(self, node: TxNode, action: str) -> None:
        if node.status is _ABORTED:
            raise TransactionAborted(node.tx_id, f"detected at {action}")
        if action in ("read", "write", "finish") \
                and node.status is not _RUNNING:
            raise SerializationError(
                f"{action} on {node.tx_id} in state {node.status.value}")

    def _choose_read_source(self, node: TxNode,
                            key: str) -> Tuple[Any, Optional[TxNode]]:
        """Pick the writer to read ``key`` from (R2).

        Tries the live writers latest in serialization order first,
        latest registered first, walking toward older ones when a cycle
        would form ("read from its ancestor", §8.4); then the root, whose
        overlay holds the newest committed write (commits fold into it in
        ``order_index`` order).  ``node`` is no writer of ``key``: a read
        of its own write never gets here.
        """
        for writer in reversed(self.graph.writers_of(key)):
            if not self.graph.has_path(node, writer):
                return writer.records[key].last_write, writer
            self._stats.conflict_repairs += 1
        return self.read_root(key), None

    def _pin_other_writers(self, node: TxNode, key: str,
                           chosen: Optional[TxNode]) -> None:
        """Order every other writer of ``key`` w.r.t. the read (R2).

        Each other writer must end up with a path into ``chosen`` (its write
        happened before the version we read) or after ``node`` (it will
        overwrite later).  A writer that can do neither conflicts: per §8.4,
        a read-only reader aborts itself, otherwise the writer aborts.
        Writers already in ``down[node] | up[chosen]`` need nothing and
        are skipped on one row test (see "Cohort classification").
        """
        graph = self.graph
        settled = None  # down[node] | up[chosen]; None: read at next use
        for writer in graph.writers_of(key):
            if node.status is _ABORTED:
                # A cascade triggered below can reach us through another key.
                raise TransactionAborted(node.tx_id, f"cascade during {key}")
            if writer is node or writer is chosen or not writer.alive:
                continue  # departed in a cascade earlier in this loop
            if writer._index_serial is not None:
                if settled is None:
                    settled = graph.rows(node)[0]
                    if chosen is not None:
                        settled |= graph.rows(chosen)[1]
                if settled >> writer._index_serial & 1:
                    continue  # before the version read, or after the reader
            settled = None  # every path below adds an edge or aborts
            if chosen is not None and not graph.has_path(chosen, writer) \
                    and not graph.has_path(writer, node):
                # Unordered w.r.t. both: pin it before the chosen writer.
                graph.add_edge(writer, chosen, key, EdgeKind.PIN)
                continue
            if not graph.has_path(writer, node):
                # Ordered after chosen (or root read): push it after us.
                graph.add_edge(node, writer, key, EdgeKind.ANTI)
                continue
            # writer -> node exists and writer is not before the version we
            # read: genuine conflict (§8.4).
            if not node.has_any_write():
                self._abort(node, reason=f"read cycle on {key}",
                            cascading=True)
                raise TransactionAborted(node.tx_id, f"read cycle on {key}")
            self._abort(writer, reason=f"write cycle on {key}",
                        cascading=True)

    def _order_readers_before_writer(self, node: TxNode, key: str) -> None:
        """Anti-edges from every reader of ``key`` to the new writer (R1).

        Readers already in ``up[node]`` need nothing and are skipped on
        one row test (see "Cohort classification")."""
        graph = self.graph
        before = None  # up[node]; None: read at next use
        for reader in graph.readers_of(key):
            if node.status is _ABORTED:
                raise TransactionAborted(node.tx_id, f"cascade during {key}")
            if reader is node or not reader.alive:
                continue  # departed in a cascade earlier in this loop
            # The row test may precede the record checks below, which never
            # skip: a registered reader holds its read record, and none
            # read from ``node`` (this is its first write of ``key``).
            if reader._index_serial is not None:
                if before is None:
                    before = graph.rows(node)[1]
                if before >> reader._index_serial & 1:
                    continue
            record = reader.records.get(key)
            if record is None or not record.has_read:
                continue
            if record.read_from is node:
                continue  # it read *our* value; rf edge already orders us
            before = None  # every path below adds an edge or aborts
            if graph.has_path(node, reader):
                # The reader is serialized after us yet saw the old version.
                self._abort(reader, reason=f"stale read of {key}",
                            cascading=True)
                continue
            graph.add_edge(reader, node, key, EdgeKind.ANTI)

    # -- aborts ------------------------------------------------------------------

    def _abort(self, node: TxNode, reason: str, cascading: bool) -> None:
        """Abort ``node`` and everything that read its writes, then — only
        after the whole cascade settled — re-check commits that the departed
        edges were blocking.  (Committing mid-cascade could finalize a node
        a deeper cascade level still has to kill.)"""
        unblocked: List[TxNode] = []
        self._abort_inner(node, reason, unblocked)
        for neighbor in unblocked:
            if neighbor.status is NodeStatus.FINISHED:
                self._try_commit(neighbor, self._finish_time)

    def _abort_inner(self, node: TxNode, reason: str,
                     unblocked: List[TxNode]) -> None:
        if node.status is NodeStatus.ABORTED:
            return
        if node.status is NodeStatus.COMMITTED:
            raise SerializationError(
                f"attempted to abort committed transaction {node.tx_id}")
        node.status = NodeStatus.ABORTED
        self._stats.aborts += 1
        # Readers of any of our writes saw data that will never exist.
        dependants: List[TxNode] = []
        for record in node.records.values():
            for reader in record.readers:
                if reader.alive:
                    dependants.append(reader)
        unblocked.extend(self.graph.detach_node(node))
        if self._on_abort is not None:
            self._on_abort(node.tx_id)
        for dependant in dependants:
            if dependant.status is not NodeStatus.ABORTED:
                self._stats.cascading_aborts += 1
                self._abort_inner(dependant,
                                  f"cascade from {node.tx_id}", unblocked)

    # -- commits --------------------------------------------------------------------

    def _try_commit(self, node: TxNode, now: float) -> bool:
        # Every in-edge comes from a live predecessor: a committed one has
        # left the graph, and an aborted one was detached.
        if node.status is not _FINISHED or node.in_edges:
            return False
        # R4 reads down[node]: run it before the node leaves the graph,
        # and collect the successors to re-check (R4's included) too.
        self._order_later_writers(node)
        successors = list(node.out_edges)
        node.status = _COMMITTED
        self.graph.evict(node)
        node.order_index = self._order_counter
        self._order_counter += 1
        node.committed_at = now
        self._stats.commits += 1
        write_set = node.write_set()
        self._overlay.update(write_set)
        entry = CommittedTx(
            tx_id=node.tx_id,
            order_index=node.order_index,
            read_set=node.read_set(),
            write_set=write_set,
            result=node.result,
            attempts=node.attempt,
        )
        self._committed.append(entry)
        if self._on_commit is not None:
            self._on_commit(entry)
        # Commits may unblock dependants (Table 1 t7 -> t8).
        for neighbor in successors:
            if neighbor.status is _FINISHED:
                self._try_commit(neighbor, now)
        return True

    def _order_later_writers(self, node: TxNode) -> None:
        """R4: commit order fixes write-write order with still-live writers.

        Writers already in ``down[node]`` need nothing and are skipped on
        one row test (see "Cohort classification")."""
        graph = self.graph
        after = None  # down[node]; None: read at next use
        for key, record in node.records.items():
            if not record.wrote:
                continue
            for writer in graph.writers_of(key):
                if writer is node:
                    continue
                if writer._index_serial is not None:
                    if after is None:
                        after = graph.rows(node)[0]
                    if after >> writer._index_serial & 1:
                        continue
                after = None
                graph.add_edge(node, writer, key, EdgeKind.WRITE_WRITE)
