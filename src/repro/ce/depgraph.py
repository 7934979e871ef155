"""Dependency graph G(V, E) used by the concurrency controller (§8).

Nodes are transaction *attempts*; a typed, key-labelled edge ``u -> v`` means
*u must be serialized before v*.  Edge kinds record why:

* ``rf``  — v read a value u wrote (read-from; aborts cascade along these),
* ``ar``  — u read a version that v overwrites (anti-dependency: the reader
  must precede the writer),
* ``pin`` — u is a writer ordered before the writer whose value somebody
  read (§8.2: "make all other write nodes contain a path to u"),
* ``ww``  — commit-time write-write ordering.

Per the paper, a node keeps at most two operation records per key — the
first read and the last write (§8.1) — held here in :class:`KeyRecord`.

This module is purely structural: it stores nodes/edges/indexes and answers
reachability queries.  The *rules* that decide which edges to add live in
:mod:`repro.ce.controller`.

Incremental reachability index
------------------------------
Every read pins the other writers of the key, every first write orders
the key's readers before it, every commit orders the remaining writers,
and all three are reachability questions.  A DFS per query makes a
contended batch of n transactions cost O(n^3); instead the graph
maintains a transitive-closure index that is exact at every moment:

* a node gets a small integer *serial* on its first edge, one bit in the
  ``live`` set, and two closure rows, each one Python int used as a bit
  set — ``down`` (descendants, self included) and ``up`` (ancestors,
  self included).  ``down`` rows are kept only for *open* (uncommitted)
  nodes: no rule reads a committed node's descendants, so :meth:`close`
  freezes its row at commit;
* ``add_edge(u, v)`` updates the closure with Italiano-style propagation:
  if ``u`` is not already an ancestor of ``v``, OR ``down[v]`` into the
  open ancestors of ``u`` and ``up[u]`` into the descendants of ``v``,
  both masked with ``live`` first.  Only rows that change are touched: an
  ancestor that already reaches ``v`` already holds ``down[v]`` by
  transitivity (likewise a descendant ``u`` already reaches), so only
  ``up[u] & open & ~up[v]`` and ``down[v] & ~down[u]`` are ORed into,
  both sets taken before any row changes.  The graph is acyclic by
  construction (see :mod:`repro.ce.controller`), and ``add_edge`` checks
  it with two bit tests: an edge into a closed ``v`` (``open``) or one
  that closes a cycle (``up[u]`` holds ``v``) raises
  :class:`~repro.errors.SerializationError`;
* ``detach_node`` (aborts) *tombstones* the departing serial in O(1):
  clear its ``live`` bit and zero its own rows.  General decremental
  reachability is hard because a deletion can sever paths, but this
  graph's detach protocol rules that out: every (predecessor, successor)
  ordering observed through the departing node is re-established by a
  ``BRIDGE`` edge in the same pass, so removal never changes
  reachability among the survivors.  The dead bit may stay set in
  survivors' rows; it is never tested (callers test live members' bits
  only) and never spreads (propagation masks with ``live``).  The serial
  becomes a *hole* that compaction later drops;
* ``has_path(u, v)`` is a single bit test of ``up[v]``, O(1), and
  :meth:`rows` hands the controller a node's whole ``down``/``up`` rows,
  so a rule over a key's cohort tests one bit per member instead of
  asking one ``has_path`` per member (see :mod:`repro.ce.controller`).

Answers are identical to a DFS over the adjacency lists (the reference
``has_path_dfs`` in ``tests/ce/graph_reference.py``), so controller
behavior is bit-for-bit unchanged.  ``path_queries`` /
``index_repairs`` (one per indexed detach) / ``index_rebuilds``
(compactions) feed :class:`CCStats`.

A node is indexed by one graph at a time: adding an edge to a node
another graph indexes raises :class:`~repro.errors.SerializationError`.

Closure-index invariants
------------------------
1. *Mirror*: for every pair of live serials ``(u, v)``,
   ``up[v] >> u & 1`` equals DFS reachability over the current
   adjacency lists, and so does ``down[u] >> v & 1`` when ``u`` is open
   (a closed ``down`` row holds a subset).  A dead serial's row is zero,
   and no row gains a dead bit after the serial dies.
2. *Self-inclusion*: every live node's ``down``/``up`` rows contain its
   own bit.
3. *Serial density is amortized*: a detach leaves a hole,
   and once holes outnumber live serials the same call compacts the
   serial space (a Kahn-order rebuild over the survivors), so row width
   stays within ~2x the live graph.  (A full reference for invariants
   1-3 and the tombstone argument lives in ``docs/REACHABILITY.md``.)

Committed-node pruning
----------------------
The execution session (see :mod:`repro.ce.streaming`) gives every batch
its own controller and graph, and at the batch's boundary every node in
the graph is committed.  There :meth:`prune_committed` evicts them all:
the node table, the per-key writer/reader indexes, the adjacency lists
and the closure index are emptied in one pass (the index resets in
place; no rebuild is paid), and the committed nodes keep no edge into a
graph that is done with them.  The call doubles as the session's
all-committed check: a prune while some node is not committed raises
:class:`~repro.errors.SerializationError` and changes nothing.

Determinism note: all collections that the controller iterates are dicts
used as ordered sets, so runs are reproducible (plain ``set`` of objects
would iterate in address order).  Index serials follow dict insertion
order and row bits are enumerated in ascending serial order, so the
index — and the bridge planning built on it — is deterministic too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SerializationError

#: Sentinel for "no value recorded yet".
_UNSET = object()


class NodeStatus(Enum):
    RUNNING = "running"      # executor still submitting operations
    FINISHED = "finished"    # all operations done, awaiting commit
    COMMITTED = "committed"  # execution order assigned, results final
    ABORTED = "aborted"      # removed from the graph; will re-execute


#: The statuses under plain module names, for the per-member tests of the
#: per-key indexes and the controller's cohort loops: on CPython 3.11 a
#: member read through its Enum class costs about eight global reads.
_RUNNING = NodeStatus.RUNNING
_FINISHED = NodeStatus.FINISHED
_COMMITTED = NodeStatus.COMMITTED
_ABORTED = NodeStatus.ABORTED


class EdgeKind(Enum):
    READ_FROM = "rf"
    ANTI = "ar"
    PIN = "pin"
    WRITE_WRITE = "ww"
    #: Added when an aborted node is detached: a (predecessor, successor)
    #: pair across the departed node is bridged so orderings other
    #: transactions already observed through it keep holding.  Without
    #: this, a rule that skipped adding an edge because a path existed
    #: would be unsound once the path's middle node aborts.  Pairs that
    #: remain ordered through surviving nodes are *not* bridged (a
    #: reachability check proves the path), keeping edge counts bounded
    #: under abort storms.
    BRIDGE = "bridge"


@dataclass
class KeyRecord:
    """A node's compressed per-key history: first read + last write (§8.1)."""

    first_read: Any = _UNSET
    #: Node the first read obtained its value from; ``None`` means the root
    #: (storage snapshot / committed overlay).
    read_from: Optional["TxNode"] = None
    wrote: bool = False
    last_write: Any = None
    #: Nodes that read *this* node's write on this key (rf dependants),
    #: kept insertion-ordered for deterministic cascades.
    readers: Dict["TxNode", None] = field(default_factory=dict)

    @property
    def has_read(self) -> bool:
        return self.first_read is not _UNSET

    def read_value(self) -> Any:
        """The value a repeated read must return (§8.3): our own last write
        if we wrote, else the recorded first read."""
        if self.wrote:
            return self.last_write
        if self.first_read is _UNSET:
            raise SerializationError("read_value() on a record with no read")
        return self.first_read


class TxNode:
    """One attempt at executing one transaction."""

    __slots__ = ("tx_id", "attempt", "status", "records", "out_edges",
                 "in_edges", "order_index", "result", "started_at",
                 "committed_at", "_index_serial")

    def __init__(self, tx_id: int, attempt: int, started_at: float = 0.0) -> None:
        self.tx_id = tx_id
        self.attempt = attempt
        self.status = NodeStatus.RUNNING
        self.records: Dict[str, KeyRecord] = {}
        #: neighbor -> {(key, kind): None}; dicts keep insertion order.
        self.out_edges: Dict["TxNode", Dict[Tuple[str, EdgeKind], None]] = {}
        self.in_edges: Dict["TxNode", Dict[Tuple[str, EdgeKind], None]] = {}
        self.order_index: Optional[int] = None
        self.result: Any = None
        self.started_at = started_at
        self.committed_at: Optional[float] = None
        #: Bit position in the reachability index of the one graph this
        #: node has edges in; set on first edge contact, cleared when the
        #: node leaves that graph (detach or eviction).
        self._index_serial: Optional[int] = None

    # -- key-level classification (§8.1) -----------------------------------

    def is_write_node(self, key: str) -> bool:
        record = self.records.get(key)
        return record is not None and record.wrote

    def is_read_node(self, key: str) -> bool:
        """First operation on ``key`` was a read (and nothing was written)."""
        record = self.records.get(key)
        return record is not None and record.has_read and not record.wrote

    def has_any_write(self) -> bool:
        return any(record.wrote for record in self.records.values())

    @property
    def alive(self) -> bool:
        status = self.status
        return status is _RUNNING or status is _FINISHED

    def read_set(self) -> Dict[str, Any]:
        """Keys first-read from outside the transaction, with values seen."""
        return {key: record.first_read
                for key, record in self.records.items() if record.has_read}

    def write_set(self) -> Dict[str, Any]:
        """Keys written, with the final values."""
        return {key: record.last_write
                for key, record in self.records.items() if record.wrote}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TxNode {self.tx_id}.{self.attempt} {self.status.value}>"


class DependencyGraph:
    """Stores nodes, typed edges, per-key access indexes, and an incremental
    transitive-closure index answering ``has_path`` in O(1)."""

    def __init__(self) -> None:
        #: Current attempt per transaction id.
        self.nodes: Dict[int, TxNode] = {}
        #: key -> writer nodes in first-write order (dict-as-ordered-set).
        self._writers: Dict[str, Dict[TxNode, None]] = {}
        #: key -> nodes holding a read record on the key.
        self._readers: Dict[str, Dict[TxNode, None]] = {}
        # -- reachability index state --------------------------------------
        #: serial -> node for every node holding edges here; ``None`` marks
        #: the hole a detached node leaves until compaction.
        #: Nodes carry their serial in a slot, so no id()-keyed lookups
        #: are needed on the hot path.
        self._indexed: List[Optional[TxNode]] = []
        #: Closure rows, one int per serial: bit ``t`` of ``_down[s]`` is
        #: set iff serial ``t`` is a descendant of ``s`` (self included);
        #: ``_up`` is the transpose (ancestors).  Exact at live bits
        #: (``_down`` only at open serials).
        self._down: List[int] = []
        self._up: List[int] = []
        #: One bit per live serial: every propagation masks with it.
        self._live = 0
        #: The live serials whose node is open (not committed).
        self._open = 0
        #: High-water row width in 64-bit words (never reset by clears;
        #: surfaced as ``CCStats.bitset_words``).
        self.peak_bitset_words = 0
        #: Hole slots in ``_indexed``; compaction (invariant 3) fires when
        #: they outnumber the live serials.
        self._index_holes = 0
        #: Counters surfaced through :class:`repro.ce.controller.CCStats`.
        self.path_queries = 0
        self.index_rebuilds = 0
        self.index_repairs = 0

    # -- node lifecycle ------------------------------------------------------

    def add_node(self, node: TxNode) -> None:
        existing = self.nodes.get(node.tx_id)
        if existing is not None and existing.alive:
            raise SerializationError(
                f"transaction {node.tx_id} already has a live attempt")
        self.nodes[node.tx_id] = node

    def get(self, tx_id: int) -> Optional[TxNode]:
        return self.nodes.get(tx_id)

    def detach_node(self, node: TxNode) -> List[TxNode]:
        """Remove an aborted node from edges and indexes.

        A (predecessor, successor) pair across the departing node is
        bridged with a ``BRIDGE`` edge when no other path orders it: the
        controller's rules skip adding an ordering edge whenever a path
        already exists, so paths observed through this node must survive
        its departure.  Pairs already ordered through surviving nodes are
        skipped, so edge counts stay bounded under abort-heavy workloads
        instead of densifying quadratically.  Bridging cannot create
        cycles (the path existed) and never touches other aborted nodes
        (their adjacency must stay empty).

        Because bridging preserves every surviving ordering and invents
        none, the closure over the survivors is unchanged, and the index
        absorbs the departure by tombstoning the node's serial (O(1)).
        The bridges are planned *before* any mutation, from the closure
        while it still carries this node (:meth:`_bridge_plan_from_index`);
        the plan equals a per-predecessor DFS over the post-removal
        adjacency edge for edge, in the same order (the test-only
        reference in ``tests/ce/test_bitset_backends.py``).

        Returns the former out-neighbours (the controller re-checks their
        commit eligibility).  Read-from back-references are cleaned so the
        source writers no longer consider this node a dependant.
        """
        indexed = self._own_serial(node) is not None
        for key, record in node.records.items():
            if record.read_from is not None:
                source = record.read_from.records.get(key)
                if source is not None:
                    source.readers.pop(node, None)
            self._writers.get(key, {}).pop(node, None)
            self._readers.get(key, {}).pop(node, None)
        former_out = list(node.out_edges)
        predecessors = [p for p in node.in_edges if p.status is not _ABORTED]
        successors = [s for s in former_out if s.status is not _ABORTED]
        plan: List[Tuple[TxNode, TxNode]] = []
        if predecessors and successors:
            plan = self._bridge_plan_from_index(node, predecessors,
                                                successors)
        for neighbor in former_out:
            neighbor.in_edges.pop(node, None)
        for neighbor in node.in_edges:
            neighbor.out_edges.pop(node, None)
        node.out_edges.clear()
        node.in_edges.clear()
        if indexed:
            # An edge-less node was never indexed and skips this, so
            # aborts of conflict-free transactions cost nothing.
            self._index_remove(node)
            self.index_repairs += 1
        for predecessor, successor in plan:
            self.add_edge(predecessor, successor, "", EdgeKind.BRIDGE)
        self._compact_if_dominated()
        return former_out

    def _bridge_plan_from_index(
            self, node: TxNode, predecessors: List[TxNode],
            successors: List[TxNode]) -> List[Tuple[TxNode, TxNode]]:
        """The (predecessor, successor) pairs ``detach_node`` must bridge,
        answered from the closure before removal instead of per-predecessor
        DFS.

        Correctness sketch (the graph is a DAG).  Let ``v`` be the
        departing node and ``D`` its live descendant cone (``down[v] &
        live`` minus ``v``).

        * Outside ``D``, "reachable while avoiding ``v``" equals plain
          closure reachability: any path through ``v`` ends inside ``D``.
        * Inside ``D``, a topological sweep computes ``avoid[x]`` — the
          set of predecessors reaching ``x`` without ``v`` — seeding each
          member from its in-neighbours outside ``D`` (closure answers)
          and propagating along in-cone edges (out-edges of a ``D``
          member stay in ``D`` by transitivity).
        * No successor can reach a predecessor (that path plus the
          detached edges would be a cycle through ``v``), so any
          predecessor-to-successor path in the evolving bridged graph
          uses at most one bridge edge.  A pair ``(p, s)`` is therefore
          already ordered iff ``avoid[s]`` contains ``p`` or some
          earlier-added bridge ``(p', s')`` has ``p -> p'`` and
          ``s' -> s`` in the closure — exactly what the reference DFS
          over the evolving adjacency tests, so the emitted pairs (and
          their order) are identical.
        """
        indexed = self._indexed
        up = self._up
        victim_serial = node._index_serial
        cone_row = self._down[victim_serial]  # the victim is live: open
        pred_serials = [predecessor._index_serial
                        for predecessor in predecessors]
        succ_serials = [successor._index_serial for successor in successors]
        position: Dict[int, int] = {}
        cone_nodes: List[TxNode] = []
        for serial in _bits(cone_row & self._live & ~(1 << victim_serial)):
            position[serial] = len(cone_nodes)
            cone_nodes.append(indexed[serial])
        # avoid[i]: bitset over predecessor positions that reach cone
        # member i with the victim removed.
        avoid = [0] * len(cone_nodes)
        indegree = [0] * len(cone_nodes)
        for cone_index, member in enumerate(cone_nodes):
            boundary = 0
            for source in member.in_edges:
                if source is node:
                    continue
                serial = source._index_serial
                if serial in position:
                    indegree[cone_index] += 1
                else:
                    for bit, pred_serial in enumerate(pred_serials):
                        if pred_serial == serial \
                                or up[serial] >> pred_serial & 1:
                            boundary |= 1 << bit
            avoid[cone_index] = boundary
        ready = [index for index in range(len(cone_nodes))
                 if indegree[index] == 0]
        while ready:
            cone_index = ready.pop()
            bits = avoid[cone_index]
            for target in cone_nodes[cone_index].out_edges:
                target_index = position[target._index_serial]
                avoid[target_index] |= bits
                indegree[target_index] -= 1
                if indegree[target_index] == 0:
                    ready.append(target_index)
        # cover[j]: successor positions ordered once a bridge lands on
        # successor j (its closure descendants among the successors).
        cover = []
        for index, serial in enumerate(succ_serials):
            bits = 1 << index
            for other_index, other in enumerate(succ_serials):
                if other_index != index and up[other] >> serial & 1:
                    bits |= 1 << other_index
            cover.append(bits)
        avoid_succ = [avoid[position[serial]] for serial in succ_serials]
        plan: List[Tuple[TxNode, TxNode]] = []
        bridged: List[Tuple[int, int]] = []  # (pred serial, cover bits)
        for pred_index, predecessor in enumerate(predecessors):
            pred_serial = pred_serials[pred_index]
            covered = 0
            for succ_index in range(len(successors)):
                if avoid_succ[succ_index] >> pred_index & 1:
                    covered |= 1 << succ_index
            for earlier_serial, earlier_cover in bridged:
                if covered | earlier_cover != covered \
                        and up[earlier_serial] >> pred_serial & 1:
                    covered |= earlier_cover
            for succ_index, successor in enumerate(successors):
                if covered >> succ_index & 1:
                    continue
                plan.append((predecessor, successor))
                bridged.append((pred_serial, cover[succ_index]))
                covered |= cover[succ_index]
        return plan

    # -- committed-node pruning ---------------------------------------------

    def prune_committed(self) -> int:
        """Evict every node at a batch boundary; returns the count.

        Raises :class:`SerializationError`, before anything changes, if
        some node is not committed: a batch has passed its boundary only
        when every one of its transactions committed.  Otherwise the node
        table, the per-key writer/reader indexes, the adjacency lists and
        the closure index are emptied (see "Committed-node pruning" in
        the module docstring).
        """
        nodes = self.nodes
        for node in nodes.values():
            if node.status is not _COMMITTED:
                raise SerializationError(
                    f"prune with transaction {node.tx_id} "
                    f"({node.status.value}) in the graph")
        for node in nodes.values():
            node.out_edges.clear()
            node.in_edges.clear()
            node._index_serial = None
        count = len(nodes)
        nodes.clear()
        self._writers.clear()
        self._readers.clear()
        self._index_reset_empty()
        return count

    def _compact_if_dominated(self) -> None:
        """Invariant 3's amortization: pay the hole debt when it dominates.

        When every slot is a hole (every indexed node has aborted) the
        index resets to empty in place.  When holes merely outnumber live
        serials, one Kahn-order rebuild compacts the serial space.
        """
        holes = self._index_holes
        if 2 * holes > len(self._indexed):
            if holes == len(self._indexed):
                self._index_reset_empty()
            else:
                self._rebuild_index()

    def _index_reset_empty(self) -> None:
        """Drop the whole serial space: an empty index is exact."""
        self._indexed.clear()
        self._down.clear()
        self._up.clear()
        self._live = 0
        self._open = 0
        self._index_holes = 0

    # -- indexes -----------------------------------------------------------------

    def register_writer(self, key: str, node: TxNode) -> None:
        self._writers.setdefault(key, {})[node] = None

    def register_reader(self, key: str, node: TxNode) -> None:
        self._readers.setdefault(key, {})[node] = None

    def writers_of(self, key: str) -> List[TxNode]:
        """Live or committed writer nodes of ``key`` in first-write order
        (``detach_node`` drops an aborted node from every per-key index)."""
        return list(self._writers.get(key, ()))

    def readers_of(self, key: str) -> List[TxNode]:
        """Nodes holding a read record on ``key`` (live or committed)."""
        return list(self._readers.get(key, ()))

    # -- edges ----------------------------------------------------------------

    def add_edge(self, src: TxNode, dst: TxNode, key: str,
                 kind: EdgeKind) -> None:
        """Record ``src`` before ``dst``; duplicate labels are idempotent.

        Raises :class:`SerializationError`, before the edge is recorded,
        for an edge the controller's rules never add: a self-edge, an edge into
        a committed (closed) node, or one that closes a cycle."""
        if src is dst:
            raise SerializationError(
                f"self-edge on {src.tx_id} (key {key}, {kind.value})")
        src_serial = self._ensure_serial(src)
        dst_serial = self._ensure_serial(dst)
        if not self._open >> dst_serial & 1:
            raise SerializationError(
                f"edge {src.tx_id} -> {dst.tx_id} (key {key}, {kind.value})"
                f" enters committed transaction {dst.tx_id}")
        if self._up[src_serial] >> dst_serial & 1:
            raise SerializationError(
                f"edge {src.tx_id} -> {dst.tx_id} (key {key}, {kind.value})"
                f" closes a cycle: {dst.tx_id} already precedes {src.tx_id}")
        src.out_edges.setdefault(dst, {})[(key, kind)] = None
        dst.in_edges.setdefault(src, {})[(key, kind)] = None
        if not self._up[dst_serial] >> src_serial & 1:
            self._connect(src_serial, dst_serial)

    def close(self, node: TxNode) -> None:
        """Freeze committed ``node``'s ``down`` row (no edge may enter it
        from now on)."""
        serial = node._index_serial
        if serial is not None:
            self._open &= ~(1 << serial)

    def has_edge(self, src: TxNode, dst: TxNode) -> bool:
        return dst in src.out_edges

    def has_path(self, src: TxNode, dst: TxNode) -> bool:
        """True iff ``dst`` is reachable from ``src`` (O(1) bit test)."""
        self.path_queries += 1
        if src is dst:
            return True
        src_serial = src._index_serial
        dst_serial = dst._index_serial
        if src_serial is None or dst_serial is None:
            return False  # a node without edges reaches nothing
        return bool(self._up[dst_serial] >> src_serial & 1)

    def rows(self, node: TxNode) -> Tuple[int, int]:
        """``node``'s closure rows ``(down, up)``: its descendants and its
        ancestors, self included.  Node ``m`` is in a row iff bit
        ``m._index_serial`` is set.  A dead serial's bit may still be set
        in a row, so callers test only the bits of live indexed members.
        ``down`` is exact only while ``node`` is open (R2 reads it for
        the running reader, R4 for the committer before :meth:`close`).

        A node this graph has not indexed never touched an edge here (or
        left with its edges): it reaches nothing, nothing reaches it, and
        its rows are ``(0, 0)``.  Not counted in ``path_queries``: that
        counter is the point queries the rows replace."""
        serial = node._index_serial
        if serial is None:
            return 0, 0
        return self._down[serial], self._up[serial]

    # -- reachability index internals ------------------------------------------

    def _own_serial(self, node: TxNode) -> Optional[int]:
        """``node``'s serial here, or ``None`` if it holds no edges.

        Raises :class:`SerializationError` for a node another graph
        indexes: one graph owns a node's edges and rows at a time."""
        serial = node._index_serial
        if serial is not None and (serial >= len(self._indexed)
                                   or self._indexed[serial] is not node):
            raise SerializationError(
                f"transaction {node.tx_id} is indexed by another graph")
        return serial

    def _ensure_serial(self, node: TxNode) -> int:
        """Return ``node``'s serial, registering it on first edge contact."""
        serial = self._own_serial(node)
        if serial is None:
            serial = node._index_serial = len(self._indexed)
            self._indexed.append(node)
            self._append_singleton()
            if node.status is _COMMITTED:
                self.close(node)
        return serial

    def _index_remove(self, node: TxNode) -> None:
        """Take ``node`` out of the index in O(1), whatever its cone: its
        serial is tombstoned and leaves a hole for compaction."""
        serial = node._index_serial
        node._index_serial = None
        self._indexed[serial] = None
        self._index_holes += 1
        self._tombstone(serial)

    # -- closure rows ------------------------------------------------------------

    def _note_width(self) -> None:
        width = (len(self._down) + 63) >> 6
        if width > self.peak_bitset_words:
            self.peak_bitset_words = width

    def _append_singleton(self) -> None:
        """Register the next serial, live, with only its own bit set."""
        bit = 1 << len(self._down)
        self._down.append(bit)
        self._up.append(bit)
        self._live |= bit
        self._open |= bit
        self._note_width()

    def _tombstone(self, serial: int) -> None:
        """Clear ``serial``'s ``live`` bit and zero its rows.  Its bit may
        stay set in other rows (see :meth:`rows`)."""
        self._live ^= 1 << serial
        self._open &= ~(1 << serial)
        self._down[serial] = self._up[serial] = 0

    def _connect(self, src: int, dst: int) -> None:
        """Propagate a new non-redundant edge ``src -> dst`` (serials;
        ``dst`` is open).

        ``down[dst]`` goes into the open ancestors of ``src`` and
        ``up[src]`` into the descendants of ``dst`` (both cones include
        their endpoint), masked with ``live`` so no row gains a dead bit
        — but only into rows it changes.  An ancestor ``a`` already in
        ``up[dst]`` reaches ``dst``, so ``down[a]`` already holds
        ``down[dst]`` by transitivity; a descendant already in
        ``down[src]`` already holds ``up[src]`` (a closed ``src``'s row
        is a subset, which only lets no-op ORs through).  Both sets are
        taken before any row changes (the first loop grows ``down[src]``)."""
        down = self._down
        up = self._up
        live = self._live
        ancestors = up[src] & live
        descendants = down[dst] & live
        grow_down = ancestors & self._open & ~up[dst]  # open, not reaching dst
        grow_up = descendants & ~down[src]  # descendants src misses
        while grow_down:
            low = grow_down & -grow_down
            down[low.bit_length() - 1] |= descendants
            grow_down ^= low
        while grow_up:
            low = grow_up & -grow_up
            up[low.bit_length() - 1] |= ancestors
            grow_up ^= low

    def _rebuild_rows(self, count: int, topo: List[int],
                      out_serials: List[List[int]],
                      in_serials: List[List[int]],
                      open_: Optional[int] = None) -> None:
        """Closure rows from scratch over ``count`` compacted serials, all
        live; ``open_`` is the open set (default: every serial).

        ``topo`` is a topological order: down rows are unioned in reverse
        topo, up rows in topo order.
        """
        down = [1 << serial for serial in range(count)]
        up = list(down)
        for serial in reversed(topo):
            acc = down[serial]
            for target in out_serials[serial]:
                acc |= down[target]
            down[serial] = acc
        for serial in topo:
            acc = up[serial]
            for source in in_serials[serial]:
                acc |= up[source]
            up[serial] = acc
        self._down = down
        self._up = up
        self._live = (1 << count) - 1
        self._open = self._live if open_ is None else open_
        self._note_width()

    def _rebuild_index(self) -> None:
        """Compact the serial space: drop the holes, renumber the live
        nodes in their serial order, and recompute the rows from the
        adjacency in one Kahn-order pass of set unions."""
        self.index_rebuilds += 1
        nodes = [node for node in self._indexed if node is not None]
        for serial, node in enumerate(nodes):
            node._index_serial = serial
        self._indexed = nodes
        self._index_holes = 0
        count = len(nodes)
        # Adjacency as serial lists (edge-insertion order preserved, so
        # union order is deterministic), plus a Kahn topological order.
        out_serials: List[List[int]] = []
        in_serials: List[List[int]] = []
        indegree = [0] * count
        for node in nodes:
            targets = [neighbor._index_serial for neighbor in node.out_edges]
            out_serials.append(targets)
            in_serials.append(
                [neighbor._index_serial for neighbor in node.in_edges])
            for target in targets:
                indegree[target] += 1
        ready = [serial for serial in range(count) if indegree[serial] == 0]
        topo: List[int] = []
        while ready:
            serial = ready.pop()
            topo.append(serial)
            for target in out_serials[serial]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        open_ = sum(1 << serial for serial, node in enumerate(nodes)
                    if node.status is not _COMMITTED)
        self._rebuild_rows(count, topo, out_serials, in_serials, open_)


def _bits(row: int) -> List[int]:
    """Set-bit positions of a closure row, ascending."""
    out: List[int] = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out
