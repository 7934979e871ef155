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
maintains a transitive-closure index:

* every currently-indexed node gets a small integer *serial* (per build
  generation) and two closure rows, each one Python int used as a bit
  set — ``down`` (descendants, self included) and ``up`` (ancestors,
  self included);
* ``add_edge(u, v)`` updates the closure with Italiano-style propagation:
  if ``v`` is not already a descendant of ``u``, OR ``down[v]`` into the
  ancestors of ``u`` and ``up[u]`` into the descendants of ``v`` —
  *masked*: an ancestor that already reaches ``v`` already holds
  ``down[v]`` by transitivity (likewise a descendant ``u`` already
  reaches), so only ``up[u] & ~up[v]`` and ``down[v] & ~down[u]`` are
  ORed into, both masks taken before any row changes.  Nothing happens
  when the edge is redundant;
* ``detach_node`` (aborts) repairs the closure *decrementally*.  General
  decremental reachability is hard because an edge deletion can sever
  paths, but this graph's detach protocol makes it trivial: every
  (predecessor, successor) ordering observed through the departing node
  is re-established by a ``BRIDGE`` edge in the same pass, so removal
  never changes reachability among the survivors.  The whole repair is
  therefore clearing the node's bit from its ancestors' ``down`` sets and
  its descendants' ``up`` sets — the *affected cone*, O(|up| + |down|)
  single-bit word operations — after which the bridge insertions are
  index no-ops (each bridged pair is already marked reachable).  The
  node's serial becomes a *hole* that the next full rebuild compacts
  away.  See :meth:`DependencyGraph._index_detach` for the repair-vs-
  rebuild decision rule: when the repair is inapplicable (index already
  stale, serial space hole-dominated, cone above ``repair_max_cone``) the
  detach falls back to the legacy scheme — bump a *generation counter*
  (O(1)) and let the next query rebuild from the live adjacency in
  topological order, O(V + E) set unions, compacting serials.
* ``has_path`` is then a single bit test, O(1), and :meth:`rows` hands
  the controller a node's whole ``down``/``up`` rows, so a rule over a
  key's cohort tests one bit per member instead of asking one
  ``has_path`` per member (see :mod:`repro.ce.controller`).

The index is an exact mirror of the adjacency lists: answers are identical
to the reference DFS (kept as :meth:`DependencyGraph._has_path_dfs` for
tests and benchmarks), so controller behavior is bit-for-bit unchanged.
``path_queries`` / ``index_rebuilds`` / ``index_repairs`` /
``repair_frontier_nodes`` / ``repair_fallbacks`` counters feed
:class:`CCStats` so Fig. 11-style runs can report the query load, the
(now rare) rebuild rate, and the per-abort repair cost.

Closure-index invariants
------------------------
1. *Mirror*: for every pair of indexed nodes ``(u, v)``,
   ``down[u] >> serial(v) & 1`` equals DFS reachability over the current
   adjacency lists whenever ``_built_gen == _gen``.
2. *Self-inclusion*: every indexed node's ``down``/``up`` bitsets contain
   its own bit.
3. *Staleness is explicit*: any mutation the closure cannot absorb in
   place (a repair fallback, an ownership steal) bumps ``_gen``; queries
   never read bitsets while ``_built_gen != _gen``.
4. *Serial density is amortized*: a detach or eviction absorbed in place
   leaves a hole instead of forcing a rebuild, but once holes outnumber
   live serials the mutation falls back to a generation bump, so the next
   query's rebuild compacts and bitset width stays within ~2x the live
   graph.  (A full reference for invariants 1-4, the repair argument, and
   the decision rule lives in ``docs/REACHABILITY.md``.)

Committed-node pruning
----------------------
A long-lived graph serving a transaction *stream* (see
:mod:`repro.ce.streaming`) would otherwise grow without bound: committed
nodes stay in the closure universe, every rebuild pays for them, and the
per-key writer/reader lists keep densifying.  :meth:`prune_committed`
evicts a set of committed nodes wholesale.  **Pruning safety condition** —
a committed node ``C`` may be evicted only as part of a victim set ``S``
such that:

1. every graph neighbour (in- or out-edge, including ``BRIDGE`` edges) of
   every member of ``S`` is itself in ``S`` — so no surviving-to-surviving
   path ever ran through a victim, and no live node is adjacent to one;
2. for every key ``K`` recorded by a member of ``S``, *every* non-aborted
   node holding a record on ``K`` is in ``S`` — so per-key rule loops
   (R1/R2/R4) never see a half-evicted history;
3. for every such key with writers, the root's answer for ``K`` (the
   committed overlay, supplied via the ``root_value`` callback) equals the
   value of the last-registered writer — so a future read that falls
   through to the root observes exactly the value it would have read from
   the evicted writer.

Under 1–3 the controller's observable behavior — values read, aborts,
commit order — is unchanged by the eviction; only edges *touching* a
victim (which cannot influence any surviving decision) disappear.
Clause 1 also makes eviction free for the closure index: victims form
closed components, so no surviving bitset carries a victim's bit and the
eviction just punches holes into the serial space in place — no
generation bump, no rebuild.  Once holes outnumber live serials the pass
schedules one compacting rebuild (invariant 4), which is how a streaming
controller keeps its bitset width plateaued over an unbounded stream.

Determinism note: all collections that the controller iterates are dicts
used as ordered sets, so runs are reproducible (plain ``set`` of objects
would iterate in address order).  Index serials follow dict insertion
order and row bits are enumerated in ascending serial order, so the
index — and the bridge planning built on it — is deterministic too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
                 "committed_at", "_index_serial", "_index_owner")

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
        #: Bit position in the owning graph's reachability index plus the
        #: graph that assigned it; set on first edge contact.  A node is
        #: normally indexed by one graph at a time — a query from a graph
        #: that is not the current owner falls back to DFS, and the next
        #: rebuild of that graph re-claims the node.
        self._index_serial: Optional[int] = None
        self._index_owner: Optional["DependencyGraph"] = None

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
        #: serial -> node for every node that ever touched an edge here;
        #: ``None`` marks a detached (aborted) node's hole.  Serials are
        #: permanent per graph, so nodes carry them in a slot and no
        #: id()-keyed lookups are needed on the hot path.
        self._indexed: List[Optional[TxNode]] = []
        #: Invalidation generation; bumped only when a mutation cannot be
        #: absorbed in place (repair fallback, ownership steal).
        self._gen = 0
        #: Generation the closure rows were built for; ``!= _gen`` means
        #: the index is stale and the next query rebuilds it.
        self._built_gen = -1
        #: Closure rows, one int per serial: bit ``t`` of ``_down[s]`` is
        #: set iff serial ``t`` is a descendant of ``s`` (self included);
        #: ``_up`` is the transpose (ancestors).
        self._down: List[int] = []
        self._up: List[int] = []
        #: High-water row width in 64-bit words (never reset by clears;
        #: surfaced as ``CCStats.bitset_words``).
        self.peak_bitset_words = 0
        #: When True (default), ``detach_node`` plans its bridge edges
        #: from the pre-removal closure snapshot; False forces the
        #: reference per-predecessor DFS (kept for equivalence tests).
        self.bridge_via_index = True
        #: Hole slots in ``_indexed`` (detached/evicted serials awaiting
        #: compaction); invariant 4's fallback trigger compares it to the
        #: live serial count.
        self._index_holes = 0
        #: Repair-vs-rebuild threshold: a detach whose affected cone
        #: (ancestors + descendants) exceeds this falls back to the lazy
        #: rebuild.  The repair is asymptotically never slower than a
        #: rebuild, so this is a worst-case single-detach latency guard
        #: for enormous hand-built graphs, not a tuning knob the
        #: controller's workloads reach.
        self.repair_max_cone = 1 << 16
        #: Counters surfaced through :class:`repro.ce.controller.CCStats`.
        self.path_queries = 0
        self.index_rebuilds = 0
        self.index_repairs = 0
        self.repair_frontier_nodes = 0
        self.repair_fallbacks = 0
        self.nodes_pruned = 0
        #: Detach bridging: pairs answered from the pre-removal closure
        #: snapshot (``bridge_plans``) versus detaches where the planner
        #: declined and the reference DFS ran (``bridge_fallbacks``).
        self.bridge_plans = 0
        self.bridge_fallbacks = 0

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
        its departure.  Pairs the reachability index already proves ordered
        through surviving nodes are skipped — the transitive closure over
        the remaining nodes is identical either way, but edge counts stay
        bounded under abort-heavy workloads instead of densifying
        quadratically.  Bridging cannot create cycles (the path existed)
        and never touches other aborted nodes (their adjacency must stay
        empty).

        Because bridging preserves every surviving ordering and invents
        none, removal leaves the closure over the survivors untouched —
        so :meth:`_index_detach` repairs the bitsets in place (clear this
        node's bit from its ancestor/descendant cone) instead of
        invalidating the whole index, falling back to the generation-bump
        lazy rebuild only per the decision rule documented there.  The
        bridge decisions are planned *before* any mutation from the
        pre-removal closure snapshot (:meth:`_bridge_plan_from_index`);
        only when the index cannot answer (stale, shared ownership,
        hand-built cycles) does each predecessor pay the reference DFS
        over the post-removal adjacency.  Both planners produce the same
        bridge edges in the same order, so schedules are identical (see
        the regression test in ``tests/ce/test_reachability_index.py``).

        Returns the former out-neighbours (the controller re-checks their
        commit eligibility).  Read-from back-references are cleaned so the
        source writers no longer consider this node a dependant.
        """
        for key, record in node.records.items():
            if record.read_from is not None:
                source = record.read_from.records.get(key)
                if source is not None:
                    source.readers.pop(node, None)
            self._writers.get(key, {}).pop(node, None)
            self._readers.get(key, {}).pop(node, None)
        former_out = list(node.out_edges)
        predecessors = [p for p in node.in_edges
                        if p.status is not NodeStatus.ABORTED]
        successors = [s for s in former_out
                      if s.status is not NodeStatus.ABORTED]
        plan: Optional[List[Tuple[TxNode, TxNode]]] = None
        if self.bridge_via_index and predecessors and successors:
            # Plan the bridges from the closure while it still carries
            # this node's contribution; no row copies are needed because
            # nothing has been mutated yet.
            plan = self._bridge_plan_from_index(node, predecessors,
                                                successors)
            if plan is not None:
                self.bridge_plans += 1
            else:
                self.bridge_fallbacks += 1
        for neighbor in former_out:
            neighbor.in_edges.pop(node, None)
        for neighbor in list(node.in_edges):
            neighbor.out_edges.pop(node, None)
        node.out_edges.clear()
        node.in_edges.clear()
        owner = node._index_owner
        if owner is not None:
            # An edge-less node was never indexed and skips this, so
            # aborts of conflict-free transactions cost nothing.
            self._index_detach(node, owner)
        if plan is not None:
            for predecessor, successor in plan:
                self.add_edge(predecessor, successor, "", EdgeKind.BRIDGE)
            return former_out
        for predecessor in predecessors:
            if not successors:
                break
            # One incremental DFS per predecessor: ``reached`` holds the
            # nodes reachable from it in the *current* graph (including
            # bridges added for earlier successors), exactly mirroring a
            # per-pair ``has_path`` check against the evolving adjacency.
            reached = self._collect_descendants({}, predecessor)
            for successor in successors:
                if predecessor is successor or successor in reached:
                    continue
                self.add_edge(predecessor, successor, "", EdgeKind.BRIDGE)
                reached[successor] = None
                self._collect_descendants(reached, successor)
        return former_out

    def _bridge_plan_from_index(
            self, node: TxNode, predecessors: List[TxNode],
            successors: List[TxNode]
    ) -> Optional[List[Tuple[TxNode, TxNode]]]:
        """The (predecessor, successor) pairs ``detach_node`` must bridge,
        answered from the pre-removal closure instead of per-predecessor
        DFS.  Returns ``None`` when the index cannot answer exactly (then
        the caller runs the reference DFS).

        Correctness sketch (DAG case; the guards below fall back on
        anything else).  Let ``v`` be the departing node and ``D`` its
        descendant cone (``down[v]`` minus ``v``).

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
        if self._built_gen != self._gen:
            return None
        indexed = self._indexed
        down = self._down

        def live_serial(candidate: TxNode) -> Optional[int]:
            serial = candidate._index_serial
            if (candidate._index_owner is not self or serial is None
                    or serial >= len(indexed)
                    or indexed[serial] is not candidate):
                return None
            return serial

        victim_serial = live_serial(node)
        if victim_serial is None:
            return None
        pred_serials: List[int] = []
        for predecessor in predecessors:
            serial = live_serial(predecessor)
            if serial is None or down[victim_serial] >> serial & 1:
                # Unindexed/foreign predecessor — or (hand-built cycles
                # only) a predecessor inside the descendant cone, which
                # breaks the one-bridge-per-path argument.
                return None
            pred_serials.append(serial)
        succ_serials: List[int] = []
        for successor in successors:
            serial = live_serial(successor)
            if serial is None:
                return None
            succ_serials.append(serial)
        cone_serials = _bits(down[victim_serial] & ~(1 << victim_serial))
        position: Dict[int, int] = {}
        cone_nodes: List[TxNode] = []
        for serial in cone_serials:
            member = indexed[serial] if serial < len(indexed) else None
            if member is None or live_serial(member) != serial:
                return None
            position[serial] = len(cone_nodes)
            cone_nodes.append(member)
        # avoid[i]: bitset over predecessor positions that reach cone
        # member i with the victim removed.
        avoid = [0] * len(cone_nodes)
        indegree = [0] * len(cone_nodes)
        for cone_index, member in enumerate(cone_nodes):
            boundary = 0
            for source in member.in_edges:
                if source is node:
                    continue
                serial = live_serial(source)
                if serial is None:
                    return None
                if serial in position:
                    indegree[cone_index] += 1
                else:
                    for bit, pred_serial in enumerate(pred_serials):
                        if pred_serial == serial \
                                or down[pred_serial] >> serial & 1:
                            boundary |= 1 << bit
            avoid[cone_index] = boundary
        ready = [index for index in range(len(cone_nodes))
                 if indegree[index] == 0]
        processed = 0
        while ready:
            cone_index = ready.pop()
            processed += 1
            bits = avoid[cone_index]
            for target in cone_nodes[cone_index].out_edges:
                serial = live_serial(target)
                if serial is None:
                    return None
                target_index = position.get(serial)
                if target_index is None:
                    return None  # closure/adjacency mismatch; play safe
                avoid[target_index] |= bits
                indegree[target_index] -= 1
                if indegree[target_index] == 0:
                    ready.append(target_index)
        if processed != len(cone_nodes):
            return None  # a hand-built cycle inside the cone
        # cover[j]: successor positions ordered once a bridge lands on
        # successor j (its closure descendants among the successors).
        cover = []
        for index, serial in enumerate(succ_serials):
            bits = 1 << index
            for other_index, other in enumerate(succ_serials):
                if other_index != index and down[serial] >> other & 1:
                    bits |= 1 << other_index
            cover.append(bits)
        avoid_succ = []
        for serial in succ_serials:
            succ_position = position.get(serial)
            if succ_position is None:
                return None
            avoid_succ.append(avoid[succ_position])
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
                        and down[pred_serial] >> earlier_serial & 1:
                    covered |= earlier_cover
            for succ_index, successor in enumerate(successors):
                if covered >> succ_index & 1:
                    continue
                plan.append((predecessor, successor))
                bridged.append((pred_serial, cover[succ_index]))
                covered |= cover[succ_index]
        return plan

    def _index_detach(self, node: TxNode, owner: "DependencyGraph") -> None:
        """Absorb an indexed node's departure into the closure, in place
        when possible.

        **Repair** (the common case): clear the node's bit from ``down``
        of every ancestor and ``up`` of every descendant — the *affected
        cone*, read straight from the node's own bitsets — and mark its
        serial as a hole.  Bridging (run by the caller afterwards) keeps
        reachability among survivors identical to before the removal, so
        this is the entire repair and invariant 1 holds throughout; the
        subsequent bridge ``add_edge`` calls find their pairs already
        marked reachable and cost one bit test each.

        **Fallback** (bump the generation counter; the next query
        rebuilds from adjacency and compacts serials) when the repair is
        unavailable or a rebuild is due anyway:

        * the bitsets don't carry this node's contribution — index
          already stale, or the node is owned by another graph under
          hand-built sharing (then *both* graphs are invalidated, as
          before);
        * holes would outnumber live serials — the serial space is
          garbage-dominated and a compacting rebuild is the cheaper way
          to pay the debt (invariant 4);
        * the cone exceeds ``repair_max_cone`` — a worst-case
          single-detach latency guard.

        Only the last two count as ``repair_fallbacks``: they are the
        decision rule choosing a rebuild, whereas a stale index already
        had one scheduled.
        """
        serial = node._index_serial
        slot_ok = (serial is not None and serial < len(owner._indexed)
                   and owner._indexed[serial] is node)
        if slot_ok:
            owner._indexed[serial] = None
            owner._index_holes += 1
        node._index_serial = None
        node._index_owner = None
        if owner is not self:
            owner._gen += 1
            self._gen += 1
            return
        if not slot_ok or self._built_gen != self._gen:
            self._gen += 1
            return
        if self._index_holes == len(self._indexed):
            # This detach emptied the index.  No live bitset can mention
            # the departed node (none are left), so resetting to an empty
            # — trivially exact — index is the whole repair.
            self._index_reset_empty()
            self.index_repairs += 1
            return
        if 2 * self._index_holes > len(self._indexed):
            self.repair_fallbacks += 1
            self._gen += 1
            return
        cone = self._discard(serial, self.repair_max_cone)
        if cone is None:
            self.repair_fallbacks += 1
            self._gen += 1
            return
        self.index_repairs += 1
        self.repair_frontier_nodes += cone

    # -- committed-node pruning ---------------------------------------------

    def prunable_committed(self, root_value) -> List[TxNode]:
        """The maximal victim set satisfying the pruning safety condition.

        ``root_value(key)`` must answer what a read falling through to the
        root would currently observe (the controller passes its
        overlay-then-base lookup).  Starting from every committed node, the
        set is shrunk to a fixpoint: a candidate is dropped when it has a
        neighbour outside the set, when some non-aborted holder of one of
        its keys is outside the set, or when evicting a key's writers would
        change the value the root serves for that key.  See the module
        docstring for why these three conditions make eviction invisible
        to the controller.
        """
        victims: Dict[TxNode, None] = {
            node: None for node in self.nodes.values()
            if node.status is NodeStatus.COMMITTED}
        while victims:
            dropped = False
            #: Per-pass key verdicts: a key's cohort check is identical for
            #: every victim sharing the key, so compute it once.  The cache
            #: may go stale when a later drop removes a cohort member, but
            #: the loop runs to a fixpoint and the final (drop-free) pass
            #: sees only fresh, consistent verdicts.
            key_ok: Dict[str, bool] = {}
            for node in list(victims):
                if self._prune_safe(node, victims, key_ok, root_value):
                    continue
                del victims[node]
                dropped = True
            if not dropped:
                break
        return list(victims)

    def _prune_safe(self, node: TxNode, victims: Dict[TxNode, None],
                    key_ok: Dict[str, bool], root_value) -> bool:
        """One candidate's check against the current victim set."""
        for neighbor in node.out_edges:
            if neighbor not in victims:
                return False
        for neighbor in node.in_edges:
            if neighbor not in victims:
                return False
        for key in node.records:
            verdict = key_ok.get(key)
            if verdict is None:
                verdict = self._key_cohort_evictable(key, victims, root_value)
                key_ok[key] = verdict
            if not verdict:
                return False
        return True

    def _key_cohort_evictable(self, key: str, victims: Dict[TxNode, None],
                              root_value) -> bool:
        """Whether ``key``'s whole history can leave: every non-aborted
        holder is a victim, and the root already serves the value the
        last-registered writer would have."""
        last_writer: Optional[TxNode] = None
        for holder in self._writers.get(key, {}):
            if holder.status is NodeStatus.ABORTED:
                continue
            if holder not in victims:
                return False
            last_writer = holder
        for holder in self._readers.get(key, {}):
            if holder.status is not NodeStatus.ABORTED \
                    and holder not in victims:
                return False
        if last_writer is not None \
                and last_writer.records[key].last_write != root_value(key):
            return False
        return True

    def prune_committed(self, root_value) -> int:
        """Evict every safely-prunable committed node; returns the count.

        Evicted nodes leave the node table, the per-key writer/reader
        indexes, the adjacency lists, and the closure universe.  Unlike
        :meth:`detach_node` no bridging is needed, and no repair either:
        condition 1 of the safety condition guarantees no surviving pair
        was ordered through a victim — victims form closed components, so
        no surviving bitset carries a victim's bit and eviction just
        punches holes into the serial space while the index stays valid.
        Only when holes come to outnumber live serials (or the index was
        already stale) is a compacting rebuild scheduled via the
        generation counter, which is what keeps a streaming controller's
        bitset width plateaued instead of paying one rebuild per batch
        boundary.
        """
        victims = self.prunable_committed(root_value)
        if not victims:
            return 0
        valid = self._built_gen == self._gen
        for node in victims:
            for key in node.records:
                for index in (self._writers, self._readers):
                    holders = index.get(key)
                    if holders is not None:
                        holders.pop(node, None)
                        if not holders:
                            del index[key]
            # Condition 1 makes every neighbour a victim too, so clearing
            # both endpoints' maps as we go leaves no dangling references.
            for neighbor in node.out_edges:
                neighbor.in_edges.pop(node, None)
            for neighbor in node.in_edges:
                neighbor.out_edges.pop(node, None)
            node.out_edges.clear()
            node.in_edges.clear()
            if self.nodes.get(node.tx_id) is node:
                del self.nodes[node.tx_id]
            if node._index_owner is self:
                serial = node._index_serial
                if serial is not None and serial < len(self._indexed) \
                        and self._indexed[serial] is node:
                    self._indexed[serial] = None
                    self._index_holes += 1
                    if valid:
                        self._down[serial] = self._up[serial] = 0
                node._index_serial = None
                node._index_owner = None
        if valid:
            self._index_compact_if_dominated()
        self.nodes_pruned += len(victims)
        return len(victims)

    def _index_compact_if_dominated(self) -> None:
        """Invariant 4's amortization: pay the hole debt when it dominates.

        When every slot is a hole — the streaming runner's quiescent
        boundary evicts the *entire* indexed population — the index
        resets to empty in place: an empty closure is trivially exact, so
        no rebuild is needed and ``_built_gen`` stays current.  When
        holes merely outnumber live serials, the generation counter is
        bumped so the next query pays one compacting rebuild.
        """
        if self._index_holes == 0:
            return
        if self._index_holes == len(self._indexed):
            self._index_reset_empty()
        elif 2 * self._index_holes > len(self._indexed):
            self._gen += 1

    def _index_reset_empty(self) -> None:
        """Drop a fully-holed serial space: an empty index is trivially
        exact, so ``_built_gen`` stays current and no rebuild is owed."""
        self._indexed.clear()
        self._down.clear()
        self._up.clear()
        self._index_holes = 0

    @staticmethod
    def _collect_descendants(reached: Dict[TxNode, None],
                             src: TxNode) -> Dict[TxNode, None]:
        """Extend ``reached`` with every node reachable from ``src``
        (``src`` itself excluded unless already present).

        ``reached`` is an insertion-ordered dict-as-set (the module-wide
        convention): discovery order depends only on edge insertion
        order, never on ``PYTHONHASHSEED``.
        """
        stack = [src]
        while stack:
            for child in stack.pop().out_edges:
                if child not in reached:
                    reached[child] = None
                    stack.append(child)
        return reached

    # -- indexes -----------------------------------------------------------------

    def register_writer(self, key: str, node: TxNode) -> None:
        self._writers.setdefault(key, {})[node] = None

    def register_reader(self, key: str, node: TxNode) -> None:
        self._readers.setdefault(key, {})[node] = None

    def writers_of(self, key: str) -> List[TxNode]:
        """Live or committed writer nodes of ``key`` in first-write order."""
        return [node for node in self._writers.get(key, {})
                if node.status is not _ABORTED]

    def readers_of(self, key: str) -> List[TxNode]:
        """Nodes holding a read record on ``key`` (live or committed)."""
        return [node for node in self._readers.get(key, {})
                if node.status is not _ABORTED]

    def latest_alive_writer(self, key: str) -> Optional[TxNode]:
        """The most recent non-aborted writer of ``key``, if any."""
        writers = self.writers_of(key)
        return writers[-1] if writers else None

    # -- edges ----------------------------------------------------------------

    def add_edge(self, src: TxNode, dst: TxNode, key: str,
                 kind: EdgeKind) -> None:
        """Record ``src`` before ``dst``; self-edges are rejected, duplicate
        labels are idempotent.  Callers must have done their cycle check."""
        if src is dst:
            raise SerializationError(
                f"self-edge on {src.tx_id} (key {key}, {kind.value})")
        src.out_edges.setdefault(dst, {})[(key, kind)] = None
        dst.in_edges.setdefault(src, {})[(key, kind)] = None
        self._index_add_edge(src, dst)

    def has_edge(self, src: TxNode, dst: TxNode) -> bool:
        return dst in src.out_edges

    def has_path(self, src: TxNode, dst: TxNode) -> bool:
        """True iff ``dst`` is reachable from ``src`` (O(1) bit test)."""
        self.path_queries += 1
        if src is dst:
            return True
        if src._index_owner is not self or dst._index_owner is not self:
            # Unindexed endpoints (no edges yet) are the common case here.
            if not src.out_edges or not dst.in_edges:
                return False
            # Indexed by another graph (hand-built sharing): answer from
            # the adjacency directly; our next rebuild re-claims the node.
            return self._has_path_dfs(src, dst)
        if self._built_gen != self._gen:
            self._rebuild_index()
        return bool(self._down[src._index_serial] >> dst._index_serial & 1)

    def rows(self, node: TxNode) -> Tuple[int, int]:
        """``node``'s closure rows ``(down, up)``: its descendants and its
        ancestors, self included.  Node ``m`` is in a row iff
        ``m._index_owner is self`` and bit ``m._index_serial`` is set.

        A node this graph has not indexed never touched an edge here (or
        left with its edges): it reaches nothing, nothing reaches it, and
        its rows are ``(0, 0)``.  A stale index is rebuilt first, exactly
        as a :meth:`has_path` between ``node`` and an indexed node would,
        and a rebuild renumbers serials — read a member's serial after
        this call.  Not counted in ``path_queries``: that counter is the
        point queries the rows replace."""
        if node._index_owner is not self:
            return 0, 0
        if self._built_gen != self._gen:
            self._rebuild_index()
        serial = node._index_serial
        return self._down[serial], self._up[serial]

    def _has_path_dfs(self, src: TxNode, dst: TxNode) -> bool:
        """Reference DFS reachability (the seed implementation); kept for
        equivalence tests and the before/after benchmark."""
        if src is dst:
            return True
        stack = [src]
        seen = {id(src)}
        while stack:
            current = stack.pop()
            for neighbor in current.out_edges:
                if neighbor is dst:
                    return True
                if id(neighbor) not in seen:
                    seen.add(id(neighbor))
                    stack.append(neighbor)
        return False

    # -- reachability index internals ------------------------------------------

    def _ensure_serial(self, node: TxNode) -> int:
        """Return ``node``'s serial, registering it on first edge contact.

        A node currently owned by *another* graph (hand-built sharing) is
        re-claimed; since it may carry edges this graph's clean rows know
        nothing about, that case invalidates the index and lets the next
        rebuild heal the closure."""
        if node._index_owner is not self:
            stolen = node._index_owner is not None
            serial = len(self._indexed)
            node._index_serial = serial
            node._index_owner = self
            self._indexed.append(node)
            if stolen:
                self._gen += 1  # force a rebuild; singleton sets would lie
            elif self._built_gen == self._gen:
                self._append_singleton()
            return serial
        return node._index_serial

    def _index_add_edge(self, src: TxNode, dst: TxNode) -> None:
        """Italiano-style closure maintenance for a new edge src -> dst."""
        src_serial = self._ensure_serial(src)
        dst_serial = self._ensure_serial(dst)
        if self._built_gen != self._gen:
            return  # stale: the next query rebuilds from adjacency anyway
        if self._down[src_serial] >> dst_serial & 1:
            return  # already ordered; closure unchanged
        self._connect(src_serial, dst_serial)

    # -- closure rows ------------------------------------------------------------

    def _note_width(self) -> None:
        width = (len(self._down) + 63) >> 6
        if width > self.peak_bitset_words:
            self.peak_bitset_words = width

    def _append_singleton(self) -> None:
        """Register the next serial with only its own bit set."""
        bit = 1 << len(self._down)
        self._down.append(bit)
        self._up.append(bit)
        self._note_width()

    def _connect(self, src: int, dst: int) -> None:
        """Propagate a new non-redundant edge ``src -> dst`` (serials).

        ``down[dst]`` goes into the ancestors of ``src`` and ``up[src]``
        into the descendants of ``dst`` (both cones include their
        endpoint) — but only into rows it changes.  An ancestor ``a``
        already in ``up[dst]`` reaches ``dst``, so ``down[a]`` already
        holds ``down[dst]`` by transitivity; a descendant already in
        ``down[src]`` already holds ``up[src]``.  Both masks are taken
        before any row changes (the first loop grows ``down[src]``)."""
        down = self._down
        up = self._up
        ancestors = up[src]
        descendants = down[dst]
        grow_down = ancestors & ~up[dst]    # ancestors not reaching dst
        grow_up = descendants & ~down[src]  # descendants src misses
        while grow_down:
            low = grow_down & -grow_down
            down[low.bit_length() - 1] |= descendants
            grow_down ^= low
        while grow_up:
            low = grow_up & -grow_up
            up[low.bit_length() - 1] |= ancestors
            grow_up ^= low

    def _discard(self, serial: int, max_cone: int) -> Optional[int]:
        """Decremental repair: clear ``serial``'s bit from its affected
        cone and zero its own rows.  Returns the cone size, or ``None``
        — with nothing mutated — when the cone exceeds ``max_cone``."""
        mask = 1 << serial
        ancestors = self._up[serial] & ~mask
        descendants = self._down[serial] & ~mask
        cone = ancestors.bit_count() + descendants.bit_count()
        if cone > max_cone:
            return None
        down = self._down
        up = self._up
        remaining = ancestors
        while remaining:
            low = remaining & -remaining
            down[low.bit_length() - 1] &= ~mask
            remaining ^= low
        remaining = descendants
        while remaining:
            low = remaining & -remaining
            up[low.bit_length() - 1] &= ~mask
            remaining ^= low
        down[serial] = 0
        up[serial] = 0
        return cone

    def _rebuild_rows(self, count: int, topo: Optional[List[int]],
                      out_serials: List[List[int]],
                      in_serials: List[List[int]]) -> None:
        """Closure rows from scratch over ``count`` compacted serials.

        ``topo`` is a topological order (down rows are unioned in reverse
        topo, up rows in topo order); ``None`` means the caller found a
        cycle and a fixpoint iteration is required.
        """
        down = [1 << serial for serial in range(count)]
        up = list(down)
        if topo is not None:
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
        else:  # pragma: no cover - cycles only arise in hand-built graphs
            for sets, edges in ((down, out_serials), (up, in_serials)):
                changed = True
                while changed:
                    changed = False
                    for serial in range(count):
                        acc = sets[serial]
                        for neighbor in edges[serial]:
                            acc |= sets[neighbor]
                        if acc != sets[serial]:
                            sets[serial] = acc
                            changed = True
        self._down = down
        self._up = up
        self._note_width()

    def _rebuild_index(self) -> None:
        """Recompute the closure rows from the live adjacency.

        Serials are compacted first — detached nodes' holes are dropped so
        rows stay as dense as the surviving graph — and any neighbor
        another graph claimed in the meantime (hand-built sharing) is
        re-claimed.  Nodes are then processed in Kahn topological order
        (one pass of set unions); graphs with a cycle — only constructible
        by hand, the controller never creates one — fall back to a
        fixpoint iteration so the answers still match DFS reachability.
        """
        self.index_rebuilds += 1
        nodes = [node for serial, node in enumerate(self._indexed)
                 if node is not None and node._index_owner is self
                 and node._index_serial == serial]
        for serial, node in enumerate(nodes):
            node._index_serial = serial
        # Re-claim foreign neighbors (and their adjacency, transitively).
        cursor = 0
        while cursor < len(nodes):
            node = nodes[cursor]
            cursor += 1
            for edges in (node.out_edges, node.in_edges):
                for neighbor in edges:
                    serial = neighbor._index_serial
                    if neighbor._index_owner is not self \
                            or serial >= len(nodes) \
                            or nodes[serial] is not neighbor:
                        neighbor._index_serial = len(nodes)
                        neighbor._index_owner = self
                        nodes.append(neighbor)
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
        self._rebuild_rows(count, topo if len(topo) == count else None,
                           out_serials, in_serials)
        self._built_gen = self._gen

    # -- whole-graph queries ---------------------------------------------------

    def live_nodes(self) -> Iterator[TxNode]:
        return (node for node in self.nodes.values() if node.alive)

    def edge_count(self) -> int:
        return sum(len(labels) for node in self.nodes.values()
                   for labels in node.out_edges.values())

    def is_acyclic(self) -> bool:
        """Full-graph cycle check (used by tests and debug assertions)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[int, int] = {}
        for root in self.nodes.values():
            if color.get(id(root), WHITE) is not WHITE:
                continue
            stack: List[Tuple[TxNode, Iterator[TxNode]]] = [
                (root, iter(root.out_edges))]
            color[id(root)] = GREY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    state = color.get(id(child), WHITE)
                    if state == GREY:
                        return False
                    if state == WHITE:
                        color[id(child)] = GREY
                        stack.append((child, iter(child.out_edges)))
                        advanced = True
                        break
                if not advanced:
                    color[id(node)] = BLACK
                    stack.pop()
        return True

    def topological_order(self) -> List[TxNode]:
        """A deterministic topological order of all non-aborted nodes.

        Kahn's algorithm on a heap: ties are broken by (committed order,
        tx id) so the result is stable.  Raises :class:`SerializationError`
        if a cycle slipped in.
        """
        nodes = [node for node in self.nodes.values()
                 if node.status is not NodeStatus.ABORTED]
        indegree: Dict[int, int] = {id(node): 0 for node in nodes}
        for node in nodes:
            for neighbor in node.out_edges:
                if id(neighbor) in indegree:
                    indegree[id(neighbor)] += 1

        def sort_key(node: TxNode) -> Tuple[int, int]:
            order = node.order_index if node.order_index is not None else 1 << 60
            return (order, node.tx_id)

        # tx_id is unique among non-aborted nodes, so the node itself is
        # never compared.
        ready = [(*sort_key(node), node) for node in nodes
                 if indegree[id(node)] == 0]
        heapq.heapify(ready)
        result: List[TxNode] = []
        while ready:
            node = heapq.heappop(ready)[2]
            result.append(node)
            for neighbor in node.out_edges:
                neighbor_id = id(neighbor)
                if neighbor_id not in indegree:
                    continue
                indegree[neighbor_id] -= 1
                if indegree[neighbor_id] == 0:
                    heapq.heappush(ready, (*sort_key(neighbor), neighbor))
        if len(result) != len(nodes):
            raise SerializationError("dependency graph contains a cycle")
        return result


def _bits(row: int) -> List[int]:
    """Set-bit positions of a closure row, ascending."""
    out: List[int] = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out
