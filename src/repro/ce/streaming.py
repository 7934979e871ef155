"""The execution session: the Concurrent Executor's one engine.

A :class:`StreamSession` owns one
:class:`~repro.ce.controller.ConcurrencyController` (hence one dependency
graph and closure index) and one pool of ``config.executors`` worker
processes, and serves an open-ended sequence of batches: the caller pushes
batches with :meth:`~StreamSession.admit`, collects each batch's
:class:`~repro.ce.runner.BatchResult` with :meth:`~StreamSession.drain`,
and finishes with :meth:`~StreamSession.close` (graceful) or
:meth:`~StreamSession.abort` (mid-flight teardown: the replica layer's
epoch change).  Sessions are opened by
:meth:`CERunner.open_session <repro.ce.runner.CERunner.open_session>`; a
replica keeps one per epoch, and
:meth:`CERunner.run_batch <repro.ce.runner.CERunner.run_batch>` is a
session that serves one batch.

The boundary rule
-----------------
A batch's nodes are **admitted into the dependency graph the moment the
caller calls ``admit``**, possibly while the previous batch is still
running.  Admission is limited to node creation (``cc.begin``): an
admitted node carries no records and no edges, so it cannot influence any
concurrency-control decision for the in-flight batch.  A batch's
*operations* are released (dispatched to the worker pool) only when every
earlier batch's last transaction has committed.

That rule makes batch boundaries invisible: a batch admitted into a live
session commits exactly what a one-batch session (``run_batch``) would
commit for it at the same instant with the same engine RNG.  At each
boundary the graph is quiescent (every node either committed or still
edge-less), so pruning the committed history (below) leaves the
controller equivalent to a fresh one, and the worker pool picks up the
new batch's transactions in admission order, drawing the engine RNG in
the same sequence.  Releasing operations *before* the boundary would let
later writers abort earlier readers and change the earlier batch's
schedule; the session gives up that last sliver of overlap for the
bit-for-bit reproducibility the consensus layer relies on.

Base-view switching
-------------------
``admit(batch, base_view=...)`` rebases the controller onto a caller-
supplied root *at the batch's dispatch boundary*: the controller's
committed overlay is dropped and root reads fall through to ``base_view``
instead (see :meth:`ConcurrencyController.rebase
<repro.ce.controller.ConcurrencyController.rebase>`).  This is how a
replica runs successive rounds — each against *that round's* speculative
overlay over the committed store — through one session: the replica folds
each round's committed writes into its own overlay (and discards the
overlay when cross-shard commits land), so the fresh view it hands the
next ``admit`` answers every key exactly like the dropped overlay would
have, or deliberately differently when committed state moved underneath.
Rebasing relies on the boundary prune having emptied the graph of
recorded nodes; omitting ``base_view`` keeps the controller's own overlay
accumulating committed writes.

Committed-node pruning
----------------------
A single graph over an unbounded stream would grow forever.  At every
batch boundary the session calls
:meth:`ConcurrencyController.prune_committed
<repro.ce.controller.ConcurrencyController.prune_committed>`, which evicts
every committed node satisfying the safety condition documented in
:mod:`repro.ce.depgraph` — at a quiescent boundary that is the *entire*
committed history, so the graph's node count plateaus at (roughly) one
batch of committed nodes plus one admitted batch, independent of stream
length.  Each batch's :class:`~repro.ce.runner.BatchResult` carries the
node count just before its boundary prune (``graph_nodes``); the tests
hold that series to the plateau, and a replica reports its maximum as
``ce_peak_graph_nodes``.  Eviction leaves the reachability index valid
(victims are closure-isolated, so pruning just punches serial holes in
place); the index schedules a compacting rebuild only when holes come to
outnumber live serials, so a long stream pays a rebuild every few batches
instead of one per boundary — and mid-batch aborts pay none at all (see
``docs/REACHABILITY.md``).

Usage
-----
One batch at a time, from inside a process (the replica's round loop)::

    session = runner.open_session(env, base_state)
    session.admit(batch, base_view=view)    # nodes enter the graph now
    result = yield session.drain()          # a BatchResult
    ...                                     # admit/drain more batches
    session.close()                         # shuts the worker pool down
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Deque, Dict, List, Mapping,
                    Optional)

from repro.ce.controller import CommittedTx, ConcurrencyController
from repro.errors import SerializationError
from repro.sim.environment import Environment
from repro.sim.resources import Gate, Store
from repro.txn import Transaction

if TYPE_CHECKING:
    from repro.ce.runner import BatchResult, CERunner


@dataclass
class _BatchState:
    """Mutable bookkeeping for one in-flight batch (``owned`` /
    ``first_start`` / ``re_executions`` are kept by the executing
    workers)."""

    transactions: List[Transaction]
    done: Any                      # Event: triggered at last commit
    #: Root the controller is rebased onto when this batch dispatches;
    #: ``None`` keeps the previous root and the accumulated overlay.
    base_view: Optional[Mapping[str, Any]] = None
    started_at: float = 0.0
    committed_count: int = 0
    re_executions: int = 0
    graph_nodes_at_boundary: int = 0
    owned: set = field(default_factory=set)
    first_start: Dict[int, float] = field(default_factory=dict)
    latencies: Dict[int, float] = field(default_factory=dict)
    by_id: Dict[int, Transaction] = field(default_factory=dict)
    #: tx id -> pre-begun TxNode, filled at admission, drained at dispatch.
    nodes: Dict[int, Any] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.transactions)


class StreamSession:
    """One long-lived execution session: a controller, a dependency graph,
    and a worker pool serving an open-ended sequence of batches.

    Create through :meth:`CERunner.open_session
    <repro.ce.runner.CERunner.open_session>`.  The lifecycle::

        admit(batch[, base_view])   # any number of times, pipelined
        drain() -> process          # once per admitted batch, in order
        close()                     # graceful: all batches drained
        abort()                     # forceful: drop in-flight work

    ``admit`` registers the batch's nodes in the graph immediately but
    releases its operations only when every earlier batch has fully
    committed (the boundary rule — see the module docstring).  ``drain``
    returns a process whose value is the oldest undrained batch's
    :class:`~repro.ce.runner.BatchResult`; the batch's boundary work
    (prune, per-batch stats delta, dispatch of the next batch) runs
    inside that process the instant the batch completes.
    ``abort`` discards never-dispatched batches and detaches the session,
    while a batch already dispatched runs to completion in the background
    (its engine-RNG draws belong to the seeded schedule — see
    :meth:`abort`); the worker pool shuts down at that batch's last
    commit, so no process outlives the orphaned work.
    """

    def __init__(self, runner: CERunner, env: Environment,
                 base_state: Mapping[str, Any], default: Any = 0) -> None:
        self._runner = runner
        self.env = env
        self._queue: Store = Store(env)
        #: tx id -> its batch, for commit/abort routing; ids leave the map
        #: at the batch's boundary, so it stays one-to-two batches wide.
        self._routes: Dict[int, _BatchState] = {}
        self.cc = ConcurrencyController(
            base_state, default=default, on_abort=self._on_abort,
            on_commit=self._on_commit)
        runner.last_session = self
        self._cc_gate = Gate(env)
        #: Worker process handles; exposed so teardown tests can assert
        #: none of them outlives the session.
        self.workers = [
            env.process(runner._worker(env, self._queue, self.cc,
                                       self._cc_gate))
            for _ in range(runner.config.executors)
        ]
        #: Dispatched batch currently executing (operations released).
        self._current: Optional[_BatchState] = None
        #: Admitted batches awaiting dispatch, oldest first.
        self._pending: Deque[_BatchState] = deque()
        #: Admitted batches not yet claimed by a drain(), oldest first.
        self._undrained: Deque[_BatchState] = deque()
        self._stats_mark = self.cc.stats.snapshot()
        self._closed = False
        #: Set by abort() when the dispatched batch still has uncommitted
        #: work: it finishes in the background (its RNG draws belong to
        #: the seeded schedule) and the worker shutdown fires when it
        #: completes.  Only the dispatched batch can hold released work.
        self._orphan: Optional[_BatchState] = None

    # -- state inspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ----------------------------------------------------------

    def admit(self, transactions: List[Transaction],
              base_view: Optional[Mapping[str, Any]] = None) -> None:
        """Push one batch into the session.

        Its nodes enter the dependency graph now; its operations are
        released at the previous batch's boundary (immediately when the
        session is idle).  ``base_view``, if given, becomes the
        controller's root at that dispatch boundary — with the committed
        overlay dropped, so the view must already reflect every commit the
        caller wants visible (see the module docstring).
        """
        if self._closed:
            raise SerializationError("admit() on a closed session")
        incoming = list(transactions)
        # Validate before mutating anything, so a rejected batch leaves no
        # ghost routes or pre-begun nodes behind.
        seen: set = set()
        for tx in incoming:
            if tx.tx_id in seen or tx.tx_id in self._routes:
                raise SerializationError(
                    f"duplicate tx id {tx.tx_id} in stream window")
            seen.add(tx.tx_id)
        batch = _BatchState(transactions=incoming, done=self.env.event(),
                            base_view=base_view)
        for tx in batch.transactions:
            batch.by_id[tx.tx_id] = tx
            self._routes[tx.tx_id] = batch
            batch.nodes[tx.tx_id] = self.cc.begin(tx.tx_id, now=self.env.now)
        self._undrained.append(batch)
        if self._current is None:
            self._dispatch(batch)
        else:
            self._pending.append(batch)

    def drain(self):
        """A process whose value is the oldest undrained batch's
        :class:`~repro.ce.runner.BatchResult` (``None`` if the session is
        aborted while the batch is in flight).  Must be requested once per
        admitted batch, in admission order."""
        if not self._undrained:
            raise SerializationError("drain() with no admitted batch")
        return self.env.process(self._drain(self._undrained.popleft()))

    def close(self) -> None:
        """Graceful shutdown once every admitted batch has been drained:
        sends the worker pool its shutdown sentinels."""
        if self._closed:
            raise SerializationError("close() on a closed session")
        if self._undrained or self._current is not None or self._pending:
            raise SerializationError(
                "close() with batches still in flight; drain them first "
                "or abort()")
        self._closed = True
        self._flush_shutdown()

    def abort(self) -> None:
        """Forceful teardown mid-flight (the replica layer's epoch change).

        Admitted-but-undispatched batches are discarded and drains parked
        on them are woken (they return ``None``).  A batch whose
        operations are already released, however, **runs to completion in
        the background** against the detached controller, and a drain
        parked on it wakes (with ``None``) at its last commit.  The reason
        is the frozen digest contract: the orphan's jitter and backoff
        draws come from the engine RNG the next epoch's session shares, so
        cutting them short would shift every later draw, and with it every
        commit-log digest after an epoch change that interrupts a preplay.
        The worker pool receives its shutdown sentinels at that batch's
        completion (immediately when nothing is in flight), so no worker
        process outlives the orphaned work.
        """
        if self._closed:
            return
        self._closed = True
        current, self._current = self._current, None
        if current is not None and current.committed_count < current.total:
            # Released work still running: finishes in the background.
            self._orphan = current
        for batch in self._pending:
            # Never released: wake its drain now.
            batch.done.succeed()
        self._pending.clear()
        self._undrained.clear()
        if self._orphan is None:
            self._flush_shutdown()

    def _flush_shutdown(self) -> None:
        """One sentinel per worker, so every executor — parked or about to
        return to the queue — terminates instead of idling forever.  Only
        called at quiescence (close, or an orphaned batch's completion),
        when nothing else is left in the queue to shadow a sentinel."""
        for _ in self.workers:
            self._queue.put(self._runner._SHUTDOWN)

    # -- internals ----------------------------------------------------------

    def _dispatch(self, batch: _BatchState) -> None:
        """Release the batch's operations to the worker pool."""
        if batch.base_view is not None:
            try:
                self.cc.rebase(batch.base_view)
            except SerializationError:
                # The session is unusable mid-stream: close it and shut
                # the (necessarily idle) pool down.
                self._closed = True
                self._flush_shutdown()
                raise
        self._current = batch
        batch.started_at = self.env.now
        for tx in batch.transactions:
            self._queue.put((tx, batch, batch.nodes.pop(tx.tx_id)))
        if not batch.transactions:
            batch.done.succeed()

    def _drain(self, batch: _BatchState):
        yield batch.done
        if self._closed:
            return None  # aborted before the boundary could run
        return self._boundary(batch)

    def _boundary(self, batch: _BatchState) -> BatchResult:
        """The quiescent-point pass: sample the graph, prune committed
        history, package the batch's result as a per-batch stats delta,
        release the next admitted batch, and return the result."""
        cc = self.cc
        batch.graph_nodes_at_boundary = len(cc.graph.nodes)
        cc.prune_committed()
        stats_now = cc.stats.snapshot()
        result = self._runner._batch_result(
            self.env, cc, batch, self._stats_mark, stats_now)
        self._stats_mark = stats_now
        for tx_id in batch.by_id:
            self._routes.pop(tx_id, None)
        self._current = None
        if self._pending:
            self._dispatch(self._pending.popleft())
        return result

    def _on_abort(self, tx_id: int) -> None:
        # Deliberately NOT gated on the closed flag: an orphaned batch's
        # cascade re-executions must keep flowing (their RNG draws belong
        # to the seeded schedule), and the sentinels only enter the queue
        # once the orphan completes.
        batch = self._routes[tx_id]
        if tx_id not in batch.owned:
            # Cascade-aborted after finalization: nobody owns it.
            batch.re_executions += 1
            self._queue.put((batch.by_id[tx_id], batch, None))

    def _on_commit(self, entry: CommittedTx) -> None:
        batch = self._routes[entry.tx_id]
        batch.latencies[entry.tx_id] = self.env.now \
            - batch.first_start.get(entry.tx_id, batch.started_at)
        batch.committed_count += 1
        if batch.committed_count >= batch.total \
                and not batch.done.triggered:
            batch.done.succeed()
            if batch is self._orphan:
                # An aborted session's batch finished: now the pool can
                # shut down without stranding a re-execution.
                self._orphan = None
                self._flush_shutdown()
