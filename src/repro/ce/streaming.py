"""Streaming multi-batch execution: a long-lived Concurrent Executor.

The paper's evaluation runs batch-at-a-time: build an executor pool, run one
batch through a fresh :class:`~repro.ce.controller.ConcurrencyController`,
tear everything down, repeat.  A production deployment serves a *stream* —
batch after batch against the same state — and rebuilding the world between
batches throws away the executor pool, the dependency graph's closure
bitsets, and the committed overlay every few milliseconds of simulated
time.  This module keeps all three alive, in two layers:

* :class:`StreamSession` — the open-ended core.  One session owns one
  :class:`~repro.ce.controller.ConcurrencyController` (hence one dependency
  graph + closure index) and one pool of ``config.executors`` worker
  processes; the caller pushes batches one at a time with
  :meth:`~StreamSession.admit`, collects each batch's
  :class:`~repro.ce.runner.BatchResult` with :meth:`~StreamSession.drain`,
  and finishes with :meth:`~StreamSession.close` (graceful, returns the
  :class:`StreamResult`) or :meth:`~StreamSession.abort` (mid-flight
  teardown — the replica layer's epoch change).  Because ``admit`` takes an
  optional per-batch ``base_view``, a caller that owns state evolution
  between batches (a shard proposer preplaying round after round against
  its speculative overlay) can run every round through one session instead
  of one throwaway engine call per round.
* :class:`StreamingRunner` — the pre-decided-iterable convenience kept
  from PR 2, now reimplemented *on top of* the session:
  :meth:`~StreamingRunner.run_stream` admits batches from the iterable one
  ahead of execution and drains them in order.  Its per-batch committed
  results remain byte-identical to batch-at-a-time
  :meth:`CERunner.run_batch <repro.ce.runner.CERunner.run_batch>` calls.

Pipelining and the equivalence guarantee
----------------------------------------
A batch's nodes are **admitted into the dependency graph the moment the
caller calls ``admit``** — typically while the previous batch is still
running and draining.  Admission is deliberately limited to node creation
(``cc.begin``): an admitted node carries no records and no edges, so it
cannot influence any concurrency-control decision for the in-flight batch.
A batch's *operations* are released (dispatched to the worker pool) only
when every earlier batch's last transaction has committed.

That release rule is what makes the committed execution order of every
batch **byte-identical** to running the same batches through
:meth:`CERunner.run_batch <repro.ce.runner.CERunner.run_batch>` one at a
time (same ``Environment``, same runner, same RNG): at each boundary the
graph is quiescent — every node either committed or still edge-less — so
pruning the committed history (below) leaves the controller equivalent to
the fresh controller the batch-at-a-time path would build, and the worker
pool picks up the new batch's transactions in the same order, drawing the
shared RNG in the same sequence.  Releasing operations *before* the
boundary would let later writers abort earlier readers and change the
earlier batch's schedule; the session trades that last sliver of overlap
for a bit-for-bit reproducibility guarantee the consensus layer relies on.

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
Rebasing requires the boundary prune to have emptied the graph of
recorded nodes, so it is only available with pruning enabled (the
default); omitting ``base_view`` keeps the classic streaming semantics
where the controller's own overlay accumulates committed writes.

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
length.  :class:`StreamResult` records the node count before and after
each boundary prune so benchmarks can assert the plateau
(``benchmarks/bench_streaming_runner.py`` does exactly that; pass
``prune=False`` to see the unbounded alternative).  Eviction leaves the
reachability index valid (victims are closure-isolated, so pruning just
punches serial holes in place); the index schedules a compacting rebuild
only when holes come to outnumber live serials, so a long stream pays a
rebuild every few batches instead of one per boundary — and mid-batch
aborts pay none at all (see ``docs/REACHABILITY.md``).

Usage
-----
Pre-decided iterable (the PR-2 API)::

    runner = StreamingRunner(registry, CEConfig(executors=8), make_rng(0))
    proc = runner.run_stream(env, batches, base_state)
    env.run()
    result = proc.value                     # a StreamResult
    [b.order for b in result.batches]       # per-batch committed orders

Open-ended session (one batch at a time, from inside a process)::

    session = runner.open_session(env, base_state)
    session.admit(batch, base_view=view)    # nodes enter the graph now
    result = yield session.drain()          # a BatchResult
    ...                                     # admit/drain more batches
    stream_result = session.close()         # shuts the worker pool down
"""

from __future__ import annotations

from random import Random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional

from repro.ce.controller import CCStats, CommittedTx, ConcurrencyController
from repro.ce.runner import BatchResult, CEConfig, CERunner
from repro.contracts.contract import ContractRegistry
from repro.errors import SerializationError
from repro.sim.environment import Environment
from repro.sim.resources import Gate, Store
from repro.txn import Transaction


@dataclass
class StreamResult:
    """Everything one streamed run produces.

    ``graph_nodes_pre_prune[k]`` / ``graph_nodes_post_prune[k]`` sample the
    dependency graph's node count at batch ``k``'s boundary, immediately
    before and after the pruning pass — the pre-prune series is the
    bounded-memory evidence (it plateaus instead of growing with ``k``).
    """

    batches: List[BatchResult]
    graph_nodes_pre_prune: List[int]
    graph_nodes_post_prune: List[int]
    pruned_per_batch: List[int]
    stats: CCStats
    started_at: float
    finished_at: float

    @property
    def committed_count(self) -> int:
        return sum(len(batch.committed) for batch in self.batches)

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second over the stream."""
        if self.elapsed <= 0:
            return 0.0
        return self.committed_count / self.elapsed

    @property
    def peak_graph_nodes(self) -> int:
        return max(self.graph_nodes_pre_prune, default=0)

    def orders(self) -> List[List[int]]:
        """Per-batch committed execution orders (tx ids)."""
        return [batch.order for batch in self.batches]


@dataclass
class _BatchState:
    """Mutable bookkeeping for one in-flight batch; presents the ``owned``
    / ``first_start`` / ``re_executions`` interface `CERunner._execute`
    expects."""

    index: int
    transactions: List[Transaction]
    done: Any                      # Event: triggered at last commit
    #: Root the controller is rebased onto when this batch dispatches;
    #: ``None`` keeps the previous root and the accumulated overlay.
    base_view: Optional[Mapping[str, Any]] = None
    started_at: float = 0.0
    committed_count: int = 0
    re_executions: int = 0
    graph_nodes_at_boundary: int = 0
    #: Filled by the boundary pass once the batch completes.
    result: Optional[BatchResult] = None
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

    Create through :meth:`StreamingRunner.open_session`.  The lifecycle::

        admit(batch[, base_view])   # any number of times, pipelined
        drain() -> process          # once per admitted batch, in order
        close() -> StreamResult     # graceful: all batches drained
        abort()                     # forceful: drop in-flight work

    ``admit`` registers the batch's nodes in the graph immediately but
    releases its operations only when every earlier batch has fully
    committed (the equivalence-preserving boundary rule — see the module
    docstring).  ``drain`` returns a process whose value is the oldest
    undrained batch's :class:`~repro.ce.runner.BatchResult`; the batch's
    boundary work (prune, per-batch stats delta, dispatch of the next
    batch) runs inside that process the instant the batch completes.
    ``abort`` discards never-dispatched batches and detaches the session,
    while a batch already dispatched runs to completion in the background
    (mirroring the per-round engine's doomed ``run_batch`` for RNG
    parity — see :meth:`abort`); the worker pool shuts down at that
    batch's last commit, so no process outlives the orphaned work.
    """

    def __init__(self, runner: "StreamingRunner", env: Environment,
                 base_state: Mapping[str, Any], default: Any = 0,
                 record_history: bool = True) -> None:
        self._runner = runner
        self.env = env
        self.started_at = env.now
        #: When False, boundary passes skip accumulating per-batch results
        #: and graph-size samples for close() — required for open-ended
        #: sessions (a replica epoch has no close(); retaining every
        #: round's BatchResult would grow without bound).  The caller
        #: still receives each result from drain(), and the cumulative
        #: CCStats in close()'s StreamResult stay exact.
        self._record_history = record_history
        self._queue: Store = Store(env)
        #: tx id -> its batch, for commit/abort routing; ids leave the map
        #: at the batch's boundary, so it stays one-to-two batches wide.
        self._routes: Dict[int, _BatchState] = {}
        self.cc = ConcurrencyController(
            base_state, default=default, on_abort=self._on_abort,
            on_commit=self._on_commit)
        runner.last_cc = self.cc
        self._cc_gate = Gate(env)
        #: Worker process handles; exposed so teardown tests can assert
        #: none of them outlives the session.
        self.workers = [
            env.process(runner._stream_worker(env, self._queue, self.cc,
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
        self._next_index = 0
        self._closed = False
        #: Set by abort() when the dispatched batch still has uncommitted
        #: work: it finishes in the background (RNG parity with the
        #: per-round engine) and the worker shutdown fires when it
        #: completes.  Only the dispatched batch can hold released work.
        self._orphan: Optional[_BatchState] = None
        # Stream-level accounting for the StreamResult.
        self._results: List[BatchResult] = []
        self._pre_prune: List[int] = []
        self._post_prune: List[int] = []
        self._pruned: List[int] = []

    # -- state inspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_flight(self) -> int:
        """Admitted batches whose ``drain()`` has not been requested yet."""
        return len(self._undrained)

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
        if base_view is not None and not self._runner.prune:
            # Rebasing needs the boundary prune to have emptied the graph;
            # failing here keeps the error at the call site instead of
            # surfacing from cc.rebase() inside a later drain process.
            raise SerializationError(
                "base_view switching requires pruning (prune=True)")
        incoming = list(transactions)
        # Validate before mutating anything, so a rejected batch leaves no
        # ghost routes or pre-begun nodes behind.
        seen: set = set()
        for tx in incoming:
            if tx.tx_id in seen or tx.tx_id in self._routes:
                raise SerializationError(
                    f"duplicate tx id {tx.tx_id} in stream window")
            seen.add(tx.tx_id)
        batch = _BatchState(index=self._next_index, transactions=incoming,
                            done=self.env.event(), base_view=base_view)
        self._next_index += 1
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

    def close(self) -> StreamResult:
        """Graceful shutdown once every admitted batch has been drained:
        sends the worker pool its shutdown sentinels and packages the
        whole session's :class:`StreamResult`."""
        if self._closed:
            raise SerializationError("close() on a closed session")
        if self._undrained or self._current is not None or self._pending:
            raise SerializationError(
                "close() with batches still in flight; drain them first "
                "or abort()")
        stats = self.cc.stats.snapshot()
        self._detach()
        self._flush_shutdown()
        return StreamResult(
            batches=self._results,
            graph_nodes_pre_prune=self._pre_prune,
            graph_nodes_post_prune=self._post_prune,
            pruned_per_batch=self._pruned,
            stats=stats,
            started_at=self.started_at,
            finished_at=self.env.now,
        )

    def abort(self) -> None:
        """Forceful teardown mid-flight (the replica layer's epoch change).

        Admitted-but-undispatched batches are discarded and drains parked
        on them are woken (they return ``None``).  A batch whose
        operations are already released, however, **runs to completion in
        the background** against the detached controller, exactly like
        the per-round engine's doomed ``run_batch`` does when a
        reconfiguration lands mid-preplay: both paths draw the identical
        jitter/backoff sequence from the shared engine RNG, and a drain
        parked on that batch wakes (with ``None``) at its last commit —
        the very instant the per-round path's round loop would unblock.
        That is what keeps ``engine="ce-streaming"`` byte-identical to
        ``engine="ce"`` even through an epoch change that interrupts a
        preplay.  The worker pool receives its shutdown sentinels at that
        batch's completion (immediately when nothing is in flight), so no
        worker process outlives the orphaned work.
        """
        if self._closed:
            return
        self._detach()
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

    def _detach(self) -> None:
        """Mark the session dead and drop the runner's live-controller
        pointer: post-run stat reads must not see a dead controller's
        counters as if they were live."""
        self._closed = True
        if self._runner.last_cc is self.cc:
            self._runner.last_cc = None

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
                # The session is unusable mid-stream: detach so post-run
                # stat probes never read the dead controller as live, and
                # shut the (necessarily idle) pool down.
                self._detach()
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
        self._boundary(batch)
        return batch.result

    def _boundary(self, batch: _BatchState) -> None:
        """The quiescent-point pass: sample the graph, prune committed
        history, package the batch's result as a per-batch stats delta,
        and release the next admitted batch."""
        cc = self.cc
        batch.graph_nodes_at_boundary = len(cc.graph.nodes)
        pruned = cc.prune_committed() if self._runner.prune else 0
        nodes_after_prune = len(cc.graph.nodes)
        stats_now = cc.stats.snapshot()
        batch.result = self._runner._batch_result(
            self.env, cc, batch, self._stats_mark, stats_now)
        self._stats_mark = stats_now
        if self._record_history:
            self._pre_prune.append(batch.graph_nodes_at_boundary)
            self._pruned.append(pruned)
            self._post_prune.append(nodes_after_prune)
            self._results.append(batch.result)
        for tx_id in batch.by_id:
            self._routes.pop(tx_id, None)
        self._current = None
        if self._pending:
            self._dispatch(self._pending.popleft())

    def _on_abort(self, tx_id: int) -> None:
        # Deliberately NOT gated on the closed flag: an orphaned batch's
        # cascade re-executions must keep flowing (the per-round engine
        # would re-run them too — RNG parity), and the sentinels only
        # enter the queue once the orphan completes.
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


class StreamingRunner(CERunner):
    """Feeds a continuous stream of transaction batches into one long-lived
    Concurrent Executor (see the module docstring for the semantics)."""

    def __init__(self, registry: ContractRegistry, config: CEConfig,
                 rng: Random, prune: bool = True) -> None:
        super().__init__(registry, config, rng)
        self.prune = prune
        #: The live session's controller, for stat probes while a stream
        #: runs; reset to ``None`` at session close/abort so a post-run
        #: read can never mistake a dead controller's counters for live
        #: ones.
        self.last_cc: Optional[ConcurrencyController] = None

    def open_session(self, env: Environment,
                     base_state: Mapping[str, Any],
                     default: Any = 0,
                     record_history: bool = True) -> StreamSession:
        """Open a :class:`StreamSession`: the open-ended admit/drain/close
        interface over one long-lived controller and worker pool.

        Pass ``record_history=False`` for sessions of unbounded lifetime
        whose caller consumes each ``drain()`` result and never wants the
        per-batch lists in ``close()``'s :class:`StreamResult` — retaining
        them would grow with every batch served.
        """
        return StreamSession(self, env, base_state, default,
                             record_history=record_history)

    def run_stream(self, env: Environment,
                   batches: Iterable[List[Transaction]],
                   base_state: Mapping[str, Any], default: Any = 0):
        """Start the stream as a process; its value is a
        :class:`StreamResult`.

        ``batches`` may be any iterable (including a generator producing
        batches lazily); it is pulled one batch ahead of execution so the
        next batch can be admitted into the graph while the current one
        drains.
        """
        return env.process(self._run_stream(env, batches, base_state,
                                            default))

    # ------------------------------------------------------------ internals

    def _run_stream(self, env: Environment,
                    batches: Iterable[List[Transaction]],
                    base_state: Mapping[str, Any], default: Any):
        session = self.open_session(env, base_state, default)
        source = iter(batches)

        def admit_next() -> bool:
            try:
                transactions = list(next(source))
            except StopIteration:
                return False
            session.admit(transactions)
            return True

        if admit_next():      # batch 0 dispatches immediately
            admit_next()      # batch 1 rides admitted while 0 drains
        while session.in_flight:
            yield session.drain()
            admit_next()
        return session.close()

    def _stream_worker(self, env: Environment, queue: Store,
                       cc: ConcurrencyController, cc_gate: Gate):
        while True:
            item = yield queue.get()
            if item is self._SHUTDOWN:
                return
            tx, batch, node = item
            yield from self._execute(env, tx, cc, cc_gate, batch, node=node)

    @staticmethod
    def _batch_result(env: Environment, cc: ConcurrencyController,
                      batch: _BatchState, before: CCStats,
                      after: CCStats) -> BatchResult:
        """Package one completed batch exactly like the batch-at-a-time
        runner would: entries rebased to batch-local order indexes, stats
        as the delta accumulated while the batch ran (so a metrics layer
        folding per-batch stats never double-counts the long-lived
        controller's cumulative counters).  At a boundary the
        controller's harvest buffer holds exactly this batch's commits."""
        base = after.commits - batch.committed_count
        committed = [replace(entry, order_index=entry.order_index - base)
                     for entry in cc.harvest_committed()]
        return BatchResult(
            committed=committed,
            elapsed=env.now - batch.started_at if batch.total else 0.0,
            started_at=batch.started_at if batch.total else env.now,
            finished_at=env.now,
            re_executions=batch.re_executions,
            latencies=dict(batch.latencies),
            stats=after.delta(before),
            graph_nodes=batch.graph_nodes_at_boundary,
        )
