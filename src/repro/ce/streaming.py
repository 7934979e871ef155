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
A session serves **one batch at a time**.  ``admit`` releases the
batch's operations to the worker pool at once, beginning its nodes
(``cc.begin``) in admission order, and the next ``admit`` is refused
until ``drain`` has returned this batch's result: the batch's
*boundary* runs inside that drain, the instant its last transaction
commits.

That rule makes batch boundaries invisible: a batch served by a live
session commits exactly what a one-batch session (``run_batch``) would
commit for it at the same instant with the same engine RNG.  At each
boundary every node in the graph is committed, so the boundary prune
(below) leaves the controller equivalent to a fresh one, and the worker
pool picks up the next batch's transactions in admission order, drawing
the engine RNG in the same sequence.  Releasing a batch's operations
before the previous boundary would let later writers abort earlier
readers and change the earlier batch's schedule; the session gives up
that overlap for the bit-for-bit reproducibility the consensus layer
relies on.

Base-view switching
-------------------
``admit(batch, base_view=...)`` rebases the controller onto a caller-
supplied root before the batch's nodes begin: the controller's
committed overlay is dropped and root reads fall through to
``base_view`` instead (see :meth:`ConcurrencyController.rebase
<repro.ce.controller.ConcurrencyController.rebase>`).  This is how a
replica runs successive rounds — each against *that round's* speculative
overlay over the committed store — through one session: the replica folds
each round's committed writes into its own overlay (and discards the
overlay when cross-shard commits land), so the fresh view it hands the
next ``admit`` answers every key exactly like the dropped overlay would
have, or deliberately differently when committed state moved underneath.
Rebasing relies on the boundary prune having emptied the graph; omitting
``base_view`` keeps the controller's own overlay accumulating committed
writes.

Committed-node pruning
----------------------
A single graph over an unbounded stream would grow forever.  At every
batch boundary the session calls
:meth:`ConcurrencyController.prune_committed
<repro.ce.controller.ConcurrencyController.prune_committed>`, which
empties the graph (every node in it is the batch's committed attempt)
and resets the reachability index in place, with no rebuild (see
:mod:`repro.ce.depgraph` and ``docs/REACHABILITY.md``).  The graph
therefore never holds more than one batch: each batch's
:class:`~repro.ce.runner.BatchResult` reports its size as
``graph_nodes``, and a replica reports the maximum as
``ce_peak_graph_nodes``.

Usage
-----
One batch at a time, from inside a process (the replica's round loop)::

    session = runner.open_session(env, base_state)
    session.admit(batch, base_view=view)    # operations released now
    result = yield session.drain()          # a BatchResult
    ...                                     # admit/drain more batches
    session.close()                         # shuts the worker pool down
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.ce.controller import CommittedTx, ConcurrencyController
from repro.errors import SerializationError
from repro.sim.environment import Environment
from repro.sim.resources import Gate, Store
from repro.txn import Transaction

if TYPE_CHECKING:
    from repro.ce.runner import BatchResult, CERunner


@dataclass
class _BatchState:
    """Mutable bookkeeping for the session's one batch (``owned`` /
    ``first_start`` / ``re_executions`` are kept by the executing
    workers)."""

    transactions: List[Transaction]
    done: Any                      # Event: triggered at last commit
    by_id: Dict[int, Transaction]
    started_at: float = 0.0
    committed_count: int = 0
    re_executions: int = 0
    #: Set when a drain() claims the batch's result.
    claimed: bool = False
    owned: set = field(default_factory=set)
    first_start: Dict[int, float] = field(default_factory=dict)
    latencies: Dict[int, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.transactions)


class StreamSession:
    """One long-lived execution session: a controller, a dependency graph,
    and a worker pool serving an open-ended sequence of batches.

    Create through :meth:`CERunner.open_session
    <repro.ce.runner.CERunner.open_session>`.  The lifecycle::

        admit(batch[, base_view])   # one batch: operations released now
        drain() -> process          # once per batch, before the next admit
        close()                     # graceful: the batch drained
        abort()                     # forceful: drop the session mid-flight

    ``drain`` returns a process whose value is the batch's
    :class:`~repro.ce.runner.BatchResult`; the batch's boundary work
    (prune, per-batch stats delta) runs inside that process the instant
    the batch completes, and only then may the next batch be admitted
    (the boundary rule — see the module docstring).  ``abort`` detaches
    the session, while a batch with uncommitted work runs to completion
    in the background (its engine-RNG draws belong to the seeded
    schedule — see :meth:`abort`); the worker pool shuts down at that
    batch's last commit, so no process outlives the orphaned work.
    """

    def __init__(self, runner: CERunner, env: Environment,
                 base_state: Mapping[str, Any], default: Any = 0) -> None:
        self._runner = runner
        self.env = env
        self._queue: Store = Store(env)
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
        #: The admitted batch until its boundary has run: every commit
        #: and abort routes to it.  After abort() it is the orphan that
        #: finishes in the background.
        self._current: Optional[_BatchState] = None
        self._stats_mark = self.cc.stats.snapshot()
        self._closed = False

    # -- state inspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ----------------------------------------------------------

    def admit(self, transactions: List[Transaction],
              base_view: Optional[Mapping[str, Any]] = None) -> None:
        """Start one batch: its nodes begin and its operations are
        released now.  Raises :class:`SerializationError`, changing
        nothing, while an earlier batch has not passed its boundary (its
        drain has not returned).  ``base_view``, if given, first becomes
        the controller's root — with the committed overlay dropped, so
        the view must already reflect every commit the caller wants
        visible (see the module docstring).
        """
        if self._closed:
            raise SerializationError("admit() on a closed session")
        if self._current is not None:
            raise SerializationError(
                "admit() before the previous batch's drain returned")
        incoming = list(transactions)
        by_id: Dict[int, Transaction] = {}
        for tx in incoming:
            if tx.tx_id in by_id:
                raise SerializationError(
                    f"duplicate tx id {tx.tx_id} in one batch")
            by_id[tx.tx_id] = tx
        batch = _BatchState(transactions=incoming, done=self.env.event(),
                            by_id=by_id)
        if base_view is not None:
            try:
                self.cc.rebase(base_view)
            except SerializationError:
                # The session is unusable mid-stream: close it and shut
                # the (necessarily idle) pool down.
                self._closed = True
                self._flush_shutdown()
                raise
        self._current = batch
        batch.started_at = now = self.env.now
        for tx in incoming:
            self._queue.put((tx, batch, self.cc.begin(tx.tx_id, now=now)))
        if not incoming:
            batch.done.succeed()

    def drain(self):
        """A process whose value is the admitted batch's
        :class:`~repro.ce.runner.BatchResult` (``None`` if the session is
        aborted while the batch is in flight).  Must be requested once per
        admitted batch."""
        batch = self._current
        if self._closed or batch is None or batch.claimed:
            raise SerializationError("drain() with no admitted batch")
        batch.claimed = True
        return self.env.process(self._drain(batch))

    def close(self) -> None:
        """Graceful shutdown once the admitted batch has been drained:
        sends the worker pool its shutdown sentinels."""
        if self._closed:
            raise SerializationError("close() on a closed session")
        if self._current is not None:
            raise SerializationError(
                "close() with a batch still in flight; drain it first "
                "or abort()")
        self._closed = True
        self._flush_shutdown()

    def abort(self) -> None:
        """Forceful teardown mid-flight (the replica layer's epoch change).

        A batch whose operations are released **runs to completion in
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
        batch = self._current
        if batch is None or batch.committed_count >= batch.total:
            self._flush_shutdown()

    def _flush_shutdown(self) -> None:
        """One sentinel per worker, so every executor — parked or about to
        return to the queue — terminates instead of idling forever.  Only
        called at quiescence (close, or an orphaned batch's completion),
        when nothing else is left in the queue to shadow a sentinel."""
        for _ in self.workers:
            self._queue.put(self._runner._SHUTDOWN)

    # -- internals ----------------------------------------------------------

    def _drain(self, batch: _BatchState):
        yield batch.done
        if self._closed:
            return None  # aborted before the boundary could run
        return self._boundary(batch)

    def _boundary(self, batch: _BatchState) -> BatchResult:
        """The quiescent-point pass: empty the graph, package the batch's
        result as a per-batch stats delta, free the session for the next
        admit, and return the result."""
        cc = self.cc
        cc.prune_committed()
        stats_now = cc.stats.snapshot()
        result = self._runner._batch_result(
            self.env, cc, batch, self._stats_mark, stats_now)
        self._stats_mark = stats_now
        self._current = None
        return result

    def _on_abort(self, tx_id: int) -> None:
        # Deliberately NOT gated on the closed flag: an orphaned batch's
        # cascade re-executions must keep flowing (their RNG draws belong
        # to the seeded schedule), and the sentinels only enter the queue
        # once the orphan completes.
        batch = self._current
        if tx_id not in batch.owned:
            # Cascade-aborted after finalization: nobody owns it.
            batch.re_executions += 1
            self._queue.put((batch.by_id[tx_id], batch, None))

    def _on_commit(self, entry: CommittedTx) -> None:
        batch = self._current
        batch.latencies[entry.tx_id] = self.env.now \
            - batch.first_start.get(entry.tx_id, batch.started_at)
        batch.committed_count += 1
        if batch.committed_count >= batch.total \
                and not batch.done.triggered:
            batch.done.succeed()
            if self._closed:
                # An aborted session's batch finished: now the pool can
                # shut down without stranding a re-execution.
                self._flush_shutdown()
