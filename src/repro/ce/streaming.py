"""The execution session: the Concurrent Executor's one engine.

A :class:`StreamSession` owns one pool of ``config.executors`` worker
processes (their work queue and the controller gate) and serves an
open-ended sequence of batches: the caller pushes a batch with
:meth:`~StreamSession.admit`, collects its
:class:`~repro.ce.runner.BatchResult` with :meth:`~StreamSession.drain`,
and finishes with :meth:`~StreamSession.close` (graceful) or
:meth:`~StreamSession.abort` (mid-flight teardown: the replica layer's
epoch change).  Sessions are opened by
:meth:`CERunner.open_session <repro.ce.runner.CERunner.open_session>`; a
replica keeps one per epoch, and
:meth:`CERunner.run_batch <repro.ce.runner.CERunner.run_batch>` is a
session that serves one batch.

One controller per batch
------------------------
``admit(batch, base_view)`` builds the batch its own
:class:`~repro.ce.controller.ConcurrencyController` (hence its own
dependency graph and closure index) over ``base_view``, the state the
batch reads through: a replica hands it that round's speculative overlay
over the committed store.  The controller lives exactly as long as the
batch, so its counters, its commit order (``order_index`` from 0) and
its committed entries are the batch's own, and no state needs resetting
between batches.  ``session.cc`` is the newest batch's controller (for
tests and debugging).

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
commit for it at the same instant with the same engine RNG, because the
worker pool picks up each batch's transactions in admission order and
draws the engine RNG in the same sequence.  Releasing a batch's
operations before the previous boundary would let later work reorder the
earlier batch's schedule; the session gives up that overlap for the
bit-for-bit reproducibility the consensus layer relies on.

Every commit takes its node out of the batch's graph, so at the
boundary the graph is empty; the session checks that with
:meth:`~repro.ce.depgraph.DependencyGraph.prune_committed`, which raises
if some node is left (see "Eviction at commit" in
:mod:`repro.ce.depgraph` and ``docs/REACHABILITY.md``).  Each batch's
:class:`~repro.ce.runner.BatchResult` reports the batch size as
``graph_nodes``, and a replica reports the maximum as
``ce_peak_graph_nodes``.

Usage
-----
One batch at a time, from inside a process (the replica's round loop)::

    session = runner.open_session(env)
    session.admit(batch, view)              # operations released now
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
    workers), with the controller the batch runs through."""

    transactions: List[Transaction]
    done: Any                      # Event: triggered at last commit
    by_id: Dict[int, Transaction]
    cc: ConcurrencyController
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
    """One long-lived execution session: a worker pool serving an
    open-ended sequence of batches, each through its own controller.

    Create through :meth:`CERunner.open_session
    <repro.ce.runner.CERunner.open_session>`.  The lifecycle::

        admit(batch, base_view)     # one batch: operations released now
        drain() -> process          # once per batch, before the next admit
        close()                     # graceful: the batch drained
        abort()                     # forceful: drop the session mid-flight

    ``drain`` returns a process whose value is the batch's
    :class:`~repro.ce.runner.BatchResult`; the batch's boundary (the
    prune and the result) runs inside that process the instant the batch
    completes, and only then may the next batch be admitted (the
    boundary rule — see the module docstring).  ``abort`` detaches
    the session, while a batch with uncommitted work runs to completion
    in the background (its engine-RNG draws belong to the seeded
    schedule — see :meth:`abort`); the worker pool shuts down at that
    batch's last commit, so no process outlives the orphaned work.
    """

    def __init__(self, runner: CERunner, env: Environment,
                 default: Any = 0) -> None:
        self._runner = runner
        self.env = env
        self._default = default
        self._queue: Store = Store(env)
        runner.last_session = self
        self._cc_gate = Gate(env)
        #: Worker process handles; exposed so teardown tests can assert
        #: none of them outlives the session.
        self.workers = [
            env.process(runner._worker(env, self._queue, self._cc_gate))
            for _ in range(runner.config.executors)
        ]
        #: The newest admitted batch's controller (``None`` before the
        #: first admit); tests and debugging read it.
        self.cc: Optional[ConcurrencyController] = None
        #: The admitted batch until its boundary has run: every commit
        #: and abort routes to it.  After abort() it is the orphan that
        #: finishes in the background.
        self._current: Optional[_BatchState] = None
        self._closed = False

    # -- state inspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ----------------------------------------------------------

    def admit(self, transactions: List[Transaction],
              base_view: Mapping[str, Any]) -> None:
        """Start one batch on a fresh controller over ``base_view``: its
        nodes begin and its operations are released now.  Raises
        :class:`SerializationError`, changing nothing, while an earlier
        batch has not passed its boundary (its drain has not returned).
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
        self.cc = cc = ConcurrencyController(
            base_view, self._default, self._on_abort, self._on_commit)
        batch = _BatchState(transactions=incoming, done=self.env.event(),
                            by_id=by_id, cc=cc)
        self._current = batch
        batch.started_at = now = self.env.now
        for tx in incoming:
            self._queue.put((tx, batch, cc.begin(tx.tx_id, now=now)))
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
        the background** on its own controller, and a drain
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
        """The quiescent-point pass: check the batch's graph is empty
        (every commit left it; raises otherwise), free the session for
        the next admit, and return the batch's result."""
        batch.cc.graph.prune_committed()
        self._current = None
        return self._runner._batch_result(self.env, batch)

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
