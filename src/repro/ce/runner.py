"""The Concurrent Executor: a pool of simulated executors driving the CC.

Figure 7 of the paper: a set of executors execute transactions while the
concurrency controller arranges them in a dependency graph.  Here each
executor is a DES process; contract operations cost simulated compute time,
and every controller access serializes through a capacity-1 gate with
its own small cost — the central-controller bottleneck that shapes the
Fig. 11 executor-scaling curves.

Aborted transactions are re-executed: a running transaction retries in its
own executor (after a short backoff); a transaction that had already entered
finalization and is cascade-aborted later re-enters the work queue.

When the batch completes, one shutdown sentinel per worker is flushed into
the queue so executors blocked on ``get()`` terminate instead of idling
forever — important when many batches share one long-lived environment.

This runner is batch-at-a-time: every call to :meth:`CERunner.run_batch`
builds a fresh controller (and dependency graph) and a fresh worker pool.
The per-transaction execute/abort/re-execute loop lives in
:meth:`CERunner._execute` so :class:`repro.ce.streaming.StreamingRunner`
— which keeps one controller and one pool alive across a whole stream of
batches, pruning committed nodes at each boundary — drives transactions
through the identical code path.  The streaming runner's per-batch
committed results are byte-identical to this runner's (a property the
tests and ``benchmarks/bench_streaming_runner.py`` assert), so the two
are interchangeable wherever batches arrive sequentially.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.ce.controller import CCStats, CommittedTx, ConcurrencyController
from repro.contracts.contract import ContractRegistry
from repro.contracts.ops import ReadOp, WriteOp
from repro.errors import ConfigError, ContractError, SerializationError, \
    TransactionAborted
from repro.sim.environment import Environment
from repro.sim.resources import Gate, Store
from repro.txn import Transaction


@dataclass(frozen=True)
class CEConfig:
    """Timing and sizing of the executor pool.

    The defaults are calibrated so a 16-executor pool over SmallBank lands
    in the tens-of-kTPS range of Fig. 11 (simulated time); only ratios
    matter for the reproduced shapes.
    """

    executors: int = 16
    op_cost: float = 5e-6          # simulated compute per contract operation
    cc_cost: float = 1.0e-6        # serialized controller access per op
    restart_delay: float = 1e-5    # backoff before a re-execution
    jitter: float = 0.10           # relative op-cost jitter (interleaving)
    max_attempts: int = 1000       # livelock safety valve

    def __post_init__(self) -> None:
        if self.executors < 1:
            raise ConfigError(f"executors must be >= 1: {self.executors}")
        if self.op_cost < 0 or self.cc_cost < 0 or self.restart_delay < 0:
            raise ConfigError("costs must be non-negative")
        if not 0 <= self.jitter < 1:
            raise ConfigError(f"jitter must be in [0, 1): {self.jitter}")


@dataclass
class BatchResult:
    """Everything a preplay run produces, plus the measurements Fig. 11
    reports."""

    committed: List[CommittedTx]
    elapsed: float
    started_at: float
    finished_at: float
    re_executions: int
    latencies: Dict[int, float]
    stats: CCStats
    #: Dependency-graph node count when the batch completed (for the
    #: streaming runner: before the boundary prune, so it includes the
    #: next batch's admitted nodes).  Baseline engines leave it 0.
    graph_nodes: int = 0

    @property
    def order(self) -> List[int]:
        """The serialized execution order (tx ids)."""
        return [entry.tx_id for entry in self.committed]

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        if self.elapsed <= 0:
            return 0.0
        return len(self.committed) / self.elapsed

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies.values()) / len(self.latencies)

    @property
    def re_executions_per_tx(self) -> float:
        """Average number of re-executions per transaction (Fig. 11 right)."""
        if not self.committed:
            return 0.0
        return self.re_executions / len(self.committed)

    def final_writes(self) -> Dict[str, Any]:
        """Last committed value per key (appliable to storage)."""
        writes: Dict[str, Any] = {}
        for entry in self.committed:
            writes.update(entry.write_set)
        return writes


class CERunner:
    """Runs batches of transactions through the Concurrent Executor."""

    _SHUTDOWN = object()

    def __init__(self, registry: ContractRegistry, config: CEConfig,
                 rng: Random) -> None:
        self.registry = registry
        self.config = config
        self._rng = rng

    def run_batch(self, env: Environment, transactions: List[Transaction],
                  base_state: Mapping[str, Any], default: Any = 0):
        """Start the batch as a process; its value is a :class:`BatchResult`.

        Usage from another process: ``result = yield runner.run_batch(...)``.
        Standalone: ``proc = runner.run_batch(...); env.run(); proc.value``.
        """
        return env.process(self._run(env, list(transactions), base_state,
                                     default))

    # ------------------------------------------------------------ internals

    def _run(self, env: Environment, transactions: List[Transaction],
             base_state: Mapping[str, Any], default: Any):
        if not transactions:
            stats = CCStats()
            return BatchResult(committed=[], elapsed=0.0, started_at=env.now,
                               finished_at=env.now, re_executions=0,
                               latencies={}, stats=stats)
        state = _RunState(env=env, total=len(transactions))
        queue: Store = Store(env)
        by_id: Dict[int, Transaction] = {}
        for tx in transactions:
            if tx.tx_id in by_id:
                raise SerializationError(
                    f"duplicate tx id {tx.tx_id} in batch")
            by_id[tx.tx_id] = tx
            queue.put(tx)

        def on_abort(tx_id: int) -> None:
            # Cascade-aborted after finalization: nobody owns it; requeue.
            if tx_id not in state.owned:
                state.re_executions += 1
                queue.put(by_id[tx_id])

        def on_commit(entry: CommittedTx) -> None:
            state.latencies[entry.tx_id] = env.now - state.first_start.get(
                entry.tx_id, state.started_at)
            if cc.committed_count() >= state.total and not state.done.triggered:
                state.done.succeed()

        cc = ConcurrencyController(base_state, default=default,
                                   on_abort=on_abort, on_commit=on_commit)
        state.cc = cc
        self.last_state = state  # exposed for tests / debugging
        cc_gate = Gate(env)
        workers = min(self.config.executors, len(transactions))
        for _ in range(workers):
            state.workers.append(
                env.process(self._worker(env, queue, cc, cc_gate, state)))
        state.started_at = env.now
        yield state.done
        # Wake every executor still blocked on queue.get() so the pool
        # terminates cleanly: workers busy at done-time exit through the
        # loop condition instead and leave their sentinel in the store.
        for _ in range(workers):
            queue.put(self._SHUTDOWN)
        return BatchResult(
            committed=cc.committed,
            elapsed=env.now - state.started_at,
            started_at=state.started_at,
            finished_at=env.now,
            re_executions=state.re_executions,
            latencies=dict(state.latencies),
            stats=cc.stats,
            graph_nodes=len(cc.graph.nodes),
        )

    def _worker(self, env: Environment, queue: Store,
                cc: ConcurrencyController, cc_gate: Gate,
                state: "_RunState"):
        while not state.done.triggered:
            item = yield queue.get()
            if item is self._SHUTDOWN:
                return
            yield from self._execute(env, item, cc, cc_gate, state)

    def _execute(self, env: Environment, tx: Transaction,
                 cc: ConcurrencyController, cc_gate: Gate,
                 book, node=None):
        """Drive one transaction to finalization, re-executing on aborts.

        ``book`` is the mutable bookkeeping for the transaction's batch
        (``owned`` / ``first_start`` / ``re_executions``) — the whole run's
        :class:`_RunState` here, a per-batch state in the streaming runner.
        ``node`` optionally carries a pre-begun first attempt (the
        streaming runner admits a batch's nodes into the graph before its
        operations are released).
        """
        config = self.config
        body = self.registry.get(tx.contract)
        attempt = 0
        while True:
            attempt += 1
            if attempt > config.max_attempts:
                raise SerializationError(
                    f"transaction {tx.tx_id} exceeded "
                    f"{config.max_attempts} attempts (livelock?)")
            book.owned.add(tx.tx_id)
            book.first_start.setdefault(tx.tx_id, env.now)
            if node is None:
                node = cc.begin(tx.tx_id, now=env.now)
            generator = body(*tx.args)
            try:
                op = next(generator)
                while True:
                    yield env.timeout(self._op_delay())
                    slot = cc_gate.hold(config.cc_cost)
                    yield slot
                    try:
                        if isinstance(op, ReadOp):
                            value = cc.read(node, op.key)
                        elif isinstance(op, WriteOp):
                            cc.write(node, op.key, op.value)
                            value = None
                        else:
                            raise ContractError(
                                f"contract yielded non-operation {op!r}")
                    finally:
                        cc_gate.done(slot)
                    op = generator.send(value)
            except StopIteration as stop:
                slot = cc_gate.hold(0.0)
                yield slot
                aborted_at_finish = False
                try:
                    cc.finish(node, result=stop.value, now=env.now)
                except TransactionAborted:
                    aborted_at_finish = True
                finally:
                    cc_gate.done(slot)
                book.owned.discard(tx.tx_id)
                if aborted_at_finish:
                    book.re_executions += 1
                    node = None
                    yield env.timeout(self._backoff(attempt))
                    continue
                break
            except TransactionAborted:
                book.owned.discard(tx.tx_id)
                book.re_executions += 1
                node = None
                yield env.timeout(self._backoff(attempt))
                continue

    def _op_delay(self) -> float:
        jitter = self.config.jitter
        if jitter == 0:
            return self.config.op_cost
        factor = 1.0 + self._rng.uniform(-jitter, jitter)
        return self.config.op_cost * factor

    def _backoff(self, attempt: int) -> float:
        base = self.config.restart_delay * min(attempt, 8)
        if self.config.jitter == 0:
            return base
        return base * (1.0 + self._rng.random())


@dataclass
class _RunState:
    """Mutable bookkeeping shared between the pool's processes."""

    env: Environment
    total: int
    started_at: float = 0.0
    re_executions: int = 0
    owned: set = field(default_factory=set)
    first_start: Dict[int, float] = field(default_factory=dict)
    latencies: Dict[int, float] = field(default_factory=dict)
    cc: Optional[ConcurrencyController] = None
    done: Any = None
    #: Worker process handles; all of them are triggered (terminated) once
    #: the batch completes and the shutdown sentinels have drained.
    workers: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.done = self.env.event()
