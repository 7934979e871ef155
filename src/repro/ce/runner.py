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

Every batch runs through a :class:`~repro.ce.streaming.StreamSession`:
one worker pool that may serve a whole stream of batches (a replica keeps
one per epoch), each batch through its own controller and dependency
graph.
:meth:`CERunner.run_batch` is a one-batch session (open, admit, drain,
close) behind the ``run_batch`` interface the baseline runners of
:mod:`repro.baselines` share.

The pacing draws (:func:`op_delay`, :func:`backoff`) are shared with the
baseline runners.  Their expressions and the order in which they draw from
the engine RNG are part of the frozen digest contract: every seeded
schedule, and with it every commit-log digest, depends on them.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.ce.controller import CCStats, CommittedTx
from repro.ce.streaming import StreamSession, _BatchState
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
    #: Dependency-graph nodes the batch's graph held over its life: the
    #: batch size, since a session's graph holds one batch (each commit
    #: leaves it, so it is empty at the boundary).  Baseline engines
    #: leave it 0.
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


def op_delay(config: CEConfig, rng: Random) -> float:
    """Simulated compute of one contract operation: ``op_cost`` with a
    relative ``jitter`` (one ``uniform`` draw when jitter is on)."""
    jitter = config.jitter
    if jitter == 0:
        return config.op_cost
    return config.op_cost * (1.0 + rng.uniform(-jitter, jitter))


def backoff(config: CEConfig, rng: Random, attempt: int) -> float:
    """The wait before re-executing after ``attempt`` failed attempts:
    linear up to 8 attempts, stretched by one ``random`` draw when jitter
    is on."""
    base = config.restart_delay * min(attempt, 8)
    if config.jitter == 0:
        return base
    return base * (1.0 + rng.random())


class CERunner:
    """Runs transactions through the Concurrent Executor, one
    :class:`~repro.ce.streaming.StreamSession` per batch stream."""

    _SHUTDOWN = object()

    def __init__(self, registry: ContractRegistry, config: CEConfig,
                 rng: Random) -> None:
        self.registry = registry
        self.config = config
        self._rng = rng
        #: The most recently opened session, live or closed (tests and
        #: debugging read its ``cc``, ``workers`` and ``closed``).
        self.last_session: Optional[StreamSession] = None

    def open_session(self, env: Environment,
                     default: Any = 0) -> StreamSession:
        """Open a :class:`~repro.ce.streaming.StreamSession`: the
        open-ended admit/drain/close interface over one worker pool
        (missing keys read ``default`` in every batch)."""
        return StreamSession(self, env, default)

    def run_batch(self, env: Environment, transactions: List[Transaction],
                  base_state: Mapping[str, Any], default: Any = 0):
        """Start the batch as a process; its value is a :class:`BatchResult`.

        The batch runs as a one-batch session: open, admit, drain, close.
        Usage from another process: ``result = yield runner.run_batch(...)``.
        Standalone: ``proc = runner.run_batch(...); env.run(); proc.value``.
        """
        return env.process(self._run_batch(env, list(transactions),
                                           base_state, default))

    # ------------------------------------------------------------ internals

    def _run_batch(self, env: Environment, transactions: List[Transaction],
                   base_state: Mapping[str, Any], default: Any):
        session = self.open_session(env, default)
        session.admit(transactions, base_state)
        result = yield session.drain()
        session.close()
        return result

    def _worker(self, env: Environment, queue: Store, cc_gate: Gate):
        while True:
            item = yield queue.get()
            if item is self._SHUTDOWN:
                return
            tx, batch, node = item
            yield from self._execute(env, tx, cc_gate, batch, node)

    def _execute(self, env: Environment, tx: Transaction, cc_gate: Gate,
                 batch: _BatchState, node=None):
        """Drive one transaction to finalization, re-executing on aborts.

        ``batch`` is the transaction's batch: its controller and its
        bookkeeping (``owned`` / ``first_start`` / ``re_executions``).
        ``node`` carries the first attempt's node, begun when the session
        admitted the batch (``None`` for a cascade-aborted transaction
        the session requeues).
        """
        config = self.config
        rng = self._rng
        cc = batch.cc
        body = self.registry.get(tx.contract)
        attempt = 0
        while True:
            attempt += 1
            if attempt > config.max_attempts:
                raise SerializationError(
                    f"transaction {tx.tx_id} exceeded "
                    f"{config.max_attempts} attempts (livelock?)")
            batch.owned.add(tx.tx_id)
            batch.first_start.setdefault(tx.tx_id, env.now)
            if node is None:
                node = cc.begin(tx.tx_id, now=env.now)
            generator = body(*tx.args)
            try:
                op = next(generator)
                while True:
                    yield env.timeout(op_delay(config, rng))
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
                batch.owned.discard(tx.tx_id)
                if aborted_at_finish:
                    batch.re_executions += 1
                    node = None
                    yield env.timeout(backoff(config, rng, attempt))
                    continue
                break
            except TransactionAborted:
                batch.owned.discard(tx.tx_id)
                batch.re_executions += 1
                node = None
                yield env.timeout(backoff(config, rng, attempt))
                continue

    @staticmethod
    def _batch_result(env: Environment, batch: _BatchState) -> BatchResult:
        """Package one completed batch from its own controller: its
        commits in order (indexes from 0) and its counters."""
        cc = batch.cc
        return BatchResult(
            committed=cc.committed,
            elapsed=env.now - batch.started_at if batch.total else 0.0,
            started_at=batch.started_at if batch.total else env.now,
            finished_at=env.now,
            re_executions=batch.re_executions,
            latencies=dict(batch.latencies),
            stats=cc.stats,
            graph_nodes=batch.total,
        )
