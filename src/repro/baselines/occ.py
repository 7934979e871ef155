"""Optimistic Concurrency Control baseline (§11.1).

Faithful to the paper's description: each executor runs its transaction
locally, pulling values (with versions) from storage on first read and
buffering writes; on completion the updated values go to a *central
verifier* which cross-checks the read versions against the current storage
versions.  A mismatch rejects the commit and the transaction re-executes.

The verifier is a capacity-1 gate — the serialization point whose cost
shapes OCC's executor-scaling curve in Fig. 11.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.ce.controller import CCStats, CommittedTx
from repro.ce.runner import BatchResult, CEConfig, backoff, op_delay
from repro.contracts.contract import ContractRegistry
from repro.contracts.ops import ReadOp, WriteOp
from repro.errors import ContractError, SerializationError
from repro.sim.environment import Environment
from repro.sim.resources import Gate, Store
from repro.txn import Transaction


@dataclass
class _VersionedState:
    """Committed state with per-key versions (the LevelDB role)."""

    base: Mapping[str, Any]
    default: Any
    values: Dict[str, Any] = field(default_factory=dict)
    versions: Dict[str, int] = field(default_factory=dict)

    def read(self, key: str) -> tuple:
        if key in self.values:
            return self.values[key], self.versions[key]
        return self.base.get(key, self.default), 0

    def version(self, key: str) -> int:
        return self.versions.get(key, 0)

    def apply(self, writes: Dict[str, Any]) -> None:
        for key, value in writes.items():
            self.values[key] = value
            self.versions[key] = self.versions.get(key, 0) + 1


class OCCRunner:
    """Kung-Robinson style OCC with a central verifier."""

    def __init__(self, registry: ContractRegistry, config: CEConfig,
                 rng: random.Random, verify_cost_per_op: float = 1.0e-6) -> None:
        self.registry = registry
        self.config = config
        self.verify_cost_per_op = verify_cost_per_op
        self._rng = rng

    def run_batch(self, env: Environment, transactions: List[Transaction],
                  base_state: Mapping[str, Any], default: Any = 0):
        return env.process(self._run(env, list(transactions), base_state,
                                     default))

    def _run(self, env: Environment, transactions: List[Transaction],
             base_state: Mapping[str, Any], default: Any):
        if not transactions:
            return BatchResult(committed=[], elapsed=0.0, started_at=env.now,
                               finished_at=env.now, re_executions=0,
                               latencies={}, stats=CCStats())
        state = _VersionedState(base=base_state, default=default)
        queue: Store = Store(env)
        for tx in transactions:
            queue.put(tx)
        shared = {
            "committed": [], "latencies": {}, "first_start": {},
            "re_executions": 0, "order": 0, "done": env.event(),
            "total": len(transactions), "stats": CCStats(),
        }
        verifier = Gate(env)
        started_at = env.now
        workers = min(self.config.executors, len(transactions))
        for _ in range(workers):
            env.process(self._worker(env, queue, state, verifier, shared))
        yield shared["done"]
        return BatchResult(
            committed=shared["committed"], elapsed=env.now - started_at,
            started_at=started_at, finished_at=env.now,
            re_executions=shared["re_executions"],
            latencies=shared["latencies"], stats=shared["stats"])

    def _worker(self, env: Environment, queue: Store,
                state: _VersionedState, verifier: Gate, shared: Dict):
        config = self.config
        while not shared["done"].triggered:
            # Simulated worker: once "done" triggers, a process parked on
            # the drained Store is inert — the DES run ends regardless.
            tx = yield queue.get()  # reprolint: disable=C303
            body = self.registry.get(tx.contract)
            attempt = 0
            while True:
                attempt += 1
                if attempt > config.max_attempts:
                    raise SerializationError(
                        f"OCC transaction {tx.tx_id} exceeded "
                        f"{config.max_attempts} attempts")
                shared["first_start"].setdefault(tx.tx_id, env.now)
                read_versions: Dict[str, int] = {}
                read_set: Dict[str, Any] = {}
                write_set: Dict[str, Any] = {}
                generator = body(*tx.args)
                result = None
                try:
                    op = next(generator)
                    while True:
                        yield env.timeout(op_delay(self.config, self._rng))
                        shared["stats"].reads += isinstance(op, ReadOp)
                        shared["stats"].writes += isinstance(op, WriteOp)
                        if isinstance(op, ReadOp):
                            if op.key in write_set:
                                value = write_set[op.key]
                            elif op.key in read_set:
                                value = read_set[op.key]
                            else:
                                value, version = state.read(op.key)
                                read_set[op.key] = value
                                read_versions[op.key] = version
                            op = generator.send(value)
                        elif isinstance(op, WriteOp):
                            write_set[op.key] = op.value
                            op = generator.send(None)
                        else:
                            raise ContractError(
                                f"contract yielded non-operation {op!r}")
                except StopIteration as stop:
                    result = stop.value
                # -- central verification ---------------------------------
                ops = len(read_versions) + len(write_set)
                slot = verifier.hold(max(1, ops) * self.verify_cost_per_op)
                yield slot
                try:
                    valid = all(state.version(key) == version
                                for key, version in read_versions.items())
                    if valid:
                        state.apply(write_set)
                        entry = CommittedTx(
                            tx_id=tx.tx_id, order_index=shared["order"],
                            read_set=read_set, write_set=write_set,
                            result=result, attempts=attempt)
                        shared["order"] += 1
                        shared["committed"].append(entry)
                        shared["stats"].commits += 1
                        shared["latencies"][tx.tx_id] = (
                            env.now - shared["first_start"][tx.tx_id])
                finally:
                    verifier.done(slot)
                if valid:
                    if len(shared["committed"]) >= shared["total"] \
                            and not shared["done"].triggered:
                        shared["done"].succeed()
                    break
                shared["re_executions"] += 1
                shared["stats"].aborts += 1
                yield env.timeout(backoff(self.config, self._rng, attempt))
