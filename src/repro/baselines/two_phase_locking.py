"""2PL-No-Wait baseline (§11.1).

Executors access storage through a central lock controller.  Every read
takes a shared lock, every write an exclusive lock; a transaction that hits
an incompatible lock immediately releases everything it holds and
re-executes (no waiting — hence no deadlocks).  Writes are buffered and
applied at commit, after which all locks are released.

The no-wait policy is what makes the protocol collapse under many executors
in Fig. 11: the probability that *some* needed key is locked grows with the
number of concurrent holders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.ce.controller import CCStats, CommittedTx
from repro.ce.runner import BatchResult, CEConfig, backoff, op_delay
from repro.contracts.contract import ContractRegistry
from repro.contracts.ops import ReadOp, WriteOp
from repro.errors import ContractError, SerializationError
from repro.sim.environment import Environment
from repro.sim.resources import Gate, Store
from repro.txn import Transaction


class _LockTable:
    """Shared/exclusive locks with a no-wait conflict policy."""

    def __init__(self) -> None:
        #: key -> (mode, holder tx ids); mode is "S" or "X".
        self._locks: Dict[str, tuple] = {}

    def try_lock(self, key: str, tx_id: int, exclusive: bool) -> bool:
        entry = self._locks.get(key)
        if entry is None:
            self._locks[key] = ("X" if exclusive else "S", {tx_id})
            return True
        mode, holders = entry
        if tx_id in holders:
            if not exclusive or mode == "X":
                return True
            if len(holders) == 1:  # lock upgrade S -> X
                self._locks[key] = ("X", holders)
                return True
            return False
        if exclusive or mode == "X":
            return False
        holders.add(tx_id)
        return True

    def release_all(self, tx_id: int) -> None:
        for key in [k for k, (_, holders) in self._locks.items()
                    if tx_id in holders]:
            mode, holders = self._locks[key]
            holders.discard(tx_id)
            if not holders:
                del self._locks[key]

    def held_by(self, tx_id: int) -> Set[str]:
        return {key for key, (_, holders) in self._locks.items()
                if tx_id in holders}


class TPLNoWaitRunner:
    """Two-phase locking with the no-wait abort policy."""

    def __init__(self, registry: ContractRegistry, config: CEConfig,
                 rng: random.Random) -> None:
        self.registry = registry
        self.config = config
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
        queue: Store = Store(env)
        for tx in transactions:
            queue.put(tx)
        shared = {
            "committed": [], "latencies": {}, "first_start": {},
            "re_executions": 0, "order": 0, "done": env.event(),
            "total": len(transactions), "stats": CCStats(),
            "state": {}, "locks": _LockTable(),
        }
        controller = Gate(env)
        started_at = env.now
        workers = min(self.config.executors, len(transactions))
        for _ in range(workers):
            env.process(self._worker(env, queue, base_state, default,
                                     controller, shared))
        yield shared["done"]
        return BatchResult(
            committed=shared["committed"], elapsed=env.now - started_at,
            started_at=started_at, finished_at=env.now,
            re_executions=shared["re_executions"],
            latencies=shared["latencies"], stats=shared["stats"])

    def _worker(self, env: Environment, queue: Store,
                base_state: Mapping[str, Any], default: Any,
                controller: Gate, shared: Dict):
        config = self.config
        locks: _LockTable = shared["locks"]
        state: Dict[str, Any] = shared["state"]
        while not shared["done"].triggered:
            # Simulated worker: parked processes are inert after "done"
            # triggers (see occ.py); no sentinel needed in the DES.
            tx = yield queue.get()  # reprolint: disable=C303
            body = self.registry.get(tx.contract)
            attempt = 0
            while True:
                attempt += 1
                if attempt > config.max_attempts:
                    raise SerializationError(
                        f"2PL transaction {tx.tx_id} exceeded "
                        f"{config.max_attempts} attempts")
                shared["first_start"].setdefault(tx.tx_id, env.now)
                read_set: Dict[str, Any] = {}
                write_set: Dict[str, Any] = {}
                generator = body(*tx.args)
                result = None
                conflicted = False
                try:
                    op = next(generator)
                    while True:
                        yield env.timeout(op_delay(self.config, self._rng))
                        slot = controller.hold(config.cc_cost)
                        yield slot
                        try:
                            if isinstance(op, ReadOp):
                                shared["stats"].reads += 1
                                if not locks.try_lock(op.key, tx.tx_id,
                                                      exclusive=False):
                                    conflicted = True
                                    break
                                if op.key in write_set:
                                    value = write_set[op.key]
                                elif op.key in state:
                                    value = state[op.key]
                                else:
                                    value = base_state.get(op.key, default)
                                read_set.setdefault(op.key, value)
                            elif isinstance(op, WriteOp):
                                shared["stats"].writes += 1
                                if not locks.try_lock(op.key, tx.tx_id,
                                                      exclusive=True):
                                    conflicted = True
                                    break
                                write_set[op.key] = op.value
                                value = None
                            else:
                                raise ContractError(
                                    f"contract yielded non-operation {op!r}")
                        finally:
                            controller.done(slot)
                        op = generator.send(value)
                except StopIteration as stop:
                    result = stop.value
                # -- finalize: apply writes and drop locks ------------------
                slot = controller.hold(0.0)
                yield slot
                try:
                    if conflicted:
                        locks.release_all(tx.tx_id)
                    else:
                        state.update(write_set)
                        locks.release_all(tx.tx_id)
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
                    controller.done(slot)
                if not conflicted:
                    if len(shared["committed"]) >= shared["total"] \
                            and not shared["done"].triggered:
                        shared["done"].succeed()
                    break
                shared["re_executions"] += 1
                shared["stats"].aborts += 1
                yield env.timeout(backoff(self.config, self._rng, attempt))
