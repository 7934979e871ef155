"""Serial execution baseline.

Executes a batch one transaction at a time in arrival order — the execution
model of Tusk in the paper's system evaluation ("executes transactions in
order after reaching a total order").  Shares the :class:`BatchResult`
shape with the Concurrent Executor so benchmarks can swap engines.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Mapping

from repro.ce.controller import CCStats, CommittedTx
from repro.ce.runner import BatchResult, CEConfig
from repro.contracts.contract import ContractRegistry, run_inline
from repro.contracts.replay import OverlayView
from repro.sim.environment import Environment
from repro.txn import Transaction


class SerialRunner:
    """One executor, no concurrency control, no aborts."""

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
        started_at = env.now
        committed: List[CommittedTx] = []
        latencies: Dict[int, float] = {}
        view = OverlayView({}, base_state)
        for index, tx in enumerate(transactions):
            body = self.registry.get(tx.contract)
            record = run_inline(body, tx.args, view, default=default)
            cost = max(1, record.op_count) * self.config.op_cost
            yield env.timeout(cost)
            view.overlay.update(record.write_set)
            committed.append(CommittedTx(
                tx_id=tx.tx_id, order_index=index,
                read_set=record.read_set, write_set=record.write_set,
                result=record.result, attempts=1))
            latencies[tx.tx_id] = env.now - started_at
        return BatchResult(committed=committed, elapsed=env.now - started_at,
                           started_at=started_at, finished_at=env.now,
                           re_executions=0, latencies=latencies,
                           stats=CCStats(commits=len(committed)))

