"""Measurement collection for cluster runs.

Collects the quantities the paper's evaluation plots: throughput (executed
transactions per simulated second), latency distributions (submission →
execution), abort/re-execution counts, per-round commit times (Fig. 16),
and reconfiguration events (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class ExecutionSample:
    tx_id: int
    kind: str              # "single", "cross", or "serial"
    submitted_at: float
    executed_at: float

    @property
    def latency(self) -> float:
        return self.executed_at - self.submitted_at


class MetricsCollector:
    """Accumulates samples during a simulation run."""

    def __init__(self) -> None:
        self.executions: List[ExecutionSample] = []
        #: Ids of the transactions in :attr:`executions`.
        self.recorded_ids: Set[int] = set()
        self.commit_times: List[Tuple[int, int, float]] = []  # epoch, round, t
        self.reconfigurations: List[Tuple[int, float]] = []   # epoch, time
        self.re_executions = 0
        self.validation_failures = 0
        #: Transactions recovered by the deterministic serial re-execution
        #: that follows a rejected (forged/inconsistent) preplay block.
        #: Counted per replica per block: each live replica replays the
        #: rejected block against its own state.
        self.validation_reexecutions = 0
        #: Network partitions healed (repro.adversary.Partition).
        self.partition_heals = 0
        self.dropped_transactions = 0
        self.blocks_committed = 0
        self.blocks_by_kind: Dict[str, int] = {}
        # Concurrency-controller health, accumulated over every preplayed
        # batch (see repro.ce.depgraph for what the counters mean).
        self.cc_path_queries = 0
        self.cc_index_rebuilds = 0
        self.cc_index_repairs = 0
        self.ce_peak_graph_nodes = 0
        #: Peak closure row width, in 64-bit words, across all controllers.
        self.cc_bitset_words = 0

    # -- recording -----------------------------------------------------------

    def record_execution(self, tx_id: int, kind: str, submitted_at: float,
                         executed_at: float) -> bool:
        """Record a transaction's first execution; repeats are ignored
        (a transaction executes once per cluster even though every replica
        applies it)."""
        if tx_id in self.recorded_ids:
            return False
        self.recorded_ids.add(tx_id)
        self.executions.append(ExecutionSample(
            tx_id=tx_id, kind=kind, submitted_at=submitted_at,
            executed_at=executed_at))
        return True

    def record_commit(self, epoch: int, round_number: int, when: float,
                      kind: str = "normal") -> None:
        self.commit_times.append((epoch, round_number, when))
        self.blocks_committed += 1
        self.blocks_by_kind[kind] = self.blocks_by_kind.get(kind, 0) + 1

    def record_reconfiguration(self, new_epoch: int, when: float) -> None:
        self.reconfigurations.append((new_epoch, when))

    def record_ce_batch(self, stats, graph_nodes: int = 0) -> None:
        """Fold one preplayed batch's concurrency-controller counters in.

        ``stats`` is the :class:`repro.ce.controller.CCStats` of the
        batch's own controller (the execution session builds one per
        batch), so the counters cover that batch alone.  ``graph_nodes``
        is the dependency graph's node count when the batch completed."""
        self.cc_path_queries += stats.path_queries
        self.cc_index_rebuilds += stats.index_rebuilds
        self.cc_index_repairs += stats.index_repairs
        if stats.bitset_words > self.cc_bitset_words:
            self.cc_bitset_words = stats.bitset_words
        if graph_nodes > self.ce_peak_graph_nodes:
            self.ce_peak_graph_nodes = graph_nodes

    # -- summaries ------------------------------------------------------------

    def executed_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.executions)
        return sum(1 for sample in self.executions if sample.kind == kind)

    def throughput(self, duration: float) -> float:
        """Executed transactions per simulated second over ``duration``."""
        if duration <= 0:
            return 0.0
        return len(self.executions) / duration

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [sample.latency for sample in self.executions
                if kind is None or sample.kind == kind]

    def mean_latency(self, kind: Optional[str] = None) -> float:
        values = self.latencies(kind)
        return sum(values) / len(values) if values else 0.0

    def percentile_latency(self, q: float,
                           kind: Optional[str] = None) -> float:
        """Latency percentile ``q`` in [0, 1] (nearest-rank)."""
        values = sorted(self.latencies(kind))
        if not values:
            return 0.0
        rank = min(len(values) - 1, max(0, int(q * len(values))))
        return values[rank]

    def commit_runtime_per_window(self, window: int = 100
                                  ) -> List[Tuple[int, float]]:
        """Fig. 16: mean inter-commit time per ``window`` of commit events.

        Returns ``(window_end_round, mean_seconds_per_commit)`` pairs over
        the cumulative commit sequence (epochs concatenated).
        """
        times = [t for (_e, _r, t) in self.commit_times]
        out: List[Tuple[int, float]] = []
        for end in range(window, len(times) + 1, window):
            chunk = times[end - window:end]
            prev = times[end - window - 1] if end - window - 1 >= 0 else chunk[0]
            span = chunk[-1] - prev
            out.append((end, span / window))
        return out
