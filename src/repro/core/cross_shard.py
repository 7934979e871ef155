"""Deterministic cross-shard execution (§5.2).

Cross-shard transactions reach every replica in the DAG total order (OE
model).  Rather than executing them serially, Thunderbolt builds a
QueCC-style plan from the sharding metadata (SIDs): each shard is an
execution lane, a transaction occupies every lane in its SID set, and
transactions with disjoint SID sets run concurrently.  Execution itself is
the deterministic serial semantics (the plan only changes *when* work
happens, never the outcome), so no aborts are possible post-ordering.

Two disciplines share one replay core (:meth:`CrossShardExecutor.replay_one`):

* **Batch-synchronous** (:meth:`CrossShardExecutor.execute` /
  :meth:`~CrossShardExecutor.execute_serial`): the whole ordered batch runs
  inline against a read-only view and the caller is charged a single
  simulated makespan (lane critical path, or serial sum for the Tusk
  baseline).  This is the default path and stays bit-identical to the
  original schedule.

* **Pipelined** (:class:`ShardLanePipeline`): each shard owns a long-lived
  lane — an event-chained serial queue inside the DES — and a cross-shard
  transaction occupies a *segment* on every lane in its SID set.  Local
  validation work keeps draining behind it on untouched lanes; a lane's
  segment is released the moment that shard's frontier (its lane tail)
  clears it.  Commit order is the DAG dispatch order per lane, and the
  cross-lane interleaving is proven serializable at every wave boundary by
  the :class:`~repro.ce.validation.SerializabilityOracle`, fed from the
  pipeline's per-shard key→recent-writer records.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (Any, Callable, Dict, Generator, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from dataclasses import dataclass

from repro.ce.controller import CommittedTx
from repro.ce.validation import SerializabilityOracle
from repro.contracts.contract import ContractRegistry, run_inline
from repro.contracts.replay import OverlayView, ReplayMemo
from repro.txn import Transaction


@dataclass
class CrossShardOutcome:
    """What one ordered batch of cross-shard transactions leaves a replica
    to apply; the replicas of a cluster share it (:class:`ReplayMemo`)."""

    #: Final value per key, read-only.
    writes: Mapping[str, Any]
    #: Simulated seconds the batch takes under its cost model.
    simulated_cost: float


class CrossShardExecutor:
    """Executes ordered cross-shard transactions with a per-SID lane plan."""

    def __init__(self, registry: ContractRegistry, memo: ReplayMemo,
                 op_cost: float = 5e-6, default: Any = 0) -> None:
        self.registry = registry
        self.memo = memo
        self.op_cost = op_cost
        self.default = default

    def replay_one(self, tx: Transaction, view: Any,
                   order_index: int = 0) -> Tuple[CommittedTx, float]:
        """Inline-run one transaction against ``view`` (read-only).

        Returns the committed entry plus its simulated execution cost.
        The caller owns write application — nothing is mutated here.
        """
        body = self.registry.get(tx.contract)
        record = run_inline(body, tx.args, view, default=self.default)
        entry = CommittedTx(
            tx_id=tx.tx_id, order_index=order_index,
            read_set=record.read_set, write_set=record.write_set,
            result=record.result, attempts=1)
        return entry, max(1, len(record.operations)) * self.op_cost

    def _replay(self, transactions: Sequence[Transaction],
                view: OverlayView) -> Iterator[Tuple[Transaction, float]]:
        """Shared replay loop behind both batch cost models.

        Yields ``(tx, cost)`` in total order, folding each transaction's
        writes into the view's overlay before the next transaction runs
        (read-your-predecessors semantics).
        """
        for index, tx in enumerate(transactions):
            entry, cost = self.replay_one(tx, view, order_index=index)
            view.overlay.update(entry.write_set)
            yield tx, cost

    def _batch(self, transactions: Sequence[Transaction],
               state: Mapping[str, Any],
               cost_model: Callable[..., float]) -> CrossShardOutcome:
        """Replay the batch under ``cost_model``, once per cluster.  The
        ids alone are no key — two batches may reuse them with other
        contracts or arguments — so the memo compares the transactions."""
        subject = tuple(transactions)
        return self.memo.replay(
            (cost_model, tuple(tx.tx_id for tx in subject)), subject, state,
            lambda view: CrossShardOutcome(
                simulated_cost=cost_model(self._replay(subject, view)),
                writes=MappingProxyType(view.overlay)))

    def execute(self, transactions: Sequence[Transaction],
                state: Mapping[str, Any]) -> CrossShardOutcome:
        """Run ``transactions`` in their given total order against ``state``.

        ``state`` is read-only here; apply ``outcome.writes`` on commit.
        """
        return self._batch(transactions, state, _lane_makespan)

    def execute_serial(self, transactions: Sequence[Transaction],
                       state: Mapping[str, Any]) -> CrossShardOutcome:
        """Run ``transactions`` with a strictly serial cost model — the
        Tusk baseline's post-order execution (§12)."""
        return self._batch(transactions, state, _serial_cost)


def _lane_makespan(replayed: Iterator[Tuple[Transaction, float]]) -> float:
    """Critical path over the shard lanes: a transaction starts when every
    lane it touches is free and occupies them all until it finishes (QueCC
    queue semantics)."""
    #: lane (SID) -> simulated time the lane is busy until.
    lane_clock: Dict[int, float] = {}
    makespan = 0.0
    for tx, cost in replayed:
        start = max((lane_clock.get(sid, 0.0) for sid in tx.shard_ids),
                    default=0.0)
        finish = start + cost
        for sid in tx.shard_ids:
            lane_clock[sid] = finish
        makespan = max(makespan, finish)
    return makespan


def _serial_cost(replayed: Iterator[Tuple[Transaction, float]]) -> float:
    total_cost = 0.0
    for _tx, cost in replayed:
        total_cost += cost
    return total_cost


class ShardLaneSession:
    """One shard's long-lived execution lane inside a pipeline.

    A lane is a serial queue realised as an event chain: every scheduled
    segment captures the previous tail and installs its own completion
    event as the new tail, so segments on one lane run in dispatch order
    while independent lanes interleave freely in simulated time.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        #: Completion event of the most recently dispatched segment
        #: (``None`` until the first dispatch).  The lane's *frontier*: a
        #: new segment starts once this has fired.
        self.tail: Optional[Any] = None
        #: Simulated time the lane last finished a segment.
        self.clock = 0.0
        self.segments = 0
        self.busy_time = 0.0

    @property
    def idle(self) -> bool:
        return self.tail is None or self.tail.triggered


class ShardLanePipeline:
    """Pipelined cross-shard lane plan over long-lived per-shard lanes.

    Replaces the batch-synchronous barrier: instead of stopping the world
    to charge one makespan, every unit of execution work — a shard-local
    validation block or one cross-shard transaction — becomes a *segment*
    on the lanes of the shards it touches.  Segments on one lane run
    serially in dispatch order (which is the DAG commit order, identical
    on every replica); segments on disjoint lanes overlap.  A cross-shard
    transaction prepares on every lane in its SID set and starts once the
    slowest of those frontiers clears — the wait is accounted as pipeline
    stall, the QueCC lane-skew cost the plan is trying to hide.

    Correctness: a transaction's keys live on its declared shards, so
    transactions with disjoint SID sets touch disjoint keys and per-key
    apply order equals per-lane dispatch order — the strict total order's
    outcome, reproduced shard by shard.  The pipeline additionally keeps
    ``recent_writers`` (per-key last pipelined writer) and records every
    replayed transaction with read-time provenance into a
    :class:`SerializabilityOracle`, checked at every wave boundary, so the
    claim is *proved* per run rather than assumed.

    The pipeline is owned by the cluster and survives reconfiguration:
    epochs drain through :meth:`epoch_barrier` without tearing down lanes.
    """

    def __init__(self, env: Any, executor: CrossShardExecutor, store: Any,
                 metrics: Any = None) -> None:
        self.env = env
        self.executor = executor
        self.store = store
        self.metrics = metrics
        self.lanes: Dict[int, ShardLaneSession] = {}
        #: key -> tx_id of the last pipelined cross-shard writer.  Never
        #: trimmed by local validations: attributing a read to an *older*
        #: writer only adds true precedence constraints to the oracle
        #: (newer-than-actual sources are the dangerous direction).
        self.recent_writers: Dict[str, int] = {}
        self.oracle = SerializabilityOracle()
        self._order = 0
        self._live = 0
        # Pipeline-wide lane accounting (per-lane copies live on the
        # ShardLaneSession; both also flow into ``metrics`` when present).
        self.segments = 0
        self.busy_time = 0.0
        self.stall_time = 0.0
        self.prepare_latency = 0.0
        self.waves = 0

    @property
    def idle(self) -> bool:
        """True when no segment is scheduled or running."""
        return self._live == 0

    def lane(self, shard_id: int) -> ShardLaneSession:
        lane = self.lanes.get(shard_id)
        if lane is None:
            lane = self.lanes[shard_id] = ShardLaneSession(shard_id)
        return lane

    def schedule_local(self, shard_id: int,
                       work: Callable[[], Generator[Any, Any, None]]) -> None:
        """Chain one shard-local work item onto the shard's lane.

        ``work`` is a no-argument generator function (DES process body);
        it runs after everything previously dispatched to this lane.
        """
        lane = self.lane(shard_id)
        # Capture the frontier and install the new tail *synchronously*:
        # the process body starts later, after subsequent dispatches.
        prev, done = lane.tail, self.env.event()
        lane.tail = done
        self._live += 1
        self.env.process(self._local_segment(lane, prev, done, work))

    def _local_segment(self, lane: ShardLaneSession, prev: Optional[Any],
                       done: Any, work: Callable[[], Generator[Any, Any, None]],
                       ) -> Generator[Any, Any, None]:
        if prev is not None:
            yield prev
        started = self.env.now
        yield from work()
        self._retire_segment((lane,), started, stall=0.0, prepare=0.0)
        done.succeed()

    def submit_wave(self, transactions: Sequence[Transaction],
                    on_executed: Callable[[Transaction, CommittedTx], None],
                    ) -> None:
        """Dispatch one ordered wave of cross-shard transactions.

        Every transaction becomes a segment chained onto *all* lanes in
        its SID set (one shared completion event is the new tail of each).
        ``on_executed`` fires per transaction as its writes land; the
        oracle checks the whole window once the wave's last transaction
        has applied.
        """
        if not transactions:
            return
        self.waves += 1
        if self.metrics is not None:
            self.metrics.record_lane_wave()
        remaining = [len(transactions)]
        for tx in transactions:
            lanes = [self.lane(sid) for sid in sorted(set(tx.shard_ids))]
            prevs = [lane.tail for lane in lanes]
            done = self.env.event()
            for lane in lanes:
                lane.tail = done
            self._live += 1
            self.env.process(self._cross_segment(
                tx, lanes, prevs, done, on_executed, remaining))

    def _cross_segment(self, tx: Transaction,
                       lanes: Sequence[ShardLaneSession],
                       prevs: Sequence[Optional[Any]], done: Any,
                       on_executed: Callable[[Transaction, CommittedTx], None],
                       remaining: List[int]) -> Generator[Any, Any, None]:
        submitted = self.env.now
        # Prepare phase: lock each lane in SID order and wait for its
        # frontier.  Already-cleared frontiers resume immediately, so the
        # segment starts the instant the *slowest* touched shard is free.
        for prev in prevs:
            if prev is not None:
                yield prev
        start = self.env.now
        # Each lane's frontier cleared at its last segment's finish (its
        # clock — nothing else can run on it between that segment and us)
        # or at dispatch if it was already idle; the gap to ``start`` is
        # the time the lane sat locked-but-stalled on the SID set's
        # slowest member (QueCC lane skew).
        stall = sum(start - max(submitted, lane.clock) for lane in lanes)
        # Replay at segment start, not dispatch: every predecessor on
        # every touched lane (including strict-validation re-execution
        # recoveries) has applied, so reads observe exactly the per-shard
        # serial state the strict schedule would produce.
        entry, cost = self.executor.replay_one(tx, self.store,
                                               order_index=self._order)
        self._order += 1
        read_sources = {key: self.recent_writers.get(key)
                        for key in entry.read_set}
        if cost > 0:
            yield self.env.timeout(cost)
        self.store.apply_batch(entry.write_set)
        for key in entry.write_set:
            self.recent_writers[key] = tx.tx_id
        self.oracle.record(entry.tx_id, entry.order_index,
                           entry.read_set, entry.write_set, read_sources)
        remaining[0] -= 1
        if remaining[0] == 0:
            # Wave boundary: the recorded window is an apply-order prefix;
            # any cross-lane cycle would surface here.
            self.oracle.check()
        self._retire_segment(lanes, start, stall=stall,
                             prepare=start - submitted)
        on_executed(tx, entry)
        done.succeed()

    def _retire_segment(self, lanes: Sequence[ShardLaneSession],
                        started: float, stall: float, prepare: float) -> None:
        now = self.env.now
        elapsed = now - started
        for lane in lanes:
            lane.segments += 1
            lane.busy_time += elapsed
            lane.clock = now
        occupied = len(lanes)
        self.segments += occupied
        self.busy_time += elapsed * occupied
        self.stall_time += stall
        self.prepare_latency += prepare
        self._live -= 1
        if self._live == 0:
            # Quiescent boundary: nothing in flight can still read an
            # in-window version, so the oracle window may compact.
            self.oracle.compact()
        if self.metrics is not None:
            self.metrics.record_lane_segment(occupied, elapsed * occupied,
                                             stall, prepare)

    def epoch_barrier(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once every lane has drained all work
        dispatched before this call.  The barrier observes the frontiers
        without occupying any lane, so post-barrier dispatches overlap
        with the drain of unrelated lanes."""
        tails = [lane.tail for lane in self.lanes.values()
                 if lane.tail is not None and not lane.tail.triggered]
        self.env.process(self._barrier_segment(tails, callback))

    def _barrier_segment(self, tails: Sequence[Any],
                         callback: Callable[[], None],
                         ) -> Generator[Any, Any, None]:
        for tail in tails:
            yield tail
        if not tails:
            # Still a DES step so the callback never runs re-entrantly
            # inside the dispatching frame.
            yield self.env.timeout(0)
        callback()
