"""A Thunderbolt replica.

Each replica plays the three roles of §3.1 simultaneously:

1. **Shard proposer** — batches the single-shard transactions of its
   currently assigned shard, preplays them on its execution engine (CE or
   OCC), and publishes blocks carrying the preplay outcomes.  Proposal rules
   P1–P6 (§5.1) govern when preplay is allowed, when transactions are
   converted to cross-shard handling, and when skip blocks keep the DAG
   advancing (§5.4).
2. **Consensus replica** — votes on proposals, assembles certificates, and
   runs the Tusk commit rule over its local DAG view.
3. **Executor/validator** — on commit, validates single-shard preplay
   results in order (G1/P2: before the cross-shard work of the same wave),
   then executes cross-shard payloads deterministically, applying everything
   to its local store.  Execution runs in its own pipeline process and
   consumes simulated time, so an execution backlog (the Tusk baseline's
   fate) shows up as latency exactly like in the paper.

Reconfiguration (§6) is driven by Shift blocks: the replica emits one when a
proposer has been silent for K rounds, every K' rounds, or after seeing f+1
Shift blocks; once a committed leader's history holds 2f+1 of them, the
epoch ends at that committed point for every honest replica and shard
assignments rotate round-robin.

State by lifetime: *wiring* (identity, network, engine, hooks) is fixed at
construction; *durable* state — the store, the commit log, the executed set
and the epoch number — carries over every epoch change; *pipeline* state
(the execution queue, messages buffered for a later epoch, submit times and
kinds, counters) lives as long as the replica; and *epoch* state — the DAG,
consensus, votes, mempools, in-flight preplay, the overlay, P3/P4/P5
bookkeeping and the CE session — is built by ``Replica._enter_epoch``,
which construction and ``_reconfigure`` both call.  Committed writes reach
the store at one point, ``Replica._apply``.

Determinism note: every state-changing decision at commit time (P5
deferrals, validation order, cross-shard order) is derived from the
*committed* history, which the DAG guarantees identical across honest
replicas; view-dependent state (mempools, the P3/P4 conflict check) only
influences what a proposer puts in its own blocks, which is allowed to
differ.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.baselines.occ import OCCRunner
from repro.ce.controller import CommittedTx
from repro.ce.runner import BatchResult, CERunner
from repro.ce.validation import (estimate_validation_cost, reexecute_block,
                                 validate_block)
from repro.contracts.contract import ContractRegistry
from repro.contracts.replay import OverlayView, ReplayMemo
from repro.core.config import ThunderboltConfig
from repro.core.cross_shard import CrossShardExecutor
from repro.core.shards import ShardMap
from repro.crypto.certificates import (CertificateBuilder, quorum_size,
                                       weak_quorum_size)
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.dag.leader import LeaderSchedule
from repro.dag.store import DagStore
from repro.dag.tusk import CommitEvent, TuskConsensus
from repro.dag.types import Block, BlockKind, Vertex
from repro.errors import ConsensusError
from repro.metrics.collector import MetricsCollector
from repro.sim.environment import Environment
from repro.sim.events import AnyOf
from repro.sim.network import Message, Network
from repro.sim.resources import Store
from repro.sim.rng import derive_rng, make_rng
from repro.storage.kvstore import KVStore
from repro.storage.log import CommitLog
from repro.txn import Transaction


def _declared(block: Block):
    """A block's published preplay, in the form ``validate_block`` takes."""
    return block.preplay, {tx.tx_id: tx for tx in block.preplayed_txs}


class Replica:
    """One node of the cluster; see the module docstring for the roles."""

    def __init__(self, replica_id: int, env: Environment, network: Network,
                 config: ThunderboltConfig, shard_map: ShardMap,
                 registry: ContractRegistry, keypair: KeyPair,
                 key_registry: KeyRegistry, metrics: MetricsCollector,
                 initial_state: Dict[str, Any], memo: ReplayMemo) -> None:
        # Wiring: fixed for the replica's lifetime.
        self.id = replica_id
        self.env = env
        self.network = network
        self.config = config
        self.shard_map = shard_map
        self.registry = registry
        self.keypair = keypair
        self.key_registry = key_registry
        self.metrics = metrics
        self.memo = memo
        self.n = config.n_replicas
        self.schedule = LeaderSchedule(self.n)
        self._rng = make_rng((config.seed << 8) ^ (replica_id + 1))
        #: Optional demand-driven transaction source installed by the
        #: cluster: ``callable(count, now) -> List[Transaction]``.  Models
        #: clients keeping the proposer saturated without an explicit
        #: arrival-rate parameter.
        self.tx_source = None
        self.on_drop = None        # callable(replica, list[Transaction])
        #: Byzantine-executor hook: ``callable(entries) -> entries`` applied
        #: to the preplay tuple before the block is built, so the forged
        #: read/write sets are covered by the block digest and every replica
        #: validates the identical lie (repro.adversary.ByzantineExecutor).
        self.preplay_tamper = None
        self._engine = self._make_engine()
        self._cross_exec = CrossShardExecutor(
            registry, memo, op_cost=config.ce.op_cost)

        # Durable state: carried across every epoch; written only by _apply.
        self.store = KVStore()
        self.store.apply_batch(initial_state)
        self.commit_log = CommitLog()
        self.executed: Set[int] = set()
        self.epoch = 0

        # Pipeline state: the execution queue, messages from epochs not yet
        # reached, client bookkeeping, the fault flag and the counters.
        self._exec_queue: Store = Store(env)
        self._future_epoch_messages: List[Message] = []
        self._submit_times: Dict[int, float] = {}
        self._tx_kind: Dict[int, str] = {}
        self.crashed = False
        self.blocks_proposed = 0
        self.validation_failures = 0

        self._enter_epoch()

    def _enter_epoch(self) -> None:
        """Build every epoch-scoped field for ``self.epoch``: construction
        and each reconfiguration (§6) call this one builder, so no field
        can outlive its epoch."""
        # Consensus.
        self.dag = DagStore(epoch=self.epoch)
        self.consensus = TuskConsensus(self.n, epoch=self.epoch,
                                       schedule=self.schedule)
        self.round = 0
        self.rounds_proposed = 0
        self.shift_sent = False
        self._voted: Set[Tuple[int, int]] = set()
        self._builders: Dict[str, CertificateBuilder] = {}
        self._pending_blocks: Dict[str, Block] = {}
        self._round_events: Dict[int, Any] = {}
        self._leader_events: Dict[int, Any] = {}
        self._last_vertex_round: Dict[int, int] = {}
        self._committed_last_round: Dict[int, int] = {}
        self._shift_authors_seen: Dict[int, Set[int]] = {}
        self._committed_shift_authors: Set[int] = set()

        # Shard proposer.
        self.mempool_single: Deque[Transaction] = deque()
        self.mempool_cross: Deque[Transaction] = deque()
        self._in_flight_single: Dict[str, List[Transaction]] = {}
        self._preplaying_batch: List[Transaction] = []
        self._overlay: Dict[str, Any] = {}
        self._overlay_dirty = False
        #: P3/P4 conflict state: cross-shard txs that appeared in a leader
        #: vertex's causal history and are not yet executed locally, per
        #: SID.  A transaction enters when the covering leader vertex is
        #: inserted (its history is then fully local) and leaves on
        #: execution — the paper's "uncommitted Cross-shard TX in L's
        #: history" window.
        self._pending_cross: Dict[int, Dict[int, None]] = {}
        #: Digests already walked while indexing leader histories.
        self._history_seen: Set[str] = set()
        self._deferred_cross: List[Transaction] = []
        #: True between a reconfiguration and the moment the execution
        #: pipeline has applied everything committed before it — preplay on
        #: the newly assigned shard must wait for that state (§6 hand-off).
        self._awaiting_drain = self.epoch > 0
        #: CE: the epoch's execution session, the worker pool every preplay
        #: round of the epoch runs through, each round's batch on its own
        #: controller over that round's speculative overlay view.
        self._session = (self._engine.open_session(self.env)
                         if isinstance(self._engine, CERunner) else None)

    # ----------------------------------------------------------------- wiring

    @property
    def my_shard(self) -> int:
        """The shard this replica currently proposes for."""
        return self.shard_map.shard_served_by(self.id, self.epoch)

    def _make_engine(self):
        if self.config.engine == "occ":
            return OCCRunner(self.registry, self.config.ce,
                             derive_rng(self._rng, 11))
        if self.config.engine == "ce":
            return CERunner(self.registry, self.config.ce,
                            derive_rng(self._rng, 12))
        return None  # "serial": no preplay engine (Tusk baseline)

    def submit(self, tx: Transaction, now: Optional[float] = None) -> None:
        """Client entry point: enqueue a transaction at this proposer."""
        when = self.env.now if now is None else now
        self._submit_times.setdefault(tx.tx_id, when)
        if self.config.engine == "serial" or len(tx.shard_ids) == 1:
            self.mempool_single.append(tx)
        else:
            self.mempool_cross.append(tx)

    def start(self) -> None:
        """Launch the replica's processes."""
        self.network.connect(self.id, self._on_message)
        self.env.process(self._execution_loop())
        self.env.process(self._round_loop())

    def crash(self) -> None:
        """Crash-stop this replica: it goes silent (Fig. 17 faults)."""
        self.crashed = True

    # ------------------------------------------------------------- messaging

    def _on_message(self, message: Message) -> None:
        """The network handler: runs at each message's delivery time."""
        if not self.crashed:
            self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        epoch = message.payload[0]
        if epoch > self.epoch:
            self._future_epoch_messages.append(message)
            return
        if epoch < self.epoch:
            return  # the old DAG is gone
        kind = message.kind
        if kind == "proposal":
            self._on_proposal(message.payload[1])
        elif kind == "vote":
            self._on_vote(message.payload[1], message.payload[2])
        elif kind == "vertex":
            self._on_vertex(message.payload[1])
        else:  # pragma: no cover - defensive
            raise ConsensusError(f"unknown message kind {kind!r}")

    def _on_proposal(self, block: Block) -> None:
        key = (block.round_number, block.author)
        if key in self._voted:
            return  # at most one vote per (round, author)
        self._voted.add(key)
        signature = self.keypair.sign(block.vote_payload)
        self.network.send(self.id, block.author, "vote",
                          (self.epoch, block.digest, signature))

    def _on_vote(self, digest: str, signature) -> None:
        builder = self._builders.get(digest)
        if builder is None:
            return  # already certified, or stale epoch
        builder.add_vote(signature, self.key_registry)
        if builder.complete:
            block = self._pending_blocks.pop(digest, None)
            del self._builders[digest]
            if block is not None:
                vertex = Vertex(block=block, certificate=builder.build())
                self.network.broadcast(self.id, "vertex",
                                       (self.epoch, vertex))

    def _on_vertex(self, vertex: Vertex) -> None:
        added = self.dag.insert(vertex)
        for inserted in added:
            self._index_vertex(inserted)
        if added:
            for event in self.consensus.advance(self.dag):
                self._process_commit(event)
                if self.epoch != event.epoch:
                    break  # reconfigured: remaining old-epoch events void

    def _index_vertex(self, vertex: Vertex) -> None:
        block = vertex.block
        self._last_vertex_round[block.author] = max(
            self._last_vertex_round.get(block.author, -1),
            block.round_number)
        if block.is_shift:
            self._shift_authors_seen.setdefault(
                block.round_number, set()).add(block.author)
        if self.config.engine != "serial" \
                and self.schedule.is_leader_round(block.round_number) \
                and block.author == self.schedule.leader_of(
                    self.epoch, block.round_number):
            self._index_leader_history(vertex)
        self._check_round_ready(block.round_number)
        self._maybe_trigger_leader_event(block.round_number, block.author)

    def _index_leader_history(self, leader_vertex: Vertex) -> None:
        """Collect the cross-shard payload of a leader's causal history
        (P3/P4: these are the transactions that block preplay until they
        execute).  Histories nest, so vertices are walked at most once."""
        stack = [leader_vertex.digest]
        while stack:
            digest = stack.pop()
            if digest in self._history_seen:
                continue
            self._history_seen.add(digest)
            vertex = self.dag.get(digest)
            if vertex is None:  # pragma: no cover - leader history is local
                continue
            for tx in vertex.block.ordered_payload():
                if tx.tx_id in self.executed:
                    continue
                for sid in tx.shard_ids:
                    self._pending_cross.setdefault(sid, {})[tx.tx_id] = None
            stack.extend(vertex.block.parents)

    def _check_round_ready(self, round_number: int) -> None:
        event = self._round_events.get(round_number)
        if event is not None and not event.triggered \
                and self._round_is_ready(round_number):
            event.succeed()

    def _round_is_ready(self, round_number: int) -> bool:
        """Parents for the next round are available: a 2f+1 quorum of this
        round *including our own vertex* (each proposer chains its blocks —
        the invariant the P5 argument relies on)."""
        if self.dag.round_size(round_number) < quorum_size(self.n):
            return False
        return self.dag.vertex_of(round_number, self.id) is not None

    def _maybe_trigger_leader_event(self, round_number: int,
                                    author: int) -> None:
        """Fires the P3 gate for a leader round once the leader's certified
        vertex — and therefore its full causal history — is in our DAG."""
        event = self._leader_events.get(round_number)
        if event is None or event.triggered:
            return
        if not self.schedule.is_leader_round(round_number):
            return
        if author == self.schedule.leader_of(self.epoch, round_number):
            event.succeed()

    def _gate_round(self, round_number: int) -> Optional[int]:
        """The leader round whose history must be inspected before
        preplaying at ``round_number`` (P3/P4): the latest leader round
        <= the proposal round.  ``None`` when there is none yet."""
        if self.schedule.is_leader_round(round_number):
            return round_number
        candidate = round_number - 1
        while candidate >= 1 \
                and not self.schedule.is_leader_round(candidate):
            candidate -= 1
        return candidate if candidate >= 1 else None

    # -- waiting helpers ------------------------------------------------------

    def _round_quorum_event(self, round_number: int):
        event = self._round_events.get(round_number)
        if event is None:
            event = self.env.event()
            self._round_events[round_number] = event
            if self._round_is_ready(round_number):
                event.succeed()
        return event

    def _leader_event(self, round_number: int):
        event = self._leader_events.get(round_number)
        if event is None:
            event = self.env.event()
            self._leader_events[round_number] = event
            leader = self.schedule.leader_of(self.epoch, round_number)
            if self.dag.vertex_of(round_number, leader) is not None:
                event.succeed()
        return event

    # ------------------------------------------------------------ round loop

    def _round_loop(self):
        config = self.config
        handoff_done_epoch = 0
        while not self.crashed:
            epoch_at_start = self.epoch
            current_round = self.round
            if self.epoch > 0 and handoff_done_epoch < self.epoch:
                # Taking over a new shard costs a state hand-off (§6).
                handoff_done_epoch = self.epoch
                if config.reconfig_handoff_cost > 0:
                    yield self.env.timeout(config.reconfig_handoff_cost)
                    if self.epoch != epoch_at_start:
                        continue
            if current_round > 0:
                yield self._round_quorum_event(current_round - 1)
                if self.epoch != epoch_at_start or self.crashed:
                    continue
            if config.round_interval > 0:
                yield self.env.timeout(config.round_interval)
                if self.epoch != epoch_at_start:
                    continue
            # P3/P4/P6: before preplaying, the latest wave leader's certified
            # vertex (hence full history) must be in our DAG so the conflict
            # check is complete; bounded by the timeout.
            leader_timed_out = False
            gate_round = self._gate_round(current_round)
            if config.engine != "serial" and gate_round is not None \
                    and self.schedule.leader_of(
                        self.epoch, gate_round) != self.id:
                leader_event = self._leader_event(gate_round)
                if not leader_event.triggered:
                    timeout = self.env.timeout(config.leader_timeout)
                    winner, _ = yield AnyOf(self.env,
                                            [leader_event, timeout])
                    if self.epoch != epoch_at_start or self.crashed:
                        continue
                    leader_timed_out = winner is timeout
            block = yield from self._build_block(current_round,
                                                 leader_timed_out,
                                                 epoch_at_start)
            if self.epoch != epoch_at_start or self.crashed:
                continue
            if block is not None:
                self._propose(block)
                self.round = current_round + 1
                self.rounds_proposed += 1

    def _build_block(self, round_number: int, leader_timed_out: bool,
                     epoch_at_entry: int):
        """Assemble this round's block (a generator — preplay takes time)."""
        config = self.config
        parents = tuple(
            v.digest for v in self.dag.round_vertices(round_number - 1)
        ) if round_number > 0 else ()
        self._generate_demand()
        if self._should_shift(round_number):
            self.shift_sent = True
            return Block(author=self.id, shard=self.my_shard,
                         epoch=self.epoch, round_number=round_number,
                         kind=BlockKind.SHIFT, parents=parents,
                         created_at=self.env.now)
        cross_payload = self._drain(self.mempool_cross, config.batch_size)
        if config.engine == "serial":
            # Tusk baseline: raw batch straight to the DAG, no preplay (OE).
            batch = self._pull_batch()
            for tx in batch:
                self._tx_kind.setdefault(tx.tx_id, "serial")
            return Block(author=self.id, shard=self.my_shard,
                         epoch=self.epoch, round_number=round_number,
                         kind=BlockKind.NORMAL, parents=parents,
                         transactions=tuple(batch) + tuple(cross_payload),
                         created_at=self.env.now)
        if leader_timed_out:
            # P6: promote the pending batch to cross-shard handling.
            return self._conversion_block(round_number, parents,
                                          cross_payload)
        if self._preplay_blocked():
            # P3/P4: uncommitted cross-shard work overlaps our shard.
            if config.skip_blocks:
                # §5.4: a skip block keeps the DAG moving; held transactions
                # revert to EOV once the conflicts finalize (Fig. 5).
                return Block(author=self.id, shard=self.my_shard,
                             epoch=self.epoch, round_number=round_number,
                             kind=BlockKind.SKIP, parents=parents,
                             transactions=tuple(cross_payload),
                             created_at=self.env.now)
            return self._conversion_block(round_number, parents,
                                          cross_payload)
        # EOV path: preplay a batch on the speculative shard state.
        batch = self._pull_batch()
        preplay: Tuple[CommittedTx, ...] = ()
        if batch:
            if self._overlay_dirty:
                self._overlay = {}
                self._overlay_dirty = False
            base = OverlayView(self._overlay, self.store)
            self._preplaying_batch = batch
            if self._session is not None:
                # CE: one session per epoch.  This round's batch is
                # admitted against the round's overlay view and drained
                # to its BatchResult, reusing the epoch's executor pool.
                self._session.admit(batch, base)
                result: BatchResult = yield self._session.drain()
            else:
                # OCC: the per-round baseline (§12).
                result = yield self._engine.run_batch(
                    self.env, batch, base)
            self._preplaying_batch = []
            if self.epoch != epoch_at_entry:
                return None  # the batch was reported dropped by _reconfigure
            self.metrics.re_executions += result.re_executions
            self.metrics.record_ce_batch(result.stats, result.graph_nodes)
            self._overlay.update(result.final_writes())
            preplay = tuple(result.committed)
            if self.preplay_tamper is not None and preplay:
                # Published sets may lie; the speculative overlay above
                # keeps the honest writes (the executor ran correctly, the
                # *report* is forged).
                preplay = tuple(self.preplay_tamper(preplay))
            for tx in batch:
                self._tx_kind.setdefault(tx.tx_id, "single")
        block = Block(author=self.id, shard=self.my_shard, epoch=self.epoch,
                      round_number=round_number, kind=BlockKind.NORMAL,
                      parents=parents, transactions=tuple(cross_payload),
                      preplay=preplay, preplayed_txs=tuple(batch),
                      created_at=self.env.now)
        if batch:
            self._in_flight_single[block.digest] = batch
        return block

    def _generate_demand(self) -> None:
        """One round's worth of fresh client load (the source keeps sending
        whether or not this round can preplay — skip rounds accumulate a
        backlog that later preplays catch up on)."""
        if self.tx_source is None:
            return
        demand = self.config.batch_size * max(1, self.config.demand_factor)
        for tx in self.tx_source(demand, self.env.now):
            self.submit(tx)

    def _pull_batch(self) -> List[Transaction]:
        """The round's single-shard batch: up to ``max_batch_factor``
        batches, so backlogs from blocked rounds drain quickly."""
        limit = self.config.batch_size * max(1, self.config.max_batch_factor)
        return self._drain(self.mempool_single, limit)

    def _conversion_block(self, round_number: int, parents: tuple,
                          cross_payload: List[Transaction]) -> Block:
        """A block whose single-shard batch rides as converted cross-shard
        transactions (rules P3/P4/P6 without skip blocks)."""
        converted = self._pull_batch()
        for tx in converted:
            self._tx_kind.setdefault(tx.tx_id, "cross")
        return Block(author=self.id, shard=self.my_shard, epoch=self.epoch,
                     round_number=round_number, kind=BlockKind.CROSS,
                     parents=parents, transactions=tuple(cross_payload),
                     converted=tuple(converted), created_at=self.env.now)

    def _drain(self, pool: Deque[Transaction],
               limit: int) -> List[Transaction]:
        batch: List[Transaction] = []
        while pool and len(batch) < limit:
            batch.append(pool.popleft())
        return batch

    def _preplay_blocked(self) -> bool:
        """P3/P4: an unexecuted cross-shard transaction in a leader history
        touching our shard blocks preplay (it will write our keys between
        now and our block's validation).  After a reconfiguration, preplay
        also waits until the pipeline has applied all pre-transition work —
        the new shard's state is not ours to speculate on before that."""
        if self._awaiting_drain:
            return True
        return bool(self._pending_cross.get(self.my_shard))

    def _should_shift(self, round_number: int) -> bool:
        """Conditions (1)–(4) of §6 for broadcasting a Shift block."""
        if self.shift_sent:  # condition 4
            return False
        config = self.config
        # Condition 2: periodic rotation every K' proposals.
        if config.k_prime is not None \
                and self.rounds_proposed >= config.k_prime:
            return True
        # Condition 1: some proposer silent for K rounds.
        if round_number > config.k_silent:
            for replica in range(self.n):
                if replica == self.id:
                    continue
                last = self._last_vertex_round.get(replica, -1)
                if last < round_number - config.k_silent:
                    return True
        # Condition 3: f+1 Shift blocks seen in the previous round.
        seen = self._shift_authors_seen.get(round_number - 1, set())
        if len(seen) >= weak_quorum_size(self.n):
            return True
        return False

    def _propose(self, block: Block) -> None:
        self.blocks_proposed += 1
        self._builders[block.digest] = CertificateBuilder(
            block.digest, self.id, block.round_number, self.n,
            block.vote_payload)
        self._pending_blocks[block.digest] = block
        self.network.broadcast(self.id, "proposal", (self.epoch, block))

    # -------------------------------------------------------------- commits

    def _process_commit(self, event: CommitEvent) -> None:
        """Bookkeeping for one commit wave; heavy work goes to the
        execution pipeline (which consumes simulated time)."""
        delivered = event.delivered
        for vertex in delivered:
            self.commit_log.append(
                epoch=self.epoch, round_number=vertex.round_number,
                digest=vertex.digest, committed_at=self.env.now)
            self.metrics.record_commit(self.epoch, vertex.round_number,
                                       self.env.now,
                                       kind=vertex.block.kind.value)
            self._committed_last_round[vertex.author] = max(
                self._committed_last_round.get(vertex.author, -1),
                vertex.round_number)
            if vertex.block.is_shift:
                self._committed_shift_authors.add(vertex.author)
            if vertex.author == self.id:
                self._in_flight_single.pop(vertex.digest, None)
        # Phase 1 — single-shard preplay results (G1/P2: first).
        for vertex in delivered:
            if vertex.block.preplay:
                self._exec_queue.put(("validate", vertex))
        # Phase 2 — cross-shard payload in total order, with P5 deferral.
        payload: List[Transaction] = list(self._deferred_cross)
        self._deferred_cross = []
        for vertex in delivered:
            payload.extend(vertex.block.ordered_payload())
        if payload:
            if self.config.engine == "serial":
                self._exec_queue.put(("serial", payload))
            else:
                runnable = self._apply_p5(payload, event)
                if runnable:
                    self._exec_queue.put(("cross", runnable))
        # §6: ending-round detection — 2f+1 committed Shift blocks.
        if len(self._committed_shift_authors) >= quorum_size(self.n):
            self._reconfigure()

    def _apply_p5(self, payload: List[Transaction],
                  event: CommitEvent) -> List[Transaction]:
        """Split the wave's payload into runnable vs deferred (§5.1 P5,
        §5.3): a transaction touching a shard whose proposer has no
        committed block at round >= leader_round - 1 is bypassed, along
        with that shard's subsequent transactions, to a later wave."""
        threshold = event.leader_round - 1
        runnable: List[Transaction] = []
        deferred_shards: Set[int] = set()
        seen: Set[int] = set()
        for tx in payload:
            if tx.tx_id in self.executed or tx.tx_id in seen:
                continue
            seen.add(tx.tx_id)
            involved = set(tx.shard_ids)
            if involved & deferred_shards:
                self._deferred_cross.append(tx)
                continue
            missing = False
            for sid in tx.shard_ids:
                proposer = self.shard_map.proposer_of(sid, self.epoch)
                if self._committed_last_round.get(proposer, -1) < threshold:
                    # The shard's proposals are not committed up to the
                    # wave: its pending preplay blocks could still commit
                    # later and must validate before this write lands.
                    missing = True
            if missing:
                # Deferring must cover the transaction's whole shard set:
                # later transactions on ANY of its shards have to keep
                # their per-shard order behind it.
                deferred_shards.update(tx.shard_ids)
                self._deferred_cross.append(tx)
            else:
                runnable.append(tx)
        return runnable

    # ------------------------------------------------------ execution pipeline

    def _execution_loop(self):
        """Applies committed work in order, consuming simulated time."""
        # Replica-lifetime consumer: a parked simulated process is inert
        # once the DES event queue drains, so no sentinel is needed.
        while True:
            item = yield self._exec_queue.get()  # reprolint: disable=C303
            kind = item[0]
            if kind == "validate":
                yield from self._run_validation(item[1])
            elif kind == "cross":
                yield from self._run_cross(item[1])
            elif kind == "serial":
                yield from self._run_serial(item[1])
            elif kind == "epoch-drained":
                if item[1] == self.epoch:
                    self._awaiting_drain = False
            else:  # pragma: no cover - defensive
                raise ConsensusError(f"unknown execution item {kind!r}")

    def _run_validation(self, vertex: Vertex):
        """Validate one preplay block against local state and apply it (§4)."""
        block = vertex.block
        if self.config.strict_validation:
            # The digest covers the published (possibly forged) preplay, so
            # it is key and subject (the block would stay pinned past its
            # epoch): the first replica here decides for all whose store
            # agrees.
            outcome = self.memo.replay(
                ("validate", vertex.digest), vertex.digest, self.store,
                lambda view: validate_block(
                    *_declared(block), self.registry, view,
                    validators=self.config.validators,
                    op_cost=self.config.validation_op_cost))
            if outcome.simulated_cost > 0:
                yield self.env.timeout(outcome.simulated_cost)
            if not outcome.valid:
                # Reject the forged preplay, then fall back to the
                # canonical serial re-execution: deterministic, so every
                # replica applies the identical recovery writes.
                self.validation_failures += 1
                self.metrics.validation_failures += 1
                recovery = self.memo.replay(
                    ("reexecute", vertex.digest), vertex.digest, self.store,
                    lambda view: reexecute_block(
                        *_declared(block), self.registry, view,
                        op_cost=self.config.validation_op_cost))
                if recovery.simulated_cost > 0:
                    yield self.env.timeout(recovery.simulated_cost)
                self.metrics.validation_reexecutions += len(recovery.executed)
                self._apply(recovery.writes, recovery.executed, "single")
                return
            writes = outcome.writes
        else:
            cost = estimate_validation_cost(
                block.preplay, validators=self.config.validators,
                op_cost=self.config.validation_op_cost)
            if cost > 0:
                yield self.env.timeout(cost)
            writes = {}
            for entry in block.preplay:
                writes.update(entry.write_set)
        self._apply(writes, (entry.tx_id for entry in block.preplay),
                    "single")

    def _run_cross(self, runnable: List[Transaction]):
        outcome = self._cross_exec.execute(runnable, self.store)
        if outcome.simulated_cost > 0:
            yield self.env.timeout(outcome.simulated_cost)
        self._apply(outcome.writes, (tx.tx_id for tx in runnable), "cross",
                    self._tx_kind)
        touched: Set[int] = set()
        for tx in runnable:
            for sid in tx.shard_ids:
                touched.add(sid)
                pending = self._pending_cross.get(sid)
                if pending is not None:
                    pending.pop(tx.tx_id, None)
        if self.my_shard in touched:
            # Cross-shard writes landed in our shard: the speculative
            # overlay would now diverge from committed state.
            self._overlay_dirty = True

    def _run_serial(self, payload: List[Transaction]):
        """Tusk baseline: everything executes serially in total order."""
        runnable = [tx for tx in payload if tx.tx_id not in self.executed]
        if not runnable:
            return
        outcome = self._cross_exec.execute_serial(runnable, self.store)
        if outcome.simulated_cost > 0:
            yield self.env.timeout(outcome.simulated_cost)
        self._apply(outcome.writes, (tx.tx_id for tx in runnable), "serial",
                    self._tx_kind)

    def _apply(self, writes: Dict[str, Any], tx_ids: Iterable[int],
               kind: str, kinds: Optional[Dict[int, str]] = None) -> None:
        """The one point where committed work reaches the store: apply one
        batch's writes and mark its transactions executed here, at this
        instant; pass the collector, which samples a transaction once per
        cluster, only those it has not recorded, of kind
        ``kinds.get(tx_id, kind)``."""
        self.store.apply_batch(writes)
        now = self.env.now
        executed = self.executed
        recorded = self.metrics.recorded_ids
        for tx_id in tx_ids:
            if tx_id in executed:
                continue
            executed.add(tx_id)
            if tx_id not in recorded:
                self.metrics.record_execution(
                    tx_id, kind if kinds is None else kinds.get(tx_id, kind),
                    self._submit_times.get(tx_id, now), now)

    # ------------------------------------------------------- reconfiguration

    def _reconfigure(self) -> None:
        """Transition to the next DAG/epoch (§6, non-blocking).

        Uncommitted transactions die with the old DAG (the last two rounds
        plus anything still pooled); the cluster's client layer resubmits
        them to the new proposers, as §6 prescribes.
        """
        dropped: List[Transaction] = list(self.mempool_single)
        dropped.extend(self._preplaying_batch)
        for batch in self._in_flight_single.values():
            dropped.extend(batch)
        dropped.extend(self.mempool_cross)
        self.metrics.dropped_transactions += len(dropped)
        if self._deferred_cross:
            # Committed cross-shard transactions still bypassed under P5 are
            # finalized at the epoch boundary: the ending round is the same
            # on every honest replica, so this execution point is identical
            # everywhere.
            self._exec_queue.put(("cross", self._deferred_cross))
        # Preplay in the new epoch must see all pre-transition effects:
        # _enter_epoch sets _awaiting_drain, and this marker clears it.
        self._exec_queue.put(("epoch-drained", self.epoch + 1))
        # Wake any process blocked on old-epoch conditions so it can observe
        # the epoch change and move on (non-blocking reconfiguration).
        for event in list(self._round_events.values()) \
                + list(self._leader_events.values()):
            if not event.triggered:
                event.succeed()
        self.epoch += 1
        self.metrics.record_reconfiguration(self.epoch, self.env.now)
        if self._session is not None:
            # The execution session dies with the epoch: in-flight preplay
            # is discarded (already counted in ``dropped`` above), the old
            # worker pool shuts down, and the new epoch gets a clean graph.
            self._session.abort()
        self._enter_epoch()
        if self.on_drop is not None and dropped:
            self.on_drop(self, dropped)
        # Replay buffered messages that were ahead of us.
        buffered, self._future_epoch_messages = (
            self._future_epoch_messages, [])
        for message in buffered:
            self._dispatch(message)

