"""Configuration for a Thunderbolt cluster simulation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.ce.runner import CEConfig
from repro.errors import ConfigError
from repro.sim.network import LatencyModel

#: The execution engines a shard proposer can preplay with (§12 compares
#: Thunderbolt = "ce", Thunderbolt-OCC = "occ"; Tusk = "serial" executes
#: post-order with no preplay at all).  "ce-streaming" is the CE engine
#: behind a long-lived :class:`~repro.ce.streaming.StreamSession`: one
#: dependency graph, closure index, and executor pool serve every preplay
#: round of an epoch (torn down and rebuilt at reconfiguration), with
#: committed-node pruning keeping the graph at ~2 rounds of nodes.  Its
#: per-round committed orders and preplay entries are byte-identical to
#: "ce".
ENGINES = ("ce", "occ", "serial", "ce-streaming")


@dataclass(frozen=True)
class ThunderboltConfig:
    """Everything a :class:`~repro.core.cluster.Cluster` needs.

    The defaults mirror the paper's system evaluation setup (§12): 16
    executors and 16 validators per replica, batches of 500, SmallBank; the
    reconfiguration period ``k_prime`` defaults high enough to disable
    rotation, exactly like the paper's default.
    """

    n_replicas: int = 4
    batch_size: int = 100
    engine: str = "ce"
    ce: CEConfig = field(default_factory=lambda: CEConfig(executors=16))
    validators: int = 16
    #: Re-execute blocks at commit time (strict §4 validation).  When off,
    #: validation cost is still charged but declared results are trusted —
    #: used by large benchmarks; tests run strict.
    strict_validation: bool = True
    validation_op_cost: float = 5e-6

    # -- round / consensus pacing ------------------------------------------
    #: P3/P6: how long a proposer waits for the leader's proposal of the
    #: current round before promoting its batch to cross-shard handling.
    leader_timeout: float = 0.05
    #: Minimum spacing between a replica's own proposals (models batching
    #: cadence; 0 lets rounds free-run at network speed).
    round_interval: float = 0.0

    # -- reconfiguration (§6) -------------------------------------------------
    #: Condition 1: a proposer silent for K rounds triggers a Shift block.
    k_silent: int = 8
    #: Condition 2: propose a Shift block every K' rounds (rotation period).
    #: ``None`` disables periodic rotation (the paper's default for §12).
    k_prime: Optional[int] = None
    #: Simulated cost of taking over a shard after reconfiguration (state
    #: hand-off is out of the paper's scope; modelled as a fixed delay).
    reconfig_handoff_cost: float = 0.002

    # -- behaviour toggles ---------------------------------------------------
    #: §5.4: propose skip blocks and recover preplay instead of converting
    #: every conflicted single-shard transaction (Fig. 5 vs Fig. 4).
    skip_blocks: bool = True
    #: Cap on a catch-up batch after skip rounds, as a multiple of
    #: ``batch_size``: clients keep submitting while a shard is blocked, so
    #: the first unblocked preplay drains the backlog (bounded to keep a
    #: single preplay's duration sane).
    max_batch_factor: int = 5
    #: Client demand per round, as a multiple of ``batch_size``.  1 paces
    #: load to capacity (latency-oriented runs); >1 saturates the system so
    #: throughput measures capacity, which is how the paper's evaluation
    #: operates.
    demand_factor: int = 1
    #: Drain committed work through per-shard lanes
    #: (:class:`~repro.core.cross_shard.ShardLanePipeline`) instead of the
    #: batch-synchronous cross-shard barrier.  CE engines only; off in
    #: every workload the end-to-end benchmark runs (Fig. 14's
    #: Thunderbolt-Piped series turns it on).
    shard_lanes: bool = False

    # -- environment -----------------------------------------------------------
    latency: LatencyModel = field(default_factory=LatencyModel.lan)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigError(f"n_replicas must be >= 1: {self.n_replicas}")
        if self.batch_size < 0:
            raise ConfigError(f"batch_size must be >= 0: {self.batch_size}")
        if self.engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}: {self.engine!r}")
        if self.k_prime is not None and self.k_prime < 1:
            raise ConfigError(f"k_prime must be >= 1: {self.k_prime}")
        if self.k_silent < 1:
            raise ConfigError(f"k_silent must be >= 1: {self.k_silent}")
        if self.k_prime is not None and self.k_prime <= self.k_silent:
            raise ConfigError("k_prime must exceed k_silent (K' > K, §6)")
        if self.shard_lanes and self.engine not in ("ce", "ce-streaming"):
            raise ConfigError(
                f"shard_lanes needs a CE engine, not {self.engine!r}")

    @property
    def faults_tolerated(self) -> int:
        return (self.n_replicas - 1) // 3

    def with_changes(self, **kwargs) -> "ThunderboltConfig":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)
