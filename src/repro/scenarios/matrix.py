"""The hostile-world scenario matrix.

A :class:`Scenario` is one cell: an adversary behaviour × an engine × a
workload shape × a seed, all run inside the deterministic DES by
:func:`run_scenario`.  :func:`run_matrix` executes a whole cross product
and checks every cell against the safety invariants of
:mod:`repro.scenarios.checker`, so "the protocol stays safe under faults"
is a tested property rather than an assumption (ROADMAP item 4).

The default catalogs cover the adversaries and traffic shapes the paper's
failure discussion names (crash-stop, censorship with healing, network
partitions that heal, Byzantine executors publishing forged preplay sets,
slow-replica gray failures) over SmallBank under flash-crowd / moving-
hotspot / diurnal shapes plus the multi-key TPC-C-lite family.  Every
schedule derives from the scenario seed, so a cell rerun with the same
seed is bit-identical down to its commit digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, \
    Tuple

from repro.adversary.behaviors import (ByzantineExecutor, Censorship,
                                       CrashStop, GrayFailure, Partition)
from repro.contracts import smallbank
from repro.contracts.contract import ContractRegistry
from repro.contracts import tpcc_lite
from repro.core.cluster import Cluster, ClusterResult
from repro.core.config import ThunderboltConfig
from repro.scenarios.checker import SafetyChecker, SafetyReport
from repro.workloads.shapes import (DiurnalLoad, FlashCrowd, MovingHotspot,
                                    TrafficShape)
from repro.workloads.smallbank_workload import (SmallBankWorkload,
                                                WorkloadConfig)
from repro.workloads.tpcc_lite import TPCCLiteConfig, TPCCLiteWorkload

#: The engines every scenario must stay safe on (the baselines are
#: exercised by the figure reproductions; the matrix targets the CE paths).
DEFAULT_ENGINES: Tuple[str, ...] = ("ce", "ce-streaming")


@dataclass(frozen=True)
class AdversaryCase:
    """One adversary column: how to arm a cluster against itself.

    ``install(cluster, scenario)`` injects the behaviour (windows are
    usually fractions of ``scenario.duration``); ``config_overrides`` are
    applied to the cell's :class:`ThunderboltConfig` (e.g. a small
    ``k_silent`` so censorship actually triggers reconfiguration).
    """

    name: str
    install: Callable[[Cluster, "Scenario"], None]
    config_overrides: Tuple[Tuple[str, Any], ...] = ()


@dataclass
class WorkloadBundle:
    """Everything a cell needs to deploy one workload family."""

    workload_config: WorkloadConfig
    #: Per-shard client stream builder: ``factory(cluster, shard)``.
    source_factory: Callable[[Cluster, int], Any]
    registry: Optional[ContractRegistry] = None
    initial_state: Optional[Dict[str, Any]] = None
    #: Conserved-quantity function for the SafetyChecker (None = vacuous).
    conserved: Optional[Callable[[Mapping[str, Any]], Any]] = None


@dataclass(frozen=True)
class WorkloadCase:
    """One workload column; ``build`` may scale shapes to the scenario."""

    name: str
    build: Callable[["Scenario"], WorkloadBundle]


@dataclass(frozen=True)
class Scenario:
    """One cell of the matrix."""

    adversary: AdversaryCase
    engine: str
    workload: WorkloadCase
    seed: int = 0
    n_replicas: int = 4
    batch_size: int = 8
    duration: float = 0.25
    drain: float = 0.1
    #: True drains committed work through the shard-lane pipeline
    #: (``ThunderboltConfig.shard_lanes``), checked by its
    #: serializability oracle at every wave boundary.
    shard_lanes: bool = False

    @property
    def name(self) -> str:
        suffix = "*lanes" if self.shard_lanes else ""
        return (f"{self.adversary.name}*{self.engine}"
                f"*{self.workload.name}*s{self.seed}{suffix}")


@dataclass
class CellResult:
    """One executed cell: measurements, safety verdict, commit digests."""

    scenario: Scenario
    result: ClusterResult
    safety: SafetyReport
    #: Per-replica commit-log digest sequences (for seed-stability checks).
    digests: Tuple[Tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return self.safety.ok


@dataclass
class MatrixResult:
    """All executed cells of one matrix sweep."""

    cells: List[CellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def failures(self) -> List[str]:
        return [f"{cell.scenario.name}: {failure}"
                for cell in self.cells
                for failure in cell.safety.failures]

    def cell(self, name: str) -> CellResult:
        for cell in self.cells:
            if cell.scenario.name == name:
                return cell
        raise KeyError(name)


# -- execution ---------------------------------------------------------------

def run_scenario(scenario: Scenario) -> CellResult:
    """Execute one cell in a fresh DES and check its safety invariants."""
    bundle = scenario.workload.build(scenario)
    config = ThunderboltConfig(
        n_replicas=scenario.n_replicas, batch_size=scenario.batch_size,
        engine=scenario.engine, seed=scenario.seed,
        shard_lanes=scenario.shard_lanes)
    if scenario.adversary.config_overrides:
        config = config.with_changes(
            **dict(scenario.adversary.config_overrides))
    cluster = Cluster(config, bundle.workload_config,
                      registry=bundle.registry,
                      initial_state=bundle.initial_state,
                      source_factory=bundle.source_factory)
    scenario.adversary.install(cluster, scenario)
    result = cluster.run(scenario.duration, drain=scenario.drain)
    report = SafetyChecker(conserved=bundle.conserved).check(cluster)
    digests = tuple(tuple(replica.commit_log.digests())
                    for replica in cluster.replicas)
    return CellResult(scenario=scenario, result=result, safety=report,
                      digests=digests)


def build_matrix(adversaries: Optional[Sequence[AdversaryCase]] = None,
                 engines: Sequence[str] = DEFAULT_ENGINES,
                 workloads: Optional[Sequence[WorkloadCase]] = None,
                 seeds: Sequence[int] = (0,),
                 **scenario_kwargs) -> List[Scenario]:
    """The cross product adversaries × engines × workloads × seeds."""
    if adversaries is None:
        adversaries = default_adversaries()
    if workloads is None:
        workloads = default_workloads()
    return [Scenario(adversary=adversary, engine=engine, workload=workload,
                     seed=seed, **scenario_kwargs)
            for adversary in adversaries
            for engine in engines
            for workload in workloads
            for seed in seeds]


def run_matrix(adversaries: Optional[Sequence[AdversaryCase]] = None,
               engines: Sequence[str] = DEFAULT_ENGINES,
               workloads: Optional[Sequence[WorkloadCase]] = None,
               seeds: Sequence[int] = (0,),
               **scenario_kwargs) -> MatrixResult:
    """Run the whole cross product; every cell gets its safety verdict."""
    matrix = MatrixResult()
    for scenario in build_matrix(adversaries, engines, workloads, seeds,
                                 **scenario_kwargs):
        matrix.cells.append(run_scenario(scenario))
    return matrix


# -- default adversary catalog ----------------------------------------------

def default_adversaries() -> List[AdversaryCase]:
    """The hostile-replica / hostile-network column of the matrix.

    Windows are fractions of the scenario duration so the same catalog
    scales from the CI smoke to long sweeps.  The partition case disables
    reconfiguration (huge ``k_silent``): with a Shift block committed only
    on the majority side, the minority replica would land in a different
    epoch — partition tolerance is tested separately from censorship
    recovery, which *wants* reconfiguration (small ``k_silent``).
    """
    return [
        AdversaryCase("none", lambda cluster, scenario: None),
        AdversaryCase(
            "crash",
            lambda cluster, scenario: cluster.install(CrashStop(
                replicas=(scenario.n_replicas - 1,),
                at=0.35 * scenario.duration))),
        AdversaryCase(
            "censor-heal",
            lambda cluster, scenario: cluster.install(Censorship(
                replicas=(1,), start=0.2 * scenario.duration,
                end=0.5 * scenario.duration)),
            config_overrides=(("k_silent", 4),)),
        AdversaryCase(
            "partition-heal",
            lambda cluster, scenario: cluster.install(Partition(
                groups=(tuple(range(scenario.n_replicas - 1)),
                        (scenario.n_replicas - 1,)),
                start=0.25 * scenario.duration,
                heal_at=0.55 * scenario.duration)),
            config_overrides=(("k_silent", 10_000),)),
        AdversaryCase(
            # A partition that splits *shards*, not just a straggler
            # replica: the replica set halves, so every cross-shard
            # transaction spanning the cut loses a committable quorum
            # until the heal.  With shard lanes on, this stalls lanes
            # mid-wave — exactly the window where a buggy
            # pipeline could apply a half-prepared wave; the per-cell
            # conservation invariant would catch it.
            "shard-split-heal",
            lambda cluster, scenario: cluster.install(Partition(
                groups=(tuple(range(scenario.n_replicas // 2)),
                        tuple(range(scenario.n_replicas // 2,
                                    scenario.n_replicas))),
                start=0.25 * scenario.duration,
                heal_at=0.5 * scenario.duration)),
            config_overrides=(("k_silent", 10_000),)),
        AdversaryCase(
            "byzantine-exec",
            lambda cluster, scenario: cluster.install(ByzantineExecutor(
                replicas=(1,), rate=1.0))),
        AdversaryCase(
            "gray-slow",
            lambda cluster, scenario: cluster.install(GrayFailure(
                replicas=(2,), extra_mean=0.004))),
    ]


# -- default workload catalog ------------------------------------------------

def _smallbank_conserved(accounts: int):
    def conserved(state: Mapping[str, Any]) -> int:
        total = 0
        for account in range(accounts):
            total += state.get(smallbank.checking_key(account), 0)
            total += state.get(smallbank.savings_key(account), 0)
        return total
    return conserved


def _smallbank_case(name: str,
                    shape_of: Optional[Callable[["Scenario"],
                                                TrafficShape]] = None,
                    accounts: int = 200,
                    cross_shard_ratio: float = 0.1) -> WorkloadCase:
    workload_config = WorkloadConfig(accounts=accounts,
                                     cross_shard_ratio=cross_shard_ratio)

    def build(scenario: Scenario) -> WorkloadBundle:
        shape = shape_of(scenario) if shape_of is not None else None

        def factory(cluster: Cluster, shard: int) -> SmallBankWorkload:
            return SmallBankWorkload(
                workload_config, cluster.shard_map,
                seed=(cluster.config.seed << 10) ^ (shard * 7919 + 13),
                start_tx_id=shard, shard=shard,
                tx_id_stride=cluster.config.n_replicas, shape=shape)
        return WorkloadBundle(
            workload_config=workload_config, source_factory=factory,
            initial_state=smallbank.initial_state(accounts),
            conserved=_smallbank_conserved(accounts))
    return WorkloadCase(name, build)


def _tpcc_case(name: str = "tpcc-lite",
               shape_of: Optional[Callable[["Scenario"],
                                           TrafficShape]] = None,
               config: Optional[TPCCLiteConfig] = None) -> WorkloadCase:
    tpcc_config = config if config is not None \
        else TPCCLiteConfig(warehouses=8, remote_ratio=0.15)

    def build(scenario: Scenario) -> WorkloadBundle:
        shape = shape_of(scenario) if shape_of is not None else None

        def factory(cluster: Cluster, shard: int) -> TPCCLiteWorkload:
            return TPCCLiteWorkload(
                tpcc_config, cluster.shard_map,
                seed=(cluster.config.seed << 10) ^ (shard * 7919 + 13),
                start_tx_id=shard, shard=shard,
                tx_id_stride=cluster.config.n_replicas, shape=shape)
        return WorkloadBundle(
            workload_config=WorkloadConfig(
                accounts=tpcc_config.warehouses
                * tpcc_config.customers_per_warehouse),
            source_factory=factory,
            registry=tpcc_lite.default_registry(),
            initial_state=tpcc_config.initial_state(),
            conserved=tpcc_config.conserved)
    return WorkloadCase(name, build)


def default_workloads() -> List[WorkloadCase]:
    """The hostile-traffic column: three shaped SmallBank streams plus the
    multi-key TPC-C-lite family (stationary — its stress is the read/write
    set width, not the arrival curve)."""
    return [
        _smallbank_case(
            "smallbank-flash",
            lambda s: FlashCrowd(start=0.3 * s.duration,
                                 end=0.7 * s.duration, surge=3.0, focus=4)),
        _smallbank_case(
            "smallbank-hotspot",
            lambda s: MovingHotspot(period=s.duration / 5, stride=7)),
        _smallbank_case(
            "smallbank-diurnal",
            lambda s: DiurnalLoad(period=s.duration, low=0.25)),
        _tpcc_case(),
    ]
