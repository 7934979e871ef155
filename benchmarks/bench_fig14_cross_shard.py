"""Figure 14 — impact of cross-shard transactions (16 replicas).

Paper setup (§12): P% of transactions touch two shards,
P in {0, 4, 8, 20, 60, 100}.  At P = 0 Thunderbolt and Thunderbolt-OCC are
equal (~100K); by P = 8 Thunderbolt-OCC has collapsed toward Tusk while
Thunderbolt holds several times higher; even at P = 100 Thunderbolt's
deterministic lane execution keeps it ~2x over Tusk.  Thunderbolt's latency
stays roughly half of Thunderbolt-OCC's.

Beyond the paper's systems, the sweep runs **Thunderbolt-Piped** — the
``shard_lanes=True`` configuration that drains cross-shard waves
through per-shard lanes (:mod:`repro.core.cross_shard`) — at the
cross-heavy mixes.  At bench scale the cluster is consensus-bound, so
its end-to-end throughput tracks plain Thunderbolt; the interesting
evidence here is that the full system stays safe with lanes live
(waves and oracle checks both nonzero).  The execution-layer makespan
win itself is gated deterministically in
``benchmarks/bench_regression.py`` (``cross_shard_pipeline``), where
consensus cannot mask it.
"""

import pytest

from benchmarks.conftest import run_system, scaled

RATIOS = [0.0, 0.04, 0.08, 0.20, 0.60, 1.00]
#: Cross-heavy subset the pipelined system runs at (keeps the default
#: profile's runtime bounded; the 60% point is the acceptance mix).
PIPED_RATIOS = [0.20, 0.60]
N_REPLICAS = scaled(24, 16, 4)   # FULL pushes past the paper's 16 shards
DURATION = scaled(0.6, 0.18, 0.15)
SYSTEMS = [("Thunderbolt", "ce"), ("Thunderbolt-OCC", "occ"),
           ("Tusk", "serial")]


def sweep():
    series = {}
    for name, engine in SYSTEMS:
        for ratio in RATIOS:
            result = run_system(engine, N_REPLICAS, duration=DURATION,
                                cross_shard_ratio=ratio, drain=0.1)
            series.setdefault(name, {})[ratio] = result
    for ratio in PIPED_RATIOS:
        result = run_system(
            "ce", N_REPLICAS, duration=DURATION, cross_shard_ratio=ratio,
            drain=0.1, shard_lanes=True)
        series.setdefault("Thunderbolt-Piped", {})[ratio] = result
    return series


@pytest.mark.benchmark(group="fig14")
def test_fig14_cross_shard_ratio(benchmark, fig_table):
    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for name, points in series.items():
        for ratio, result in points.items():
            fig_table.add(name, f"{ratio:.0%}", round(result.throughput),
                          round(result.mean_latency * 1000, 1),
                          result.executed_cross)
    fig_table.show(
        f"Figure 14 - cross-shard ratio sweep ({N_REPLICAS} replicas)",
        ["system", "cross%", "tps", "latency_ms", "cross executed"])

    tb = series["Thunderbolt"]
    occ = series["Thunderbolt-OCC"]
    # Both preplay systems decline as P grows.
    assert tb[0.0].throughput > tb[1.0].throughput
    assert occ[0.0].throughput > occ[1.0].throughput
    # At P = 0 the two are comparable.
    ratio0 = tb[0.0].throughput / max(occ[0.0].throughput, 1)
    assert 0.6 < ratio0 < 1.8
    # Under cross-shard load Thunderbolt stays at or ahead of
    # Thunderbolt-OCC (the gap widens with scale and contention).
    assert tb[0.20].throughput >= scaled(1.0, 0.95, 0.8) \
        * occ[0.20].throughput
    # Cross-shard latency costs show up against the P = 0 baseline.
    assert tb[0.20].mean_latency > tb[0.0].mean_latency

    # The pipelined configuration holds plain Thunderbolt's throughput
    # (consensus-bound at this scale) with the lane machinery live and
    # every wave boundary's serializability check passed.
    piped = series["Thunderbolt-Piped"]
    for ratio in PIPED_RATIOS:
        assert piped[ratio].executed_cross > 0
        assert piped[ratio].cross_waves_pipelined > 0
        assert piped[ratio].lane_segments > 0
        assert piped[ratio].lane_oracle_checks >= \
            piped[ratio].cross_waves_pipelined
        assert piped[ratio].throughput >= scaled(0.9, 0.9, 0.8) \
            * tb[ratio].throughput
