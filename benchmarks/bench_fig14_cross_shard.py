"""Figure 14 — impact of cross-shard transactions (16 replicas).

Paper setup (§12): P% of transactions touch two shards,
P in {0, 4, 8, 20, 60, 100}.  At P = 0 Thunderbolt and Thunderbolt-OCC are
equal (~100K); by P = 8 Thunderbolt-OCC has collapsed toward Tusk while
Thunderbolt holds several times higher; even at P = 100 Thunderbolt's
deterministic lane execution keeps it ~2x over Tusk.  Thunderbolt's latency
stays roughly half of Thunderbolt-OCC's.

Thunderbolt runs every committed cross-shard batch as one ordered OE
replay charged the critical path of its per-SID lane plan
(:class:`repro.core.cross_shard.CrossShardExecutor`); Tusk is charged the
serial sum of the same replay.
"""

import pytest

from benchmarks.conftest import run_system, scaled

RATIOS = [0.0, 0.04, 0.08, 0.20, 0.60, 1.00]
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
