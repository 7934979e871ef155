"""Command-line entry point: ``python -m repro``.

Runs a Thunderbolt cluster simulation with configurable knobs and prints a
summary — handy for exploring the parameter space without writing code.

Examples::

    python -m repro                               # defaults: 4 replicas, CE
    python -m repro --replicas 8 --engine serial  # Tusk baseline
    python -m repro --cross 0.2 --duration 2      # 20% cross-shard load
    python -m repro --k-prime 100                 # rotate shards often
"""

from __future__ import annotations

import argparse
import sys

from repro.core.cluster import Cluster
from repro.core.config import ENGINES, ThunderboltConfig
from repro.sim.network import LatencyModel
from repro.workloads import WorkloadConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Simulate a Thunderbolt cluster (EDBT 2026 reproduction)")
    parser.add_argument("--replicas", type=int, default=4,
                        help="number of replicas / shards (default 4)")
    parser.add_argument("--engine", choices=ENGINES, default="ce",
                        help="preplay engine: ce (Thunderbolt), occ "
                             "(Thunderbolt-OCC), serial (Tusk)")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="simulated seconds to run (default 1.0)")
    parser.add_argument("--batch", type=int, default=50,
                        help="transactions preplayed per block (default 50)")
    parser.add_argument("--accounts", type=int, default=1000,
                        help="SmallBank account pool (default 1000)")
    parser.add_argument("--pr", type=float, default=0.5,
                        help="read probability Pr (default 0.5)")
    parser.add_argument("--theta", type=float, default=0.85,
                        help="Zipfian skew (default 0.85)")
    parser.add_argument("--cross", type=float, default=0.0,
                        help="cross-shard transaction ratio (default 0)")
    parser.add_argument("--k-prime", type=int, default=None,
                        help="shard rotation period in rounds (default off)")
    parser.add_argument("--wan", action="store_true",
                        help="use WAN latency (~75 ms) instead of LAN")
    parser.add_argument("--crash", type=int, default=0, metavar="F",
                        help="crash-stop the last F replicas at t=0.05")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.crash < 0 or args.crash >= args.replicas:
        print(f"error: --crash must be in [0, {args.replicas})",
              file=sys.stderr)
        return 2
    config = ThunderboltConfig(
        n_replicas=args.replicas, engine=args.engine,
        batch_size=args.batch, seed=args.seed, k_prime=args.k_prime,
        latency=LatencyModel.wan() if args.wan else LatencyModel.lan())
    workload = WorkloadConfig(
        accounts=max(args.accounts, 2 * args.replicas),
        read_probability=args.pr, theta=args.theta,
        cross_shard_ratio=args.cross)
    crash = tuple(range(args.replicas - args.crash, args.replicas))
    cluster = Cluster(config, workload, crash_replicas=crash, crash_at=0.05)
    label = {"ce": "Thunderbolt", "occ": "Thunderbolt-OCC",
             "serial": "Tusk"}[args.engine]
    print(f"{label}: {args.replicas} replicas, batch {args.batch}, "
          f"Pr={args.pr}, theta={args.theta}, cross={args.cross:.0%}, "
          f"{'WAN' if args.wan else 'LAN'}"
          + (f", {args.crash} crashed" if args.crash else ""))
    result = cluster.run(args.duration)
    print(f"  executed:         {result.executed:,} tx "
          f"({result.executed_single:,} single, "
          f"{result.executed_cross:,} cross)")
    print(f"  throughput:       {result.throughput:,.0f} tps")
    print(f"  latency:          mean {result.mean_latency * 1000:.2f} ms, "
          f"p50 {result.p50_latency * 1000:.2f} ms, "
          f"p99 {result.p99_latency * 1000:.2f} ms")
    print(f"  blocks committed: {result.blocks_committed:,}")
    print(f"  reconfigurations: {result.reconfigurations}")
    print(f"  re-executions:    {result.re_executions:,}")
    print(f"  logs consistent:  {cluster.logs_prefix_consistent()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
