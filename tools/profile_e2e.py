"""cProfile one run of an end-to-end benchmark workload.

``PYTHONPATH=src python -m tools.profile_e2e <workload> [--scale smoke|full]
[--top N]`` builds the cluster exactly as the benchmark does
(``benchmarks.e2e.iteration.build_cluster``, seed 1), runs ``run_and_drain``
under cProfile and prints the ``N`` functions with the largest self time,
then how many committed work items the host replayed and how many the
replicas took from the cluster's memo (the model replays their sum).

cProfile charges every Python call but nothing inside native code, so the
proportions are shifted: use this to find candidates, and
``python -m benchmarks.e2e`` (profiling off) to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import Optional, Sequence, Tuple

from benchmarks.e2e.iteration import build_cluster, run_and_drain
from benchmarks.e2e.workloads import WORKLOADS
from repro.core.cluster import Cluster


SEED = 1


def profile_workload(name: str,
                     scale: str = "full") -> Tuple[pstats.Stats, Cluster]:
    """Profile one run of workload ``name`` and return the finished cluster
    with the profile; the cluster is built outside the profiled region, as
    the benchmark times it."""
    workload = WORKLOADS[name]
    duration, drain = workload.spans[scale]
    stamps: dict = {}
    cluster = build_cluster(workload, SEED, duration, stamps)
    profiler = cProfile.Profile()
    profiler.runcall(run_and_drain, cluster, duration, drain, stamps)
    return pstats.Stats(profiler), cluster


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.profile_e2e", description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument("--top", type=int, default=25,
                        help="rows to print, by self time (default 25)")
    args = parser.parse_args(argv)
    stats, cluster = profile_workload(args.workload, args.scale)
    stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    memo = cluster.memo
    print(f"replays: {memo.executed} executed, {memo.reused} reused "
          f"(modelled: {memo.executed + memo.reused}, one per replica "
          f"and committed work item)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
