"""cProfile one run of an end-to-end benchmark workload.

``PYTHONPATH=src python -m tools.profile_e2e <workload> [--scale smoke|full]
[--top N]`` builds the cluster exactly as the benchmark does
(``benchmarks.e2e.iteration.build_cluster``, seed 1), runs ``run_and_drain``
under cProfile and prints the ``N`` functions with the largest self time,
then how many committed work items the host replayed and how many the
replicas took from the cluster's memo (the model replays their sum).

A second, unprofiled run of the same seed then counts the kernel's events
per executed transaction (the benchmark's ``events_per_tx``), once by event
class and once by the process or callback each event resumes — where the
events a change could remove come from.  A third counts the closure index's
work per transaction by wrapping three ``DependencyGraph`` methods: the
controller's point queries (``has_path``), the closure rows each new
edge ORs into (``_connect``: exactly its two grow sets), next to the rows
an unmasked propagation — every live ancestor and descendant row — would
have ORed and the ancestors skipped because they committed, and the
reopens of committed nodes (``_reopen``).

cProfile charges every Python call but nothing inside native code, so the
proportions are shifted: use this to find candidates, and
``python -m benchmarks.e2e`` (profiling off) to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import Counter
from typing import Optional, Sequence, Tuple

from benchmarks.e2e.iteration import build_cluster, run_and_drain
from benchmarks.e2e.workloads import WORKLOADS
from repro.ce.depgraph import DependencyGraph
from repro.core.cluster import Cluster
from repro.sim.events import Event, Process


SEED = 1


def _build(name: str, scale: str) -> Tuple[Cluster, tuple]:
    """Workload ``name``'s cluster, built as the benchmark builds it, and
    the remaining arguments of its ``run_and_drain``."""
    workload = WORKLOADS[name]
    duration, drain = workload.spans[scale]
    stamps: dict = {}
    cluster = build_cluster(workload, SEED, duration, stamps)
    return cluster, (duration, drain, stamps)


def profile_workload(name: str,
                     scale: str = "full") -> Tuple[pstats.Stats, Cluster]:
    """Profile one run of workload ``name`` and return the finished cluster
    with the profile; the cluster is built outside the profiled region, as
    the benchmark times it."""
    cluster, args = _build(name, scale)
    profiler = cProfile.Profile()
    profiler.runcall(run_and_drain, cluster, *args)
    return pstats.Stats(profiler), cluster


def resumes(event: Event) -> str:
    """What processing ``event`` runs: the generator of each process it
    resumes, else the callback's qualified name."""
    names = []
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            names.append(owner._generator.__qualname__)
        else:
            names.append(getattr(callback, "__qualname__", repr(callback)))
    return " + ".join(names) or "(nothing)"


def count_events(name: str,
                 scale: str = "full") -> Tuple[Counter, Counter, Cluster]:
    """Run workload ``name`` unprofiled, counting every processed event by
    class and by what it resumes."""
    cluster, args = _build(name, scale)
    env = cluster.env
    step = env.step
    by_class: Counter = Counter()
    by_target: Counter = Counter()

    def counting_step() -> None:
        event = env._queue[0][3]   # the event step() pops next
        by_class[type(event).__name__] += 1
        by_target[resumes(event)] += 1
        step()
    env.step = counting_step   # Environment.run calls self.step()
    run_and_drain(cluster, *args)
    return by_class, by_target, cluster


def print_events(by_class: Counter, by_target: Counter,
                 executed: int) -> None:
    total = sum(by_class.values())
    print(f"events: {total} for {executed} executed transactions "
          f"({total / executed:.2f} per transaction)")
    for title, counts in (("class", by_class), ("resumes", by_target)):
        print(f"{'events':>9} {'per tx':>8}  {title}")
        for label, count in counts.most_common():
            print(f"{count:>9} {count / executed:>8.2f}  {label}")


def count_closure_work(name: str,
                       scale: str = "full") -> Tuple[Counter, Cluster]:
    """Run workload ``name`` unprofiled, counting ``has_path`` calls,
    reopens and ``_connect``'s work: calls, rows ORed (its ``grow_down``
    and ``grow_up`` sets), the rows an unmasked propagation would OR (the
    live members of ``up[src]`` and ``down[dst]``), and the ancestors
    ``grow_down`` skipped because they are closed (committed)."""
    cluster, args = _build(name, scale)
    counts: Counter = Counter()
    has_path = DependencyGraph.has_path
    connect = DependencyGraph._connect
    reopen = DependencyGraph._reopen

    def counting_has_path(graph, src, dst):
        counts["path_queries"] += 1
        return has_path(graph, src, dst)

    def counting_connect(graph, src, dst):
        down, up = graph._down, graph._up   # read before any row changes
        not_reaching = up[src] & graph._live & ~up[dst]
        descendants = down[dst] & graph._live
        counts["connects"] += 1
        counts["rows_ored"] += ((not_reaching & graph._open).bit_count()
                                + (descendants & ~down[src]).bit_count())
        counts["rows_unmasked"] += ((up[src] & graph._live).bit_count()
                                    + descendants.bit_count())
        counts["skipped_closed"] += (not_reaching & ~graph._open).bit_count()
        connect(graph, src, dst)

    def counting_reopen(graph, node):
        counts["reopens"] += 1
        reopen(graph, node)

    DependencyGraph.has_path = counting_has_path
    DependencyGraph._connect = counting_connect
    DependencyGraph._reopen = counting_reopen
    try:
        run_and_drain(cluster, *args)
    finally:
        DependencyGraph.has_path = has_path
        DependencyGraph._connect = connect
        DependencyGraph._reopen = reopen
    return counts, cluster


def print_closure_work(counts: Counter, executed: int) -> None:
    queries, connects = counts["path_queries"], counts["connects"]
    ored, unmasked = counts["rows_ored"], counts["rows_unmasked"]
    print(f"closure: {queries} point queries ({queries / executed:.2f} per "
          f"transaction), {connects} connects")
    print(f"connect rows ORed: {ored} ({ored / executed:.2f} per "
          f"transaction, {ored / max(connects, 1):.2f} per connect); "
          f"unmasked {unmasked}, {1 - ored / max(unmasked, 1):.1%} skipped")
    print(f"ancestors skipped as committed: {counts['skipped_closed']}; "
          f"reopens of committed nodes: {counts['reopens']}")


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
    by_class, by_target, counted = count_events(args.workload, args.scale)
    print_events(by_class, by_target, len(counted.metrics.executions))
    work, counted = count_closure_work(args.workload, args.scale)
    print_closure_work(work, len(counted.metrics.executions))
    return 0


if __name__ == "__main__":
    sys.exit(main())
