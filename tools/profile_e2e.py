"""Profile one run of an end-to-end benchmark workload.

``PYTHONPATH=src python -m tools.profile_e2e <workload> [--scale smoke|full]
[--top N] [--sample]`` builds the cluster exactly as the benchmark does
(``benchmarks.e2e.iteration.build_cluster``, seed 1), runs ``run_and_drain``
under cProfile and prints the ``N`` functions with the largest self time,
then how many committed work items the host replayed and how many the
replicas took from the cluster's memo (the model replays their sum).

A second, unprofiled run of the same seed then counts the kernel's events
per executed transaction (the benchmark's ``events_per_tx``), once by event
class and once by the process or callback each event resumes — where the
events a change could remove come from.  A third counts the closure index's
work per transaction by wrapping two ``DependencyGraph`` methods: the
controller's point queries (``has_path``) and the closure rows each new
edge ORs into (``_connect``: exactly its two grow sets), next to the rows
an unmasked propagation — every live ancestor and descendant row — would
have ORed and the ancestors skipped because they committed.  A fourth
counts the records built per executed transaction, by class: every call
of the ``__init__`` of a dataclass the library defines.

cProfile charges every Python call but nothing inside native code, so the
proportions are shifted: use this to find candidates, and
``python -m benchmarks.e2e`` (profiling off) to measure them.

``--sample`` replaces cProfile with a statistical sampler: every
millisecond of process CPU time (``ITIMER_PROF``; the kernel rounds it up
to its timer tick, 4 ms on a 250 Hz kernel) it records the running stack, then prints each function's self share (the samples it was running)
and inclusive share (the samples it was on the stack), and the callers of
generated frames that have no source file — a dataclass ``__init__`` is
labelled by the class it builds.  A sample costs one stack walk, where
cProfile charges every call.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import os
import pstats
import signal
import sys
from collections import Counter
from types import FrameType
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.iteration import build_cluster, run_and_drain
from benchmarks.e2e.workloads import WORKLOADS
from repro.ce.depgraph import DependencyGraph
from repro.core.cluster import Cluster
from repro.sim.events import Event, Process


SEED = 1
#: Process CPU seconds between two samples of ``--sample``.
SAMPLE_INTERVAL_S = 0.001


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


def frame_label(frame: FrameType, cache: Dict[object, str]) -> str:
    """``qualname (file:line)``; a generated frame (its file is ``<string>``
    or the like) is named after the class of its ``self`` argument."""
    code = frame.f_code
    label = cache.get(code)
    if label is not None:
        return label
    if not code.co_filename.startswith("<"):
        label = cache[code] = (f"{code.co_qualname} ("
                               f"{os.path.basename(code.co_filename)}:"
                               f"{code.co_firstlineno})")
        return label
    owner = frame.f_locals.get("self") if code.co_argcount else None
    name = code.co_name if owner is None \
        else f"{type(owner).__name__}.{code.co_name}"
    return f"{name} {code.co_filename}"


class Samples:
    """What the sampler saw: per label, the samples it was running
    (``self``) and on the stack (``inclusive``), and per generated leaf
    frame the function that called it (``callers``)."""

    def __init__(self) -> None:
        self.total = 0
        self.self: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.callers: Counter = Counter()
        self._labels: Dict[object, str] = {}

    def record(self, frame: Optional[FrameType]) -> None:
        if frame is None:
            return
        self.total += 1
        leaf = frame_label(frame, self._labels)
        self.self[leaf] += 1
        if frame.f_code.co_filename.startswith("<") and frame.f_back:
            self.callers[leaf, frame_label(frame.f_back, self._labels)] += 1
        on_stack = set()
        while frame is not None:
            on_stack.add(frame_label(frame, self._labels))
            frame = frame.f_back
        self.inclusive.update(on_stack)


def sample_workload(name: str,
                    scale: str = "full") -> Tuple[Samples, Cluster]:
    """Run workload ``name`` under an ``ITIMER_PROF`` sampler that records
    the stack every :data:`SAMPLE_INTERVAL_S` of process CPU time; the
    cluster is built outside the sampled region, as the benchmark times
    it."""
    cluster, args = _build(name, scale)
    samples = Samples()
    previous = signal.signal(signal.SIGPROF,
                             lambda _signum, frame: samples.record(frame))
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                     SAMPLE_INTERVAL_S)
    try:
        run_and_drain(cluster, *args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return samples, cluster


def print_samples(samples: Samples, top: int) -> None:
    total = max(samples.total, 1)
    print(f"samples: {samples.total}")
    for title, counts in (("self", samples.self),
                          ("inclusive", samples.inclusive)):
        print(f"{'share':>7} {'samples':>8}  {title}")
        for label, count in counts.most_common(top):
            print(f"{count / total:>7.1%} {count:>8}  {label}")
    print(f"{'share':>7} {'samples':>8}  generated frame <- caller")
    for (leaf, caller), count in samples.callers.most_common(top):
        print(f"{count / total:>7.1%} {count:>8}  {leaf} <- {caller}")


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
    """Run workload ``name`` unprofiled, counting ``has_path`` calls and
    ``_connect``'s work: calls, rows ORed (its ``grow_down``
    and ``grow_up`` sets), and the rows an unmasked propagation would OR
    (the live members of ``up[src]`` and ``down[dst]``)."""
    cluster, args = _build(name, scale)
    counts: Counter = Counter()
    has_path = DependencyGraph.has_path
    connect = DependencyGraph._connect

    def counting_has_path(graph, src, dst):
        counts["path_queries"] += 1
        return has_path(graph, src, dst)

    def counting_connect(graph, src, dst):
        down, up = graph._down, graph._up   # read before any row changes
        not_reaching = up[src] & graph._live & ~up[dst]
        descendants = down[dst] & graph._live
        counts["connects"] += 1
        counts["rows_ored"] += (not_reaching.bit_count()
                                + (descendants & ~down[src]).bit_count())
        counts["rows_unmasked"] += ((up[src] & graph._live).bit_count()
                                    + descendants.bit_count())
        connect(graph, src, dst)

    DependencyGraph.has_path = counting_has_path
    DependencyGraph._connect = counting_connect
    try:
        run_and_drain(cluster, *args)
    finally:
        DependencyGraph.has_path = has_path
        DependencyGraph._connect = connect
    return counts, cluster


def print_closure_work(counts: Counter, executed: int) -> None:
    queries, connects = counts["path_queries"], counts["connects"]
    ored, unmasked = counts["rows_ored"], counts["rows_unmasked"]
    print(f"closure: {queries} point queries ({queries / executed:.2f} per "
          f"transaction), {connects} connects")
    print(f"connect rows ORed: {ored} ({ored / executed:.2f} per "
          f"transaction, {ored / max(connects, 1):.2f} per connect); "
          f"unmasked {unmasked}, {1 - ored / max(unmasked, 1):.1%} skipped")


def record_classes() -> List[type]:
    """Every dataclass defined in a loaded ``repro`` module."""
    return [value for module_name, module in sorted(sys.modules.items())
            if module_name.partition(".")[0] == "repro"
            for value in vars(module).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == module_name]


def count_records(name: str,
                  scale: str = "full") -> Tuple[Counter, Cluster]:
    """Run workload ``name`` unprofiled, counting the records built, by
    the class of the record: every ``__init__`` call of a library
    dataclass (:func:`record_classes`)."""
    cluster, args = _build(name, scale)
    counts: Counter = Counter()
    originals = {cls: cls.__init__ for cls in record_classes()}

    def counting(init):
        def counting_init(self, *init_args, **init_kwargs):
            counts[type(self).__name__] += 1
            init(self, *init_args, **init_kwargs)
        return counting_init

    for cls, init in originals.items():
        cls.__init__ = counting(init)
    try:
        run_and_drain(cluster, *args)
    finally:
        for cls, init in originals.items():
            cls.__init__ = init
    return counts, cluster


def print_records(counts: Counter, executed: int) -> None:
    total = sum(counts.values())
    print(f"records: {total} built for {executed} executed transactions "
          f"({total / executed:.2f} per transaction)")
    print(f"{'records':>9} {'per tx':>8}  class")
    for label, count in counts.most_common():
        print(f"{count:>9} {count / executed:>8.2f}  {label}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.profile_e2e", description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument("--top", type=int, default=25,
                        help="rows to print, by self time (default 25)")
    parser.add_argument("--sample", action="store_true",
                        help="sample the stack instead of cProfiling")
    args = parser.parse_args(argv)
    if args.sample:
        samples, cluster = sample_workload(args.workload, args.scale)
        print_samples(samples, args.top)
    else:
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
    records, counted = count_records(args.workload, args.scale)
    print_records(records, len(counted.metrics.executions))
    return 0


if __name__ == "__main__":
    sys.exit(main())
