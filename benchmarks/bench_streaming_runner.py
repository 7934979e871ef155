"""Execution-session benchmark — sustained throughput and bounded memory.

The reference arm opens a fresh one-batch session per batch
(``CERunner.run_batch``), so every batch gets a new executor pool and
concurrency controller; the streamed arm runs the whole stream through one
session (:mod:`repro.ce.streaming`), which keeps one pool and one
dependency graph, admitting batch *k+1* into the graph while batch *k*
drains and pruning committed nodes at every boundary.

Three claims, each asserted over ``STREAM_BATCHES`` (>= 20) consecutive
batches of a contended SmallBank stream:

* **Equivalence** — per-batch committed results are byte-identical to
  a fresh one-batch session per batch (same env, same runner, same
  RNG).
* **Bounded memory** — the graph-size samples plateau at (committed batch
  + admitted batch) with pruning, versus linear growth without it.
* **No throughput regression** — simulated per-batch throughput matches
  the fresh-session arm exactly (it is the same schedule), and the
  *wall-clock* cost per batch stays flat late in the stream instead of
  climbing with accumulated graph history.

Measured on the reference container (default scale): pruning keeps the
closure universe at ~2 batches (~90 nodes) over 24 batches while the
unpruned graph reaches ~1.1k nodes, and late-stream wall-clock per batch
stays within noise of the early batches.
"""

from __future__ import annotations

import time

import pytest

from repro.ce import CEConfig, CERunner
from repro.contracts import default_registry, initial_state
from repro.core.shards import ShardMap
from repro.sim import Environment, make_rng
from repro.workloads import SmallBankWorkload, WorkloadConfig

from benchmarks.conftest import scaled

STREAM_BATCHES = scaled(40, 24, 20)
BATCH_SIZE = scaled(120, 45, 20)
ACCOUNTS = scaled(200, 80, 40)
THETA = 0.95
EXECUTORS = 16
SEED = 7


def make_stream():
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=ACCOUNTS, read_probability=0.5, theta=THETA),
        ShardMap(1), seed=SEED)
    return [workload.batch(BATCH_SIZE) for _ in range(STREAM_BATCHES)]


def fingerprint(result):
    return [(entry.tx_id, entry.order_index,
             tuple(sorted(entry.read_set.items())),
             tuple(sorted(entry.write_set.items())),
             entry.result, entry.attempts)
            for entry in result.committed]


def run_fresh_sessions(batches):
    """A fresh one-batch session per batch."""
    registry = default_registry()
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=EXECUTORS),
                      make_rng(SEED))
    state = dict(initial_state(ACCOUNTS))
    results, walls = [], []
    for txs in batches:
        started = time.perf_counter()
        proc = runner.run_batch(env, txs, state)
        env.run()
        walls.append(time.perf_counter() - started)
        state.update(proc.value.final_writes())
        results.append(proc.value)
    return results, walls


def run_streaming(batches, prune):
    registry = default_registry()
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=EXECUTORS),
                      make_rng(SEED), prune=prune)
    # The session pulls batch k+2 from the source at batch k's boundary,
    # so time-stamping each pull yields per-batch wall-clock durations
    # for the streamed session itself.
    pulls = []

    def ticking():
        for batch in batches:
            pulls.append(time.perf_counter())
            yield batch

    started = time.perf_counter()
    proc = runner.run_stream(env, ticking(), dict(initial_state(ACCOUNTS)))
    env.run()
    total_wall = time.perf_counter() - started
    batch_walls = [b - a for a, b in zip(pulls[1:], pulls[2:])]
    return proc.value, total_wall, batch_walls


def mean(values):
    return sum(values) / len(values) if values else 0.0


@pytest.mark.benchmark(group="streaming-runner")
def test_streaming_runner_sustained(benchmark, fig_table):
    def run():
        batches = make_stream()
        reference, ref_walls = run_fresh_sessions(batches)
        pruned, pruned_wall, pruned_batch_walls = \
            run_streaming(batches, prune=True)
        plain, plain_wall, plain_batch_walls = \
            run_streaming(batches, prune=False)
        return (batches, reference, ref_walls, pruned, pruned_wall,
                pruned_batch_walls, plain, plain_wall, plain_batch_walls)

    (batches, reference, ref_walls, pruned, pruned_wall,
     pruned_batch_walls, plain, plain_wall,
     plain_batch_walls) = benchmark.pedantic(run, rounds=1, iterations=1)

    # -- equivalence: per-batch committed results are byte-identical ------
    assert len(pruned.batches) == len(reference) == STREAM_BATCHES
    for expected, actual in zip(reference, pruned.batches):
        assert fingerprint(actual) == fingerprint(expected), \
            "one session changed a batch's committed results"
    assert [fingerprint(b) for b in plain.batches] \
        == [fingerprint(b) for b in reference]

    # -- bounded memory: plateau vs linear growth -------------------------
    peak = pruned.peak_graph_nodes
    assert peak <= 2 * BATCH_SIZE, \
        f"pruned graph peaked at {peak} nodes (> 2 batches)"
    late = pruned.graph_nodes_pre_prune[-5:]
    early = pruned.graph_nodes_pre_prune[1:6]
    assert max(late) <= max(early), "graph size still growing late in stream"
    unpruned_peak = plain.peak_graph_nodes
    assert unpruned_peak == STREAM_BATCHES * BATCH_SIZE, \
        "expected linear growth without pruning"

    # -- throughput: identical simulated schedule, flat wall-clock --------
    sim_tps = [batch.throughput for batch in pruned.batches]
    ref_tps = [batch.throughput for batch in reference]
    assert sim_tps == ref_tps, "simulated per-batch throughput diverged"
    # With pruning, the streamed session's per-batch wall-clock must
    # not climb with stream position (2x tolerates scheduler noise on the
    # few-ms batches; the unpruned ratio is reported as the contrast).
    late_wall = mean(pruned_batch_walls[-5:])
    early_wall = mean(pruned_batch_walls[:5])
    wall_ratio = late_wall / early_wall if early_wall else 0.0
    assert wall_ratio < 2.0, \
        f"session wall-clock per batch grew {wall_ratio:.2f}x late-stream"
    plain_ratio = mean(plain_batch_walls[-5:]) / mean(plain_batch_walls[:5])

    fig_table.add("fresh session per batch", STREAM_BATCHES * BATCH_SIZE,
                  round(mean(ref_tps)),
                  max(batch.graph_nodes for batch in reference),
                  round(sum(ref_walls), 3))
    fig_table.add("one session+prune", STREAM_BATCHES * BATCH_SIZE,
                  round(mean(sim_tps)), peak, round(pruned_wall, 3))
    fig_table.add("one session, no prune", STREAM_BATCHES * BATCH_SIZE,
                  round(mean([batch.throughput for batch in plain.batches])),
                  unpruned_peak, round(plain_wall, 3))
    fig_table.show(
        f"Execution session - {STREAM_BATCHES} x {BATCH_SIZE} tx batches, "
        f"SmallBank theta={THETA}",
        ["mode", "txs", "sim tps/batch", "peak graph nodes", "wall s"])

    benchmark.extra_info["peak_graph_nodes"] = peak
    benchmark.extra_info["unpruned_peak_graph_nodes"] = unpruned_peak
    benchmark.extra_info["mean_sim_tps"] = round(mean(sim_tps))
    benchmark.extra_info["wall_seconds"] = round(pruned_wall, 3)
    benchmark.extra_info["wall_late_early_ratio"] = round(wall_ratio, 2)
    benchmark.extra_info["unpruned_wall_late_early_ratio"] = \
        round(plain_ratio, 2)
