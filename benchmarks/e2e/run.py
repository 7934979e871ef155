"""End-to-end benchmark driver.

    python3 benchmarks/e2e/run.py --workload hot_key --seed 0 --seconds 20 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 0 --out A.json
    python -m benchmarks.e2e --compare A.json B.json

A run measures one workload for ``--seconds`` host seconds.  It cycles
through ``SUBSEEDS`` seeded clusters derived from ``--seed``, each in a
fresh child process (``iteration.py``), until the time is up and every
sub-seed has run ``REPEATS`` times.  Repeats of a sub-seed must agree bit
for bit on everything the DES clock decides.  A metric's value is the
median over a sub-seed's repeats, averaged over the sub-seeds;
``cpu_tx_per_s`` takes the fastest repeat of every slice instead (see
``undisturbed_cpu_s``).  ``--trace 1`` alternates untraced and traced
children and reports the per-layer metrics.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.compare import compare_files  # noqa: E402

#: Seeded clusters per run.  Fixed, so that what a seed reports for a
#: ``sim_*`` metric does not depend on how many repeats the host had time for.
SUBSEEDS = 2
#: Least repeats of each in an untraced run: what ``undisturbed_cpu_s``
#: needs to find most slices undisturbed once.
REPEATS = 3
#: One child may not take longer than this (a hung simulation must not
#: outlive the driver's 180 s limit).
CHILD_TIMEOUT_S = 120

#: Keys of a child's record that the DES clock decides.
DETERMINISTIC = ("generated", "executed", "sim", "commit_digest")


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn_iteration(workload: str, seed: int, scale: str, trace: bool,
                    trace_out: Optional[str]) -> Dict[str, Any]:
    """Run one iteration in a fresh interpreter and return its record."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)])
    arguments = {"name": workload, "seed": seed, "scale": scale,
                 "trace": trace, "trace_out": trace_out}
    finished = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.iteration",
         json.dumps(arguments)],
        cwd=ROOT, env=environment, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=True, text=True)
    return json.loads(finished.stdout.splitlines()[-1])


def samples_of(record: Dict[str, Any]) -> Dict[str, float]:
    """One child's measurements by metric name: what the DES clock decided,
    the host measurements, and the per-layer metrics if it was traced."""
    samples = dict(record["sim"])
    samples["cpu_s"] = sum(record["slice_cpu_s"])
    samples["cpu_tx_per_s"] = record["executed"] / samples["cpu_s"]
    samples["wall_tx_per_s"] = record["executed"] / record["run_s"]
    samples["setup_s"] = record["setup_s"]
    samples["peak_rss_mb"] = record["peak_rss_mb"]
    samples.update(record.get("layers", {}))
    return samples


def undisturbed_cpu_s(repeats: List[Dict[str, Any]]) -> float:
    """CPU seconds one seeded cluster costs when nothing disturbs it: the
    sum over slices of the fastest repeat of that slice.  Every repeat does
    the same deterministic work in a slice, and on a shared box a neighbour
    only ever adds time, a second or so at a stretch; no single child
    escapes that, but each slice usually does in one of the repeats."""
    return sum(map(min, zip(*(record["slice_cpu_s"] for record in repeats))))


Summary = Dict[str, Dict[str, float]]


def summarise_seed(repeats: List[Dict[str, Any]],
                   partner: Optional[Summary] = None) -> Summary:
    """The repeats of one sub-seed, per metric: ``value``, the median over
    the repeats (for ``cpu_tx_per_s``, from ``undisturbed_cpu_s``), and
    ``spread``, their max-min gap as a share of that median: run-to-run
    noise, exactly 0 for what the DES clock decides.  ``partner`` is the
    summary of the untraced children that traced ``repeats`` ran beside;
    it supplies what only an untraced child can measure."""
    samples = [samples_of(record) for record in repeats]
    if partner is not None:
        for sample in samples:
            sample["trace.overhead_ratio"] = \
                sample["cpu_s"] / partner["cpu_s"]["value"]
            sample["wall_tx_per_s"] = partner["wall_tx_per_s"]["value"]
    summary = {}
    for name in samples[0]:
        values = [sample[name] for sample in samples]
        median = statistics.median(values)
        summary[name] = {
            "value": median,
            "spread": (max(values) - min(values)) / median if median else 0.0,
            "samples": len(values)}
    # The estimate's own spread: what it reads with each repeat left out.
    executed = repeats[0]["executed"]
    value = executed / undisturbed_cpu_s(repeats)
    without_one = [
        executed / undisturbed_cpu_s(repeats[:index] + repeats[index + 1:]
                                     or repeats)
        for index in range(len(repeats))]
    summary["cpu_tx_per_s"].update(
        value=value, spread=(max(without_one) - min(without_one)) / value)
    return summary


def summarise(seeds: List[Summary]) -> Summary:
    """A run from its sub-seeds: mean value, widest spread."""
    return {name: {
        "value": statistics.fmean(seed[name]["value"] for seed in seeds),
        "spread": max(seed[name]["spread"] for seed in seeds),
        "samples": sum(seed[name]["samples"] for seed in seeds)}
        for name in seeds[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str, trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One run of one workload: children until ``seconds`` have passed and
    the least number of them has run; then their summary, and whether the
    outputs were correct.  Untraced, that least is ``REPEATS`` of every
    sub-seed.  Traced, children alternate untraced and traced on the same
    sub-seed, and the least is one such pair per sub-seed."""
    stride = 2 if trace else 1
    least = SUBSEEDS * (2 if trace else REPEATS)
    records: List[Dict[str, Any]] = []
    began = time.monotonic()
    while True:
        elapsed = time.monotonic() - began
        # Start another child only if it is likelier to end before the time
        # is up than after, so runs centre on ``seconds``.
        if len(records) >= least and \
                elapsed * (1 + 0.5 / len(records)) >= seconds:
            break
        index = len(records)
        traced = trace and index % 2 == 1
        sub_seed = seed * SUBSEEDS + (index // stride) % SUBSEEDS
        records.append(spawn_iteration(
            workload, sub_seed, scale, traced,
            trace_out if traced and index == 1 else None))

    problems = [f"seed {record['seed']}: {problem}"
                for record in records for problem in record["problems"]]
    #: sub-seed -> its untraced children, its traced children
    by_seed: Dict[int, Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]] = {}
    for record in records:
        by_seed.setdefault(record["seed"], ([], []))[
            record["traced"]].append(record)
    for sub_seed, (untraced, traced) in by_seed.items():
        for record in untraced + traced:
            for key in DETERMINISTIC:
                if record.get(key) != untraced[0].get(key):
                    problems.append(
                        f"seed {sub_seed}: {key} differs between repeats")

    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "scale": scale, "traced": trace,
        "problems": problems,
        "attempted": sum(record["generated"] for record in records),
        # Only a workload that crashes a replica may lose transactions, and
        # committed_share carries those; a transaction lost anywhere else is
        # one of the problems, and then every transaction counts as failed.
        "failed": sum(record["generated"] for record in records)
        if problems else 0,
        "commit_digests": [by_seed[sub_seed][0][0]["commit_digest"]
                           for sub_seed in sorted(by_seed)],
        "metrics": {},
    }
    if not problems:
        seeds = []
        for untraced, traced in by_seed.values():
            summary = summarise_seed(untraced)
            seeds.append(summarise_seed(traced, partner=summary)
                         if trace else summary)
        result["metrics"] = summarise(seeds)
    return result


def print_report(result: Dict[str, Any], declared: List[Dict[str, Any]],
                 why: str) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"scale {result['scale']}, "
          f"{'traced' if result['traced'] else 'untraced'}): {why}")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")
    for metric in declared:
        name = metric["name"]
        measured = result["metrics"].get(name)
        if measured is None:
            continue
        bound = (f"bound {metric['bound']:.1%}" if "bound" in metric
                 else "no bound")
        print(f"   {name:<32} {measured['value']:>14.6g} "
              f"{metric['unit']:<6} {metric['better']:<6} is better, {bound}; "
              f"repeats spread {measured['spread']:.2%} "
              f"over {measured['samples']} samples")
    for digest in result["commit_digests"]:
        print(f"   commit_digest {digest}")


def last_line(result: Dict[str, Any],
              reported: List[Dict[str, Any]]) -> str:
    metrics = {}
    if not result["problems"]:
        metrics = {metric["name"]: {
            "value": result["metrics"][metric["name"]]["value"],
            "unit": metric["unit"]} for metric in reported}
    return json.dumps({"correct": not result["problems"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="host seconds to measure per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: traced run, per-layer metrics; 0: untraced "
                             "run, end-to-end metrics (default: both)")
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", type=Path,
                        help="write the results to this JSON file and the "
                             "trace of each workload next to it")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="compare two --out files with the bounds of "
                             "BENCHMARK.json")
    options = parser.parse_args(argv)
    contract = load_contract()
    if options.compare:
        return compare_files(*options.compare, contract["end_to_end"])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    whys = {entry["name"]: entry["why"] for entry in contract["workloads"]}
    names = [options.workload] if options.workload else list(whys)
    for name in names:
        if name not in whys:
            parser.error(f"unknown workload {name!r}; known: {sorted(whys)}")
    seconds = (contract["run_seconds"] if options.seconds is None
               else options.seconds)
    modes = [bool(options.trace)] if options.trace is not None \
        else [False, True]

    results = []
    for name in names:
        for trace in modes:
            trace_out = None
            if trace and options.out is not None:
                trace_out = str(options.out.with_suffix("")) \
                    + f".{name}.trace.json"
            result = measure(name, options.seed, seconds, trace,
                             options.scale, trace_out)
            results.append(result)
            # An untraced run also prints the per-layer metrics it can
            # measure: the ones the DES clock decides.
            print_report(result, contract["per_layer"] if trace else
                         contract["end_to_end"] + contract["per_layer"],
                         whys[name])
            print(last_line(
                result, contract["per_layer" if trace else "end_to_end"]),
                flush=True)
    if options.out is not None:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": options.seed, "seconds": seconds,
                       "scale": options.scale, "results": results},
                      handle, indent=1)
    return 1 if any(result["problems"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
