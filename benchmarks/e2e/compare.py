"""Verdicts between two result files written by ``--out``.

For every workload and end-to-end metric, B against A with the metric's
bound from ``BENCHMARK.json``:

* ``unresolved`` — repeats of one seeded cluster spread wider than the
  bound in A or in B, so the bound cannot be resolved;
* ``worse`` / ``better`` — B moved beyond the bound;
* ``same`` — within the bound.

``commit_digest`` rows say whether the modelled protocol decided the same
in both files, which a simulator-only change must leave ``identical``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> str:
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def _untraced(path: Path) -> Dict[str, Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        results = json.load(handle)["results"]
    return {result["workload"]: result for result in results
            if not result["traced"]}


def compare_files(a_path: Path, b_path: Path,
                  end_to_end: List[Dict[str, Any]]) -> int:
    """Print one verdict per workload and metric; 1 if any row is
    ``worse``, ``unresolved`` or missing, else 0."""
    a_results, b_results = _untraced(a_path), _untraced(b_path)
    bad = 0
    for workload, a in a_results.items():
        b = b_results.get(workload)
        if b is None or a["problems"] or b["problems"]:
            print(f"{workload:<16} {'-':<24} unresolved (missing or "
                  f"incorrect run)")
            bad += 1
            continue
        same_digests = a["commit_digests"] == b["commit_digests"]
        print(f"{workload:<16} {'commit_digest':<24} "
              f"{'identical' if same_digests else 'differs'}")
        for metric in end_to_end:
            name = metric["name"]
            row = verdict(a["metrics"][name], b["metrics"][name],
                          metric["better"], metric["bound"])
            bad += row in ("worse", "unresolved")
            print(f"{workload:<16} {name:<24} {row:<10} "
                  f"{a['metrics'][name]['value']:.6g} -> "
                  f"{b['metrics'][name]['value']:.6g} {metric['unit']} "
                  f"(bound {metric['bound']:.1%})")
    return 1 if bad else 0
