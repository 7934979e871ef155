"""Layering rules: the documented architecture as an import-graph law.

``docs/ARCHITECTURE.md`` describes a strict data flow — workloads → DAG
consensus → CE preplay → validation → storage — on top of three leaf
substrates (``sim``, ``crypto``, ``storage``).  Nothing enforces it: one
convenience import from ``repro.ce`` into ``repro.core`` would silently
invert the dependency the streaming engine's equivalence argument rests
on.  These rules pin the allowed package-level edges and reject module
import cycles outright.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from tools.reprolint.engine import Project
from tools.reprolint.findings import Finding
from tools.reprolint.registry import rule

#: For each ``repro`` subpackage (or top-level module), the subpackages it
#: may import.  This is the architecture of ``docs/ARCHITECTURE.md`` made
#: explicit; change it deliberately, in the same PR as the doc.
#:
#: Rationale highlights:
#: * ``errors`` and ``txn`` are the foundation everyone may use.
#: * ``crypto``, ``sim``, and ``storage`` are leaf substrates; ``storage``
#:   may use ``crypto`` (state checksums digest values) but none of the
#:   three may reach into protocol layers.
#: * ``ce`` is the paper's core and must stay hoistable: it may not
#:   import ``core`` (the replica/cluster harness drives *it*).
#: * ``dag`` carries preplay blocks, so it may name ``ce`` result types.
#: * ``workloads`` may use ``core.shards`` for shard addressing.
#: * ``core`` is the integration layer and may import everything except
#:   ``adversary`` (fault injection wraps the cluster, not vice versa).
_FOUNDATION = {"errors", "txn"}
_LAYER_ALLOWED: Dict[str, Set[str]] = {
    "errors": set(),
    "txn": {"errors"},
    "crypto": _FOUNDATION | set(),
    "sim": _FOUNDATION | set(),
    "storage": _FOUNDATION | {"crypto"},
    "contracts": _FOUNDATION | set(),
    "metrics": _FOUNDATION | set(),
    "ce": _FOUNDATION | {"contracts", "sim"},
    "dag": _FOUNDATION | {"crypto", "ce", "contracts"},
    "baselines": _FOUNDATION | {"contracts", "sim", "ce"},
    "workloads": _FOUNDATION | {"contracts", "sim", "core"},
    "adversary": _FOUNDATION | {"sim", "core"},
    "core": _FOUNDATION | {"crypto", "sim", "storage", "contracts",
                           "metrics", "ce", "dag", "baselines",
                           "workloads"},
    # The scenario matrix orchestrates whole hostile-world deployments:
    # it sits above core/adversary/workloads the way experiment drivers
    # do, but ships as a library so tests and benchmarks share one
    # harness.  Nothing may import *it* except the top-level package.
    "scenarios": _FOUNDATION | {"sim", "storage", "contracts", "metrics",
                                "ce", "workloads", "adversary", "core"},
    # Top-level package modules (__init__, __main__) tie everything
    # together and may import any layer.
    "": {"errors", "txn", "crypto", "sim", "storage", "contracts",
         "metrics", "ce", "dag", "baselines", "workloads", "adversary",
         "core", "scenarios"},
}

#: Packages no production or example module may ever import: test code
#: and benchmarks depend on the library, never the reverse (an inverted
#: edge would couple shipped behavior to measurement scaffolding).
_FORBIDDEN_ROOTS = ("tests", "benchmarks")


def _repro_layer(name: str) -> str:
    """``repro.ce.depgraph`` -> ``ce``; ``repro.errors`` (a top-level
    module that is itself a layer) -> ``errors``; ``repro`` -> ``""``."""
    parts = name.split(".")
    if parts[0] != "repro" or len(parts) == 1:
        return ""
    head = parts[1]
    return head if head in _LAYER_ALLOWED else ""


@rule(id="L201", name="layer-breach", scope="project")
def check_layering(project: Project) -> Iterator[Finding]:
    """An import that crosses the documented layer boundaries.

    Why: the reproduction's safety arguments are layered — the CE layer
    proves schedule equivalence assuming it is driven *by* the replica
    layer, the substrates (``sim``/``crypto``/``storage``) stay
    swappable because nothing below the protocol reaches up, and no
    library code may depend on ``tests``/``benchmarks``.  The allowed
    edges live in ``_LAYER_ALLOWED`` in this rule's module; extending
    the matrix is an architecture decision and belongs in the same PR as
    the ``docs/ARCHITECTURE.md`` update.
    """
    for module in project.modules:
        for target, line in project.imports.get(module.name, []):
            root = target.split(".")[0]
            if root in _FORBIDDEN_ROOTS and module.name.split(".")[0] \
                    not in _FORBIDDEN_ROOTS + ("tools",):
                yield module.finding(
                    "L201", line,
                    f"imports {target}: production code may not depend on "
                    f"{root}/")
                continue
            if root != "repro" or module.name.split(".")[0] != "repro":
                continue
            source_layer = _repro_layer(module.name)
            target_layer = _repro_layer(target)
            if source_layer == target_layer:
                continue  # intra-layer imports are always fine
            allowed = _LAYER_ALLOWED.get(source_layer, set())
            if target_layer == "":
                continue  # importing the top-level package surface
            if target_layer not in allowed:
                yield module.finding(
                    "L201", line,
                    f"layer '{source_layer or 'repro'}' may not import "
                    f"layer '{target_layer}' ({target}); see the layer "
                    f"matrix in tools/reprolint/rules/layering.py")


def _resolve_module_edges(project: Project) -> Dict[str, List[Tuple[str, int]]]:
    """Import edges restricted to modules in the scanned set.

    ``from pkg.mod import name`` may mean module ``pkg.mod.name`` or an
    attribute of ``pkg.mod``; prefer the most specific scanned module.
    """
    known = set(project.by_name)
    edges: Dict[str, List[Tuple[str, int]]] = {}
    for name, imports in project.imports.items():
        resolved: List[Tuple[str, int]] = []
        for target, line in imports:
            candidate = target
            while candidate and candidate not in known:
                candidate = candidate.rpartition(".")[0]
            if candidate and candidate != name:
                resolved.append((candidate, line))
        edges[name] = resolved
    return edges


@rule(id="L202", name="import-cycle", scope="project")
def check_import_cycles(project: Project) -> Iterator[Finding]:
    """A cycle in the module import graph.

    Why: an import cycle makes initialization order significant — which
    module wins depends on who is imported first, so two entry points
    can observe different partially-initialized states.  The repo's
    graph is acyclic today (``TYPE_CHECKING``-only back-references are
    ignored, as they never execute); keep it that way.
    """
    edges = _resolve_module_edges(project)
    # Iterative Tarjan SCC over the scanned modules, names sorted so the
    # report is deterministic.
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            targets = sorted({t for t, _ in edges.get(node, [])})
            advanced = False
            for position in range(child_index, len(targets)):
                child = targets[position]
                if child not in index_of:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for name in sorted(edges):
        if name not in index_of:
            strongconnect(name)
    for component in sccs:
        anchor = component[0]
        module = project.by_name[anchor]
        line = 1
        for target, import_line in edges.get(anchor, []):
            if target in component:
                line = import_line
                break
        yield module.finding(
            "L202", line,
            "import cycle: " + " -> ".join(component + [anchor]))
