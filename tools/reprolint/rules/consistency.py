"""Consistency rules: paired structures that must evolve together.

These catch the "added a counter in one place, forgot the other"
class of bug: a new ``ClusterResult`` counter the ``MetricsCollector``
never populates (so every run reports 0 and nobody notices), or a worker
loop blocking on a queue with no way to ever wake up — the executor-pool
hang class PR 1 fixed with shutdown sentinels.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from tools.reprolint.engine import Module, Project
from tools.reprolint.findings import Finding
from tools.reprolint.registry import rule

# --------------------------------------------------------------------------
# shared: dataclass introspection
# --------------------------------------------------------------------------


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """field name -> line, in declaration order."""
    fields: Dict[str, int] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            fields[stmt.target.id] = stmt.lineno
    return fields


def _find_class(module: Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


# --------------------------------------------------------------------------
# C302 — ClusterResult counters must be populated by MetricsCollector
# --------------------------------------------------------------------------


def _self_attributes(cls: ast.ClassDef) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(cls):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                attrs.add(target.attr)
    return attrs


@rule(id="C302", name="collector-coverage", scope="project")
def check_collector_coverage(project: Project) -> Iterator[Finding]:
    """A ``cc_*``/``ce_*`` counter on ``ClusterResult`` that no
    ``MetricsCollector`` attribute backs.

    Why: cluster summaries copy controller-health counters straight off
    the collector (``cluster._summarise``).  A result field added
    without the collector attribute (and the ``record_ce_batch`` fold)
    reports a constant 0 — the dashboards look healthy while the counter
    was never wired, which is exactly how observability rots.
    """
    collectors: Set[str] = set()
    result_sites = []
    for module in project.modules:
        collector = _find_class(module, "MetricsCollector")
        if collector is not None:
            collectors |= _self_attributes(collector)
        result = _find_class(module, "ClusterResult")
        if result is not None and _is_dataclass(result):
            result_sites.append((module, result))
    if not collectors:
        return
    for module, result in result_sites:
        for name, line in _dataclass_fields(result).items():
            if not name.startswith(("cc_", "ce_")):
                continue
            if name not in collectors:
                yield module.finding(
                    "C302", line,
                    f"ClusterResult.{name} has no matching "
                    f"MetricsCollector attribute; the summary would "
                    f"report a constant")


# --------------------------------------------------------------------------
# C303 — queue get() loops need a sentinel or timeout
# --------------------------------------------------------------------------


def _is_queue_get(node: ast.Call) -> bool:
    """A blocking queue receive: zero-positional-arg ``.get()`` (a dict
    ``.get`` always takes a key) with at most block/timeout keywords."""
    if not (isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"):
        return False
    if node.args:
        return False
    return all(kw.arg in ("block", "timeout") for kw in node.keywords)


def _has_timeout(node: ast.Call) -> bool:
    return any(kw.arg == "timeout" for kw in node.keywords)


def _loop_has_sentinel_exit(loop: ast.While) -> bool:
    """An ``if <compare is/==>: return/break`` anywhere in the loop body —
    the shutdown-sentinel shape (``if item is self._SHUTDOWN: return``)."""
    for node in ast.walk(loop):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (isinstance(test, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.Eq))
                        for op in test.ops)):
            continue
        for child in node.body:
            for sub in ast.walk(child):
                if isinstance(sub, (ast.Return, ast.Break)):
                    return True
    return False


@rule(id="C303", name="queue-sentinel")
def check_queue_sentinel(module: Module) -> Iterator[Finding]:
    """A ``while`` loop blocking on ``queue.get()`` with no sentinel exit
    and no timeout.

    Why: the PR-1 hang class — an executor parked on ``get()`` after the
    batch completes idles forever, leaking worker processes into every
    later batch sharing the environment.  Every consumer loop must
    either recognize a shutdown sentinel (``if item is _SHUTDOWN:
    return``) or bound the wait with a timeout; a loop that is meant to
    live as long as the simulation says so with a justified pragma.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.While):
            continue
        gets = [call for call in ast.walk(node)
                if isinstance(call, ast.Call) and _is_queue_get(call)]
        if not gets:
            continue
        if _loop_has_sentinel_exit(node):
            continue
        for call in gets:
            if not _has_timeout(call):
                yield module.finding(
                    "C303", call,
                    "blocking queue get() in a loop with no sentinel exit "
                    "or timeout (the PR-1 executor hang class)")
