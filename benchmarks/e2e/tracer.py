"""Span tracer for the traced run: wraps each layer's public entry points
from outside ``src/``.

The cluster runs in one thread, so one stack is enough: a span is (name,
parent, start, end) and its self time is its duration minus the time its
child spans covered.  Process bodies (the replica round loop, executor
workers) are generators the DES kernel resumes, so their time lands in the
self time of ``sim.step`` — that is the limit of measuring from outside.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_CONTROLLER = "repro.ce.controller:ConcurrencyController"
_DEPGRAPH = "repro.ce.depgraph:DependencyGraph"
_CROSS_EXEC = "repro.core.cross_shard:CrossShardExecutor"

#: (span name, owner, attribute).  An owner is ``module:Class`` for a method
#: or ``module`` for a function.  A function imported by name also lives in
#: every importing namespace; ``Tracer.install`` finds those by identity, so
#: a by-name import added later is traced without editing this table.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.step", "repro.sim.environment:Environment", "step"),
    ("sim.net_send", "repro.sim.network:Network", "send"),
    ("crypto.digest_of", "repro.crypto.digest", "digest_of"),
    ("crypto.canonical_encode", "repro.crypto.digest", "canonical_encode"),
    ("crypto.sign", "repro.crypto.keys:KeyPair", "sign"),
    ("crypto.verify", "repro.crypto.keys:KeyRegistry", "verify"),
    ("dag.insert", "repro.dag.store:DagStore", "insert"),
    ("dag.advance", "repro.dag.tusk:TuskConsensus", "advance"),
    ("ce.controller.begin", _CONTROLLER, "begin"),
    ("ce.controller.read", _CONTROLLER, "read"),
    ("ce.controller.write", _CONTROLLER, "write"),
    ("ce.controller.finish", _CONTROLLER, "finish"),
    ("ce.controller.abort_transaction", _CONTROLLER, "abort_transaction"),
    ("ce.depgraph.add_edge", _DEPGRAPH, "add_edge"),
    ("ce.depgraph.has_path", _DEPGRAPH, "has_path"),
    ("ce.depgraph.detach_node", _DEPGRAPH, "detach_node"),
    ("ce.depgraph.prune_committed", _DEPGRAPH, "prune_committed"),
    ("ce.session.admit", "repro.ce.streaming:StreamSession", "admit"),
    ("ce.session.drain", "repro.ce.streaming:StreamSession", "drain"),
    ("ce.validate_block", "repro.ce.validation", "validate_block"),
    ("core.cross_exec.execute", _CROSS_EXEC, "execute"),
    ("core.cross_exec.execute_serial", _CROSS_EXEC, "execute_serial"),
    ("core.cross_exec.replay_one", _CROSS_EXEC, "replay_one"),
    ("contracts.run_inline", "repro.contracts.contract", "run_inline"),
    ("storage.apply_batch", "repro.storage.kvstore:KVStore", "apply_batch"),
    ("storage.checksum", "repro.storage.kvstore:KVStore", "checksum"),
    ("workloads.batch",
     "repro.workloads.smallbank_workload:SmallBankWorkload", "batch"),
)

#: Raw spans kept besides the aggregates (the first ones of the run).
MAX_RAW_SPANS = 50_000


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _holders(owner: str, attribute: str, function: Any) -> List[Any]:
    """The namespaces that hold ``function`` under ``attribute``: the class
    for a method; for a function, every loaded ``repro`` module."""
    if ":" in owner:
        return [_resolve(owner)]
    return [module for module_name, module in sorted(sys.modules.items())
            if module_name.partition(".")[0] == "repro"
            and vars(module).get(attribute) is function]


class Tracer:
    """Installs span wrappers over :data:`ENTRY_POINTS` and aggregates
    their spans per (name, parent)."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []
        #: (name, parent) -> [calls, total seconds, self seconds]
        self.aggregates: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: First ``MAX_RAW_SPANS`` spans as (name, parent, start, end).
        self.raw: List[Tuple[str, Optional[str], float, float]] = []
        #: Bytes returned by ``canonical_encode`` and keys handed to
        #: ``KVStore.apply_batch``: sizes the call counts alone hide.
        self.encoded_bytes = 0
        self.keys_written = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, in every loaded ``repro`` namespace
        that holds it."""
        for name, owner, attribute in ENTRY_POINTS:
            original = getattr(_resolve(owner), attribute)
            wrapper = self._wrap(name, original)
            for target in _holders(owner, attribute, original):
                self._installed.append((target, attribute, original))
                setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            target, attribute, original = self._installed.pop()
            setattr(target, attribute, original)

    def _wrap(self, name: str, func: Callable) -> Callable:
        stack, aggregates, raw = self._stack, self.aggregates, self.raw
        clock = time.perf_counter
        observe = {"crypto.canonical_encode": self._saw_encoding,
                   "storage.apply_batch": self._saw_write_batch}.get(name)

        def traced(*args, **kwargs):
            # The clock is read first and last, so the wrapper's own
            # bookkeeping counts as this span's time, not as its parent's
            # self time or as time under no span.
            start = clock()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]  # name, seconds covered by child spans
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                cell = aggregates.get((name, parent))
                if cell is None:
                    cell = aggregates[(name, parent)] = [0, 0.0, 0.0]
                cell[0] += 1
                end = clock()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                cell[1] += elapsed
                cell[2] += elapsed - frame[1]
                if len(raw) < MAX_RAW_SPANS:
                    raw.append((name, parent, start, end))
            if observe is not None:
                observe(args, result)
            return result

        traced.e2e_span = name
        return traced

    def _saw_encoding(self, _args: tuple, result: bytes) -> None:
        self.encoded_bytes += len(result)

    def _saw_write_batch(self, args: tuple, _result: None) -> None:
        self.keys_written += len(args[1])

    # -- reading -------------------------------------------------------------

    def calls(self, prefix: str) -> int:
        """Calls recorded by spans whose name starts with ``prefix``."""
        return sum(int(cell[0]) for (name, _), cell in self.aggregates.items()
                   if name.startswith(prefix))

    def self_seconds(self, prefix: str) -> float:
        """Self time of spans whose name starts with ``prefix``."""
        return sum(cell[2] for (name, _), cell in self.aggregates.items()
                   if name.startswith(prefix))

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(cell[1] for (_, parent), cell in self.aggregates.items()
                   if parent is None)

    def missing(self, span_names) -> List[str]:
        """The names among ``span_names`` that recorded no call."""
        return [name for name in span_names if self.calls(name) == 0]

    def to_json(self) -> Dict[str, Any]:
        return {
            "aggregates": [
                {"name": name, "parent": parent, "calls": int(cell[0]),
                 "total_s": cell[1], "self_s": cell[2]}
                for (name, parent), cell in sorted(
                    self.aggregates.items(),
                    key=lambda item: (item[0][0], item[0][1] or ""))],
            "spans": [{"name": name, "parent": parent, "start": start,
                       "end": end} for name, parent, start, end in self.raw],
            "spans_truncated_at": MAX_RAW_SPANS,
        }


def wrappers_installed() -> List[str]:
    """Entry points that currently hold a tracer wrapper (must be empty
    whenever an untraced run measures)."""
    found = []
    for _name, owner, attribute in ENTRY_POINTS:
        function = getattr(_resolve(owner), attribute)
        if hasattr(function, "e2e_span"):
            found.extend(f"{getattr(target, '__name__', target)}.{attribute}"
                         for target in _holders(owner, attribute, function))
    return found
