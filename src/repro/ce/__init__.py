"""The Concurrent Executor (CE): the paper's core contribution (§7–8).

* :class:`~repro.ce.controller.ConcurrencyController` — dependency-graph
  concurrency control without prior read/write-set knowledge.
* :class:`~repro.ce.runner.CERunner` — the simulated executor pool:
  one-batch runs and sessions.
* :class:`~repro.ce.streaming.StreamSession` — the open-ended
  admit/drain/close execution session: one worker pool serving one batch
  at a time, each batch on its own controller (a replica keeps one
  session per epoch).
* :func:`~repro.ce.validation.validate_block` — commit-time parallel
  validation of preplay results.
"""

from repro.ce.controller import (CCStats, CommittedTx, ConcurrencyController)
from repro.ce.depgraph import (DependencyGraph, EdgeKind, KeyRecord,
                               NodeStatus, TxNode)
from repro.ce.runner import BatchResult, CEConfig, CERunner
from repro.ce.streaming import StreamSession
from repro.ce.validation import ValidationOutcome, validate_block

__all__ = [
    "BatchResult",
    "CCStats",
    "CEConfig",
    "CERunner",
    "CommittedTx",
    "ConcurrencyController",
    "DependencyGraph",
    "EdgeKind",
    "KeyRecord",
    "NodeStatus",
    "StreamSession",
    "TxNode",
    "ValidationOutcome",
    "validate_block",
]
