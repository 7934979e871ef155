"""Certified-DAG consensus substrate (Narwhal/Tusk style)."""

from repro.dag.leader import LeaderSchedule
from repro.dag.store import DagStore
from repro.dag.tusk import CommitEvent, TuskConsensus
from repro.dag.types import Block, BlockKind, Vertex

__all__ = [
    "Block",
    "BlockKind",
    "CommitEvent",
    "DagStore",
    "LeaderSchedule",
    "TuskConsensus",
    "Vertex",
]
