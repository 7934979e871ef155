"""A replica's local view of one DAG (one epoch).

Guarantees the *validity* property of §2: a vertex is only inserted once its
full causal history is present; out-of-order arrivals are buffered until
their parents land.  Provides the queries the Tusk commit rule and the
Thunderbolt proposal rules need: per-round authors, reference (support)
counts, and causal-history traversal.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dag.types import Block, Vertex
from repro.errors import ConsensusError


class DagStore:
    """Round/author-indexed storage of certified vertices for one epoch."""

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self._by_digest: Dict[str, Vertex] = {}
        #: round -> author -> vertex (one per author per round; equivocation
        #: is impossible because certification requires a 2f+1 quorum).
        self._rounds: Dict[int, Dict[int, Vertex]] = defaultdict(dict)
        self._pending: Dict[str, Vertex] = {}
        #: Vertices collected by :meth:`causal_history` walks so far.
        self.walk_visits = 0

    # -- insertion -----------------------------------------------------------

    def insert(self, vertex: Vertex) -> List[Vertex]:
        """Insert a certified vertex; returns the vertices actually added
        (the vertex itself plus any buffered descendants it unblocked).

        A vertex whose parents are missing is buffered — consistency (§2)
        says they will eventually arrive.
        """
        if vertex.block.epoch != self.epoch:
            raise ConsensusError(
                f"vertex from epoch {vertex.block.epoch} inserted into "
                f"epoch {self.epoch} store")
        if vertex.digest in self._by_digest:
            return []
        if not self._parents_present(vertex.block):
            self._pending[vertex.digest] = vertex
            return []
        added = [self._insert_ready(vertex)]
        # Buffered vertices may now have complete histories.
        progress = True
        while progress:
            progress = False
            for digest in list(self._pending):
                candidate = self._pending[digest]
                if self._parents_present(candidate.block):
                    del self._pending[digest]
                    added.append(self._insert_ready(candidate))
                    progress = True
        return added

    def _insert_ready(self, vertex: Vertex) -> Vertex:
        existing = self._rounds[vertex.round_number].get(vertex.author)
        if existing is not None and existing.digest != vertex.digest:
            raise ConsensusError(
                f"two certified vertices from author {vertex.author} in "
                f"round {vertex.round_number} — quorum intersection broken")
        self._by_digest[vertex.digest] = vertex
        self._rounds[vertex.round_number][vertex.author] = vertex
        return vertex

    def _parents_present(self, block: Block) -> bool:
        if block.round_number == 0:
            return True
        return all(parent in self._by_digest for parent in block.parents)

    # -- queries ----------------------------------------------------------------

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_digest

    def get(self, digest: str) -> Optional[Vertex]:
        return self._by_digest.get(digest)

    def vertex_of(self, round_number: int, author: int) -> Optional[Vertex]:
        return self._rounds.get(round_number, {}).get(author)

    def round_vertices(self, round_number: int) -> List[Vertex]:
        """Vertices of a round in author order (deterministic)."""
        by_author = self._rounds.get(round_number, {})
        return [by_author[a] for a in sorted(by_author)]

    def round_size(self, round_number: int) -> int:
        return len(self._rounds.get(round_number, {}))

    def highest_round(self) -> int:
        return max(self._rounds) if self._rounds else -1

    def pending_count(self) -> int:
        return len(self._pending)

    def support(self, digest: str, round_number: int) -> int:
        """How many vertices of ``round_number`` reference ``digest`` as a
        parent — the f+1 commit condition of the Tusk rule.  Scanned on read
        (once per leader, over at most n vertices), not indexed on insert."""
        return sum(1 for vertex in self._rounds.get(round_number, {}).values()
                   if digest in vertex.block.parents)

    # -- causal history ------------------------------------------------------------

    def causal_history(self, digest: str,
                       stop: Optional[Set[str]] = None) -> List[Vertex]:
        """All ancestors of ``digest`` (inclusive) not in ``stop``.

        Returned in a deterministic order: ascending round, then author —
        the order Thunderbolt uses when committing a leader's history.
        """
        root = self._by_digest.get(digest)
        if root is None:
            raise ConsensusError(f"unknown vertex {digest[:8]}")
        stop = stop or set()
        seen: Set[str] = set()
        stack = [digest]
        collected: List[Vertex] = []
        while stack:
            current = stack.pop()
            if current in seen or current in stop:
                continue
            seen.add(current)
            vertex = self._by_digest.get(current)
            if vertex is None:
                raise ConsensusError(
                    f"causal history of {digest[:8]} is incomplete")
            collected.append(vertex)
            stack.extend(vertex.block.parents)
        self.walk_visits += len(collected)
        collected.sort(key=lambda v: (v.round_number, v.author))
        return collected
