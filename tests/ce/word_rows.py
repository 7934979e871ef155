"""Closure rows as packed machine words: a test-only reference for the
one-int-per-row closure that :class:`repro.ce.depgraph.DependencyGraph`
keeps.

:class:`WordRows` holds the same closure as ``array`` rows of fixed-width
words and updates it with the textbook operations (``connect`` ORs into
every live descendant's ``up`` row and every live ancestor's ``down``
row, without the production graph's skip of rows that already hold the
edge).  :func:`graph_class` names a graph class per row backend
id:

* ``pyint`` — the production graph, unchanged;
* ``packed`` — the production graph with every row mutation mirrored into
  a :class:`WordRows` of 8-bit words, so even the small graphs here span
  several words, and both tables compared after each mutation;
* ``packed-array`` — the same with 64-bit words (``array('Q')``).

Both sides tombstone a departing serial (an abort or an eviction at
commit): its ``live`` bit goes and its rows are zeroed, while its bit may
stay in other rows.  The reference ORs ``live``-masked rows into every
row the propagation may touch, so the two tables must agree bit for bit
— at live bits, where the rows are exact, and at dead bits, which
neither side may add to.

The ids are those of the row backends the graph once chose between; a
test parametrized over :data:`BACKENDS` runs its scenario once plain and
twice with the int rows held, step by step, to an independent layout.
"""

import sys
from array import array
from typing import List, Set

from repro.ce.depgraph import DependencyGraph

BACKENDS = ["pyint", "packed", "packed-array"]
TYPECODES = {"packed": "B", "packed-array": "Q"}


class WordRows:
    """``down``/``up`` closure rows as ``array(typecode)`` word rows."""

    def __init__(self, typecode: str) -> None:
        self.typecode = typecode
        self.width = 8 * array(typecode).itemsize
        self.down: List[array] = []
        self.up: List[array] = []
        self.live: Set[int] = set()
        self.words = 0

    def _zero_row(self) -> array:
        return array(self.typecode, [0] * self.words)

    def _singleton(self, serial: int) -> array:
        row = self._zero_row()
        row[serial // self.width] = 1 << serial % self.width
        return row

    def _bits(self, row: array) -> List[int]:
        out = []
        for index, word in enumerate(row):
            while word:
                low = word & -word
                out.append(index * self.width + low.bit_length() - 1)
                word ^= low
        return out

    def _live_only(self, row: array) -> array:
        out = self._zero_row()
        for serial in self._bits(row):
            if serial in self.live:
                out[serial // self.width] |= 1 << serial % self.width
        return out

    def clear(self) -> None:
        self.down, self.up, self.words = [], [], 0
        self.live = set()

    def append_singleton(self) -> None:
        serial = len(self.down)
        need = serial // self.width + 1
        if need > self.words:
            pad = [0] * (need - self.words)
            for row in self.down + self.up:
                row.extend(pad)
            self.words = need
        self.down.append(self._singleton(serial))
        self.up.append(self._singleton(serial))
        self.live.add(serial)

    def connect(self, src: int, dst: int) -> None:
        descendants = self._live_only(self.down[dst])
        ancestors = self._live_only(self.up[src])
        for serial in self._bits(ancestors):
            _or_into(self.down[serial], descendants)
        for serial in self._bits(descendants):
            _or_into(self.up[serial], ancestors)

    def discard(self, serial: int) -> None:
        """Tombstone ``serial``: drop it from ``live``, zero its rows."""
        self.live.discard(serial)
        self.down[serial] = self._zero_row()
        self.up[serial] = self._zero_row()

    def rebuild(self, count: int, topo: List[int],
                out_serials: List[List[int]],
                in_serials: List[List[int]]) -> None:
        """Closure from scratch, iterated to a fixpoint (one pass in
        topological order settles it, and a second confirms it)."""
        self.words = -(-count // self.width)
        down = [self._singleton(serial) for serial in range(count)]
        up = [self._singleton(serial) for serial in range(count)]
        for table, edges, sweep in ((down, out_serials, topo[::-1]),
                                    (up, in_serials, topo)):
            changed = True
            while changed:
                changed = False
                for serial in sweep:
                    row = table[serial]
                    before = row.tobytes()
                    for neighbor in edges[serial]:
                        _or_into(row, table[neighbor])
                    changed |= row.tobytes() != before
        self.down, self.up = down, up
        self.live = set(range(count))

    def as_ints(self):
        """Both tables as lists of Python ints, bit ``t`` = serial ``t``."""
        return ([self._to_int(row) for row in self.down],
                [self._to_int(row) for row in self.up])

    def live_int(self) -> int:
        return sum(1 << serial for serial in self.live)

    @staticmethod
    def _to_int(row: array) -> int:
        if sys.byteorder == "big" and row.itemsize > 1:
            row = array(row.typecode, row)
            row.byteswap()
        return int.from_bytes(row.tobytes(), "little")


def _or_into(target: array, source: array) -> None:
    for index, word in enumerate(source):
        target[index] |= word


def descendants(node) -> Set:
    """Every node reachable from ``node`` over out-edges, by DFS."""
    seen, stack = set(), [node]
    while stack:
        for child in stack.pop().out_edges:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    seen.discard(node)
    return seen


def graph_class(backend: str):
    """The graph class a test should build for row backend ``backend``."""
    if backend == "pyint":
        return DependencyGraph
    typecode = TYPECODES[backend]

    class RowCheckedGraph(DependencyGraph):
        """Mirrors every closure-row mutation into :class:`WordRows` and
        asserts, after each one, that both tables hold the same bits."""

        def __init__(self) -> None:
            super().__init__()
            self.word_rows = WordRows(typecode)

        def _check_rows(self) -> None:
            assert self.word_rows.live_int() == self._live, \
                (backend, len(self._down))
            assert self.word_rows.as_ints() == (self._down, self._up), \
                (backend, len(self._down))

        def _append_singleton(self) -> None:
            super()._append_singleton()
            self.word_rows.append_singleton()
            self._check_rows()

        def _connect(self, src: int, dst: int) -> None:
            self.word_rows.connect(src, dst)
            super()._connect(src, dst)
            self._check_rows()

        def _tombstone(self, serial: int) -> None:
            super()._tombstone(serial)
            self.word_rows.discard(serial)
            self._check_rows()

        def _rebuild_rows(self, count, topo, out_serials, in_serials):
            super()._rebuild_rows(count, topo, out_serials, in_serials)
            self.word_rows.rebuild(count, topo, out_serials, in_serials)
            self._check_rows()

        def _index_reset_empty(self) -> None:
            super()._index_reset_empty()
            self.word_rows.clear()
            self._check_rows()

    RowCheckedGraph.__name__ = f"RowCheckedGraph[{backend}]"
    return RowCheckedGraph
