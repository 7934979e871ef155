"""Closure rows as packed machine words: a test-only reference for the
one-int-per-row closure that :class:`repro.ce.depgraph.DependencyGraph`
keeps.

:class:`WordRows` holds the same closure as ``array`` rows of fixed-width
words and updates it with the textbook operations (``connect`` ORs into
every ancestor and descendant row, unmasked).  :func:`graph_class` names a
graph class per row backend id:

* ``pyint`` — the production graph, unchanged;
* ``packed`` — the production graph with every row mutation mirrored into
  a :class:`WordRows` of 8-bit words, so even the small graphs here span
  several words, and both tables compared after each mutation;
* ``packed-array`` — the same with 64-bit words (``array('Q')``).

The ids are those of the row backends the graph once chose between; a
test parametrized over :data:`BACKENDS` runs its scenario once plain and
twice with the int rows held, step by step, to an independent layout.
"""

import sys
from array import array
from typing import List, Optional

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

    def clear(self) -> None:
        self.down, self.up, self.words = [], [], 0

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

    def connect(self, src: int, dst: int) -> None:
        descendants, ancestors = self.down[dst], self.up[src]
        for serial in self._bits(ancestors):
            _or_into(self.down[serial], descendants)
        for serial in self._bits(descendants):
            _or_into(self.up[serial], ancestors)

    def discard(self, serial: int, max_cone: int) -> Optional[int]:
        ancestors = [a for a in self._bits(self.up[serial]) if a != serial]
        descendants = [d for d in self._bits(self.down[serial])
                       if d != serial]
        cone = len(ancestors) + len(descendants)
        if cone > max_cone:
            return None
        word, bit = divmod(serial, self.width)
        keep = ((1 << self.width) - 1) ^ (1 << bit)
        for ancestor in ancestors:
            self.down[ancestor][word] &= keep
        for descendant in descendants:
            self.up[descendant][word] &= keep
        self.zero_node(serial)
        return cone

    def zero_node(self, serial: int) -> None:
        self.down[serial] = self._zero_row()
        self.up[serial] = self._zero_row()

    def rebuild(self, count: int, topo: Optional[List[int]],
                out_serials: List[List[int]],
                in_serials: List[List[int]]) -> None:
        """Closure from scratch, iterated to a fixpoint: one pass in
        topological order settles it, and a cycle (``topo`` is ``None``)
        takes as many passes as it needs."""
        self.words = -(-count // self.width)
        down = [self._singleton(serial) for serial in range(count)]
        up = [self._singleton(serial) for serial in range(count)]
        order = list(range(count)) if topo is None else topo
        for table, edges, sweep in ((down, out_serials, order[::-1]),
                                    (up, in_serials, order)):
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

    def as_ints(self):
        """Both tables as lists of Python ints, bit ``t`` = serial ``t``."""
        return ([self._to_int(row) for row in self.down],
                [self._to_int(row) for row in self.up])

    @staticmethod
    def _to_int(row: array) -> int:
        if sys.byteorder == "big" and row.itemsize > 1:
            row = array(row.typecode, row)
            row.byteswap()
        return int.from_bytes(row.tobytes(), "little")


def _or_into(target: array, source: array) -> None:
    for index, word in enumerate(source):
        target[index] |= word


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

        def _discard(self, serial: int, max_cone: int) -> Optional[int]:
            cone = self.word_rows.discard(serial, max_cone)
            assert super()._discard(serial, max_cone) == cone
            self._check_rows()
            return cone

        def _rebuild_rows(self, count, topo, out_serials, in_serials):
            super()._rebuild_rows(count, topo, out_serials, in_serials)
            self.word_rows.rebuild(count, topo, out_serials, in_serials)
            self._check_rows()

        def _index_reset_empty(self) -> None:
            super()._index_reset_empty()
            self.word_rows.clear()
            self._check_rows()

        def prune_committed(self, root_value) -> int:
            # Eviction zeroes the rows of every serial it turns into a
            # hole, while the index is current.
            valid = self._built_gen == self._gen
            before = list(self._indexed)
            pruned = super().prune_committed(root_value)
            if valid and self._indexed:
                for serial, node in enumerate(before):
                    if node is not None and self._indexed[serial] is None:
                        self.word_rows.zero_node(serial)
            self._check_rows()
            return pruned

    RowCheckedGraph.__name__ = f"RowCheckedGraph[{backend}]"
    return RowCheckedGraph
