"""Contract protocol and registry.

A *contract function* is a generator function: it receives its arguments,
yields :class:`~repro.contracts.ops.ReadOp` / ``WriteOp`` descriptors, is
sent the read values back, and finally ``return``s an application-level
result.  Contract functions must be deterministic and idempotent given the
values they read (the paper's data-model assumption), which makes preplay
and re-execution sound.

``run_inline`` executes a contract directly against a mapping — the code
path used by serial execution (the Tusk baseline) and by commit-time
validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Mapping, Tuple

from repro.contracts.ops import Operation, ReadOp, WriteOp
from repro.errors import ContractError

#: The shape of a contract body: a generator yielding operations.
ContractBody = Callable[..., Generator[Operation, Any, Any]]


class ContractRegistry:
    """Maps contract names to bodies; every replica holds the same registry
    (contracts are deployed code, identical everywhere).

    A registration is the body alone: the concurrency controller learns a
    transaction's keys from the operations it issues, never from a
    declaration (§8).
    """

    def __init__(self) -> None:
        self._contracts: Dict[str, ContractBody] = {}

    def register(self, name: str, body: ContractBody) -> None:
        if name in self._contracts:
            raise ContractError(f"contract {name!r} already registered")
        self._contracts[name] = body

    def get(self, name: str) -> ContractBody:
        body = self._contracts.get(name)
        if body is None:
            raise ContractError(f"unknown contract {name!r}")
        return body

    def __contains__(self, name: str) -> bool:
        return name in self._contracts

    def names(self) -> List[str]:
        return sorted(self._contracts)


@dataclass
class ExecutionRecord:
    """Everything observed while executing one contract invocation.

    ``read_set`` maps key → value observed; ``write_set`` maps key → last
    value written.  These are exactly the preplay outputs a shard proposer
    publishes in its block (§4).  ``op_count`` counts the operations run.
    """

    read_set: Dict[str, Any] = field(default_factory=dict)
    write_set: Dict[str, Any] = field(default_factory=dict)
    op_count: int = 0
    result: Any = None

    @property
    def keys_touched(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.read_set) | set(self.write_set)))


def run_inline(body: ContractBody, args: tuple,
               state: Mapping[str, Any],
               default: Any = 0) -> ExecutionRecord:
    """Execute a contract to completion against ``state``.

    Reads see ``state`` overlaid with the contract's own earlier writes
    (read-your-writes); missing keys read ``default``.  The caller applies
    ``record.write_set`` if it decides to commit.
    """
    record = ExecutionRecord()
    generator = body(*args)
    try:
        op = next(generator)
        while True:
            record.op_count += 1
            if isinstance(op, ReadOp):
                if op.key in record.write_set:
                    value = record.write_set[op.key]
                else:
                    value = state.get(op.key, default)
                    # Only first-reads from the outside world belong in the
                    # read set used for validation.
                    record.read_set.setdefault(op.key, value)
                op = generator.send(value)
            elif isinstance(op, WriteOp):
                record.write_set[op.key] = op.value
                op = generator.send(None)
            else:
                raise ContractError(
                    f"contract yielded a non-operation: {op!r}")
    except StopIteration as stop:
        record.result = stop.value
    return record
