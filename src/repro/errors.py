"""Exception hierarchy shared across the Thunderbolt reproduction.

Every package raises subclasses of :class:`ReproError` so callers can catch
library failures without masking programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven incorrectly."""


class NetworkError(ReproError):
    """A message could not be routed or a channel is misconfigured."""


class CryptoError(ReproError):
    """Signature or certificate verification failed."""


class StorageError(ReproError):
    """The key-value store rejected an operation."""


class ContractError(ReproError):
    """A smart contract aborted with an application-level failure."""


class TransactionAborted(ReproError):
    """Raised inside an executor when the concurrency controller aborts the
    running transaction; the executor catches it and re-executes."""

    def __init__(self, tx_id: int, reason: str = "") -> None:
        super().__init__(f"transaction {tx_id} aborted: {reason}")
        self.tx_id = tx_id
        self.reason = reason


class SerializationError(ReproError):
    """The dependency graph could not produce a valid serial order."""


class ConsensusError(ReproError):
    """The DAG layer detected an inconsistency (missing causal history,
    invalid certificate, equivocation)."""


class ConfigError(ReproError):
    """Invalid configuration parameters."""
