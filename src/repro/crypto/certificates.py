"""Quorum certificates.

A DAG vertex becomes *certified* once 2f+1 distinct replicas have signed its
digest (§2 of the paper).  :class:`CertificateBuilder` accumulates votes and
emits a :class:`Certificate` when the quorum is reached; certificates can be
verified independently against the key registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.crypto.digest import Encoded, canonical_encode
from repro.crypto.keys import KeyRegistry, Signature
from repro.errors import CryptoError


def quorum_size(n: int) -> int:
    """2f+1 for n = 3f+1 replicas (rounds up for other n)."""
    if n < 1:
        raise CryptoError(f"invalid replica count: {n}")
    f = (n - 1) // 3
    return 2 * f + 1


def weak_quorum_size(n: int) -> int:
    """f+1 — enough to include one honest replica."""
    if n < 1:
        raise CryptoError(f"invalid replica count: {n}")
    f = (n - 1) // 3
    return f + 1


@dataclass(frozen=True)
class Certificate:
    """Attests that a quorum signed ``digest`` (for ``round_number`` /
    ``origin`` — the proposing replica)."""

    digest: str
    origin: int
    round_number: int
    signatures: Tuple[Signature, ...]

    @property
    def signers(self) -> FrozenSet[int]:
        return frozenset(sig.signer.owner for sig in self.signatures)

    def verify(self, registry: KeyRegistry, n: int) -> None:
        """Raise :class:`CryptoError` unless this is a valid 2f+1 quorum of
        distinct signers over the digest."""
        needed = quorum_size(n)
        if len(self.signers) < needed:
            raise CryptoError(
                f"certificate for {self.digest[:8]} has {len(self.signers)} "
                f"distinct signers, needs {needed}")
        payload = vote_payload(self.digest, self.origin, self.round_number)
        for signature in self.signatures:
            registry.require_valid(payload, signature)


def vote_message(digest: str, origin: int, round_number: int) -> dict:
    """The canonical message a replica signs when voting for a vertex."""
    return {"vote": digest, "origin": origin, "round": round_number}


def vote_payload(digest: str, origin: int, round_number: int) -> Encoded:
    """:func:`vote_message` encoded once, for every signer and verifier of
    the vertex to share (``Block.vote_payload`` carries it)."""
    return Encoded(canonical_encode(
        vote_message(digest, origin, round_number)))


class CertificateBuilder:
    """Accumulates votes for one vertex until a quorum forms."""

    def __init__(self, digest: str, origin: int, round_number: int,
                 n: int, payload: Encoded) -> None:
        self.digest = digest
        self.origin = origin
        self.round_number = round_number
        self.n = n
        #: What each vote signs: the vertex's ``Block.vote_payload``.
        self._payload = payload
        self._votes: Dict[int, Signature] = {}

    @property
    def vote_count(self) -> int:
        return len(self._votes)

    def add_vote(self, signature: Signature, registry: KeyRegistry) -> None:
        """Record one replica's vote; duplicate votes are idempotent."""
        registry.require_valid(self._payload, signature)
        self._votes[signature.signer.owner] = signature

    @property
    def complete(self) -> bool:
        return len(self._votes) >= quorum_size(self.n)

    def build(self) -> Certificate:
        """Emit the certificate; requires a complete quorum."""
        if not self.complete:
            raise CryptoError(
                f"only {len(self._votes)} votes of {quorum_size(self.n)} needed")
        ordered = tuple(self._votes[owner] for owner in sorted(self._votes))
        return Certificate(digest=self.digest, origin=self.origin,
                           round_number=self.round_number, signatures=ordered)
