"""Simulated public-key signatures.

The paper's replicas sign messages with a public/private key pair.  Inside a
single-process simulation real Ed25519 would only add constant CPU cost, so
we substitute a structurally faithful scheme: a signature is a keyed hash of
the message digest, verifiable by anyone holding the public key.  Forgery is
impossible without the private seed, which honest code never shares — giving
the same guarantees the protocol logic relies on.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.digest import Encoded, canonical_encode
from repro.errors import CryptoError


@dataclass(frozen=True)
class PublicKey:
    """Identifies a signer; ``owner`` is the replica id for readability."""

    owner: int
    key_id: str


@dataclass(frozen=True)
class Signature:
    """A signature over a message by one key."""

    signer: PublicKey
    mac: str

    def __post_init__(self) -> None:
        if not self.mac:
            raise CryptoError("empty signature")


class KeyPair:
    """A signing key pair.

    The private seed doubles as the HMAC key; the public key exposes only a
    hash of the seed, so holders of the public key can verify (via the
    :class:`KeyRegistry`, which plays the role of the PKI) but not sign.
    """

    def __init__(self, owner: int, seed: bytes) -> None:
        self.owner = owner
        self._seed = seed
        key_id = hashlib.blake2b(seed, digest_size=8).hexdigest()
        self.public = PublicKey(owner=owner, key_id=key_id)

    @classmethod
    def generate(cls, owner: int, entropy: int) -> "KeyPair":
        """Deterministically derive a key pair from experiment entropy."""
        seed = hashlib.blake2b(
            f"keypair:{owner}:{entropy}".encode(), digest_size=32).digest()
        return cls(owner, seed)

    def _mac(self, message) -> str:
        data = (message if type(message) is Encoded
                else canonical_encode(message))
        return hmac.new(self._seed, data, hashlib.blake2b).hexdigest()[:32]

    def sign(self, message) -> Signature:
        """Sign any canonically encodable message, or its carried
        :class:`~repro.crypto.digest.Encoded` form (same signature)."""
        return Signature(signer=self.public, mac=self._mac(message))

    def _verify(self, message, signature: Signature) -> bool:
        return hmac.compare_digest(self._mac(message), signature.mac)


class KeyRegistry:
    """The simulation's PKI: maps public keys back to their pairs so any
    party can *verify* (but the registry never exposes signing).

    In a deployment this is certificate distribution; here it is a lookup
    table created at cluster start.
    """

    def __init__(self) -> None:
        self._pairs: dict[str, KeyPair] = {}

    def register(self, pair: KeyPair) -> None:
        self._pairs[pair.public.key_id] = pair

    def verify(self, message, signature: Signature) -> bool:
        """True iff ``signature`` is valid for ``message``."""
        pair = self._pairs.get(signature.signer.key_id)
        if pair is None:
            raise CryptoError(f"unknown key {signature.signer.key_id}")
        return pair._verify(message, signature)

    def require_valid(self, message, signature: Signature) -> None:
        """Raise :class:`CryptoError` unless the signature verifies."""
        if not self.verify(message, signature):
            raise CryptoError(
                f"invalid signature from replica {signature.signer.owner}")
