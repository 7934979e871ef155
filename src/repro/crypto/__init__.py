"""Simulated cryptography: digests, signatures, quorum certificates."""

from repro.crypto.certificates import (Certificate, CertificateBuilder,
                                       quorum_size, vote_message,
                                       vote_payload, weak_quorum_size)
from repro.crypto.digest import (Encoded, canonical_encode, digest_bytes,
                                 digest_of)
from repro.crypto.keys import KeyPair, KeyRegistry, PublicKey, Signature

__all__ = [
    "Certificate",
    "CertificateBuilder",
    "Encoded",
    "KeyPair",
    "KeyRegistry",
    "PublicKey",
    "Signature",
    "canonical_encode",
    "digest_bytes",
    "digest_of",
    "quorum_size",
    "vote_message",
    "vote_payload",
    "weak_quorum_size",
]
