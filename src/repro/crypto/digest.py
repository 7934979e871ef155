"""Deterministic content digests.

Blocks, votes, and certificates are identified by digests of a canonical
serialization.  We use BLAKE2b-128 from the standard library: fast, stable
across runs, and collision-resistant far beyond what the simulation needs.
"""

from __future__ import annotations

import hashlib
from typing import Any

DIGEST_BYTES = 16


def digest_bytes(data: bytes) -> str:
    """Hex digest of raw bytes."""
    return hashlib.blake2b(data, digest_size=DIGEST_BYTES).hexdigest()


class Encoded(bytes):
    """The canonical encoding of a message, made once and carried with it:
    signing and verifying MAC these bytes as they are, so n voters and
    2f+1 checks of one vertex do not each encode the same vote again."""


def canonical_encode(value: Any) -> bytes:
    """A canonical byte encoding for the plain-data values we hash.

    Supports the JSON-ish subset used by protocol objects: ``None``, bools,
    ints, floats, strings, bytes, and (nested) lists/tuples/dicts with
    string-sortable keys, plus any object whose type writes its own
    encoding with ``canonical_into(parts)``.  Deterministic across runs and
    platforms.
    """
    parts: list[bytes] = []
    encode_into(value, parts)
    return b"".join(parts)


#: The seed encoder's ``isinstance`` order: how a subclass is encoded.
_BASES = (bool, int, float, str, bytes, list, tuple, dict)


def encode_into(value: Any, parts: list, kind: Any = None) -> None:
    """Append ``value``'s canonical encoding to ``parts``."""
    # Dispatch on the exact type, what protocol objects are made of first;
    # a subclass is encoded as the first of ``_BASES`` it is an instance of.
    if kind is None:
        kind = type(value)
    if kind is str:
        encoded = value.encode("utf-8")
        parts.append(b"S%d:%b" % (len(encoded), encoded))
    elif kind is int:
        parts.append(b"I%b;" % str(value).encode())
    elif kind is dict:
        keys = sorted(value, key=str)
        parts.append(b"M%d{" % len(keys))
        for key in keys:
            encoded = str(key).encode("utf-8")
            parts.append(b"S%d:%b" % (len(encoded), encoded))
            item = value[key]
            if type(item) is int:
                parts.append(b"I%d;" % item)
            else:
                encode_into(item, parts)
        parts.append(b"}")
    elif kind is list or kind is tuple:
        parts.append(b"L%d[" % len(value))
        for item in value:
            if type(item) is int:
                parts.append(b"I%d;" % item)
            else:
                encode_into(item, parts)
        parts.append(b"]")
    elif value is None:
        parts.append(b"N")
    elif kind is bool:
        parts.append(b"T" if value else b"F")
    elif kind is float:
        parts.append(b"D%b;" % repr(value).encode())
    elif kind is bytes:
        parts.append(b"B%d:" % len(value) + value)
    elif hasattr(kind, "canonical_into"):
        value.canonical_into(parts)
    else:
        for base in _BASES:
            if isinstance(value, base):
                return encode_into(value, parts, base)
        raise TypeError(f"cannot canonically encode {type(value).__name__}")


def digest_of(value: Any) -> str:
    """Digest of any canonically encodable value."""
    return digest_bytes(canonical_encode(value))
