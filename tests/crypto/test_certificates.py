"""Unit tests for quorum certificates."""

import pytest

from repro.crypto import (CertificateBuilder, KeyPair, KeyRegistry,
                          quorum_size, vote_message, vote_payload,
                          weak_quorum_size)
from repro.errors import CryptoError


@pytest.fixture
def setup():
    n = 4
    registry = KeyRegistry()
    pairs = [KeyPair.generate(i, 9) for i in range(n)]
    for pair in pairs:
        registry.register(pair)
    return n, registry, pairs


def builder_for(digest, origin, round_number, n):
    return CertificateBuilder(digest, origin, round_number, n,
                              vote_payload(digest, origin, round_number))


def vote(pair, digest, origin=0, round_number=1):
    return pair.sign(vote_message(digest, origin, round_number))


def test_quorum_sizes():
    assert quorum_size(4) == 3
    assert weak_quorum_size(4) == 2
    assert quorum_size(7) == 5
    assert weak_quorum_size(7) == 3
    assert quorum_size(10) == 7
    assert quorum_size(1) == 1


def test_quorum_size_invalid():
    with pytest.raises(CryptoError):
        quorum_size(0)
    with pytest.raises(CryptoError):
        weak_quorum_size(0)


def test_builder_incomplete_until_quorum(setup):
    n, registry, pairs = setup
    builder = builder_for("d1", 0, 1, n)
    for pair in pairs[:2]:
        builder.add_vote(vote(pair, "d1"), registry)
    assert not builder.complete
    with pytest.raises(CryptoError):
        builder.build()


def test_builder_completes_at_quorum(setup):
    n, registry, pairs = setup
    builder = builder_for("d1", 0, 1, n)
    for pair in pairs[:3]:
        builder.add_vote(vote(pair, "d1"), registry)
    assert builder.complete
    cert = builder.build()
    assert cert.signers == {0, 1, 2}


def test_duplicate_votes_idempotent(setup):
    n, registry, pairs = setup
    builder = builder_for("d1", 0, 1, n)
    for _ in range(5):
        builder.add_vote(vote(pairs[0], "d1"), registry)
    assert builder.vote_count == 1


def test_invalid_vote_rejected(setup):
    n, registry, pairs = setup
    builder = builder_for("d1", 0, 1, n)
    bad = vote(pairs[0], "other-digest")
    with pytest.raises(CryptoError):
        builder.add_vote(bad, registry)


def test_certificate_verifies(setup):
    n, registry, pairs = setup
    builder = builder_for("d1", 2, 5, n)
    for pair in pairs[1:]:
        builder.add_vote(pair.sign(vote_message("d1", 2, 5)), registry)
    cert = builder.build()
    cert.verify(registry, n)  # must not raise
    assert cert.origin == 2
    assert cert.round_number == 5


def test_certificate_with_too_few_signers_fails_verify(setup):
    n, registry, pairs = setup
    builder = builder_for("d1", 0, 1, n)
    for pair in pairs[:3]:
        builder.add_vote(vote(pair, "d1"), registry)
    cert = builder.build()
    # drop one signature to fall below the quorum
    from repro.crypto.certificates import Certificate
    weak = Certificate(digest=cert.digest, origin=cert.origin,
                       round_number=cert.round_number,
                       signatures=cert.signatures[:2])
    with pytest.raises(CryptoError):
        weak.verify(registry, n)


def test_certificate_signature_order_deterministic(setup):
    n, registry, pairs = setup

    def build(order):
        builder = builder_for("d1", 0, 1, n)
        for i in order:
            builder.add_vote(vote(pairs[i], "d1"), registry)
        return builder.build()

    assert build([2, 0, 1]).signatures == build([0, 1, 2]).signatures
