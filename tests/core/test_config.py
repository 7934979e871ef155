"""Unit tests for the cluster configuration."""

import pytest

from repro.core import ThunderboltConfig
from repro.errors import ConfigError


def test_defaults_valid():
    config = ThunderboltConfig()
    assert config.engine == "ce"
    assert config.k_prime is None  # rotation disabled, like the paper


def test_faults_tolerated():
    assert ThunderboltConfig(n_replicas=4).faults_tolerated == 1
    assert ThunderboltConfig(n_replicas=16).faults_tolerated == 5
    assert ThunderboltConfig(n_replicas=64).faults_tolerated == 21


def test_engine_validation():
    with pytest.raises(ConfigError):
        ThunderboltConfig(engine="magic")


def test_ce_streaming_spelling_maps_to_ce():
    """The end-to-end benchmark's workloads still spell the CE engine
    "ce-streaming"; that one spelling maps to "ce"."""
    assert ThunderboltConfig(engine="ce-streaming").engine == "ce"
    assert ThunderboltConfig().with_changes(
        engine="ce-streaming").engine == "ce"


@pytest.mark.parametrize("engine", ["streaming", "ce_streaming", "CE",
                                    "ce-streaming ", ""])
def test_other_unknown_engines_still_raise(engine):
    with pytest.raises(ConfigError):
        ThunderboltConfig(engine=engine)


def test_replica_count_validation():
    with pytest.raises(ConfigError):
        ThunderboltConfig(n_replicas=0)


def test_k_prime_must_exceed_k_silent():
    with pytest.raises(ConfigError):
        ThunderboltConfig(k_prime=5, k_silent=5)
    ThunderboltConfig(k_prime=6, k_silent=5)  # valid


def test_k_prime_positive():
    with pytest.raises(ConfigError):
        ThunderboltConfig(k_prime=0)


def test_k_silent_positive():
    with pytest.raises(ConfigError):
        ThunderboltConfig(k_silent=0)


def test_negative_batch_rejected():
    with pytest.raises(ConfigError):
        ThunderboltConfig(batch_size=-1)


def test_with_changes():
    base = ThunderboltConfig(n_replicas=4)
    changed = base.with_changes(engine="occ", batch_size=77)
    assert changed.engine == "occ"
    assert changed.batch_size == 77
    assert base.engine == "ce"  # original untouched

