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


@pytest.mark.parametrize("engine", ["serial", "occ"])
def test_shard_lanes_need_a_ce_engine(engine):
    """Lanes drain CE committed work; asking for them under an engine
    that never builds them fails at construction instead of silently
    running without."""
    with pytest.raises(ConfigError, match="shard_lanes"):
        ThunderboltConfig(engine=engine, shard_lanes=True)
    ThunderboltConfig(engine=engine)  # valid without lanes
